/**
 * @file
 * ShardedExecutor: N serial "strands", each a mutex that a caller takes
 * and runs its task under on its own thread.
 *
 * The serving layer pins every tenant session to a shard
 * (shard = tenantSeq % shards) so all work for one session executes
 * serially — engine state needs no locking of its own — while callers on
 * different shards (the HTTP workers) run concurrently. No task changes
 * threads.
 *
 * Tasks of one shard never run concurrently. Callers that contend for a
 * shard run in the order they get its mutex: their requests are
 * concurrent, so no client can observe that order. A task must not
 * call() into its own shard, since the mutex is not recursive.
 *
 * Spans: when a traced request is bound to the calling thread, call()
 * records `strand.wait` (call entry until the shard is held) and then
 * `strand.exec` as children of the caller's span.
 */

#ifndef HCLOUD_RUNTIME_SHARDED_EXECUTOR_HPP
#define HCLOUD_RUNTIME_SHARDED_EXECUTOR_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/span.hpp"

namespace hcloud::runtime {

/** Per-shard serial execution on the callers' own threads. */
class ShardedExecutor
{
  public:
    /** @param shards number of independent strands (0 is bumped to 1) */
    explicit ShardedExecutor(std::size_t shards);

    /** Waits for every running call before returning. */
    ~ShardedExecutor();

    ShardedExecutor(const ShardedExecutor&) = delete;
    ShardedExecutor& operator=(const ShardedExecutor&) = delete;

    std::size_t shards() const { return shards_.size(); }

    /**
     * Run @p fn on the calling thread while holding @p shard (modulo
     * shards()) and return its result. Anything @p fn throws propagates
     * after the shard is released.
     */
    template <typename Fn>
    auto call(std::size_t shard, Fn&& fn) -> decltype(fn())
    {
        const Turn turn(*shards_[shard % shards_.size()]);
        const obs::SpanScope exec("strand.exec");
        return fn();
    }

    /** Block until no call runs on any shard (locks each shard once). */
    void drain();

    /**
     * Calls currently waiting for or running on @p shard. Lock-free read
     * of an atomic that call() maintains; /statusz polls this to make
     * strand backup visible without touching the shard mutexes.
     */
    std::size_t queueDepth(std::size_t shard) const
    {
        return shards_[shard % shards_.size()]->depth.load(
            std::memory_order_relaxed);
    }

    /** queueDepth() for every shard, in shard order. */
    std::vector<std::size_t> queueDepths() const;

    /** Calls completed across all shards since construction. */
    std::uint64_t tasksExecuted() const;

  private:
    struct Shard
    {
        std::mutex mutex;
        /** Waiting + running calls. */
        std::atomic<std::size_t> depth{0};
        /** Calls completed on this shard. */
        std::atomic<std::uint64_t> executed{0};
    };

    /**
     * One call's hold on a shard: counted in `depth` from entry until it
     * releases the mutex, in `executed` once done. When traced, the
     * constructor records the `strand.wait` span.
     */
    class Turn
    {
      public:
        explicit Turn(Shard& shard);
        ~Turn() { release(); }
        Turn(const Turn&) = delete;
        Turn& operator=(const Turn&) = delete;

      private:
        void release()
        {
            shard_.depth.fetch_sub(1, std::memory_order_relaxed);
            shard_.executed.fetch_add(1, std::memory_order_relaxed);
            shard_.mutex.unlock();
        }

        Shard& shard_;
    };

    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace hcloud::runtime

#endif // HCLOUD_RUNTIME_SHARDED_EXECUTOR_HPP
