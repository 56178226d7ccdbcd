/**
 * @file
 * ShardedExecutor: N serial "strands" multiplexed onto one ThreadPool.
 *
 * The serving layer pins every tenant session to a shard
 * (shard = tenantSeq % shards) so all work for one session executes
 * serially — engine state needs no locking — while different shards run
 * concurrently on the pool. Classic strand pattern: each shard keeps a
 * FIFO of pending tasks plus a `scheduled` flag; the first task posted
 * to an idle shard submits a drain job to the pool, and the drain job
 * runs tasks until the FIFO empties (re-checking under the shard lock
 * before clearing `scheduled`, so a task posted concurrently is never
 * stranded).
 *
 * call() first tries to claim the shard for the calling thread: when the
 * shard is idle (`scheduled` is false, so its FIFO is empty) it sets
 * `scheduled` under the shard lock and runs the task inline, with no
 * pool hop and no wake-up. Whatever is posted or called while the claim
 * is held queues behind it; releasing the claim hands that queue to the
 * pool. So the pool runs only contended hand-offs and post()s.
 *
 * Guarantees:
 *  - tasks of one shard run in post/call order, never concurrently,
 *    whether they run inline on a caller or on a pool worker;
 *  - call() blocks until the task has run and returns its result;
 *    exceptions propagate to the caller (an inline task that throws
 *    releases its claim first);
 *  - drain() and the destructor wait for an inline holder too;
 *  - on a serial pool (pool.serial() == true) post() runs an idle
 *    shard's task inline as well, preserving the repo-wide "thread
 *    count 1 is deterministic and stack-traceable" property.
 *
 * Spans: a strand hop records `strand.wait` (enqueue to start) and
 * `strand.exec` under the caller's span context; an inline call records
 * the same two spans, the wait with zero length.
 *
 * Deadlock note: a call() that finds its shard busy parks the calling
 * thread until a pool worker drains the shard. Callers must not be pool
 * workers themselves (the HTTP layer's workers are HttpServer-owned
 * threads, a disjoint set), otherwise a full pool could wait on itself.
 * Nor may a task call() into its own shard: the claim it holds is what
 * the nested call would wait for.
 */

#ifndef HCLOUD_RUNTIME_SHARDED_EXECUTOR_HPP
#define HCLOUD_RUNTIME_SHARDED_EXECUTOR_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "runtime/thread_pool.hpp"

namespace hcloud::runtime {

/** Per-shard serial execution on top of a shared ThreadPool. */
class ShardedExecutor
{
  public:
    using Task = std::function<void()>;

    /**
     * @param pool   shared pool the shard drain jobs run on
     * @param shards number of independent strands (>= 1; 0 is bumped
     *               to 1)
     */
    ShardedExecutor(ThreadPool& pool, std::size_t shards);

    /** Drains every shard before returning. */
    ~ShardedExecutor();

    ShardedExecutor(const ShardedExecutor&) = delete;
    ShardedExecutor& operator=(const ShardedExecutor&) = delete;

    std::size_t shards() const { return shards_.size(); }

    /** Fire-and-forget @p task on @p shard, after all earlier tasks. */
    void post(std::size_t shard, Task task);

    /**
     * Run @p fn on @p shard and return its result; blocks the calling
     * thread, rethrows anything @p fn throws. Runs inline on the caller
     * when the shard is idle, else queues behind the shard's work.
     */
    template <typename Fn>
    auto call(std::size_t shard, Fn&& fn) -> decltype(fn())
    {
        const std::size_t index = shard % shards_.size();
        if (claim(index)) {
            const Claim held(*this, index); // released even if fn throws
            markInlineWait();
            const obs::SpanScope exec("strand.exec");
            return fn();
        }
        return handOff(index, std::forward<Fn>(fn));
    }

    /** Block until every shard's FIFO is empty and no task is running. */
    void drain();

    /**
     * Tasks currently queued or running on @p shard. Lock-free read of
     * an atomic maintained by post()/call()/runShard(); /statusz polls
     * this to make strand backup visible without touching the shard
     * mutexes.
     */
    std::size_t queueDepth(std::size_t shard) const
    {
        return shards_[shard % shards_.size()]->depth.load(
            std::memory_order_relaxed);
    }

    /** queueDepth() for every shard, in shard order. */
    std::vector<std::size_t> queueDepths() const;

    /** Tasks completed across all shards since construction. */
    std::uint64_t tasksExecuted() const;

  private:
    struct Shard
    {
        std::mutex mutex;
        std::deque<Task> queue;
        /** A drain job is queued or running, or a caller holds the
         *  shard inline; either way new work queues. */
        bool scheduled = false;
        std::condition_variable idle;
        /** Queued + running tasks (inc on post/claim, dec after run). */
        std::atomic<std::size_t> depth{0};
        /** Tasks completed on this shard. */
        std::atomic<std::uint64_t> executed{0};
    };

    /** Releases an inline claim on scope exit. */
    class Claim
    {
      public:
        Claim(ShardedExecutor& executor, std::size_t index)
            : executor_(executor), index_(index)
        {
        }
        ~Claim() { executor_.release(index_); }
        Claim(const Claim&) = delete;
        Claim& operator=(const Claim&) = delete;

      private:
        ShardedExecutor& executor_;
        std::size_t index_;
    };

    /** Take an idle shard for the calling thread (false when busy). */
    bool claim(std::size_t index);
    /** End an inline claim; work queued behind it goes to the pool. */
    void release(std::size_t index);
    /** Zero-length strand.wait span for an inline call (when traced). */
    static void markInlineWait();

    /** Contended call(): queue @p fn behind the shard's work and park
     *  until a pool worker has run it. */
    template <typename Fn>
    auto handOff(std::size_t index, Fn&& fn) -> decltype(fn())
    {
        using Result = decltype(fn());
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        std::exception_ptr error;
        // Result slot; unused (and never engaged) for void tasks.
        std::optional<std::conditional_t<std::is_void_v<Result>, char,
                                         Result>>
            slot;
        post(index, [&] {
            try {
                if constexpr (std::is_void_v<Result>)
                    fn();
                else
                    slot.emplace(fn());
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(m);
            done = true;
            cv.notify_one();
        });
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return done; });
        if (error)
            std::rethrow_exception(error);
        if constexpr (!std::is_void_v<Result>)
            return std::move(*slot);
    }

    void runShard(std::size_t index);

    ThreadPool& pool_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace hcloud::runtime

#endif // HCLOUD_RUNTIME_SHARDED_EXECUTOR_HPP
