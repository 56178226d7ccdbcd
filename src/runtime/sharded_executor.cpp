#include "runtime/sharded_executor.hpp"

#include "obs/span.hpp"

namespace hcloud::runtime {

ShardedExecutor::ShardedExecutor(ThreadPool& pool, std::size_t shards)
    : pool_(pool)
{
    if (shards == 0)
        shards = 1;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ShardedExecutor::~ShardedExecutor()
{
    drain();
}

void
ShardedExecutor::post(std::size_t shard, Task task)
{
    Shard& s = *shards_[shard % shards_.size()];
    // Span handoff: a strand hop moves work to a pool thread, so the
    // caller's thread-local binding would be lost. Capture it here and
    // restore it inside the task — which also makes the queue wait
    // visible as its own "strand.wait" span.
    if (obs::SpanTracer* st = obs::currentSpanTracer();
        st && st->enabled() && obs::currentSpanContext().valid()) {
        const obs::SpanContext ctx = obs::currentSpanContext();
        const std::uint64_t enqueuedNs = obs::SpanTracer::nowNs();
        task = [st, ctx, enqueuedNs, inner = std::move(task)] {
            const std::uint64_t startNs = obs::SpanTracer::nowNs();
            st->span(ctx.trace, st->newSpanId(), ctx.span, "strand.wait",
                     enqueuedNs, startNs);
            obs::SpanBinding bind(st, ctx);
            obs::SpanScope exec("strand.exec");
            inner();
        };
    }
    bool schedule = false;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.queue.push_back(std::move(task));
        s.depth.fetch_add(1, std::memory_order_relaxed);
        if (!s.scheduled) {
            s.scheduled = true;
            schedule = true;
        }
    }
    if (schedule) {
        const std::size_t index = shard % shards_.size();
        // On serial pools submit() runs inline, so post() degrades to
        // synchronous execution — exactly the deterministic path the
        // single-threaded tests rely on.
        pool_.submit([this, index] { runShard(index); });
    }
}

void
ShardedExecutor::runShard(std::size_t index)
{
    Shard& s = *shards_[index];
    for (;;) {
        Task task;
        {
            std::lock_guard<std::mutex> lock(s.mutex);
            if (s.queue.empty()) {
                // Clearing `scheduled` under the lock closes the race
                // with a concurrent post(): either it sees scheduled
                // and enqueues behind us (we would have seen the task),
                // or it resubmits a fresh drain job.
                s.scheduled = false;
                s.idle.notify_all();
                return;
            }
            task = std::move(s.queue.front());
            s.queue.pop_front();
        }
        task();
        // Decrement after the task ran: depth counts queued + running,
        // so a long task shows as backup instead of vanishing early.
        s.depth.fetch_sub(1, std::memory_order_relaxed);
        s.executed.fetch_add(1, std::memory_order_relaxed);
    }
}

bool
ShardedExecutor::claim(std::size_t index)
{
    Shard& s = *shards_[index];
    std::lock_guard<std::mutex> lock(s.mutex);
    // `scheduled` clear means no drain job and an empty FIFO, so running
    // here cannot overtake or overlap anything posted earlier.
    if (s.scheduled)
        return false;
    s.scheduled = true;
    s.depth.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ShardedExecutor::release(std::size_t index)
{
    Shard& s = *shards_[index];
    s.depth.fetch_sub(1, std::memory_order_relaxed);
    s.executed.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.queue.empty()) {
            s.scheduled = false;
            s.idle.notify_all();
            return;
        }
    }
    // Work queued behind the claim: keep `scheduled` set and let a pool
    // worker drain it, so this caller returns to its own request.
    pool_.submit([this, index] { runShard(index); });
}

void
ShardedExecutor::markInlineWait()
{
    obs::SpanTracer* st = obs::currentSpanTracer();
    if (!st || !st->enabled() || !obs::currentSpanContext().valid())
        return;
    const obs::SpanContext ctx = obs::currentSpanContext();
    const std::uint64_t now = obs::SpanTracer::nowNs();
    st->span(ctx.trace, st->newSpanId(), ctx.span, "strand.wait", now,
             now);
}

std::vector<std::size_t>
ShardedExecutor::queueDepths() const
{
    std::vector<std::size_t> depths;
    depths.reserve(shards_.size());
    for (const std::unique_ptr<Shard>& shard : shards_)
        depths.push_back(shard->depth.load(std::memory_order_relaxed));
    return depths;
}

std::uint64_t
ShardedExecutor::tasksExecuted() const
{
    std::uint64_t total = 0;
    for (const std::unique_ptr<Shard>& shard : shards_)
        total += shard->executed.load(std::memory_order_relaxed);
    return total;
}

void
ShardedExecutor::drain()
{
    for (std::unique_ptr<Shard>& shard : shards_) {
        std::unique_lock<std::mutex> lock(shard->mutex);
        shard->idle.wait(lock, [&] {
            return shard->queue.empty() && !shard->scheduled;
        });
    }
}

} // namespace hcloud::runtime
