#include "runtime/sharded_executor.hpp"

namespace hcloud::runtime {

ShardedExecutor::ShardedExecutor(std::size_t shards)
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

ShardedExecutor::Turn::Turn(Shard& shard) : shard_(shard)
{
    obs::SpanTracer* st = obs::currentSpanTracer();
    const bool traced =
        st && st->enabled() && obs::currentSpanContext().valid();
    const std::uint64_t enteredNs = traced ? obs::SpanTracer::nowNs() : 0;
    shard_.depth.fetch_add(1, std::memory_order_relaxed);
    shard_.mutex.lock();
    if (!traced)
        return;
    const obs::SpanContext ctx = obs::currentSpanContext();
    try {
        st->span(ctx.trace, st->newSpanId(), ctx.span, "strand.wait",
                 enteredNs, obs::SpanTracer::nowNs());
    } catch (...) {
        release(); // no destructor runs for a throwing constructor
        throw;
    }
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
        const std::lock_guard<std::mutex> lock(shard->mutex);
    }
}

} // namespace hcloud::runtime
