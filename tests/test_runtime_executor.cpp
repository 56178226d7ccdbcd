/**
 * @file
 * runtime::ShardedExecutor strand semantics: no concurrent execution
 * within a shard, cross-shard parallelism, call() on the calling thread
 * with results and exceptions, queue-depth accounting of waiting and
 * running calls, drain() completeness, and the strand.wait / strand.exec
 * spans of a traced call.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/json.hpp"
#include "obs/span.hpp"
#include "runtime/sharded_executor.hpp"

namespace hcloud {
namespace {

/** A latch a task blocks on until the test opens it. */
class Gate
{
  public:
    void wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return open_; });
    }

    /** Block until some task is inside wait(). */
    void awaitEntered()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return entered_; });
    }

    void open()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        open_ = true;
        cv_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool entered_ = false;
    bool open_ = false;
};

/** Spin (yielding) until @p pred holds; false after ~10 s. */
template <typename Pred>
bool
eventually(Pred pred)
{
    for (int i = 0; i < 100'000; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return pred();
}

TEST(ShardedExecutor, OneShardNeverRunsConcurrently)
{
    // Four callers share one shard: each runs its task on its own
    // thread, and the shard's mutex keeps two tasks from overlapping.
    runtime::ShardedExecutor executor(1);
    std::atomic<int> inside{0};
    std::atomic<int> maxInside{0};
    std::atomic<int> sum{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t) {
        callers.emplace_back([&] {
            for (int i = 0; i < 200; ++i) {
                const int got = executor.call(0, [&] {
                    const int now = inside.fetch_add(1) + 1;
                    int seen = maxInside.load();
                    while (now > seen &&
                           !maxInside.compare_exchange_weak(seen, now)) {
                    }
                    inside.fetch_sub(1);
                    return 1;
                });
                sum.fetch_add(got);
            }
        });
    }
    for (std::thread& thread : callers)
        thread.join();
    executor.drain();
    EXPECT_EQ(sum.load(), 800);
    EXPECT_EQ(maxInside.load(), 1)
        << "two tasks of one shard overlapped";
    EXPECT_EQ(executor.tasksExecuted(), 800u);
}

TEST(ShardedExecutor, DifferentShardsRunConcurrently)
{
    runtime::ShardedExecutor executor(4);
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> callers;
    auto task = [&] {
        running.fetch_add(1);
        // Rendezvous: wait until every shard's task is in flight
        // (bounded, so a scheduling hiccup can't hang the test).
        for (int spin = 0; spin < 20'000 && !go; ++spin) {
            if (running.load() == 4)
                go = true;
            std::this_thread::yield();
        }
        int seen = peak.load();
        const int now = running.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        running.fetch_sub(1);
    };
    for (std::size_t shard = 0; shard < 4; ++shard)
        callers.emplace_back([&, shard] { executor.call(shard, task); });
    for (std::thread& thread : callers)
        thread.join();
    executor.drain();
    EXPECT_GE(peak.load(), 2)
        << "callers on different shards never overlapped";
}

TEST(ShardedExecutor, CallReturnsValuesAndPropagatesExceptions)
{
    runtime::ShardedExecutor executor(2);
    const int v = executor.call(1, [] { return 41 + 1; });
    EXPECT_EQ(v, 42);
    const std::string s =
        executor.call(0, [] { return std::string("strand"); });
    EXPECT_EQ(s, "strand");
    EXPECT_THROW(executor.call(0,
                               []() -> int {
                                   throw std::runtime_error("bad");
                               }),
                 std::runtime_error);
    // void call
    bool ran = false;
    executor.call(1, [&ran] { ran = true; });
    EXPECT_TRUE(ran);
}

TEST(ShardedExecutor, ShardIndexWrapsModuloShardCount)
{
    runtime::ShardedExecutor executor(3);
    int hits = 0;
    // Shard 3 is shard 0: its call counts in shard 0's depth.
    executor.call(3 + 0, [&] {
        ++hits;
        EXPECT_EQ(executor.queueDepth(0), 1u);
    });
    executor.call(3 * 7 + 2, [&] {
        ++hits;
        EXPECT_EQ(executor.queueDepth(2), 1u);
    });
    executor.drain();
    EXPECT_EQ(hits, 2);
    EXPECT_EQ(executor.tasksExecuted(), 2u);
}

TEST(ShardedExecutor, QueueDepthTracksQueuedAndRunningWork)
{
    runtime::ShardedExecutor executor(2);

    // Hold shard 0 so callers behind the holder pile up visibly.
    Gate gate;
    std::thread holder([&] { executor.call(0, [&] { gate.wait(); }); });
    gate.awaitEntered();

    std::vector<std::thread> callers;
    for (int i = 0; i < 10; ++i)
        callers.emplace_back([&] { executor.call(0, [] {}); });
    // The holder is running and 10 calls wait behind it.
    EXPECT_TRUE(eventually([&] { return executor.queueDepth(0) == 11u; }));
    EXPECT_EQ(executor.queueDepth(1), 0u);

    gate.open();
    holder.join();
    for (std::thread& caller : callers)
        caller.join();
    executor.drain();

    for (std::size_t depth : executor.queueDepths())
        EXPECT_EQ(depth, 0u);
    EXPECT_EQ(executor.tasksExecuted(), 11u);
}

TEST(ShardedExecutor, QueueDepthAccountingUnderContention)
{
    runtime::ShardedExecutor executor(4);
    constexpr int kPosters = 4;
    constexpr int kPerPoster = 500;

    // Hammer all shards from several threads while sampling depths
    // concurrently: every sample must be coherent (bounded by the
    // number of callers), and the books must balance exactly after
    // drain().
    std::atomic<bool> sampling{true};
    std::thread sampler([&] {
        while (sampling.load()) {
            for (std::size_t depth : executor.queueDepths())
                EXPECT_LE(depth, static_cast<std::size_t>(kPosters));
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> posters;
    std::atomic<int> executed{0};
    for (int p = 0; p < kPosters; ++p) {
        posters.emplace_back([&, p] {
            for (int i = 0; i < kPerPoster; ++i) {
                executor.call(static_cast<std::size_t>(p * kPerPoster + i),
                              [&] { executed.fetch_add(1); });
            }
        });
    }
    for (std::thread& t : posters)
        t.join();
    executor.drain();
    sampling.store(false);
    sampler.join();

    EXPECT_EQ(executed.load(), kPosters * kPerPoster);
    EXPECT_EQ(executor.tasksExecuted(),
              static_cast<std::uint64_t>(kPosters * kPerPoster));
    for (std::size_t depth : executor.queueDepths())
        EXPECT_EQ(depth, 0u);
}

TEST(ShardedExecutor, CallOnIdleShardRunsOnCallingThread)
{
    runtime::ShardedExecutor executor(8);
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id taskThread;
    std::size_t depthInside = 0;
    const int v = executor.call(3, [&] {
        taskThread = std::this_thread::get_id();
        depthInside = executor.queueDepth(3);
        return 7;
    });
    EXPECT_EQ(v, 7);
    EXPECT_EQ(taskThread, self) << "idle-shard call changed threads";
    EXPECT_EQ(depthInside, 1u);
    EXPECT_EQ(executor.queueDepth(3), 0u);
    EXPECT_EQ(executor.tasksExecuted(), 1u);
}

TEST(ShardedExecutor, InlineThrowReleasesTheShard)
{
    runtime::ShardedExecutor executor(1);
    EXPECT_THROW(executor.call(0,
                               []() -> int {
                                   throw std::runtime_error("inline");
                               }),
                 std::runtime_error);
    EXPECT_EQ(executor.queueDepth(0), 0u);
    EXPECT_EQ(executor.call(0, [] { return 5; }), 5);
    // Another thread can take the shard too.
    std::thread other(
        [&] { EXPECT_EQ(executor.call(0, [] { return 6; }), 6); });
    other.join();
    executor.drain();
    EXPECT_EQ(executor.queueDepth(0), 0u);
    EXPECT_EQ(executor.tasksExecuted(), 3u);
}

TEST(ShardedExecutor, DrainWaitsForInlineHolder)
{
    runtime::ShardedExecutor executor(2);
    Gate gate;
    std::thread holder([&] { executor.call(1, [&] { gate.wait(); }); });
    gate.awaitEntered();

    std::atomic<bool> drained{false};
    std::thread drainer([&] {
        executor.drain();
        drained = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(drained.load()) << "drain() returned under an inline holder";
    gate.open();
    holder.join();
    drainer.join();
    EXPECT_TRUE(drained.load());
}

/** The span records of the JSONL file at @p path by name (the last of
 *  each name); the file is removed. */
std::map<std::string, obs::JsonValue>
takeSpans(const std::string& path)
{
    std::map<std::string, obs::JsonValue> spans;
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);) {
            obs::JsonValue v = obs::parseJson(line);
            if (const obs::JsonValue* name = v.find("span"))
                spans[name->string] = std::move(v);
        }
    }
    std::remove(path.c_str());
    return spans;
}

TEST(ShardedExecutor, SpanBindingCoversInlineCall)
{
    const std::string path = "/tmp/hcloud_test_executor_inline_spans_" +
                             std::to_string(::getpid()) + ".jsonl";
    obs::SpanTracerConfig config;
    config.sinkPath = path;
    obs::SpanContext ctx;
    std::uint64_t execSeen = 0;
    {
        obs::SpanTracer tracer(config);
        ASSERT_TRUE(tracer.enabled());
        runtime::ShardedExecutor executor(1);
        ctx = obs::SpanContext{tracer.newTraceId(), tracer.newSpanId()};
        {
            obs::SpanBinding bind(&tracer, ctx);
            executor.call(0, [&] {
                // Inside, the current span is strand.exec.
                EXPECT_EQ(obs::currentSpanContext().trace, ctx.trace);
                execSeen = obs::currentSpanContext().span;
            });
            // The caller's binding is restored afterwards.
            EXPECT_EQ(obs::currentSpanContext().span, ctx.span);
        }
        tracer.flush();
    }

    // strand.wait and then strand.exec, both children of the caller's
    // span.
    std::map<std::string, obs::JsonValue> spans = takeSpans(path);
    ASSERT_EQ(spans.count("strand.wait"), 1u);
    ASSERT_EQ(spans.count("strand.exec"), 1u);
    for (const char* name : {"strand.wait", "strand.exec"}) {
        const obs::JsonValue& span = spans[name];
        EXPECT_EQ(span.find("trace")->numberOr(0.0),
                  static_cast<double>(ctx.trace))
            << name;
        EXPECT_EQ(span.find("parent")->numberOr(0.0),
                  static_cast<double>(ctx.span))
            << name;
    }
    // An idle shard: the wait is just two clock samples apart.
    EXPECT_LT(spans["strand.wait"].find("durNs")->numberOr(-1.0), 1e9);
    EXPECT_EQ(spans["strand.exec"].find("id")->numberOr(0.0),
              static_cast<double>(execSeen));
}

TEST(ShardedExecutor, StrandWaitCoversTimeBehindAHolder)
{
    const std::string path = "/tmp/hcloud_test_executor_wait_spans_" +
                             std::to_string(::getpid()) + ".jsonl";
    obs::SpanTracerConfig config;
    config.sinkPath = path;
    constexpr double kHoldNs = 20e6;
    {
        obs::SpanTracer tracer(config);
        ASSERT_TRUE(tracer.enabled());
        runtime::ShardedExecutor executor(1);
        Gate held;
        // The holder keeps the shard for 20 ms after the traced caller
        // is counted in the shard's depth, which call() does after it
        // samples its entry time.
        std::thread holder([&] {
            executor.call(0, [&] {
                held.wait();
                while (executor.queueDepth(0) < 2)
                    std::this_thread::yield();
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            });
        });
        held.awaitEntered();
        held.open();
        const obs::SpanContext ctx{tracer.newTraceId(), tracer.newSpanId()};
        {
            obs::SpanBinding bind(&tracer, ctx);
            executor.call(0, [] {});
        }
        holder.join();
        tracer.flush();
    }

    std::map<std::string, obs::JsonValue> spans = takeSpans(path);
    ASSERT_EQ(spans.count("strand.wait"), 1u);
    EXPECT_GE(spans["strand.wait"].find("durNs")->numberOr(-1.0), kHoldNs)
        << "strand.wait missed the holder's time";
}

TEST(ShardedExecutor, NoSpanOverheadWithoutBinding)
{
    // Without a bound tracer, call() opens no span: the task sees no
    // span context.
    runtime::ShardedExecutor executor(1);
    std::atomic<bool> hadContext{true};
    std::thread caller([&] {
        executor.call(0, [&] {
            hadContext.store(obs::currentSpanContext().valid() ||
                             obs::currentSpanTracer() != nullptr);
        });
    });
    caller.join();
    executor.drain();
    EXPECT_FALSE(hadContext.load());
}

} // namespace
} // namespace hcloud
