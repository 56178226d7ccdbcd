/**
 * @file
 * runtime::ShardedExecutor strand semantics: per-shard FIFO ordering,
 * no concurrent execution within a shard, cross-shard parallelism on the
 * shared pool, blocking call() with results and exceptions, inline
 * execution of call() on an idle shard (and of everything on serial
 * pools), and drain() completeness.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/json.hpp"
#include "obs/span.hpp"
#include "runtime/sharded_executor.hpp"
#include "runtime/thread_pool.hpp"

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

TEST(ShardedExecutor, TasksOnOneShardRunInPostOrder)
{
    runtime::ThreadPool pool(4);
    runtime::ShardedExecutor executor(pool, 2);
    std::vector<int> order;
    for (int i = 0; i < 200; ++i)
        executor.post(0, [i, &order] { order.push_back(i); });
    executor.drain();
    ASSERT_EQ(order.size(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ShardedExecutor, OneShardNeverRunsConcurrently)
{
    runtime::ThreadPool pool(8);
    runtime::ShardedExecutor executor(pool, 1);
    std::atomic<int> inside{0};
    std::atomic<int> maxInside{0};
    std::atomic<int> runs{0};
    // Post from many threads; all tasks land on the one shard.
    std::vector<std::thread> posters;
    for (int t = 0; t < 4; ++t) {
        posters.emplace_back([&] {
            for (int i = 0; i < 100; ++i) {
                executor.post(0, [&] {
                    const int now = inside.fetch_add(1) + 1;
                    int seen = maxInside.load();
                    while (now > seen &&
                           !maxInside.compare_exchange_weak(seen, now)) {
                    }
                    inside.fetch_sub(1);
                    runs.fetch_add(1);
                });
            }
        });
    }
    for (std::thread& t : posters)
        t.join();
    executor.drain();
    EXPECT_EQ(runs.load(), 400);
    EXPECT_EQ(maxInside.load(), 1)
        << "two tasks of one shard overlapped";
}

TEST(ShardedExecutor, DifferentShardsRunConcurrently)
{
    runtime::ThreadPool pool(4);
    runtime::ShardedExecutor executor(pool, 4);
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    std::atomic<bool> go{false};
    for (std::size_t shard = 0; shard < 4; ++shard) {
        executor.post(shard, [&] {
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
            while (now > seen &&
                   !peak.compare_exchange_weak(seen, now)) {
            }
            running.fetch_sub(1);
        });
    }
    executor.drain();
    EXPECT_GE(peak.load(), 2)
        << "shards never overlapped on a 4-thread pool";
}

TEST(ShardedExecutor, CallReturnsValuesAndPropagatesExceptions)
{
    runtime::ThreadPool pool(2);
    runtime::ShardedExecutor executor(pool, 2);
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

TEST(ShardedExecutor, CallInterleavesWithPostsInOrder)
{
    runtime::ThreadPool pool(4);
    runtime::ShardedExecutor executor(pool, 1);
    std::vector<int> order;
    executor.post(0, [&] { order.push_back(1); });
    executor.post(0, [&] { order.push_back(2); });
    const int result = executor.call(0, [&] {
        order.push_back(3);
        return static_cast<int>(order.size());
    });
    EXPECT_EQ(result, 3);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
}

TEST(ShardedExecutor, SerialPoolRunsEverythingInline)
{
    runtime::ThreadPool pool(1); // serial: tasks run on the caller
    ASSERT_TRUE(pool.serial());
    runtime::ShardedExecutor executor(pool, 8);
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id taskThread;
    executor.post(3, [&] { taskThread = std::this_thread::get_id(); });
    EXPECT_EQ(taskThread, self);
    const int v = executor.call(5, [&] {
        EXPECT_EQ(std::this_thread::get_id(), self);
        return 7;
    });
    EXPECT_EQ(v, 7);
    executor.drain(); // trivially complete
}

TEST(ShardedExecutor, SerialPoolStillExcludesConcurrentCallers)
{
    // A serial pool runs tasks inline on the caller — but when several
    // threads share the executor (HTTP workers over a 1-CPU engine
    // pool), one shard must still never run two tasks at once.
    runtime::ThreadPool pool(1);
    ASSERT_TRUE(pool.serial());
    runtime::ShardedExecutor executor(pool, 1);
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
        << "serial-pool call() bypassed shard exclusion";
}

TEST(ShardedExecutor, ShardIndexWrapsModuloShardCount)
{
    runtime::ThreadPool pool(2);
    runtime::ShardedExecutor executor(pool, 3);
    std::atomic<int> hits{0};
    executor.post(3 + 0, [&] { hits.fetch_add(1); });
    executor.post(3 * 7 + 2, [&] { hits.fetch_add(1); });
    executor.drain();
    EXPECT_EQ(hits.load(), 2);
}

TEST(ShardedExecutor, QueueDepthTracksQueuedAndRunningWork)
{
    runtime::ThreadPool pool(4);
    runtime::ShardedExecutor executor(pool, 2);

    // Block shard 0 so posts behind the blocker pile up visibly.
    std::mutex gateMutex;
    std::condition_variable gateCv;
    bool open = false;
    std::atomic<bool> blockerRunning{false};
    executor.post(0, [&] {
        blockerRunning.store(true);
        std::unique_lock<std::mutex> lock(gateMutex);
        gateCv.wait(lock, [&] { return open; });
    });
    while (!blockerRunning.load())
        std::this_thread::yield();

    for (int i = 0; i < 10; ++i)
        executor.post(0, [] {});
    // The blocker is running and 10 tasks are queued behind it.
    EXPECT_EQ(executor.queueDepth(0), 11u);

    {
        std::lock_guard<std::mutex> lock(gateMutex);
        open = true;
    }
    gateCv.notify_all();
    executor.drain();

    for (std::size_t depth : executor.queueDepths())
        EXPECT_EQ(depth, 0u);
    EXPECT_EQ(executor.tasksExecuted(), 11u);
}

TEST(ShardedExecutor, QueueDepthAccountingUnderContention)
{
    runtime::ThreadPool pool(4);
    runtime::ShardedExecutor executor(pool, 4);
    constexpr int kPosters = 4;
    constexpr int kPerPoster = 500;

    // Hammer all shards from several threads while sampling depths
    // concurrently: every sample must be coherent (bounded by what was
    // posted), and the books must balance exactly after drain().
    std::atomic<bool> sampling{true};
    std::thread sampler([&] {
        while (sampling.load()) {
            for (std::size_t depth : executor.queueDepths())
                EXPECT_LE(depth, static_cast<std::size_t>(
                                     kPosters * kPerPoster));
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> posters;
    std::atomic<int> executed{0};
    for (int p = 0; p < kPosters; ++p) {
        posters.emplace_back([&, p] {
            for (int i = 0; i < kPerPoster; ++i) {
                executor.post(static_cast<std::size_t>(p * kPerPoster + i),
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

TEST(ShardedExecutor, SpanBindingCrossesStrandHop)
{
    const std::string path = "/tmp/hcloud_test_executor_spans_" +
                             std::to_string(::getpid()) + ".jsonl";
    obs::SpanTracerConfig config;
    config.sinkPath = path;
    {
        obs::SpanTracer tracer(config);
        ASSERT_TRUE(tracer.enabled());
        runtime::ThreadPool pool(2);
        runtime::ShardedExecutor executor(pool, 1);

        const obs::SpanContext ctx{tracer.newTraceId(),
                                   tracer.newSpanId()};
        std::atomic<std::uint64_t> insideTrace{0};
        {
            obs::SpanBinding bind(&tracer, ctx);
            executor.post(0, [&] {
                insideTrace.store(obs::currentSpanContext().trace);
            });
        }
        executor.drain();
        tracer.flush();
        // The pool thread saw the originating request's trace.
        EXPECT_EQ(insideTrace.load(), ctx.trace);
    }

    // strand.wait + strand.exec spans landed, joined to the trace.
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("\"span\":\"strand.wait\""),
              std::string::npos);
    EXPECT_NE(contents.find("\"span\":\"strand.exec\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(ShardedExecutor, CallOnIdleShardRunsOnCallingThread)
{
    runtime::ThreadPool pool(4);
    ASSERT_FALSE(pool.serial());
    runtime::ShardedExecutor executor(pool, 8);
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id taskThread;
    std::size_t depthInside = 0;
    const int v = executor.call(3, [&] {
        taskThread = std::this_thread::get_id();
        depthInside = executor.queueDepth(3);
        return 7;
    });
    EXPECT_EQ(v, 7);
    EXPECT_EQ(taskThread, self) << "idle-shard call hopped to the pool";
    EXPECT_EQ(depthInside, 1u);
    EXPECT_EQ(executor.queueDepth(3), 0u);
    EXPECT_EQ(executor.tasksExecuted(), 1u);
}

TEST(ShardedExecutor, WorkArrivingDuringInlineCallRunsAfterIt)
{
    runtime::ThreadPool pool(4);
    runtime::ShardedExecutor executor(pool, 1);
    std::mutex orderMutex;
    std::vector<std::string> order;
    std::atomic<int> inside{0};
    std::atomic<int> maxInside{0};
    auto record = [&](const char* name) {
        const int now = inside.fetch_add(1) + 1;
        int seen = maxInside.load();
        while (now > seen && !maxInside.compare_exchange_weak(seen, now)) {
        }
        {
            std::lock_guard<std::mutex> lock(orderMutex);
            order.push_back(name);
        }
        inside.fetch_sub(1);
    };

    Gate gate;
    std::thread::id holderThread;
    std::thread holder([&] {
        executor.call(0, [&] {
            holderThread = std::this_thread::get_id();
            record("holder");
            gate.wait();
        });
    });
    gate.awaitEntered();
    EXPECT_EQ(holderThread, holder.get_id());

    executor.post(0, [&] { record("post1"); });
    executor.post(0, [&] { record("post2"); });
    std::thread caller([&] {
        EXPECT_EQ(executor.call(0,
                                [&] {
                                    record("call");
                                    return 1;
                                }),
                  1);
    });
    // Holder running + two posts + the call, all queued behind it.
    EXPECT_TRUE(eventually([&] { return executor.queueDepth(0) == 4u; }));
    {
        std::lock_guard<std::mutex> lock(orderMutex);
        EXPECT_EQ(order, std::vector<std::string>{"holder"})
            << "work overtook the inline holder";
    }

    gate.open();
    holder.join();
    caller.join();
    executor.drain();
    EXPECT_EQ(order, (std::vector<std::string>{"holder", "post1", "post2",
                                               "call"}));
    EXPECT_EQ(maxInside.load(), 1) << "two tasks of one shard overlapped";
    EXPECT_EQ(executor.queueDepth(0), 0u);
    EXPECT_EQ(executor.tasksExecuted(), 4u);
}

TEST(ShardedExecutor, InlineThrowReleasesTheShard)
{
    runtime::ThreadPool pool(2);
    runtime::ShardedExecutor executor(pool, 1);
    EXPECT_THROW(executor.call(0,
                               []() -> int {
                                   throw std::runtime_error("inline");
                               }),
                 std::runtime_error);
    EXPECT_EQ(executor.queueDepth(0), 0u);
    EXPECT_EQ(executor.call(0, [] { return 5; }), 5);
    std::atomic<bool> posted{false};
    executor.post(0, [&] { posted = true; });
    executor.drain();
    EXPECT_TRUE(posted.load());
    EXPECT_EQ(executor.queueDepth(0), 0u);
}

TEST(ShardedExecutor, DrainWaitsForInlineHolder)
{
    runtime::ThreadPool pool(2);
    runtime::ShardedExecutor executor(pool, 2);
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
        runtime::ThreadPool pool(2);
        runtime::ShardedExecutor executor(pool, 1);
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

    // strand.wait (zero length) and strand.exec, both children of the
    // caller's span.
    std::ifstream in(path);
    std::map<std::string, obs::JsonValue> spans;
    for (std::string line; std::getline(in, line);) {
        obs::JsonValue v = obs::parseJson(line);
        if (const obs::JsonValue* name = v.find("span"))
            spans[name->string] = std::move(v);
    }
    std::remove(path.c_str());
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
    EXPECT_EQ(spans["strand.wait"].find("durNs")->numberOr(-1.0), 0.0);
    EXPECT_EQ(spans["strand.exec"].find("id")->numberOr(0.0),
              static_cast<double>(execSeen));
}

TEST(ShardedExecutor, NoSpanOverheadWithoutBinding)
{
    // Without a bound tracer, post() must not wrap tasks: the executed
    // task sees no span context on the pool thread.
    runtime::ThreadPool pool(2);
    runtime::ShardedExecutor executor(pool, 1);
    std::atomic<bool> hadContext{true};
    executor.post(0, [&] {
        hadContext.store(obs::currentSpanContext().valid() ||
                         obs::currentSpanTracer() != nullptr);
    });
    executor.drain();
    EXPECT_FALSE(hadContext.load());
}

} // namespace
} // namespace hcloud
