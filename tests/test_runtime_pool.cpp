/**
 * @file
 * Tests for the runtime fork-join fan-out: every index exactly once,
 * ordered parallel maps, lowest-index exception selection with every
 * index still run, no more threads than indices, the HCLOUD_THREADS=1
 * serial fallback and strict HCLOUD_THREADS validation
 * (parseThreadCount).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace hcloud::runtime {
namespace {

/** Scoped setenv/unsetenv for HCLOUD_THREADS. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        const char* old = std::getenv(name);
        if (old) {
            had_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char* name_;
    bool had_ = false;
    std::string old_;
};

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    parallelFor(3, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelMapPreservesSubmissionOrder)
{
    const auto out = parallelMap(4, 100, [](std::size_t i) {
        return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ThreadPool, ParallelMapOnEmptyRange)
{
    const auto out = parallelMap(2, 0, [](std::size_t) { return 1; });
    EXPECT_TRUE(out.empty());
}

TEST(ThreadPool, ParallelMapRethrowsLowestIndexException)
{
    for (int attempt = 0; attempt < 5; ++attempt) {
        std::vector<std::atomic<int>> ran(64);
        try {
            parallelMap(4, ran.size(), [&ran](std::size_t i) {
                ++ran[i];
                if (i == 11 || i == 12 || i == 63)
                    throw std::runtime_error(std::to_string(i));
                return i;
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            // Deterministic selection regardless of scheduling.
            EXPECT_STREQ(e.what(), "11");
        }
        // A failure stops no other index.
        for (std::size_t i = 0; i < ran.size(); ++i)
            EXPECT_EQ(ran[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    EXPECT_THROW(parallelFor(2, 100,
                             [](std::size_t i) {
                                 if (i == 40)
                                     throw std::logic_error("x");
                             }),
                 std::logic_error);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ranOn(10);
    std::vector<std::size_t> order;
    parallelFor(1, ranOn.size(), [&](std::size_t i) {
        ranOn[i] = std::this_thread::get_id();
        order.push_back(i);
    });
    for (std::size_t i = 0; i < ranOn.size(); ++i) {
        EXPECT_EQ(ranOn[i], caller) << "index " << i;
        EXPECT_EQ(order[i], i);
    }
    // Inline exceptions still surface, after the later indices ran.
    std::size_t after = 0;
    EXPECT_THROW(parallelFor(1, 3,
                             [&after](std::size_t i) {
                                 if (i == 0)
                                     throw std::runtime_error("serial");
                                 ++after;
                             }),
                 std::runtime_error);
    EXPECT_EQ(after, 2u);
    // And parallelMap degenerates to an ordered serial loop.
    const auto out =
        parallelMap(1, 10, [](std::size_t i) { return i + 1; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i + 1);
}

/**
 * Thread ids that run @p n indices at @p threads workers when every
 * index waits (up to 10 s) for @p rendezvous indices to be in flight at
 * once: a worker then cannot take a second index before that many
 * threads hold one each.
 */
std::set<std::thread::id>
threadsSeen(std::size_t threads, std::size_t n, std::size_t rendezvous)
{
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t arrived = 0;
    std::set<std::thread::id> seen;
    parallelFor(threads, n, [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mutex);
        seen.insert(std::this_thread::get_id());
        ++arrived;
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(10),
                    [&] { return arrived >= rendezvous; });
    });
    return seen;
}

TEST(ThreadPool, ParallelForNeverUsesMoreThreadsThanIndices)
{
    // 16 requested threads over 3 indices: the three indices rendezvous,
    // so each runs on its own thread, and no fourth thread shows up.
    EXPECT_EQ(threadsSeen(16, 3, 3).size(), 3u);
    EXPECT_LE(threadsSeen(16, 3, 1).size(), 3u);
}

TEST(ThreadPool, EnvKnobForcesSerialFallback)
{
    ScopedEnv env("HCLOUD_THREADS", "1");
    EXPECT_EQ(defaultThreadCount(), 1u);
    // 0 = auto -> env knob -> serial: every index on the caller.
    const std::set<std::thread::id> seen = threadsSeen(0, 8, 1);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(*seen.begin(), std::this_thread::get_id());
}

TEST(ThreadPool, EnvKnobParsesWorkerCount)
{
    ScopedEnv env("HCLOUD_THREADS", "6");
    EXPECT_EQ(defaultThreadCount(), 6u);
    // 0 = auto -> six workers, caller included.
    EXPECT_EQ(threadsSeen(0, 6, 6).size(), 6u);
}

TEST(ThreadPool, ParseThreadCountAcceptsPositiveIntegers)
{
    ThreadCountError error;
    EXPECT_EQ(parseThreadCount("1", &error), 1u);
    EXPECT_EQ(parseThreadCount("16", &error), 16u);
    EXPECT_EQ(parseThreadCount("0008", &error), 8u);
}

TEST(ThreadPool, ParseThreadCountRejectsMalformedWithReason)
{
    ThreadCountError error;
    EXPECT_FALSE(parseThreadCount("", &error));
    EXPECT_EQ(error.value, "");
    EXPECT_EQ(error.reason, "empty value");

    EXPECT_FALSE(parseThreadCount("not-a-number", &error));
    EXPECT_EQ(error.value, "not-a-number");
    EXPECT_EQ(error.reason, "not a positive integer");

    EXPECT_FALSE(parseThreadCount("4x", &error));
    EXPECT_EQ(error.reason, "not a positive integer");
    EXPECT_FALSE(parseThreadCount("-2", &error));
    EXPECT_EQ(error.reason, "not a positive integer");
    EXPECT_FALSE(parseThreadCount(" 4", &error));
    EXPECT_EQ(error.reason, "not a positive integer");

    EXPECT_FALSE(parseThreadCount("0", &error));
    EXPECT_EQ(error.value, "0");
    EXPECT_EQ(error.reason, "must be at least 1");

    EXPECT_FALSE(parseThreadCount("99999999999999999999999", &error));
    EXPECT_EQ(error.reason, "out of range");

    // Null error sink is allowed.
    EXPECT_FALSE(parseThreadCount("zero", nullptr));
}

TEST(ThreadPool, EnvKnobRejectsGarbageLoudly)
{
    // The historical behavior silently fell back to hardware
    // concurrency; a malformed knob now surfaces as a structured error
    // (figure CLIs turn it into a parse error up front).
    ScopedEnv env("HCLOUD_THREADS", "not-a-number");
    EXPECT_THROW(defaultThreadCount(), std::invalid_argument);
    try {
        (void)defaultThreadCount();
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("not-a-number"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("not a positive integer"),
                  std::string::npos);
    }
    ScopedEnv zero("HCLOUD_THREADS", "0");
    EXPECT_THROW(defaultThreadCount(), std::invalid_argument);
}

TEST(ThreadPool, EnvKnobUnsetUsesHardwareThreads)
{
    ScopedEnv env("HCLOUD_THREADS", nullptr);
    EXPECT_EQ(defaultThreadCount(), hardwareThreads());
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(hardwareThreads(), 1u);
}

} // namespace
} // namespace hcloud::runtime
