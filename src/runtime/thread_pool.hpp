/**
 * @file
 * Fork-join fan-outs (parallelFor / parallelMap) and the worker-count
 * knob every runtime consumer shares. No thread outlives a fan-out, and
 * the runtime knows nothing about experiments. Design constraints:
 *
 *  1. Determinism of *results* is the caller's problem (indices must not
 *     share mutable state); determinism of *structure* is ours:
 *     parallelMap() returns results in index order, and when several
 *     indices throw, the exception of the lowest failing index is the
 *     one rethrown, so a failing run reports the same error regardless
 *     of scheduling. Every index runs, even after a failure.
 *  2. A thread count of one (e.g. HCLOUD_THREADS=1) runs a plain loop on
 *     the caller's thread: the serial path starts no thread at all.
 *  3. Indices are pulled one at a time from a shared counter, so uneven
 *     index costs balance without any weights.
 */

#ifndef HCLOUD_RUNTIME_THREAD_POOL_HPP
#define HCLOUD_RUNTIME_THREAD_POOL_HPP

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace hcloud::runtime {

/** std::thread::hardware_concurrency(), never less than 1. */
std::size_t hardwareThreads();

/** Why a thread-count string was rejected (see parseThreadCount). */
struct ThreadCountError
{
    /** The offending value, verbatim. */
    std::string value;
    /** Human-readable rejection reason ("not a positive integer", ...). */
    std::string reason;
};

/**
 * Parse a worker-count token as used by HCLOUD_THREADS: a positive
 * base-10 integer with no trailing characters.
 *
 * @return the count, or std::nullopt with @p error (when non-null)
 * filled in. Rejections are structured, never silent: "0", "abc", "4x",
 * "" and negative values all produce an error instead of a fallback.
 */
std::optional<std::size_t> parseThreadCount(const char* text,
                                            ThreadCountError* error);

/**
 * Worker count used when none is requested explicitly: the
 * HCLOUD_THREADS environment variable if set, otherwise
 * hardwareThreads(). HCLOUD_THREADS=1 therefore forces every runtime
 * consumer onto the serial path.
 *
 * @throws std::invalid_argument when HCLOUD_THREADS is set but is not a
 * positive integer, never a silent fallback ("4x" must not become a
 * 64-way fan-out). CLIs validate at the edge (exp::parseBenchCli) and
 * report the structured reason instead.
 */
std::size_t defaultThreadCount();

/**
 * Invoke fn(i) for every i in [0, n) on min(threads, n) threads, the
 * caller being one of them: min(threads, n) - 1 threads are started,
 * they and the caller pull indices from one atomic counter, and all are
 * joined before the call returns. Rethrows the exception of the lowest
 * failing index once every index has run.
 *
 * @param threads worker count; 0 = defaultThreadCount(), <= 1 = a plain
 *                loop on the caller
 */
void parallelFor(std::size_t threads, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

/**
 * Compute fn(i) for every i in [0, n) through parallelFor() and return
 * the results in index order — the deterministic merge every runtime
 * consumer builds on.
 */
template <typename Fn>
auto
parallelMap(std::size_t threads, std::size_t n, Fn fn)
    -> std::vector<decltype(fn(std::size_t{}))>
{
    using Result = decltype(fn(std::size_t{}));
    // Distinct elements of a vector<bool> share words: writing them from
    // different threads would race.
    static_assert(!std::is_same_v<Result, bool>,
                  "parallelMap cannot fill a std::vector<bool>");
    std::vector<Result> results(n);
    parallelFor(threads, n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
}

} // namespace hcloud::runtime

#endif // HCLOUD_RUNTIME_THREAD_POOL_HPP
