/**
 * @file
 * Wall-clock phase profiling for one run: named phase accumulators plus
 * the RunTelemetry record surfaced per run-matrix cell.
 *
 * Telemetry is *about* the run, not part of the simulated result: it is
 * serialized into JSON reports but deliberately excluded from the JSONL
 * event trace and from determinism digests, because wall-clock durations
 * vary between executions even when the simulation is bit-identical.
 */

#ifndef HCLOUD_OBS_PHASE_PROFILER_HPP
#define HCLOUD_OBS_PHASE_PROFILER_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace hcloud::obs {

/** Accumulates wall-clock seconds per named phase. */
class PhaseProfiler
{
  public:
    using Clock = std::chrono::steady_clock;

    void add(std::string_view phase, double seconds);

    /** Accumulated seconds for @p phase (0 when never entered). */
    double seconds(std::string_view phase) const;

    const std::map<std::string, double, std::less<>>& phases() const
    {
        return phases_;
    }

    /** RAII phase timer: accumulates on destruction. */
    class Scope
    {
      public:
        Scope(PhaseProfiler& profiler, std::string_view phase)
            : profiler_(profiler), phase_(phase), start_(Clock::now())
        {
        }

        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        ~Scope()
        {
            profiler_.add(
                phase_,
                std::chrono::duration<double>(Clock::now() - start_)
                    .count());
        }

      private:
        PhaseProfiler& profiler_;
        std::string phase_;
        Clock::time_point start_;
    };

  private:
    std::map<std::string, double, std::less<>> phases_;
};

/**
 * Wall-clock profile of one run, surfaced through RunResult and the
 * run-matrix runners. All durations in seconds.
 */
struct RunTelemetry
{
    /** Scenario trace generation paid by this run (0 when it reused a
     *  cached trace). */
    double traceGenSec = 0.0;
    /** Engine setup: provider, strategy, arrival scheduling. */
    double setupSec = 0.0;
    /** The discrete-event simulation loop. */
    double simLoopSec = 0.0;
    /** Result finalization (aggregation into RunResult). */
    double finalizeSec = 0.0;
    /** Simulator events processed by the sim loop. */
    std::uint64_t eventsProcessed = 0;
    /** Scheduled callbacks that spilled to the heap (oversized capture).
     *  Not serialized into reports; tests pin this to zero. */
    std::uint64_t callbackHeapAllocs = 0;
    /** eventsProcessed / simLoopSec (0 when the loop was too fast to
     *  time). */
    double eventsPerSec = 0.0;
    /** Worker count of the sweep that produced this run. */
    std::size_t threads = 1;
};

} // namespace hcloud::obs

#endif // HCLOUD_OBS_PHASE_PROFILER_HPP
