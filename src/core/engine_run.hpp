/**
 * @file
 * EngineRun: one wired-up simulation instance, steppable in virtual time.
 *
 * Historically the whole engine loop lived inside Engine::run() as one
 * closed-over function: setup, arrival scheduling, the progress tick and
 * finalization were all locals of a single call. The serving layer
 * (srv::EngineSession) needs the same machinery held open across HTTP
 * requests — create the session, submit jobs as they arrive, advance
 * virtual time on demand, snapshot reports — so the loop now lives here
 * as an object and Engine::run() drives it in one shot.
 *
 * Two driving modes share every line of job lifecycle code:
 *
 *  - batch (runBatch): jobs come from a sealed ArrivalTrace; arrivals are
 *    scheduled up front, the progress tick is installed last, and the
 *    simulator runs to completion. Event scheduling order is kept
 *    literally identical to the historical Engine::run() so golden traces
 *    and event counts stay bit-identical.
 *  - session (beginSession/submit/advanceTo): the tick chain is installed
 *    first and never self-terminates; jobs arrive incrementally with
 *    non-decreasing arrival times and the clock only moves when the owner
 *    asks. Because scenario arrival times are continuous (sums of
 *    exponential draws) they never collide with the tick grid (multiples
 *    of EngineConfig::tick), so the different installation order cannot
 *    flip any same-instant tie-break — the decision stream for a fixed
 *    seed is bit-identical to the batch path (asserted in
 *    tests/test_srv_session.cpp).
 */

#ifndef HCLOUD_CORE_ENGINE_RUN_HPP
#define HCLOUD_CORE_ENGINE_RUN_HPP

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/provider.hpp"
#include "cloud/provider_profile.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"
#include "obs/tracer.hpp"
#include "profiling/quasar.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/job.hpp"
#include "workload/trace.hpp"

namespace hcloud::core {

/**
 * One live engine instance: simulator, provider, profiler, strategy and
 * the job-lifecycle loop, owned together and steppable in virtual time.
 */
class EngineRun
{
  public:
    /** Builds the strategy driving the run (same seam as Engine). */
    using StrategyFactory =
        std::function<std::unique_ptr<Strategy>(EngineContext&)>;

    /** Wires simulator, provider, Quasar and strategy (no jobs yet). */
    EngineRun(const EngineConfig& config,
              const cloud::ProviderProfile& profile,
              const StrategyFactory& factory);
    ~EngineRun();

    EngineRun(const EngineRun&) = delete;
    EngineRun& operator=(const EngineRun&) = delete;

    /**
     * Re-arm this engine for a fresh run without giving back its big
     * allocations: the simulator keeps its event-queue slab and callback
     * storage, the tracer/timeline rings keep their grown capacity, and
     * the job vectors and id index keep theirs. Everything stateful —
     * provider, Quasar, metrics, strategy, RNG streams — is rebuilt from
     * @p config exactly as the constructor would, so a reset run is
     * bit-identical to a fresh-engine run with the same arguments
     * (asserted in tests/test_exp_sweep.cpp). This is what lets
     * exp::SweepScheduler reuse one engine per worker across a
     * cells x seeds grid instead of paying construction per task.
     */
    void reset(const EngineConfig& config,
               const cloud::ProviderProfile& profile,
               const StrategyFactory& factory);

    const EngineConfig& config() const { return config_; }

    /** The run's tracer (srv::EngineSession hooks decisions off it). */
    obs::Tracer& tracer() { return tracer_; }

    /** The run's cluster-state timeline (srv::EngineSession serves the
     *  tenant timeline endpoint and live gauges off it). */
    const obs::Timeline& timeline() const { return timeline_; }

    /** Current virtual time. */
    sim::Time now() const { return simulator_.now(); }

    std::size_t jobCount() const { return jobs_.size(); }
    std::size_t finishedCount() const { return finished_; }

    // ---- Batch mode ----------------------------------------------------

    /**
     * Execute @p trace to completion, exactly as Engine::run() always
     * has: start the strategy, schedule every arrival in trace order,
     * install the tick chain last, run the simulator dry, finalize.
     * Call at most once per wiring (reset() re-arms), and not after
     * beginSession().
     */
    RunResult runBatch(const workload::ArrivalTrace& trace,
                       const std::string& scenarioName);

    // ---- Session mode --------------------------------------------------

    /**
     * Enter incremental mode: the strategy sizes its reserved pool from
     * @p trace (which session owners generate from their scenario config)
     * and the progress tick is installed immediately. Jobs then arrive
     * via submit(); the clock moves via advanceTo(). The tick chain never
     * stops on its own — a drained tenant must keep ticking so later
     * submissions still integrate progress.
     */
    void beginSession(const workload::ArrivalTrace& trace);

    enum class SubmitStatus
    {
        Accepted,
        ArrivalInPast, ///< spec.arrival < now(): virtual time is monotonic
        DuplicateId,   ///< a job with this id already exists
    };

    /**
     * Add one job to the running session and schedule its arrival event.
     * Does not advance the clock — callers advanceTo(spec.arrival) (or
     * later) to make the arrival (and the decision, when profiling is
     * off) actually happen.
     */
    SubmitStatus submit(const workload::JobSpec& spec);

    /** Run the simulation forward to virtual time @p t.
     *  @return false (and do nothing) when t < now(): virtual time is
     *  monotonic and callers must surface the rejection, not hide it. */
    bool advanceTo(sim::Time t);

    /** The job with @p id, or nullptr (session mode only). */
    const workload::Job* job(sim::JobId id) const;

    /**
     * Non-destructive result snapshot of the session so far: outcomes,
     * billing, series, counters and the setup and sim-loop seconds, but
     * not the trace buffer (which stays attached for future decisions)
     * and no finalize time (nothing was finalized).
     */
    RunResult liveResult(const std::string& scenarioName);

    /** Destructive final result (takes the trace; the run is spent). */
    RunResult finalize(const std::string& scenarioName);

  private:
    void onJobStarted(workload::Job& job);
    void finishJob(workload::Job& job, sim::Time when, bool failed);
    /** Progress integration for one job at tick time @p t. */
    void advanceJob(workload::Job& job, sim::Time t);
    /** Periodic sampling of allocation/utilization series. */
    void sample(sim::Time t);
    /** Build and record one cluster-state timeline sample. Reads only
     *  memoized/read-only state, so it never moves an RNG draw. */
    void sampleTimeline(sim::Time t);
    /** Main tick body; @return false to end the chain (batch only). */
    bool onTick();
    /** Schedule the arrival event of jobs_[i]. */
    void scheduleArrival(std::size_t i);
    /** The arrival event of jobs_[i] fired. */
    void arrivalFired(std::size_t i);
    void installTick();
    /** Everything finalize() and liveResult() share. */
    void buildResult(RunResult& result, const std::string& scenarioName);
    /** Construct provider, Quasar, metrics, context and strategy from the
     *  current config/profile/root RNG. Shared by the constructor and
     *  reset() so both wire in exactly the same order (the RNG child
     *  derivation order is part of the determinism contract). */
    void wire(const StrategyFactory& factory);

    EngineConfig config_;
    cloud::ProviderProfile profile_;
    /** Setup, sim-loop and finalize seconds of the current wiring. */
    RunTelemetry telemetry_;
    /** When setup began: construction or reset(). Setup ends when the
     *  batch run or the session starts. */
    std::chrono::steady_clock::time_point setupStart_;
    sim::Simulator simulator_;
    sim::Rng root_;
    obs::Tracer tracer_;
    // Rebuilt per wiring (reset() re-emplaces them in dependency order);
    // engaged for the whole life of the object otherwise.
    std::optional<cloud::CloudProvider> provider_;
    std::optional<profiling::Quasar> quasar_;
    std::optional<MetricsCollector> metrics_;
    std::optional<EngineContext> ctx_;
    std::unique_ptr<Strategy> strategy_;

    std::vector<std::unique_ptr<workload::Job>> jobs_;
    /** Session-mode id -> jobs_ index (batch mode leaves it empty). */
    std::unordered_map<sim::JobId, std::size_t> jobIndex_;
    std::size_t finished_ = 0;
    std::vector<workload::Job*> active_;
    /** Arrived latency-critical services (unserved-latency samples). */
    std::vector<workload::Job*> lcJobs_;
    sim::Time nextSample_ = 0.0;
    obs::Timeline timeline_;
    sim::Time nextTimelineSample_ = 0.0;
    std::size_t compactedAtFinished_ = 0;
    /** Session mode: the tick chain must outlive job droughts. */
    bool sessionMode_ = false;
};

} // namespace hcloud::core

#endif // HCLOUD_CORE_ENGINE_RUN_HPP
