/**
 * @file
 * Run metrics: everything the paper's figures need from one run.
 */

#ifndef HCLOUD_CORE_METRICS_HPP
#define HCLOUD_CORE_METRICS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/billing.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "sim/stats.hpp"
#include "sim/timeseries.hpp"
#include "sim/types.hpp"
#include "workload/job.hpp"

namespace hcloud::core {

/** Final record of one job. */
struct JobOutcome
{
    sim::JobId id = 0;
    workload::AppKind kind = workload::AppKind::HadoopRecommender;
    workload::JobClass jobClass = workload::JobClass::Batch;
    bool onReserved = false;
    bool failed = false;
    /** Performance normalized to isolation, [0, 1]. */
    double perfNorm = 0.0;
    /** Batch: completion time from arrival, minutes. */
    double turnaroundMin = 0.0;
    /** LC: achieved tail latency in microseconds. */
    double latencyP99Us = 0.0;
    /** Queueing + spin-up wait before starting, seconds. */
    double waitSec = 0.0;
    /** Times the QoS monitor moved the job. */
    int reschedules = 0;
};

/** Per-instance utilization timeline (Figures 19-20). */
struct InstanceTimeline
{
    sim::InstanceId id = 0;
    std::string type;
    bool reserved = false;
    sim::Time acquiredAt = 0.0;
    sim::Time releasedAt = sim::kTimeNever;
    std::vector<sim::StepSeries::Point> utilization;
};

/**
 * Collects samples and series during a run; finalized into a RunResult.
 * Strategies count through the named methods below; the counters and
 * wait distributions are plain members.
 */
class MetricsCollector
{
  public:
    // --- Job outcomes ----------------------------------------------------
    void recordOutcome(const workload::Job& job);

    // --- Allocation/utilization series -----------------------------------
    void recordAllocation(sim::Time t, double reservedCores,
                          double onDemandCores, double onDemandUsed);
    void recordReservedUtilization(sim::Time t, double utilization);
    void recordInstanceUtilization(sim::InstanceId id,
                                   const std::string& type, bool reserved,
                                   sim::Time acquiredAt, sim::Time t,
                                   double utilization);
    void recordInstanceReleased(sim::InstanceId id, sim::Time t);
    /** Per-app-kind allocated cores split by side (Figure 21). */
    void recordBreakdown(sim::Time t, const std::string& group,
                         bool reserved, double cores);

    // --- Counters ---------------------------------------------------------
    void countAcquisition() { ++acquisitions_; }
    void countImmediateRelease() { ++immediateReleases_; }
    void countReschedule() { ++reschedules_; }
    void countSpotInterruption() { ++spotInterruptions_; }
    void countQueued() { ++queuedJobs_; }
    void recordSpinUpWait(sim::Duration d) { spinUpWaits_.add(d); }
    void recordQueueWait(sim::Duration d) { queueWaits_.add(d); }

    // --- Accessors used when building the RunResult ----------------------
    const std::vector<JobOutcome>& outcomes() const { return outcomes_; }
    const sim::StepSeries& reservedAllocated() const
    {
        return reservedAllocated_;
    }
    const sim::StepSeries& onDemandAllocated() const
    {
        return onDemandAllocated_;
    }
    const sim::StepSeries& onDemandUsed() const { return onDemandUsed_; }
    const sim::StepSeries& reservedUtilization() const
    {
        return reservedUtilSeries_;
    }
    const std::map<sim::InstanceId, InstanceTimeline>& timelines() const
    {
        return timelines_;
    }
    const std::map<std::string, sim::StepSeries>& breakdown() const
    {
        return breakdown_;
    }
    std::size_t acquisitions() const { return acquisitions_; }
    std::size_t immediateReleases() const { return immediateReleases_; }
    std::size_t reschedules() const { return reschedules_; }
    std::size_t spotInterruptions() const { return spotInterruptions_; }
    std::size_t queuedJobs() const { return queuedJobs_; }
    const sim::SampleSet& spinUpWaits() const { return spinUpWaits_; }
    const sim::SampleSet& queueWaits() const { return queueWaits_; }

  private:
    std::vector<JobOutcome> outcomes_;
    sim::StepSeries reservedAllocated_;
    sim::StepSeries onDemandAllocated_;
    sim::StepSeries onDemandUsed_;
    sim::StepSeries reservedUtilSeries_;
    std::map<sim::InstanceId, InstanceTimeline> timelines_;
    std::map<std::string, sim::StepSeries> breakdown_;
    std::size_t acquisitions_ = 0;
    std::size_t immediateReleases_ = 0;
    std::size_t reschedules_ = 0;
    std::size_t spotInterruptions_ = 0;
    std::size_t queuedJobs_ = 0;
    sim::SampleSet spinUpWaits_;
    sim::SampleSet queueWaits_;
};

/**
 * Wall-clock profile of one run, surfaced through RunResult and the
 * sweep scheduler. All durations in seconds.
 *
 * Telemetry is *about* the run, not part of the simulated result: it is
 * serialized into JSON reports but deliberately excluded from the JSONL
 * event trace and from determinism digests, because wall-clock durations
 * vary between executions even when the simulation is bit-identical.
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

/**
 * Everything a figure driver needs from one completed run.
 */
struct RunResult
{
    std::string strategy;
    std::string scenario;
    bool profiling = true;

    /** Simulated time when the last job finished. */
    sim::Time makespan = 0.0;

    /** Final record of every job. */
    std::vector<JobOutcome> outcomes;

    // Per-class performance distributions.
    sim::SampleSet batchTurnaroundMin;
    sim::SampleSet batchPerfNorm;
    sim::SampleSet lcLatencyUs;
    sim::SampleSet lcPerfNorm;
    /** Normalized perf split by mapping side (Figure 6). */
    sim::SampleSet perfReserved;
    sim::SampleSet perfOnDemand;

    /** Time-averaged reserved-pool utilization. */
    double reservedUtilizationAvg = 0.0;

    /** Usage meter, re-pricable under any PricingModel. */
    cloud::BillingMeter billing;

    // Series for Figures 9, 18-21.
    sim::StepSeries reservedAllocated;
    sim::StepSeries onDemandAllocated;
    sim::StepSeries onDemandUsed;
    sim::StepSeries reservedUtilization;
    sim::StepSeries softLimitHistory;
    std::map<sim::InstanceId, InstanceTimeline> instanceTimelines;
    std::map<std::string, sim::StepSeries> breakdown;

    // Counters.
    std::size_t jobCount = 0;
    std::size_t failedJobs = 0;
    std::size_t acquisitions = 0;
    std::size_t immediateReleases = 0;
    std::size_t reschedules = 0;
    std::size_t spotInterruptions = 0;
    std::size_t queuedJobs = 0;
    sim::SampleSet spinUpWaits;
    sim::SampleSet queueWaits;

    /** The structured event stream recorded by the run's obs::Tracer
     *  (empty when tracing is disabled). */
    obs::TraceBuffer trace;
    /** Cluster-state samples recorded by the run's obs::Timeline
     *  (empty when timeline sampling is disabled). */
    obs::TimelineBuffer timeline;
    /** The timeline cadence the run was configured with (virtual
     *  seconds). */
    sim::Duration timelineCadence = 0.0;
    /** Wall-clock phase profile (excluded from determinism digests). */
    RunTelemetry telemetry;

    /** Mean normalized performance across every job. */
    double meanPerfNorm() const;

    /** Amortized run cost under a pricing model (Figures 5, 11, 12, 17). */
    cloud::CostBreakdown cost(const cloud::PricingModel& pricing) const;

    /**
     * Absolute cost of operating this workload for @p horizon under a
     * pricing model, reservations charged as full terms (Figure 13).
     */
    cloud::CostBreakdown costOverHorizon(const cloud::PricingModel& pricing,
                                         sim::Duration horizon) const;
};

} // namespace hcloud::core

#endif // HCLOUD_CORE_METRICS_HPP
