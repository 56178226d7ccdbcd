/**
 * @file
 * Timeline: bounded, sink-backed sampling of simulated-cluster state.
 *
 * The decision trace (tracer.hpp) records what the engine *did*; the
 * timeline records what the cluster *looked like* while it did it — one
 * TimelineSample per sampling tick with instance counts by market and
 * type, effective-quality percentiles, queue depth, external-load
 * pressure, spot price and accumulated cost. Figure-style aggregations,
 * replay diffs and live gauges all read this stream instead of
 * reconstructing state post-hoc.
 *
 * The ring, the sink and the accounting are obs::Recorder's
 * (recorder.hpp). What the timeline adds:
 *  - near-zero cost when disabled: the engine checks enabled() before
 *    building a sample, so a disabled timeline costs a predicted branch
 *    per tick and allocates nothing;
 *  - the `seq` stamp, the since-cursor, latest-sample and snapshot reads
 *    the daemon serves, and the sampling cadence;
 *  - deterministic and *perturbation-free*: samples are built exclusively
 *    from read-only accessors (memoized quality/load values, OuProcess
 *    value() without advanceTo()), so enabling the timeline cannot move a
 *    single RNG draw — the decision trace stays byte-identical with the
 *    timeline on or off, and the sample stream itself is byte-identical
 *    across runner thread counts and between batch and session driving.
 *
 * Enablement mirrors HCLOUD_TRACE: Mode Auto defers to the
 * HCLOUD_TIMELINE environment switch (obs::envSwitch).
 */

#ifndef HCLOUD_OBS_TIMELINE_HPP
#define HCLOUD_OBS_TIMELINE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/types.hpp"

namespace hcloud::obs {

class JsonWriter;
struct JsonValue;

/** Timeline knobs, embedded in core::EngineConfig. */
struct TimelineConfig : RecorderConfig
{
    /** Environment switch consulted under Mode::Auto. */
    static constexpr const char* kEnv = "HCLOUD_TIMELINE";

    TimelineConfig() { ringCapacity = std::size_t{1} << 12; }

    /** Virtual-time sampling period in seconds. Samples land on the first
     *  engine tick at or after each cadence boundary, so for a fixed tick
     *  the sample times are identical in batch and session driving. */
    sim::Duration cadence = 30.0;

    bool resolveEnabled() const
    {
        return RecorderConfig::resolveEnabled(kEnv);
    }
};

/**
 * Sampling cadence carried by HCLOUD_TIMELINE_CADENCE (virtual seconds),
 * or @p fallback when unset, unparsable, non-finite or non-positive.
 * Applied at the CLI edge only — engine behaviour never reads it
 * directly, so journaled daemon sessions replay with their recorded
 * cadence.
 */
sim::Duration envTimelineCadence(sim::Duration fallback);

/** One cluster-state snapshot at virtual time t. */
struct TimelineSample
{
    sim::Time t = 0.0;
    /** 0-based sample index within the run (the since-cursor key). */
    std::uint64_t seq = 0;

    // Instances by market.
    std::uint32_t reservedInstances = 0;
    std::uint32_t onDemandInstances = 0;
    std::uint32_t spotInstances = 0;
    /** Live instance counts by catalog type name, sorted by name;
     *  zero-count types are omitted. */
    std::vector<std::pair<std::string, std::uint32_t>> typeCounts;

    // Capacity and usage, in cores.
    double reservedCores = 0.0;
    double reservedUsed = 0.0;
    double onDemandCores = 0.0;
    double onDemandUsed = 0.0;
    /** Reserved-pool utilization in [0, 1] (0 with no pool). */
    double utilization = 0.0;

    // Effective-quality distribution over live cluster instances
    // (memoized per-tick values; never advances a quality process).
    double qualityMean = 0.0;
    double qualityP5 = 0.0;
    double qualityP50 = 0.0;
    double qualityP95 = 0.0;

    // Load.
    std::uint32_t queueLength = 0; ///< jobs queued for the reserved pool
    std::uint32_t activeJobs = 0;  ///< started and not yet finished
    std::uint32_t runningJobs = 0; ///< actively progressing
    std::uint64_t finishedJobs = 0;
    /** Mean external-tenant utilization over the distinct physical hosts
     *  backing cluster instances (dedicated hosts report residual
     *  network load only). */
    double externalLoad = 0.0;
    /** Spot price for the full-server class, as a fraction of the
     *  on-demand rate (last materialized market value). */
    double spotPrice = 0.0;
    /** Jobs currently inside a QoS-violation streak. */
    std::uint32_t qosTracked = 0;
    /** Accumulated cost so far, amortized-reservation view ($). */
    double costTotal = 0.0;
};

/** A run's sample stream plus bookkeeping, as stored in a RunResult. */
using TimelineBuffer = RecordBuffer<TimelineSample>;

/** Serialize @p sample as a single JSON object (no trailing newline). */
std::string toJson(const TimelineSample& sample);

extern template class Recorder<TimelineSample>;

/**
 * Collects TimelineSamples for one engine run. Not thread-safe; each run
 * owns its own timeline (parallel sweeps stay TSan-clean for free).
 */
class Timeline : public Recorder<TimelineSample>
{
  public:
    explicit Timeline(TimelineConfig config = {});

    const TimelineConfig& config() const { return config_; }

    /** Record one sample (stamps seq; applies the ring bound).
     *  No-op when disabled. */
    void record(TimelineSample sample);

    /** Samples retained so far, oldest first (size(), operator[]). */
    const Recorder<TimelineSample>& samples() const { return *this; }

    /** Copy the most recent sample into @p out.
     *  @return false when nothing has been recorded (or all evicted). */
    bool latest(TimelineSample* out) const;

    /**
     * Retained samples with seq >= @p sinceSeq, downsampled to every
     * @p stride-th sample (seq % stride == 0, so a fixed stride selects
     * the same samples regardless of cursor position), capped at
     * @p maxSamples. stride < 1 is treated as 1.
     */
    std::vector<TimelineSample> since(std::uint64_t sinceSeq,
                                      std::uint64_t stride,
                                      std::size_t maxSamples) const;

    /** Non-destructive buffer snapshot (sink stays open; liveResult). */
    TimelineBuffer snapshot() const;

    /**
     * Re-arm the timeline for a new run under @p config: counters reset,
     * any open sink is closed and a new one opened per the config. The
     * sample ring keeps its grown capacity (core::EngineRun::reset).
     * Samples still held (take() not called) are discarded.
     */
    void reset(TimelineConfig config);

  private:
    TimelineConfig config_;
};

/**
 * Write @p sample's fields into an already-open JSON object. Shared by
 * toJson() (JSONL sinks), the report writer and the daemon's timeline
 * endpoint so every surface emits byte-identical sample text.
 */
void timelineSampleJson(JsonWriter& w, const TimelineSample& sample);

/** Parse a sample out of an already-parsed JSON object.
 *  @return false when @p v is not a timeline sample. */
bool sampleFromJson(const JsonValue& v, TimelineSample* out);

/**
 * Parse @p line (as produced by toJson) back into a sample.
 * @return false when the line is not a timeline sample (e.g. a run
 * header).
 */
bool sampleFromJsonLine(const std::string& line, TimelineSample* out);

} // namespace hcloud::obs

#endif // HCLOUD_OBS_TIMELINE_HPP
