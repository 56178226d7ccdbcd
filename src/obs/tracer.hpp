/**
 * @file
 * Tracer: bounded, filtered collection of TraceEvents during a run.
 *
 * Design constraints:
 *  - near-zero cost when disabled: the emit helpers check one bool
 *    before building an event, so a disabled tracer costs a predicted
 *    branch per call site;
 *  - bounded memory: a ring of `ringCapacity` events; once full, the
 *    oldest event is dropped (and counted) per new event — unless a
 *    TraceSink is attached (TraceConfig::sinkPath), in which case the
 *    ring is drained to the sink on wrap (and at take()) so the on-disk
 *    stream is complete and `dropped` stays 0;
 *  - deterministic: the tracer is owned by one engine run and recorded
 *    from the single-threaded simulation loop, so for a fixed root seed
 *    the event stream is bit-identical at any runner thread count —
 *    wall-clock never enters an event.
 *
 * Enablement mirrors HCLOUD_THREADS: EngineConfig carries a TraceConfig
 * whose Auto mode defers to the HCLOUD_TRACE environment variable
 * (unset/"0"/"off" = disabled; "1"/"on"/"true" = enabled; any other
 * value = enabled, and names a default JSONL output path for benches).
 */

#ifndef HCLOUD_OBS_TRACER_HPP
#define HCLOUD_OBS_TRACER_HPP

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_event.hpp"

namespace hcloud::obs {

class TraceSink;

/** Tracing knobs, embedded in core::EngineConfig. */
struct TraceConfig
{
    enum class Mode
    {
        Auto, ///< follow the HCLOUD_TRACE environment variable
        Off,
        On,
    };

    Mode mode = Mode::Auto;
    /** Ring size in events; the oldest event is dropped when full. */
    std::size_t ringCapacity = 1u << 16;
    /** Events below this severity are not recorded. */
    Severity minSeverity = Severity::Debug;
    /** Only categories whose bit is set are recorded. */
    unsigned categoryMask = kAllCategories;

    /**
     * When non-empty, this run's events stream to a JSONL TraceSink at
     * exactly this path: the ring becomes a flush buffer and `dropped`
     * stays 0, so traces are bounded only by disk. One run must own the
     * path exclusively — for exp::runSweep runs use sinkStem instead.
     */
    std::string sinkPath;
    /**
     * Per-run sink derivation stem for exp::runSweep: each run derives
     * its own sinkPath ("<stem>.<sweep>-<cell>-<seed>.part"), and
     * exp::writeTraceJsonl merges the parts in deterministic result
     * order. Ignored by the tracer itself when sinkPath is empty.
     */
    std::string sinkStem;

    /** Resolve mode (consulting the environment under Auto). */
    bool resolveEnabled() const;
};

/** True when HCLOUD_TRACE asks for tracing. */
bool envTraceEnabled();

/**
 * JSONL output path carried by HCLOUD_TRACE, when its value is neither a
 * boolean-ish token nor empty; "" otherwise.
 */
std::string envTracePath();

/** The recorded stream plus bookkeeping, as stored in a RunResult. */
struct TraceBuffer
{
    /** Retained in-memory events in chronological record order (empty
     *  when the full stream went to a sink file instead). */
    std::vector<TraceEvent> events;
    /** Events accepted by the filters (>= events.size()). */
    std::uint64_t recorded = 0;
    /** Events evicted by the ring bound (0 whenever a sink is healthy). */
    std::uint64_t dropped = 0;
    /** Sink file holding the complete stream ("" = ring-only run). */
    std::string sinkPath;
    /** Events flushed to the sink (== recorded while sinkOk). */
    std::uint64_t flushed = 0;
    /** False when a sink was requested but opening/writing it failed —
     *  the events above then hold the ring-bounded fallback. */
    bool sinkOk = true;
};

/**
 * Collects TraceEvents for one engine run. Not thread-safe; each run
 * owns its own tracer (which is what makes parallel sweeps TSan-clean).
 */
class Tracer
{
  public:
    explicit Tracer(TraceConfig config = {});
    ~Tracer();

    bool enabled() const { return enabled_; }
    const TraceConfig& config() const { return config_; }

    /** The attached sink, or nullptr (disabled, none configured, or the
     *  sink broke and the tracer fell back to ring eviction). */
    const TraceSink* sink() const { return sink_.get(); }

    /** Record one event (applies severity/category filters and the ring
     *  bound). No-op when disabled. */
    void record(TraceEvent event);

    /**
     * Stamp every subsequently recorded event with span trace id
     * @p trace (0 clears). srv::EngineSession sets this around each
     * session-mode call so trace_inspect can join wire requests to
     * their provisioning decisions; batch runs never set it, keeping
     * their JSONL byte-identical.
     */
    void setActiveTrace(std::uint64_t trace) { activeTrace_ = trace; }
    std::uint64_t activeTrace() const { return activeTrace_; }

    /**
     * Install an observer invoked for every event that passes the
     * severity/category filters, before the event enters the ring (so it
     * sees events a full ring would evict). The observer runs on the
     * recording thread — the simulation loop — and must be cheap and
     * must not call back into the tracer. One observer at most;
     * pass nullptr to remove. srv::EngineSession uses this to harvest
     * provisioning decisions without keeping the whole ring alive.
     */
    void setOnRecord(std::function<void(const TraceEvent&)> observer)
    {
        onRecord_ = std::move(observer);
    }

    // Convenience emitters; each checks enabled() before building the
    // event so disabled call sites stay cheap.
    void job(EventKind kind, sim::Time t, sim::JobId id,
             double value = 0.0, std::string_view detail = {},
             Severity severity = Severity::Info)
    {
        if (!enabled_)
            return;
        emit(kind, severity, DecisionReason::None, t, id, 0, value,
             detail);
    }

    void instance(EventKind kind, sim::Time t, sim::InstanceId id,
                  double value = 0.0, std::string_view detail = {},
                  Severity severity = Severity::Info)
    {
        if (!enabled_)
            return;
        emit(kind, severity, DecisionReason::None, t, 0, id, value,
             detail);
    }

    void decision(sim::Time t, DecisionReason reason, sim::JobId job = 0,
                  sim::InstanceId instance = 0, double value = 0.0,
                  std::string_view detail = {},
                  Severity severity = Severity::Info)
    {
        if (!enabled_)
            return;
        emit(EventKind::Decision, severity, reason, t, job, instance,
             value, detail);
    }

    void controller(EventKind kind, sim::Time t, double value,
                    std::string_view detail = {},
                    Severity severity = Severity::Debug)
    {
        if (!enabled_)
            return;
        emit(kind, severity, DecisionReason::None, t, 0, 0, value,
             detail);
    }

    /** Events retained so far (chronological). */
    const std::vector<TraceEvent>& events() const { return events_; }
    std::uint64_t recordedCount() const { return recorded_; }
    std::uint64_t droppedCount() const { return dropped_; }

    /**
     * Move the collected stream out (the tracer is then empty). With a
     * sink attached, the remaining ring contents are flushed first and
     * the sink file is closed; the returned buffer then carries the sink
     * path instead of in-memory events.
     */
    TraceBuffer take();

    /**
     * Re-arm the tracer for a new run under @p config: counters reset,
     * any open sink is closed and a new one opened per the config, the
     * record observer and active span trace are cleared. The in-memory
     * ring keeps whatever capacity it already grew, so engine-reuse
     * sweeps (core::EngineRun::reset) never reallocate it. Events still
     * held (take() not called) are discarded.
     */
    void reset(TraceConfig config);

  private:
    void emit(EventKind kind, Severity severity, DecisionReason reason,
              sim::Time t, sim::JobId job, sim::InstanceId instance,
              double value, std::string_view detail);
    /** Drain the ring (chronological order) into the sink; on failure
     *  drops the sink and latches sinkFailed_. */
    void flushRingToSink();

    TraceConfig config_;
    bool enabled_;
    std::vector<TraceEvent> events_;
    /** Index of the chronologically-oldest event once the ring wrapped. */
    std::size_t head_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    std::unique_ptr<TraceSink> sink_;
    /** A sink was requested but could not be opened or written. */
    bool sinkFailed_ = false;
    /** Span trace id stamped onto recorded events (0 = none). */
    std::uint64_t activeTrace_ = 0;
    /** Post-filter observer (see setOnRecord). */
    std::function<void(const TraceEvent&)> onRecord_;
};

/** Serialize @p event as a single JSON object (no trailing newline). */
std::string toJson(const TraceEvent& event);

/** Write one event per line. */
void writeJsonl(std::ostream& out, const TraceBuffer& buffer);

/**
 * Parse @p line (as produced by toJson) back into an event.
 * @return false when the line is not a trace event (e.g. a run header).
 */
bool eventFromJsonLine(const std::string& line, TraceEvent* out);

} // namespace hcloud::obs

#endif // HCLOUD_OBS_TRACER_HPP
