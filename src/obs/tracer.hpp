/**
 * @file
 * Tracer: filtered collection of TraceEvents during a run, on top of the
 * obs::Recorder ring and sink (recorder.hpp has the bounded-memory,
 * sink and accounting contracts).
 *
 * What the tracer adds:
 *  - near-zero cost when disabled: the emit helpers check enabled()
 *    before building an event, so a disabled tracer costs a predicted
 *    branch per call site;
 *  - severity and category filters, applied before an event counts as
 *    recorded;
 *  - the active span trace stamp and the onRecord observer used by
 *    srv::EngineSession;
 *  - deterministic: the tracer is owned by one engine run and recorded
 *    from the single-threaded simulation loop, so for a fixed root seed
 *    the event stream is bit-identical at any runner thread count —
 *    wall-clock never enters an event.
 *
 * Enablement mirrors HCLOUD_THREADS: EngineConfig carries a TraceConfig
 * whose Auto mode defers to the HCLOUD_TRACE environment switch
 * (obs::envSwitch).
 */

#ifndef HCLOUD_OBS_TRACER_HPP
#define HCLOUD_OBS_TRACER_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "obs/recorder.hpp"
#include "obs/trace_event.hpp"

namespace hcloud::obs {

/** Tracing knobs, embedded in core::EngineConfig. */
struct TraceConfig : RecorderConfig
{
    /** Environment switch consulted under Mode::Auto. */
    static constexpr const char* kEnv = "HCLOUD_TRACE";

    TraceConfig() { ringCapacity = std::size_t{1} << 16; }

    /** Events below this severity are not recorded. */
    Severity minSeverity = Severity::Debug;
    /** Only categories whose bit is set are recorded. */
    unsigned categoryMask = kAllCategories;

    bool resolveEnabled() const
    {
        return RecorderConfig::resolveEnabled(kEnv);
    }
};

/** A run's event stream plus bookkeeping, as stored in a RunResult. */
using TraceBuffer = RecordBuffer<TraceEvent>;

/** Serialize @p event as a single JSON object (no trailing newline). */
std::string toJson(const TraceEvent& event);

extern template class Recorder<TraceEvent>;

/**
 * Collects TraceEvents for one engine run. Not thread-safe; each run
 * owns its own tracer (which is what makes parallel sweeps TSan-clean).
 * Ring, sink, take() and the counters come from Recorder.
 */
class Tracer : public Recorder<TraceEvent>
{
  public:
    explicit Tracer(TraceConfig config = {});

    const TraceConfig& config() const { return config_; }

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
        if (!enabled())
            return;
        emit(kind, severity, DecisionReason::None, t, id, 0, value,
             detail);
    }

    void instance(EventKind kind, sim::Time t, sim::InstanceId id,
                  double value = 0.0, std::string_view detail = {},
                  Severity severity = Severity::Info)
    {
        if (!enabled())
            return;
        emit(kind, severity, DecisionReason::None, t, 0, id, value,
             detail);
    }

    void decision(sim::Time t, DecisionReason reason, sim::JobId job = 0,
                  sim::InstanceId instance = 0, double value = 0.0,
                  std::string_view detail = {},
                  Severity severity = Severity::Info)
    {
        if (!enabled())
            return;
        emit(EventKind::Decision, severity, reason, t, job, instance,
             value, detail);
    }

    void controller(EventKind kind, sim::Time t, double value,
                    std::string_view detail = {},
                    Severity severity = Severity::Debug)
    {
        if (!enabled())
            return;
        emit(kind, severity, DecisionReason::None, t, 0, 0, value,
             detail);
    }

    /** Events retained so far, oldest first (size(), operator[]). */
    const Recorder<TraceEvent>& events() const { return *this; }

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

    TraceConfig config_;
    /** Span trace id stamped onto recorded events (0 = none). */
    std::uint64_t activeTrace_ = 0;
    /** Post-filter observer (see setOnRecord). */
    std::function<void(const TraceEvent&)> onRecord_;
};

/**
 * Parse @p line (as produced by toJson) back into an event.
 * @return false when the line is not a trace event (e.g. a run header).
 */
bool eventFromJsonLine(const std::string& line, TraceEvent* out);

} // namespace hcloud::obs

#endif // HCLOUD_OBS_TRACER_HPP
