#include "obs/tracer.hpp"

#include <cmath>
#include <limits>

#include "obs/json.hpp"

namespace hcloud::obs {

namespace {

constexpr RecorderMetrics kTraceMetrics{
    {"hcloud_trace_events_recorded_total",
     "Trace events accepted past severity/category filters"},
    {"hcloud_trace_events_dropped_total",
     "Trace events evicted from a full ring (no sink)"},
    {"hcloud_trace_ring_occupancy",
     "In-memory events in the most recently harvested ring"},
    {"hcloud_trace_sink_ok",
     "1 when the last harvested tracer's sink was healthy"},
};

} // namespace

template class Recorder<TraceEvent>;

Tracer::Tracer(TraceConfig config) : Recorder(kTraceMetrics)
{
    reset(std::move(config));
}

void
Tracer::reset(TraceConfig config)
{
    config_ = std::move(config);
    rearm(config_, config_.resolveEnabled());
    activeTrace_ = 0;
    onRecord_ = nullptr;
}

void
Tracer::emit(EventKind kind, Severity severity, DecisionReason reason,
             sim::Time t, sim::JobId job, sim::InstanceId instance,
             double value, std::string_view detail)
{
    TraceEvent ev;
    ev.time = t;
    ev.kind = kind;
    ev.severity = severity;
    ev.reason = reason;
    ev.job = job;
    ev.instance = instance;
    ev.value = value;
    ev.detail = std::string(detail);
    record(std::move(ev));
}

void
Tracer::record(TraceEvent event)
{
    if (!enabled())
        return;
    if (event.severity < config_.minSeverity)
        return;
    if (!(config_.categoryMask & categoryBit(categoryOf(event.kind))))
        return;
    if (activeTrace_ != 0 && event.trace == 0)
        event.trace = activeTrace_;
    if (onRecord_)
        onRecord_(event);
    push(std::move(event));
}

std::string
toJson(const TraceEvent& event)
{
    JsonWriter w;
    w.beginObject();
    w.field("t", event.time);
    w.field("kind", toString(event.kind));
    if (event.severity != Severity::Info)
        w.field("sev", toString(event.severity));
    if (event.reason != DecisionReason::None)
        w.field("reason", toString(event.reason));
    if (event.job != 0)
        w.field("job", static_cast<std::uint64_t>(event.job));
    if (event.instance != 0)
        w.field("inst", static_cast<std::uint64_t>(event.instance));
    if (std::isnan(event.value)) {
        // JSON has no NaN/Inf literals; encode them as tagged strings so
        // the round trip preserves them instead of collapsing to 0.
        w.field("value", "NaN");
    } else if (std::isinf(event.value)) {
        w.field("value", event.value > 0.0 ? "Infinity" : "-Infinity");
    } else if (event.value != 0.0) {
        w.field("value", event.value);
    }
    if (!event.detail.empty())
        w.field("detail", event.detail);
    if (event.trace != 0)
        w.field("trace", event.trace);
    w.endObject();
    return w.take();
}

bool
eventFromJsonLine(const std::string& line, TraceEvent* out)
{
    JsonValue v;
    try {
        v = parseJson(line);
    } catch (const std::exception&) {
        return false;
    }
    if (v.type != JsonValue::Type::Object)
        return false;
    const JsonValue* kind = v.find("kind");
    if (!kind || kind->type != JsonValue::Type::String)
        return false;
    TraceEvent ev;
    if (!parseEventKind(kind->string, &ev.kind))
        return false;
    if (const JsonValue* t = v.find("t"))
        ev.time = t->numberOr(0.0);
    if (const JsonValue* sev = v.find("sev")) {
        if (!parseSeverity(sev->string, &ev.severity))
            return false;
    }
    if (const JsonValue* reason = v.find("reason")) {
        if (!parseDecisionReason(reason->string, &ev.reason))
            return false;
    }
    if (const JsonValue* job = v.find("job"))
        ev.job = static_cast<sim::JobId>(job->numberOr(0.0));
    if (const JsonValue* inst = v.find("inst"))
        ev.instance = static_cast<sim::InstanceId>(inst->numberOr(0.0));
    if (const JsonValue* value = v.find("value")) {
        switch (value->type) {
          case JsonValue::Type::Number:
            ev.value = value->number;
            break;
          case JsonValue::Type::String:
            // Inverse of the non-finite encoding above; any other string
            // is a malformed value, not silently 0.
            if (value->string == "NaN")
                ev.value = std::nan("");
            else if (value->string == "Infinity")
                ev.value = std::numeric_limits<double>::infinity();
            else if (value->string == "-Infinity")
                ev.value = -std::numeric_limits<double>::infinity();
            else
                return false;
            break;
          case JsonValue::Type::Null:
            // Legacy writers emitted null for any non-finite value.
            ev.value = std::nan("");
            break;
          default:
            return false;
        }
    }
    if (const JsonValue* detail = v.find("detail"))
        ev.detail = detail->stringOr("");
    if (const JsonValue* trace = v.find("trace"))
        ev.trace = static_cast<std::uint64_t>(trace->numberOr(0.0));
    *out = std::move(ev);
    return true;
}

} // namespace hcloud::obs
