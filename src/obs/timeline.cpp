#include "obs/timeline.hpp"

#include <cmath>
#include <cstdlib>

#include "obs/json.hpp"

namespace hcloud::obs {

namespace {

constexpr RecorderMetrics kTimelineMetrics{
    {"hcloud_timeline_samples_recorded_total",
     "Timeline samples recorded by engine runs"},
    {"hcloud_timeline_samples_dropped_total",
     "Timeline samples evicted from a full ring (no sink)"},
    {"hcloud_timeline_ring_occupancy",
     "In-memory samples in the most recently harvested ring"},
    {"hcloud_timeline_sink_ok",
     "1 when the last harvested timeline's sink was healthy"},
};

} // namespace

template class Recorder<TimelineSample>;

sim::Duration
envTimelineCadence(sim::Duration fallback)
{
    const char* v = std::getenv("HCLOUD_TIMELINE_CADENCE");
    if (!v || *v == '\0')
        return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(parsed) ||
        !(parsed > 0.0))
        return fallback;
    return parsed;
}

Timeline::Timeline(TimelineConfig config) : Recorder(kTimelineMetrics)
{
    reset(std::move(config));
}

void
Timeline::reset(TimelineConfig config)
{
    config_ = std::move(config);
    rearm(config_, config_.resolveEnabled());
}

void
Timeline::record(TimelineSample sample)
{
    if (!enabled())
        return;
    sample.seq = recordedCount();
    push(std::move(sample));
}

bool
Timeline::latest(TimelineSample* out) const
{
    if (empty())
        return false;
    *out = (*this)[size() - 1];
    return true;
}

std::vector<TimelineSample>
Timeline::since(std::uint64_t sinceSeq, std::uint64_t stride,
                std::size_t maxSamples) const
{
    if (stride < 1)
        stride = 1;
    std::vector<TimelineSample> out;
    for (std::size_t i = 0; i < size(); ++i) {
        const TimelineSample& s = (*this)[i];
        if (s.seq < sinceSeq || s.seq % stride != 0)
            continue;
        if (out.size() >= maxSamples)
            break;
        out.push_back(s);
    }
    return out;
}

TimelineBuffer
Timeline::snapshot() const
{
    TimelineBuffer buffer = counts();
    buffer.records.reserve(size());
    for (std::size_t i = 0; i < size(); ++i)
        buffer.records.push_back((*this)[i]);
    return buffer;
}

void
timelineSampleJson(JsonWriter& w, const TimelineSample& s)
{
    // Every field is always emitted (timeline samples are dense, unlike
    // trace events) so CSV exports and sparkline tooling never need
    // per-row defaulting. Field order is part of the byte-identity
    // contract.
    w.field("t", s.t);
    w.field("seq", s.seq);
    w.field("ri", static_cast<std::uint64_t>(s.reservedInstances));
    w.field("oi", static_cast<std::uint64_t>(s.onDemandInstances));
    w.field("si", static_cast<std::uint64_t>(s.spotInstances));
    if (!s.typeCounts.empty()) {
        w.key("types");
        w.beginObject();
        for (const auto& [name, count] : s.typeCounts)
            w.field(name, static_cast<std::uint64_t>(count));
        w.endObject();
    }
    w.field("rcap", s.reservedCores);
    w.field("rused", s.reservedUsed);
    w.field("ocap", s.onDemandCores);
    w.field("oused", s.onDemandUsed);
    w.field("util", s.utilization);
    w.field("qmean", s.qualityMean);
    w.field("q5", s.qualityP5);
    w.field("q50", s.qualityP50);
    w.field("q95", s.qualityP95);
    w.field("queue", static_cast<std::uint64_t>(s.queueLength));
    w.field("active", static_cast<std::uint64_t>(s.activeJobs));
    w.field("running", static_cast<std::uint64_t>(s.runningJobs));
    w.field("done", s.finishedJobs);
    w.field("ext", s.externalLoad);
    w.field("spot", s.spotPrice);
    w.field("qos", static_cast<std::uint64_t>(s.qosTracked));
    w.field("cost", s.costTotal);
}

std::string
toJson(const TimelineSample& sample)
{
    JsonWriter w;
    w.beginObject();
    timelineSampleJson(w, sample);
    w.endObject();
    return w.take();
}

bool
sampleFromJson(const JsonValue& v, TimelineSample* out)
{
    if (v.type != JsonValue::Type::Object)
        return false;
    // "seq" distinguishes samples from run headers and trace events.
    const JsonValue* t = v.find("t");
    const JsonValue* seq = v.find("seq");
    if (!t || t->type != JsonValue::Type::Number || !seq ||
        seq->type != JsonValue::Type::Number) {
        return false;
    }
    TimelineSample s;
    s.t = t->number;
    s.seq = static_cast<std::uint64_t>(seq->number);
    auto u32 = [&](const char* name, std::uint32_t* field) {
        if (const JsonValue* f = v.find(name))
            *field = static_cast<std::uint32_t>(f->numberOr(0.0));
    };
    auto f64 = [&](const char* name, double* field) {
        if (const JsonValue* f = v.find(name))
            *field = f->numberOr(0.0);
    };
    u32("ri", &s.reservedInstances);
    u32("oi", &s.onDemandInstances);
    u32("si", &s.spotInstances);
    if (const JsonValue* types = v.find("types")) {
        if (types->type != JsonValue::Type::Object)
            return false;
        for (const auto& [name, count] : types->object)
            s.typeCounts.emplace_back(
                name, static_cast<std::uint32_t>(count.numberOr(0.0)));
    }
    f64("rcap", &s.reservedCores);
    f64("rused", &s.reservedUsed);
    f64("ocap", &s.onDemandCores);
    f64("oused", &s.onDemandUsed);
    f64("util", &s.utilization);
    f64("qmean", &s.qualityMean);
    f64("q5", &s.qualityP5);
    f64("q50", &s.qualityP50);
    f64("q95", &s.qualityP95);
    u32("queue", &s.queueLength);
    u32("active", &s.activeJobs);
    u32("running", &s.runningJobs);
    if (const JsonValue* done = v.find("done"))
        s.finishedJobs = static_cast<std::uint64_t>(done->numberOr(0.0));
    f64("ext", &s.externalLoad);
    f64("spot", &s.spotPrice);
    u32("qos", &s.qosTracked);
    f64("cost", &s.costTotal);
    *out = std::move(s);
    return true;
}

bool
sampleFromJsonLine(const std::string& line, TimelineSample* out)
{
    JsonValue v;
    try {
        v = parseJson(line);
    } catch (const std::exception&) {
        return false;
    }
    return sampleFromJson(v, out);
}

} // namespace hcloud::obs
