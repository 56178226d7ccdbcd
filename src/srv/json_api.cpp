#include "srv/json_api.hpp"

#include <cmath>
#include <stdexcept>

namespace hcloud::srv {

namespace {

using obs::JsonValue;

/** 422 with a uniform "field <name> ..." message. */
[[noreturn]] void
fieldError(std::string_view name, std::string_view what)
{
    throw ApiError{422, "invalid_field",
                   "field \"" + std::string(name) + "\" " +
                       std::string(what)};
}

const JsonValue&
requireObject(const JsonValue& v, std::string_view what)
{
    if (v.type != JsonValue::Type::Object)
        throw ApiError{422, "invalid_body",
                       std::string(what) + " must be a JSON object"};
    return v;
}

/** The finite number in field @p name. */
double
finiteNumber(const JsonValue& f, std::string_view name)
{
    if (f.type != JsonValue::Type::Number)
        fieldError(name, "must be a number");
    if (!std::isfinite(f.number))
        fieldError(name, "must be a finite number");
    return f.number;
}

/** Optional number field. */
double
getNumberOr(const JsonValue& obj, std::string_view name, double fallback)
{
    const JsonValue* f = obj.find(name);
    return f ? finiteNumber(*f, name) : fallback;
}

/** Optional unsigned 64-bit field (ids, seeds). Range-checked before the
 *  cast, which is undefined for values outside [0, 2^64). */
std::uint64_t
getU64Or(const JsonValue& obj, std::string_view name,
         std::uint64_t fallback)
{
    const JsonValue* f = obj.find(name);
    if (!f)
        return fallback;
    const double v = finiteNumber(*f, name);
    if (v < 0.0 || v >= 0x1p64)
        fieldError(name, "must be in [0, 2^64)");
    return static_cast<std::uint64_t>(v);
}

std::string
getStringOr(const JsonValue& obj, std::string_view name,
            std::string fallback)
{
    const JsonValue* f = obj.find(name);
    if (!f)
        return fallback;
    if (f->type != JsonValue::Type::String)
        fieldError(name, "must be a string");
    return f->string;
}

bool
getBoolOr(const JsonValue& obj, std::string_view name, bool fallback)
{
    const JsonValue* f = obj.find(name);
    if (!f)
        return fallback;
    if (f->type != JsonValue::Type::Bool)
        fieldError(name, "must be a boolean");
    return f->boolean;
}

} // namespace

std::string
errorJson(std::string_view code, std::string_view message)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("error");
    w.beginObject();
    w.field("code", code);
    w.field("message", message);
    w.endObject();
    w.endObject();
    return w.take();
}

double
getNumber(const JsonValue& obj, std::string_view name)
{
    const JsonValue* f = obj.find(name);
    if (!f)
        fieldError(name, "is required");
    return finiteNumber(*f, name);
}

obs::JsonValue
parseBody(std::string_view body)
{
    if (body.empty())
        throw ApiError{400, "empty_body", "request body is required"};
    try {
        return obs::parseJson(body);
    } catch (const std::runtime_error& e) {
        throw ApiError{400, "bad_json",
                       std::string("malformed JSON: ") + e.what()};
    }
}

bool
parseStrategyKind(const std::string& name, core::StrategyKind* out)
{
    for (core::StrategyKind kind : core::kAllStrategies) {
        if (name == core::toString(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

bool
parseScenarioKind(const std::string& name, workload::ScenarioKind* out)
{
    for (workload::ScenarioKind kind : workload::kAllScenarios) {
        if (name == workload::toString(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

bool
parseAppKind(const std::string& name, workload::AppKind* out)
{
    static constexpr workload::AppKind kAll[] = {
        workload::AppKind::HadoopRecommender,
        workload::AppKind::HadoopSvm,
        workload::AppKind::HadoopMatFac,
        workload::AppKind::SparkAnalytics,
        workload::AppKind::SparkRealtime,
        workload::AppKind::Memcached,
    };
    for (workload::AppKind kind : kAll) {
        if (name == workload::toString(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

SessionConfig
parseSessionConfig(const JsonValue& v)
{
    requireObject(v, "session config");
    SessionConfig config;
    config.id = getStringOr(v, "id", "");

    const std::string strategy = getStringOr(v, "strategy", "HM");
    if (!parseStrategyKind(strategy, &config.strategy))
        throw ApiError{422, "unknown_strategy",
                       "unknown strategy \"" + strategy +
                           "\" (expected SR, OdF, OdM, HF or HM)"};

    if (const JsonValue* scenario = v.find("scenario")) {
        requireObject(*scenario, "scenario");
        const std::string kind =
            getStringOr(*scenario, "kind", "static");
        if (!parseScenarioKind(kind, &config.scenario.kind))
            throw ApiError{422, "unknown_scenario",
                           "unknown scenario \"" + kind +
                               "\" (expected static, low-variability "
                               "or high-variability)"};
        config.scenario.duration = getNumberOr(
            *scenario, "duration", config.scenario.duration);
        if (config.scenario.duration <= 0.0)
            fieldError("duration", "must be positive");
        config.scenario.seed =
            getU64Or(*scenario, "seed", config.scenario.seed);
        config.scenario.loadScale = getNumberOr(
            *scenario, "loadScale", config.scenario.loadScale);
        if (config.scenario.loadScale <= 0.0)
            fieldError("loadScale", "must be positive");
        config.scenario.sensitiveFraction =
            getNumberOr(*scenario, "sensitiveFraction",
                        config.scenario.sensitiveFraction);
    }

    if (const JsonValue* engine = v.find("engine")) {
        requireObject(*engine, "engine");
        config.engine.seed =
            getU64Or(*engine, "seed", config.engine.seed);
        config.engine.useProfiling = getBoolOr(
            *engine, "useProfiling", config.engine.useProfiling);
        config.engine.retentionMultiple =
            getNumberOr(*engine, "retentionMultiple",
                        config.engine.retentionMultiple);
        config.engine.maxRuntime = getNumberOr(
            *engine, "maxRuntime", config.engine.maxRuntime);
        // Explicit timeline config pins the sampler on or off (the
        // daemon normalizes its default before journaling, so replayed
        // create records always take this branch and reproduce the
        // original sampling cadence regardless of current flags/env).
        if (const JsonValue* timeline = engine->find("timeline")) {
            requireObject(*timeline, "timeline");
            config.engine.timeline.mode =
                getBoolOr(*timeline, "enabled", false)
                ? obs::TimelineConfig::Mode::On
                : obs::TimelineConfig::Mode::Off;
            config.engine.timeline.cadence = getNumberOr(
                *timeline, "cadence", config.engine.timeline.cadence);
            if (config.engine.timeline.cadence <= 0.0)
                fieldError("cadence", "must be positive");
        }
    }
    return config;
}

workload::JobSpec
parseJobSpec(const JsonValue& v)
{
    requireObject(v, "job spec");
    workload::JobSpec spec;
    spec.id = getU64Or(v, "id", 0);

    const std::string kind = getStringOr(v, "kind", "");
    if (kind.empty())
        fieldError("kind", "is required");
    if (!parseAppKind(kind, &spec.kind))
        throw ApiError{422, "unknown_app",
                       "unknown application kind \"" + kind + "\""};

    spec.arrival = getNumber(v, "arrival");
    if (spec.arrival < 0.0)
        fieldError("arrival", "must be >= 0");
    spec.coresIdeal = getNumberOr(v, "coresIdeal", spec.coresIdeal);
    if (spec.coresIdeal <= 0.0)
        fieldError("coresIdeal", "must be positive");
    spec.memoryPerCore =
        getNumberOr(v, "memoryPerCore", spec.memoryPerCore);
    spec.idealDuration =
        getNumberOr(v, "idealDuration", spec.idealDuration);
    spec.lcLoadRps = getNumberOr(v, "lcLoadRps", spec.lcLoadRps);
    spec.lcLifetime = getNumberOr(v, "lcLifetime", spec.lcLifetime);
    spec.lcQosUs = getNumberOr(v, "lcQosUs", spec.lcQosUs);

    if (const JsonValue* sensitivity = v.find("sensitivity")) {
        if (sensitivity->type != JsonValue::Type::Array ||
            sensitivity->array.size() != workload::kNumResources)
            fieldError("sensitivity",
                       "must be an array of " +
                           std::to_string(workload::kNumResources) +
                           " numbers");
        for (std::size_t i = 0; i < workload::kNumResources; ++i) {
            spec.sensitivity[i] =
                finiteNumber(sensitivity->array[i], "sensitivity");
        }
    }
    return spec;
}

void
jobSpecJson(obs::JsonWriter& w, const workload::JobSpec& spec)
{
    w.beginObject();
    w.field("id", static_cast<std::uint64_t>(spec.id));
    w.field("kind", workload::toString(spec.kind));
    w.field("arrival", spec.arrival);
    w.field("coresIdeal", spec.coresIdeal);
    w.field("memoryPerCore", spec.memoryPerCore);
    w.field("idealDuration", spec.idealDuration);
    w.field("lcLoadRps", spec.lcLoadRps);
    w.field("lcLifetime", spec.lcLifetime);
    w.field("lcQosUs", spec.lcQosUs);
    w.key("sensitivity");
    w.beginArray();
    for (double c : spec.sensitivity)
        w.value(c);
    w.endArray();
    w.endObject();
}

void
sessionConfigJson(obs::JsonWriter& w, const SessionConfig& config)
{
    w.beginObject();
    w.field("id", config.id);
    w.field("strategy", core::toString(config.strategy));
    w.key("scenario");
    w.beginObject();
    w.field("kind", workload::toString(config.scenario.kind));
    w.field("duration", config.scenario.duration);
    w.field("seed", static_cast<std::uint64_t>(config.scenario.seed));
    w.field("loadScale", config.scenario.loadScale);
    w.field("sensitiveFraction", config.scenario.sensitiveFraction);
    w.endObject();
    w.key("engine");
    w.beginObject();
    w.field("seed", static_cast<std::uint64_t>(config.engine.seed));
    w.field("useProfiling", config.engine.useProfiling);
    w.field("retentionMultiple", config.engine.retentionMultiple);
    w.field("maxRuntime", config.engine.maxRuntime);
    // resolveEnabled(), not mode==On: an Auto-mode config serializes the
    // decision the engine actually froze at construction, so a journal
    // replayed under a different HCLOUD_TIMELINE still reproduces it.
    w.key("timeline");
    w.beginObject();
    w.field("enabled", config.engine.timeline.resolveEnabled());
    w.field("cadence", config.engine.timeline.cadence);
    w.endObject();
    w.endObject();
    w.endObject();
}

} // namespace hcloud::srv
