#include "obs/recorder.hpp"

#include <cstdlib>
#include <string_view>

#include "obs/process_metrics.hpp"

namespace hcloud::obs {

EnvSwitch
envSwitch(const char* name)
{
    const char* value = std::getenv(name);
    if (value == nullptr)
        return {};
    const std::string_view v(value);
    if (v.empty() || v == "0" || v == "off" || v == "false")
        return {};
    if (v == "1" || v == "on" || v == "true")
        return {true, ""};
    return {true, std::string(v)};
}

bool
RecorderConfig::resolveEnabled(const char* env) const
{
    switch (mode) {
      case Mode::Off:
        return false;
      case Mode::On:
        return true;
      case Mode::Auto:
        return envSwitch(env).enabled;
    }
    return false;
}

void
publishHarvest(const RecorderMetrics& metrics, std::uint64_t recorded,
               std::uint64_t dropped, std::size_t retained, bool sinkOk)
{
    // Publishing happens per harvest, not per record: the record path
    // runs once per sim event or sampling tick and must stay free of
    // shared-cache traffic.
    ProcessMetrics& pm = ProcessMetrics::instance();
    pm.counter(metrics.recorded.name, metrics.recorded.help)
        .inc(static_cast<double>(recorded));
    pm.counter(metrics.dropped.name, metrics.dropped.help)
        .inc(static_cast<double>(dropped));
    pm.gauge(metrics.occupancy.name, metrics.occupancy.help)
        .set(static_cast<double>(retained));
    pm.gauge(metrics.sinkOk.name, metrics.sinkOk.help)
        .set(sinkOk ? 1.0 : 0.0);
}

} // namespace hcloud::obs
