#include "obs/process_metrics.hpp"

#include <algorithm>
#include <functional>
#include <thread>

namespace hcloud::obs {

namespace {

bool
validFirstChar(char c, bool allowColon)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           (allowColon && c == ':');
}

bool
validChar(char c, bool allowColon)
{
    return validFirstChar(c, allowColon) || (c >= '0' && c <= '9');
}

std::string
sanitizeName(std::string_view name, bool allowColon)
{
    if (name.empty())
        return "_";
    std::string out;
    out.reserve(name.size() + 1);
    if (!validFirstChar(name.front(), allowColon) &&
        validChar(name.front(), allowColon))
        out += '_'; // leading digit: prefix instead of erasing it
    for (char c : name)
        out += validChar(c, allowColon) ? c : '_';
    return out;
}

/** Suffix appended when a family name is reused with another kind. */
const char*
kindSuffix(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "_counter";
      case MetricKind::Gauge:
        return "_gauge";
      case MetricKind::Histogram:
        return "_histogram";
    }
    return "_unknown";
}

/**
 * Canonical series key for a sanitized, sorted label set. The separators
 * are control characters no sanitized label name can contain, and label
 * values are length-prefixed, so distinct label sets cannot collide.
 */
std::string
seriesKey(const MetricLabels& labels)
{
    std::string key;
    for (const auto& [name, value] : labels) {
        key += name;
        key += '\x1f';
        key += std::to_string(value.size());
        key += '\x1e';
        key += value;
    }
    return key;
}

} // namespace

bool
isValidMetricName(std::string_view name)
{
    if (name.empty() || !validFirstChar(name.front(), /*allowColon=*/true))
        return false;
    for (char c : name)
        if (!validChar(c, /*allowColon=*/true))
            return false;
    return true;
}

std::string
sanitizeMetricName(std::string_view name)
{
    return sanitizeName(name, /*allowColon=*/true);
}

std::string
sanitizeLabelName(std::string_view name)
{
    return sanitizeName(name, /*allowColon=*/false);
}

const char*
toString(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

std::vector<double>
defaultHistogramBounds()
{
    return {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
            1.0,   2.5,    5.0,   10.0, 25.0,  50.0, 100.0, 250.0,
            500.0, 1000.0};
}

ProcessHistogram::ProcessHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    if (bounds_.empty())
        bounds_ = defaultHistogramBounds();
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()),
                  bounds_.end());
    for (Shard& shard : shards_)
        shard.buckets.assign(bounds_.size() + 1, 0);
}

ProcessHistogram::Shard&
ProcessHistogram::localShard()
{
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return shards_[h % kShards];
}

void
ProcessHistogram::observe(double v)
{
    // First bound >= v is the Prometheus `le` bucket; anything above the
    // ladder (and NaN, which compares false against every bound) lands
    // in the overflow (+Inf) slot, matching client_golang.
    std::size_t idx = bounds_.size();
    if (v == v)
        idx = static_cast<std::size_t>(
            std::lower_bound(bounds_.begin(), bounds_.end(), v) -
            bounds_.begin());
    Shard& shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.buckets[idx] += 1;
    shard.count += 1;
    shard.sum += v;
}

HistogramSnapshot
ProcessHistogram::snapshot() const
{
    HistogramSnapshot out;
    out.bucketCounts.assign(bounds_.size() + 1, 0);
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (std::size_t i = 0; i < shard.buckets.size(); ++i)
            out.bucketCounts[i] += shard.buckets[i];
        out.count += shard.count;
        out.sum += shard.sum;
    }
    return out;
}

ProcessMetrics&
ProcessMetrics::instance()
{
    static ProcessMetrics metrics;
    return metrics;
}

ProcessMetrics::Series&
ProcessMetrics::lookup(std::string_view name, std::string_view help,
                       const MetricLabels& labels,
                       MetricKind kind,
                       std::vector<double> bounds)
{
    std::string family_name = sanitizeMetricName(name);
    MetricLabels sorted;
    sorted.reserve(labels.size());
    for (const auto& [label_name, value] : labels)
        sorted.emplace_back(sanitizeLabelName(label_name), value);
    std::sort(sorted.begin(), sorted.end());

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = families_.find(family_name);
    if (it != families_.end() && it->second.kind != kind) {
        // Same name, different kind: rename deterministically rather
        // than emit an invalid page with two TYPE lines for one name.
        family_name += kindSuffix(kind);
        it = families_.find(family_name);
    }
    if (it == families_.end()) {
        Family family;
        family.kind = kind;
        family.help = std::string(help);
        if (kind == MetricKind::Histogram)
            family.bounds = bounds.empty() ? defaultHistogramBounds()
                                           : std::move(bounds);
        it = families_.emplace(std::move(family_name), std::move(family))
                 .first;
    } else if (it->second.help.empty() && !help.empty()) {
        it->second.help = std::string(help);
    }

    Family& family = it->second;
    const std::string key = seriesKey(sorted);
    auto sit = family.series.find(key);
    if (sit == family.series.end()) {
        auto series = std::make_unique<Series>();
        series->labels = std::move(sorted);
        if (kind == MetricKind::Histogram)
            series->histogram =
                std::make_unique<ProcessHistogram>(family.bounds);
        sit = family.series.emplace(key, std::move(series)).first;
    }
    return *sit->second;
}

ProcessCounter&
ProcessMetrics::counter(std::string_view name, std::string_view help,
                        const MetricLabels& labels)
{
    return lookup(name, help, labels, MetricKind::Counter, {})
        .counter;
}

ProcessGauge&
ProcessMetrics::gauge(std::string_view name, std::string_view help,
                      const MetricLabels& labels)
{
    return lookup(name, help, labels, MetricKind::Gauge, {}).gauge;
}

ProcessHistogram&
ProcessMetrics::histogram(std::string_view name, std::string_view help,
                          const MetricLabels& labels,
                          std::vector<double> bounds)
{
    return *lookup(name, help, labels, MetricKind::Histogram,
                   std::move(bounds))
                .histogram;
}

std::vector<ProcessMetrics::FamilySample>
ProcessMetrics::snapshot() const
{
    std::vector<FamilySample> out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(families_.size());
    for (const auto& [name, family] : families_) {
        FamilySample fs;
        fs.name = name;
        fs.help = family.help;
        fs.kind = family.kind;
        fs.bounds = family.bounds;
        fs.series.reserve(family.series.size());
        for (const auto& [key, series] : family.series) {
            (void)key;
            SeriesSample ss;
            ss.labels = series->labels;
            switch (family.kind) {
              case MetricKind::Counter:
                ss.value = series->counter.value();
                break;
              case MetricKind::Gauge:
                ss.value = series->gauge.value();
                break;
              case MetricKind::Histogram:
                ss.histogram = series->histogram->snapshot();
                break;
            }
            fs.series.push_back(std::move(ss));
        }
        out.push_back(std::move(fs));
    }
    return out;
}

bool
ProcessMetrics::remove(std::string_view name, const MetricLabels& labels)
{
    const std::string family_name = sanitizeMetricName(name);
    MetricLabels sorted;
    sorted.reserve(labels.size());
    for (const auto& [label_name, value] : labels)
        sorted.emplace_back(sanitizeLabelName(label_name), value);
    std::sort(sorted.begin(), sorted.end());
    const std::string key = seriesKey(sorted);

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = families_.find(family_name);
    if (it == families_.end())
        return false;
    auto sit = it->second.series.find(key);
    if (sit == it->second.series.end())
        return false;
    retired_.push_back(std::move(sit->second));
    it->second.series.erase(sit);
    return true;
}

std::size_t
ProcessMetrics::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& [name, family] : families_) {
        (void)name;
        n += family.series.size();
    }
    return n;
}

} // namespace hcloud::obs
