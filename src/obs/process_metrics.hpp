/**
 * @file
 * ProcessMetrics: thread-safe, process-wide metrics registry.
 *
 * The one metrics registry in the tree. A single run's counts are plain
 * fields of core::RunResult, filled by core::MetricsCollector; this
 * registry lives for the process, built so long sweeps can be watched
 * while they run (served over HTTP by srv::metricsResponse in
 * Prometheus text exposition, rendered by obs/prom_text):
 *
 *  - counters and gauges are lock-free atomics (CAS-add doubles, so
 *    fractional quantities such as seconds accumulate exactly like
 *    Prometheus float samples);
 *  - histograms are fixed-bucket (bounded memory for process lifetime)
 *    and mutex-sharded by thread so concurrent observers rarely contend;
 *  - metrics group into labeled families: one family name carries many
 *    series distinguished by label sets, so one family covers a bounded
 *    set of dimensions without cardinality explosions
 *    (`hcloud_phase_seconds_total{phase="sim_loop"}`);
 *  - every name is sanitized through sanitizeMetricName() on lookup, so
 *    the exposition page is valid by construction.
 *
 * Publishing is always on — updates are a few nanoseconds and never feed
 * back into the simulation — but nothing is *served* unless a bench opts
 * in with --metrics-port, so determinism contracts and bench numbers are
 * untouched by default.
 */

#ifndef HCLOUD_OBS_PROCESS_METRICS_HPP
#define HCLOUD_OBS_PROCESS_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hcloud::obs {

/** True when @p name matches Prometheus `[a-zA-Z_:][a-zA-Z0-9_:]*`. */
bool isValidMetricName(std::string_view name);

/**
 * Deterministic Prometheus-legal form of @p name: illegal characters
 * become '_', a leading digit gains a '_' prefix, and the empty name
 * becomes "_". Valid names pass through unchanged.
 */
std::string sanitizeMetricName(std::string_view name);

/** Like sanitizeMetricName but for label names (colons are illegal). */
std::string sanitizeLabelName(std::string_view name);

/** Kind of a metric family, fixed by its first lookup. */
enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

/** The Prometheus TYPE of @p kind: "counter", "gauge" or "histogram". */
const char* toString(MetricKind kind);

/** Label set of one series: (name, value) pairs, sorted on lookup. */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/** Monotonic float counter (Prometheus counter semantics). */
class ProcessCounter
{
  public:
    void inc(double by = 1.0)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + by,
                                             std::memory_order_relaxed)) {
        }
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Last-write-wins scalar with atomic add (for depth-style gauges that
 *  several pools move up and down concurrently). */
class ProcessGauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    void add(double by)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + by,
                                             std::memory_order_relaxed)) {
        }
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Point-in-time view of one histogram (raw per-bucket counts; the
 *  renderer accumulates them into Prometheus `le` cumulative form). */
struct HistogramSnapshot
{
    /** One count per upper bound, plus a final overflow (+Inf) bucket. */
    std::vector<std::uint64_t> bucketCounts;
    std::uint64_t count = 0;
    double sum = 0.0;
};

/** Default exponential bucket ladder (1 ms .. 1000 s, seconds scale). */
std::vector<double> defaultHistogramBounds();

/**
 * Fixed-bucket histogram, mutex-sharded by observing thread: observe()
 * locks only the caller's shard, snapshot() merges all shards.
 */
class ProcessHistogram
{
  public:
    /** @param bounds Ascending upper bounds; empty = default ladder. */
    explicit ProcessHistogram(std::vector<double> bounds);

    void observe(double v);

    const std::vector<double>& bounds() const { return bounds_; }

    HistogramSnapshot snapshot() const;

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        std::vector<std::uint64_t> buckets;
        std::uint64_t count = 0;
        double sum = 0.0;
    };

    static constexpr std::size_t kShards = 8;

    Shard& localShard();

    std::vector<double> bounds_;
    std::array<Shard, kShards> shards_;
};

/**
 * Process-wide registry of labeled metric families.
 *
 * Lookup creates on first use and returns references that stay valid for
 * the registry's lifetime (series live behind unique_ptrs), so hot call
 * sites cache the pointer and pay one atomic op per update. A family's
 * kind is fixed by its first lookup; a later lookup of the same name with
 * a different kind is deterministically renamed ("<name>_<kind>") instead
 * of corrupting the exposition page with a duplicate family.
 *
 * instance() is the process-wide registry every subsystem publishes into;
 * tests and benches may construct private instances.
 */
class ProcessMetrics
{
  public:
    ProcessMetrics() = default;
    ProcessMetrics(const ProcessMetrics&) = delete;
    ProcessMetrics& operator=(const ProcessMetrics&) = delete;

    /** The singleton served by --metrics-port. */
    static ProcessMetrics& instance();

    ProcessCounter& counter(std::string_view name,
                            std::string_view help = {},
                            const MetricLabels& labels = {});

    ProcessGauge& gauge(std::string_view name, std::string_view help = {},
                        const MetricLabels& labels = {});

    /** @param bounds Used only when the family is created by this call;
     *  empty = defaultHistogramBounds(). */
    ProcessHistogram& histogram(std::string_view name,
                                std::string_view help = {},
                                const MetricLabels& labels = {},
                                std::vector<double> bounds = {});

    /** One series of a family snapshot. */
    struct SeriesSample
    {
        MetricLabels labels;
        /** Counter/gauge value (unused for histograms). */
        double value = 0.0;
        HistogramSnapshot histogram;
    };

    /** One family of a registry snapshot. */
    struct FamilySample
    {
        std::string name;
        std::string help;
        MetricKind kind = MetricKind::Counter;
        /** Histogram upper bounds (empty otherwise). */
        std::vector<double> bounds;
        std::vector<SeriesSample> series;
    };

    /** Every family, sorted by name; series sorted by label signature —
     *  deterministic, and safe to call concurrently with updates. */
    std::vector<FamilySample> snapshot() const;

    /** Total series across all families. */
    std::size_t seriesCount() const;

    /**
     * Retire one series: it disappears from snapshot()/seriesCount()
     * (and thus the exposition page) but its storage is kept on a
     * graveyard for the registry's lifetime, preserving the documented
     * reference-stability contract — a caller still holding the
     * reference keeps a valid (now invisible) series. A fresh lookup of
     * the same (name, labels) creates a new series starting from zero.
     * @return true when the series existed.
     */
    bool remove(std::string_view name, const MetricLabels& labels);

  private:
    struct Series
    {
        MetricLabels labels;
        ProcessCounter counter;
        ProcessGauge gauge;
        std::unique_ptr<ProcessHistogram> histogram;
    };

    struct Family
    {
        MetricKind kind = MetricKind::Counter;
        std::string help;
        std::vector<double> bounds;
        std::map<std::string, std::unique_ptr<Series>, std::less<>>
            series;
    };

    Series& lookup(std::string_view name, std::string_view help,
                   const MetricLabels& labels, MetricKind kind,
                   std::vector<double> bounds);

    mutable std::mutex mutex_;
    std::map<std::string, Family, std::less<>> families_;
    /** Retired series, kept alive for reference stability. */
    std::vector<std::unique_ptr<Series>> retired_;
};

} // namespace hcloud::obs

#endif // HCLOUD_OBS_PROCESS_METRICS_HPP
