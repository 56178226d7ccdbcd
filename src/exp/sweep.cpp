#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include <cstdio>

#include "cloud/pricing.hpp"
#include "core/engine_run.hpp"
#include "exp/report.hpp"
#include "core/strategy.hpp"
#include "obs/json.hpp"
#include "obs/process_metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace hcloud::exp {

void
Welford::add(double x)
{
    ++n;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
}

void
Welford::merge(const Welford& other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean - mean;
    const std::uint64_t total = n + other.n;
    mean += delta * static_cast<double>(other.n) /
        static_cast<double>(total);
    m2 += other.m2 + delta * delta * static_cast<double>(n) *
        static_cast<double>(other.n) / static_cast<double>(total);
    n = total;
}

double
Welford::stddev() const
{
    return std::sqrt(variance());
}

double
Welford::ci95() const
{
    if (n < 2)
        return 0.0;
    return 1.96 * stddev() / std::sqrt(static_cast<double>(n));
}

std::vector<std::uint64_t>
deriveSeedList(std::uint64_t baseSeed, std::size_t count)
{
    std::vector<std::uint64_t> seeds;
    seeds.reserve(count);
    const sim::Rng root(baseSeed);
    for (std::size_t i = 0; i < count; ++i)
        seeds.push_back(root.child(static_cast<std::uint64_t>(i)).seed());
    return seeds;
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The scenario-generation config of one (cell, seed) task. */
workload::ScenarioConfig
taskScenarioConfig(const SweepCell& cell, const SweepOptions& options,
                   std::uint64_t seed)
{
    workload::ScenarioConfig cfg =
        cell.scenarioOverride.value_or(workload::ScenarioConfig{});
    if (!cell.scenarioOverride) {
        cfg.kind = cell.scenario;
        if (options.duration)
            cfg.duration = *options.duration;
    }
    cfg.loadScale = options.loadScale;
    cfg.seed = seed;
    return cfg;
}

/** Everything a task keeps from its RunResult — the RunResult itself
 *  (outcomes, series, trace buffers) dies with the task. */
struct RunRecord
{
    double cost = 0.0;
    double utilization = 0.0;
    double qualityP95 = 0.0;
    double qosViolations = 0.0;
    double makespan = 0.0;
    double setupSec = 0.0;
    std::uint64_t events = 0;
};

/** Generated-once-per-digest trace store shared by all tasks. */
class TraceCache
{
  public:
    /** The trace for @p cfg; generates it under the entry lock on first
     *  request. @p hit reports whether generation was skipped;
     *  @p genSec the generation seconds paid (0 on a hit). */
    const workload::ArrivalTrace& get(const workload::ScenarioConfig& cfg,
                                      bool* hit, double* genSec)
    {
        std::shared_ptr<Entry> entry;
        {
            std::lock_guard<std::mutex> lock(mapMutex_);
            std::shared_ptr<Entry>& slot = entries_[workload::digest(cfg)];
            if (!slot)
                slot = std::make_shared<Entry>();
            entry = slot;
        }
        std::lock_guard<std::mutex> lock(entry->mutex);
        if (!entry->ready) {
            const auto start = Clock::now();
            entry->trace = workload::generateScenario(cfg);
            entry->genSec = secondsSince(start);
            entry->ready = true;
            *hit = false;
            *genSec = entry->genSec;
        } else {
            *hit = true;
            *genSec = 0.0;
        }
        return entry->trace;
    }

  private:
    struct Entry
    {
        std::mutex mutex;
        bool ready = false;
        workload::ArrivalTrace trace;
        double genSec = 0.0;
    };

    std::mutex mapMutex_;
    std::map<std::uint64_t, std::shared_ptr<Entry>> entries_;
};

/** Idle-engine pool: each worker rents, resets, runs and returns. */
class EngineRental
{
  public:
    std::unique_ptr<core::EngineRun> acquire()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (idle_.empty())
            return nullptr;
        std::unique_ptr<core::EngineRun> engine =
            std::move(idle_.back());
        idle_.pop_back();
        return engine;
    }

    void release(std::unique_ptr<core::EngineRun> engine)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(std::move(engine));
    }

  private:
    std::mutex mutex_;
    std::vector<std::unique_ptr<core::EngineRun>> idle_;
};

/** Sweep calls so far in this process (names per-run sink files). */
std::atomic<std::uint64_t> nextSweepId{0};

/**
 * Point the run's trace and timeline sinks at private part files derived
 * from the cell's stems: "<stem>.<sweep>-<cell>-<seedIndex>.part". The
 * trace and timeline stems differ (the CLI derives them from distinct
 * output paths), so the part files never collide either.
 */
void
applySinkTag(core::EngineConfig& cfg, std::uint64_t sweep,
             std::size_t cell, std::size_t seedIndex)
{
    if (cfg.trace.sinkStem.empty() && cfg.timeline.sinkStem.empty())
        return;
    std::string tag = ".";
    tag += std::to_string(sweep);
    tag += '-';
    tag += std::to_string(cell);
    tag += '-';
    tag += std::to_string(seedIndex);
    tag += ".part";
    if (!cfg.trace.sinkStem.empty())
        cfg.trace.sinkPath = cfg.trace.sinkStem + tag;
    if (!cfg.timeline.sinkStem.empty())
        cfg.timeline.sinkPath = cfg.timeline.sinkStem + tag;
}

/** Reduce one RunResult to the record the aggregator keeps. */
RunRecord
reduceRun(const core::RunResult& r)
{
    RunRecord rec;
    static const cloud::AwsStylePricing pricing;
    rec.cost = r.cost(pricing).total();
    rec.utilization = r.reservedUtilizationAvg;
    sim::SampleSet perf = r.batchPerfNorm;
    perf.merge(r.lcPerfNorm);
    rec.qualityP95 = perf.quantile(0.95);
    rec.qosViolations =
        static_cast<double>(r.reschedules + r.failedJobs);
    rec.makespan = r.makespan;
    rec.setupSec = r.telemetry.setupSec;
    rec.events = r.telemetry.eventsProcessed;
    return rec;
}

/**
 * Order-insensitive fold: records arrive in any completion order, but
 * each cell's Welford accumulators only advance through a seed-index
 * cursor, so the reduction replays in seed order no matter which worker
 * finished first. Out-of-order records wait in a small per-cell buffer
 * of RunRecords (bounded by the in-flight window, tracked as the
 * maxBufferedRuns high-water mark).
 */
class CellAggregator
{
  public:
    explicit CellAggregator(std::size_t cells) { folds_.resize(cells); }

    void submit(std::size_t cell, std::size_t seedIndex,
                const RunRecord& rec, SweepCellAggregate* aggs)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Fold& fold = folds_[cell];
        fold.pending.emplace(seedIndex, rec);
        ++buffered_;
        if (buffered_ > maxBuffered_)
            maxBuffered_ = buffered_;
        SweepCellAggregate& agg = aggs[cell];
        for (auto it = fold.pending.find(fold.cursor);
             it != fold.pending.end();
             it = fold.pending.find(fold.cursor)) {
            const RunRecord& r = it->second;
            agg.cost.add(r.cost);
            agg.utilization.add(r.utilization);
            agg.qualityP95.add(r.qualityP95);
            agg.qosViolations.add(r.qosViolations);
            agg.makespan.add(r.makespan);
            agg.eventsProcessed += r.events;
            fold.pending.erase(it);
            --buffered_;
            ++fold.cursor;
        }
    }

    std::size_t maxBuffered() const { return maxBuffered_; }

  private:
    struct Fold
    {
        std::map<std::size_t, RunRecord> pending;
        std::size_t cursor = 0;
    };

    std::mutex mutex_;
    std::vector<Fold> folds_;
    std::size_t buffered_ = 0;
    std::size_t maxBuffered_ = 0;
};

} // namespace

SweepResult
runSweep(const std::vector<SweepCell>& cells,
         const std::vector<std::uint64_t>& seeds, const SweepOptions& options,
         const SweepVisitor& visit)
{
    const auto sweepStart = Clock::now();
    const std::uint64_t sweepId = nextSweepId++;

    SweepResult result;
    result.title = options.title;
    result.seeds = seeds.size();
    result.baseSeed = options.baseSeed;
    result.loadScale = options.loadScale;
    result.seedList = seeds;

    result.cells.resize(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        SweepCellAggregate& agg = result.cells[c];
        agg.scenario = cells[c].scenario;
        agg.strategy = cells[c].strategy;
        agg.label = cells[c].label.empty()
            ? std::string(workload::toString(cells[c].scenario)) + "/" +
                core::toString(cells[c].strategy)
            : cells[c].label;
    }

    // Task t = cell-major (cell * seeds + seedIndex).
    const std::size_t seedCount = seeds.size();
    const std::size_t taskCount = cells.size() * seedCount;
    const std::size_t requested = options.threads > 0
        ? options.threads
        : runtime::defaultThreadCount();
    const std::size_t threads =
        std::max<std::size_t>(1, std::min(requested, taskCount));

    // Process-wide observability, each series resolved once per sweep:
    // a live progress gauge (labeled by sweep title, retired at the end)
    // plus cumulative per-run and per-sweep counters.
    obs::ProcessMetrics& pm = obs::ProcessMetrics::instance();
    const obs::MetricLabels sweepLabels = {{"sweep", options.title}};
    obs::ProcessGauge& remaining =
        pm.gauge("hcloud_sweep_tasks_remaining",
                 "Sweep tasks not yet completed", sweepLabels);
    remaining.set(static_cast<double>(taskCount));
    obs::ProcessCounter& runsCompleted =
        pm.counter("hcloud_run_completed_total", kRunCompletedHelp);
    obs::ProcessCounter& simEvents =
        pm.counter("hcloud_run_sim_events_total",
                   "Simulator events processed across all runs");
    static constexpr const char* kPhaseHelp =
        "Wall-clock seconds per run phase, accumulated across runs";
    obs::ProcessCounter& setupSeconds = pm.counter(
        "hcloud_phase_seconds_total", kPhaseHelp, {{"phase", "setup"}});
    obs::ProcessCounter& loopSeconds = pm.counter(
        "hcloud_phase_seconds_total", kPhaseHelp, {{"phase", "sim_loop"}});
    obs::ProcessCounter& finalizeSeconds = pm.counter(
        "hcloud_phase_seconds_total", kPhaseHelp, {{"phase", "finalize"}});
    obs::ProcessCounter& cacheHits =
        pm.counter("hcloud_sweep_trace_cache_hits_total",
                   "Sweep tasks that reused a cached scenario trace");
    obs::ProcessCounter& cacheMisses =
        pm.counter("hcloud_sweep_trace_cache_misses_total",
                   "Sweep tasks that generated a scenario trace");
    obs::ProcessCounter& resets =
        pm.counter("hcloud_sweep_engine_resets_total",
                   "Sweep runs served by resetting a pooled engine");
    obs::ProcessCounter& created =
        pm.counter("hcloud_sweep_engine_created_total",
                   "Sweep runs that constructed a fresh engine");

    TraceCache traceCache;
    EngineRental rental;
    CellAggregator aggregator(cells.size());
    static const cloud::ProviderProfile profile =
        cloud::ProviderProfile::gce();

    std::mutex telemetryMutex;
    std::mutex visitMutex;
    SweepTelemetry& tel = result.telemetry;
    tel.threads = threads;

    auto runTask = [&](std::size_t t) {
        const std::size_t cellIndex = t / seedCount;
        const std::size_t seedIndex = t % seedCount;
        const SweepCell& cell = cells[cellIndex];
        const std::uint64_t seed = seeds[seedIndex];

        bool hit = false;
        double genSec = 0.0;
        const workload::ArrivalTrace& trace = traceCache.get(
            taskScenarioConfig(cell, options, seed), &hit, &genSec);
        (hit ? cacheHits : cacheMisses).inc();

        core::EngineConfig cfg = cell.config;
        cfg.seed = seed;
        applySinkTag(cfg, sweepId, cellIndex, seedIndex);
        const auto factory = [&cell](core::EngineContext& ctx) {
            return core::makeStrategy(cell.strategy, ctx);
        };
        std::unique_ptr<core::EngineRun> engine = rental.acquire();
        const bool reused = engine != nullptr;
        if (reused)
            engine->reset(cfg, profile, factory);
        else
            engine = std::make_unique<core::EngineRun>(cfg, profile,
                                                       factory);
        (reused ? resets : created).inc();

        core::RunResult run =
            engine->runBatch(trace, result.cells[cellIndex].label);
        rental.release(std::move(engine));

        const RunRecord rec = reduceRun(run);
        aggregator.submit(cellIndex, seedIndex, rec,
                          result.cells.data());
        runsCompleted.inc();
        simEvents.inc(static_cast<double>(rec.events));
        setupSeconds.inc(rec.setupSec);
        loopSeconds.inc(run.telemetry.simLoopSec);
        finalizeSeconds.inc(run.telemetry.finalizeSec);
        remaining.add(-1.0);
        {
            std::lock_guard<std::mutex> lock(telemetryMutex);
            ++tel.runs;
            if (hit)
                ++tel.traceCacheHits;
            else
                ++tel.traceCacheMisses;
            if (reused)
                ++tel.engineResets;
            else
                ++tel.enginesCreated;
            tel.setupSecTotal += rec.setupSec;
            tel.traceGenSecTotal += genSec;
            tel.eventsProcessed += rec.events;
        }
        if (visit) {
            run.telemetry.traceGenSec = genSec;
            run.telemetry.threads = threads;
            std::lock_guard<std::mutex> lock(visitMutex);
            visit(cellIndex, seedIndex, std::move(run));
        }
    };

    runtime::parallelFor(threads, taskCount, runTask);

    tel.maxBufferedRuns = aggregator.maxBuffered();
    tel.wallSec = secondsSince(sweepStart);
    tel.eventsPerSec = tel.wallSec > 0.0
        ? static_cast<double>(tel.eventsProcessed) / tel.wallSec
        : 0.0;

    // Retire the per-sweep gauge series so long-lived processes (the
    // daemon, test binaries) don't accumulate one series per title.
    pm.remove("hcloud_sweep_tasks_remaining", sweepLabels);
    return result;
}

SweepResult
runSweep(const std::vector<SweepCell>& cells, const SweepOptions& options)
{
    return runSweep(
        cells,
        deriveSeedList(options.baseSeed,
                       options.seeds > 0 ? options.seeds : 1),
        options);
}

namespace {

void
welfordJson(obs::JsonWriter& w, const char* name, const Welford& acc)
{
    w.key(name);
    w.beginObject();
    w.field("mean", acc.mean);
    w.field("stddev", acc.stddev());
    w.field("ci95", acc.ci95());
    w.field("count", acc.n);
    w.endObject();
}

/** The deterministic sweep fields (everything but telemetry). */
void
sweepCellsBody(obs::JsonWriter& w, const SweepResult& result)
{
    w.field("title", result.title);
    w.field("seeds", static_cast<std::uint64_t>(result.seeds));
    w.field("base_seed", result.baseSeed);
    w.field("load_scale", result.loadScale);
    w.key("seed_list");
    w.beginArray();
    for (std::uint64_t s : result.seedList)
        w.value(s);
    w.endArray();
    w.key("cells");
    w.beginArray();
    for (const SweepCellAggregate& cell : result.cells) {
        w.beginObject();
        w.field("label", cell.label);
        w.field("scenario", workload::toString(cell.scenario));
        w.field("strategy", core::toString(cell.strategy));
        welfordJson(w, "cost", cell.cost);
        welfordJson(w, "utilization", cell.utilization);
        welfordJson(w, "quality_p95", cell.qualityP95);
        welfordJson(w, "qos_violations", cell.qosViolations);
        welfordJson(w, "makespan", cell.makespan);
        w.field("events_processed", cell.eventsProcessed);
        w.endObject();
    }
    w.endArray();
}

} // namespace

std::string
sweepCellsJson(const SweepResult& result)
{
    obs::JsonWriter w;
    w.beginObject();
    sweepCellsBody(w, result);
    w.endObject();
    return w.take();
}

void
sweepJson(obs::JsonWriter& w, const SweepResult& result)
{
    const SweepTelemetry& tel = result.telemetry;
    w.beginObject();
    sweepCellsBody(w, result);
    w.key("telemetry");
    w.beginObject();
    w.field("runs", tel.runs);
    w.field("trace_cache_hits", tel.traceCacheHits);
    w.field("trace_cache_misses", tel.traceCacheMisses);
    w.field("engine_resets", tel.engineResets);
    w.field("engines_created", tel.enginesCreated);
    w.field("wall_sec", tel.wallSec);
    w.field("setup_sec_total", tel.setupSecTotal);
    w.field("trace_gen_sec_total", tel.traceGenSecTotal);
    w.field("events_processed", tel.eventsProcessed);
    w.field("events_per_sec", tel.eventsPerSec);
    w.field("threads", static_cast<std::uint64_t>(tel.threads));
    w.field("max_buffered_runs",
            static_cast<std::uint64_t>(tel.maxBufferedRuns));
    w.endObject();
    w.endObject();
}

void
printSweepTable(const SweepResult& result)
{
    printHeader(result.title + " sweep: " +
                std::to_string(result.cells.size()) + " cells x " +
                std::to_string(result.seeds) + " seeds (mean +/- 95% CI)");
    const auto pm = [](const Welford& w, int precision) {
        return fmt(w.mean, precision) + " +/- " + fmt(w.ci95(), precision);
    };
    std::vector<std::vector<std::string>> rows;
    for (const SweepCellAggregate& cell : result.cells)
        rows.push_back({cell.label, pm(cell.cost, 2),
                        pm(cell.utilization, 3), pm(cell.qualityP95, 3),
                        pm(cell.qosViolations, 1), pm(cell.makespan, 0)});
    printTable({"cell", "cost_$", "util", "quality_p95", "qos_viol",
                "makespan_s"},
               rows);
    const SweepTelemetry& tel = result.telemetry;
    const std::uint64_t lookups = tel.traceCacheHits + tel.traceCacheMisses;
    std::printf("%llu runs in %ss on %zu thread(s): %s Mev/s, "
                "trace cache %llu/%llu hits, %llu resets / %llu engines\n",
                static_cast<unsigned long long>(tel.runs),
                fmt(tel.wallSec, 2).c_str(), tel.threads,
                fmt(tel.eventsPerSec / 1e6, 2).c_str(),
                static_cast<unsigned long long>(tel.traceCacheHits),
                static_cast<unsigned long long>(lookups),
                static_cast<unsigned long long>(tel.engineResets),
                static_cast<unsigned long long>(tel.enginesCreated));
}

std::vector<SweepCell>
fig12SweepGrid(const core::EngineConfig& base)
{
    std::vector<SweepCell> cells;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        for (core::StrategyKind strategy : core::kAllStrategies) {
            SweepCell cell;
            cell.scenario = scenario;
            cell.strategy = strategy;
            cell.config = base;
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

std::vector<SweepCell>
fig15SweepGrid(const core::EngineConfig& base)
{
    std::vector<SweepCell> cells;
    for (double retention : {0.0, 10.0, 50.0, 100.0, 250.0, 500.0}) {
        SweepCell cell;
        cell.scenario = workload::ScenarioKind::HighVariability;
        cell.strategy = core::StrategyKind::HM;
        cell.config = base;
        cell.config.retentionMultiple = retention;
        cell.label = "fig15/retention=" +
            std::to_string(static_cast<int>(retention));
        cells.push_back(std::move(cell));
    }
    return cells;
}

std::vector<SweepCell>
fig16SweepGrid(const core::EngineConfig& base)
{
    std::vector<SweepCell> cells;
    for (double fraction : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
        SweepCell cell;
        cell.scenario = workload::ScenarioKind::HighVariability;
        cell.strategy = core::StrategyKind::HM;
        cell.config = base;
        workload::ScenarioConfig scenario;
        scenario.kind = workload::ScenarioKind::HighVariability;
        scenario.sensitiveFraction = fraction;
        cell.scenarioOverride = scenario;
        cell.label = "fig16/sensitive=" +
            std::to_string(static_cast<int>(fraction * 100.0)) + "%";
        cells.push_back(std::move(cell));
    }
    return cells;
}

} // namespace hcloud::exp
