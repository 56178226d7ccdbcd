/**
 * @file
 * SweepScheduler: the one executor of batch runs. Multi-seed figure
 * sweeps, the figure drivers' memoized matrix cells (exp::Runner) and
 * their ad-hoc knob sweeps all run here, with per-worker engine reuse, a
 * shared scenario-trace cache and streaming CI aggregation.
 *
 * A sweep expands a figure grid (cells: scenario x strategy x config) by
 * a seed list into cells x seeds independent runs, fans them out with
 * runtime::parallelFor (each worker pulls one run at a time, so uneven
 * cells balance without weights), and reduces each cell's runs into
 * mean / stddev / 95% confidence intervals the moment they land. A full
 * RunResult outlives its own task only when the caller asks for it
 * through a visitor, so a thousand-run sweep holds kilobytes of
 * aggregates, not gigabytes of results.
 *
 * Three mechanisms keep per-run cost down:
 *
 *  1. Engine reuse: each worker rents a core::EngineRun from a
 *     shared pool and re-arms it via EngineRun::reset() between runs, so
 *     the event-queue slab, callback storage, ring buffers and job-index
 *     hash buckets are paid for once per worker, not once per run.
 *  2. Shared trace cache: tasks key their scenario generation by
 *     workload::digest(ScenarioConfig) — which covers every
 *     generation-relevant field *including the seed* — so the five
 *     strategies of one (scenario, seed) column generate the trace once
 *     and share it.
 *  3. Streaming Welford reduction: per-cell accumulators are folded in
 *     seed order behind a cursor, independent of completion order, which
 *     keeps the aggregates byte-identical at 1, 2 or N threads (the
 *     Welford recurrence is order-sensitive, so "fold in seed order" is
 *     the determinism contract, asserted in tests/test_exp_sweep.cpp).
 *
 * Each run's engine seed and scenario seed are the task's seed, so a run
 * is a pure function of (cell, seed): which worker ran it, and after
 * what, cannot perturb a draw.
 *
 * Seed derivation: seed i of a sweep is sim::Rng(baseSeed).child(i)'s
 * seed — deterministic in (baseSeed, i), independent of seed count, and
 * as decorrelated across i as the engine's own child streams.
 */

#ifndef HCLOUD_EXP_SWEEP_HPP
#define HCLOUD_EXP_SWEEP_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/types.hpp"
#include "workload/scenario.hpp"

namespace hcloud::obs {
class JsonWriter;
} // namespace hcloud::obs

namespace hcloud::exp {

/** One grid cell of a sweep: a strategy against a scenario/config. */
struct SweepCell
{
    workload::ScenarioKind scenario = workload::ScenarioKind::Static;
    core::StrategyKind strategy = core::StrategyKind::SR;
    /** Engine configuration; its seed is replaced per task. */
    core::EngineConfig config{};
    /** Generate this cell's trace from a custom scenario config instead
     *  of the plain per-scenario one (the fig16 sensitive-fraction
     *  sweep). Its seed and loadScale are replaced per task. */
    std::optional<workload::ScenarioConfig> scenarioOverride;
    /** Cell label in reports; empty = "<scenario>/<strategy>". */
    std::string label;
};

/** Sweep-wide knobs. */
struct SweepOptions
{
    /** Title recorded in the result and used for gauge labels. */
    std::string title = "sweep";
    /** Seeds per cell (the replication count behind each CI). */
    std::size_t seeds = 5;
    /** Root of the derived seed list (deriveSeedList). */
    std::uint64_t baseSeed = 42;
    /** Scales every scenario's load curve. */
    double loadScale = 1.0;
    /**
     * Scenario length override applied to every cell (cells with an
     * explicit scenarioOverride keep their own duration). Unset = the
     * scenario default. Short sweeps are where per-run setup dominates,
     * which is the regime the scheduler's reuse machinery targets.
     */
    std::optional<sim::Duration> duration;
    /** Worker threads; 0 = runtime::defaultThreadCount(), 1 = serial. */
    std::size_t threads = 0;
};

/**
 * Streaming mean/variance accumulator (Welford). merge() combines two
 * accumulators exactly (Chan et al.), so chunked reductions can fold
 * sub-aggregates; add() order still matters for bit-identity, which is
 * why SweepScheduler folds in seed order.
 */
struct Welford
{
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;

    void add(double x);
    void merge(const Welford& other);
    double variance() const { return n > 1 ? m2 / double(n - 1) : 0.0; }
    double stddev() const;
    /** Half-width of the normal-approximation 95% CI on the mean
     *  (1.96 * stddev / sqrt(n); 0 below two samples). */
    double ci95() const;
};

/** Per-cell reduced metrics over the sweep's seed list. */
struct SweepCellAggregate
{
    std::string label;
    workload::ScenarioKind scenario = workload::ScenarioKind::Static;
    core::StrategyKind strategy = core::StrategyKind::SR;

    /** Amortized run cost under AwsStylePricing ($). */
    Welford cost;
    /** Time-averaged reserved-pool utilization. */
    Welford utilization;
    /** p95 of per-job normalized performance (batch + LC merged). */
    Welford qualityP95;
    /** QoS violations: reschedules + failed jobs. */
    Welford qosViolations;
    /** Simulated makespan (virtual seconds). */
    Welford makespan;
    /** Simulator events processed, summed over the cell's runs. */
    std::uint64_t eventsProcessed = 0;
};

/** Wall-clock/engineering telemetry of one sweep execution. */
struct SweepTelemetry
{
    std::uint64_t runs = 0;
    std::uint64_t traceCacheHits = 0;
    std::uint64_t traceCacheMisses = 0;
    std::uint64_t engineResets = 0;
    std::uint64_t enginesCreated = 0;
    /** End-to-end wall-clock of SweepScheduler::run() (seconds). */
    double wallSec = 0.0;
    /** Sum of per-run engine-setup seconds (reset-or-construct + wiring
     *  + arrival scheduling; the reuse win shows up here). */
    double setupSecTotal = 0.0;
    /** Sum of per-run trace-generation seconds actually paid (cache
     *  misses only). */
    double traceGenSecTotal = 0.0;
    /** Simulator events processed, summed over all runs. */
    std::uint64_t eventsProcessed = 0;
    /** eventsProcessed / wallSec — the sweep-level throughput. */
    double eventsPerSec = 0.0;
    /** Effective worker count: options.threads (0 = auto), capped at
     *  the number of runs. */
    std::size_t threads = 1;
    /** High-water mark of buffered (not yet folded) per-run metric
     *  records across the whole sweep — the "never holds thousands of
     *  RunResults" bound, surfaced so tests can pin it. */
    std::size_t maxBufferedRuns = 0;
};

/** Everything a finished sweep produced. */
struct SweepResult
{
    std::string title;
    std::size_t seeds = 0;
    std::uint64_t baseSeed = 0;
    double loadScale = 1.0;
    std::vector<std::uint64_t> seedList;
    /** One aggregate per grid cell, in grid order. */
    std::vector<SweepCellAggregate> cells;
    SweepTelemetry telemetry;
};

/**
 * The sweep's seed list: seed i = sim::Rng(baseSeed).child(i).seed().
 * Deterministic, duplicate-free in practice, and independent of @p count
 * (a 10-seed list extends the 5-seed list).
 */
std::vector<std::uint64_t> deriveSeedList(std::uint64_t baseSeed,
                                          std::size_t count);

/** Help text of `hcloud_run_completed_total`, which runSweep bumps once
 *  per run (exp::ScopedMetricsServer registers it up front). */
inline constexpr const char* kRunCompletedHelp = "Engine runs completed";

/**
 * Receives the full RunResult of each run of a sweep with its cell index
 * and seed index. Called once per run, never concurrently, after the run
 * folded into its cell's aggregate. Calls follow completion order, so
 * callers store each result by its indices.
 */
using SweepVisitor = std::function<void(
    std::size_t cell, std::size_t seedIndex, core::RunResult&& result)>;

/**
 * Run @p cells x exactly @p seeds and reduce per cell.
 *
 * Execution: tasks are ordered cell-major (cell * seeds + seedIndex) and
 * pulled one at a time by options.threads workers (runtime::parallelFor).
 * Each task rents an engine (reset or fresh), resolves its trace through
 * the shared cache, runs, extracts a small metrics record and hands the
 * RunResult to @p visit (or drops it when @p visit is empty). Records
 * fold into the per-cell accumulators in strict seed order regardless of
 * completion order, so the returned aggregates are byte-identical at any
 * thread count (sweepCellsJson() is the canonical comparison form).
 * options.seeds and options.baseSeed only label the result here; @p seeds
 * is the seed list.
 *
 * A cell whose config carries a trace or timeline `sinkStem` streams each
 * run to its own part file, "<stem>.<sweep>-<cell>-<seedIndex>.part",
 * unique per (sweep call, cell, seed), so concurrent runs never share a
 * file; RunResult::trace/timeline.sinkPath name it.
 *
 * Every run also bumps the process metrics hcloud_run_completed_total,
 * hcloud_run_sim_events_total and hcloud_phase_seconds_total{phase}.
 */
SweepResult runSweep(const std::vector<SweepCell>& cells,
                     const std::vector<std::uint64_t>& seeds,
                     const SweepOptions& options,
                     const SweepVisitor& visit = {});

/** Run @p cells x deriveSeedList(options.baseSeed, options.seeds). */
SweepResult runSweep(const std::vector<SweepCell>& cells,
                     const SweepOptions& options);

/**
 * Canonical JSON of a sweep's deterministic portion (cells only, no
 * telemetry) — what the byte-identity tests and CI compare across
 * thread counts.
 */
std::string sweepCellsJson(const SweepResult& result);

/**
 * Serialize one sweep as a JSON object into an open writer: the
 * deterministic cell block of sweepCellsJson plus a `telemetry` section
 * (wall-clock, cache/reset counts — excluded from byte-identity). This
 * is the `sweeps[]` element shape of report schema v4.
 */
void sweepJson(obs::JsonWriter& w, const SweepResult& result);

/**
 * Print @p result as an aligned per-cell table — mean +/- 95% CI for
 * each reduced metric — followed by one telemetry summary line (seeds,
 * threads, cache hit rate, resets, events/sec).
 */
void printSweepTable(const SweepResult& result);

/** The Figure 12 grid: 3 scenarios x 5 strategies on @p baseConfig. */
std::vector<SweepCell> fig12SweepGrid(const core::EngineConfig& base);

/** The Figure 15 grid: retention multiples {0,10,50,100,250,500} x the
 *  HighVariability scenario under the HM strategy. */
std::vector<SweepCell> fig15SweepGrid(const core::EngineConfig& base);

/** The Figure 16 grid: sensitive-app fraction {0,0.2,...,1.0} x the
 *  HighVariability scenario under the HM strategy. */
std::vector<SweepCell> fig16SweepGrid(const core::EngineConfig& base);

} // namespace hcloud::exp

#endif // HCLOUD_EXP_SWEEP_HPP
