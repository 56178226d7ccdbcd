/**
 * @file
 * Runner: the figure drivers' store of run results.
 *
 * Several figures share runs (e.g. the cost figures re-price the runs of
 * the performance figures), so the runner memoizes the (scenario x
 * strategy x profiling) matrix within one process. It also keeps the
 * figure's ad-hoc runs (mapping-policy and knob sweeps) in report order
 * for the JSON/JSONL artifact writers.
 *
 * The runner executes nothing itself: fill(), run() and sweep() hand
 * their cells to exp::runSweep with the one-seed list {options().seed},
 * so the cells of one call share scenario traces and pooled engines and
 * run on options().threads workers. Every run uses options().seed as its
 * engine root seed and scenario seed; the engine derives named child
 * streams per subsystem below it, so neither execution order nor thread
 * placement can perturb a draw, and results are bit-identical at any
 * thread count. Trace/timeline sink stems in the base config stream each
 * run to its own part file (see runSweep).
 */

#ifndef HCLOUD_EXP_RUNNER_HPP
#define HCLOUD_EXP_RUNNER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/metrics.hpp"
#include "core/types.hpp"
#include "exp/sweep.hpp"
#include "workload/scenario.hpp"

namespace hcloud::exp {

/** Options shared by experiment drivers. */
struct ExperimentOptions
{
    /** Scales every scenario's load curve (1.0 = paper scale). */
    double loadScale = 1.0;
    /** Root seed. */
    std::uint64_t seed = 42;
    /**
     * Worker threads for runs and the sampling figures. 0 = auto: the
     * HCLOUD_THREADS environment variable if set, otherwise
     * hardware_concurrency. 1 forces the serial path.
     */
    std::size_t threads = 0;
};

/** Memoized run matrix plus the ad-hoc runs of one figure process. */
class Runner
{
  public:
    explicit Runner(ExperimentOptions options = {},
                    core::EngineConfig baseConfig = {});

    const ExperimentOptions& options() const { return options_; }
    const core::EngineConfig& baseConfig() const { return baseConfig_; }

    /** Key of one memoized cell: (scenario, strategy, profiling). */
    using CellKey =
        std::tuple<workload::ScenarioKind, core::StrategyKind, bool>;

    /**
     * The memoized result matrix (cells executed so far), in sorted key
     * order — the deterministic iteration order the JSON/JSONL report
     * writers rely on.
     */
    const std::map<CellKey, core::RunResult>& results() const
    {
        return results_;
    }

    /**
     * When enabled, sweep() results are also copied into an ad-hoc list
     * so the JSON/JSONL artifact writers can report them. Off by default:
     * RunResult copies are not cheap.
     */
    void setRecordAdhoc(bool record) { recordAdhoc_ = record; }
    const std::vector<core::RunResult>& adhocResults() const
    {
        return adhoc_;
    }

    /** Scenario-generation config prefilled with this runner's options. */
    workload::ScenarioConfig scenarioConfig(
        workload::ScenarioKind scenario) const;

    /**
     * Run the cells of @p keys that are not memoized yet, all in one
     * sweep so they share traces and pooled engines. Each runs the base
     * config with `useProfiling` from its key, labelled with its scenario
     * name.
     */
    void fill(const std::vector<CellKey>& keys);

    /** One memoized cell; a miss fills that cell alone. */
    const core::RunResult& run(workload::ScenarioKind scenario,
                               core::StrategyKind strategy,
                               bool profiling = true);

    /**
     * Run uncached cells in one sweep and return their results in cell
     * order (recorded as ad-hoc runs when setRecordAdhoc is on). Each
     * cell's label becomes RunResult::scenario; its config seed and any
     * scenarioOverride's seed and loadScale are replaced by this runner's
     * options.
     */
    std::vector<core::RunResult> sweep(const std::vector<SweepCell>& cells);

  private:
    /** runSweep over @p cells at {options().seed}, results in cell order. */
    std::vector<core::RunResult> execute(const std::vector<SweepCell>& cells,
                                         const std::string& title) const;

    ExperimentOptions options_;
    core::EngineConfig baseConfig_;
    std::map<CellKey, core::RunResult> results_;
    bool recordAdhoc_ = false;
    std::vector<core::RunResult> adhoc_;
};

} // namespace hcloud::exp

#endif // HCLOUD_EXP_RUNNER_HPP
