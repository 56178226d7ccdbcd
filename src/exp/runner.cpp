#include "exp/runner.hpp"

#include <algorithm>

namespace hcloud::exp {

Runner::Runner(ExperimentOptions options, core::EngineConfig baseConfig)
    : options_(options), baseConfig_(baseConfig)
{
    baseConfig_.seed = options.seed;
}

workload::ScenarioConfig
Runner::scenarioConfig(workload::ScenarioKind scenario) const
{
    workload::ScenarioConfig cfg;
    cfg.kind = scenario;
    cfg.seed = options_.seed;
    cfg.loadScale = options_.loadScale;
    return cfg;
}

std::vector<core::RunResult>
Runner::execute(const std::vector<SweepCell>& cells,
                const std::string& title) const
{
    SweepOptions sweepOptions;
    sweepOptions.title = title;
    sweepOptions.baseSeed = options_.seed;
    sweepOptions.loadScale = options_.loadScale;
    sweepOptions.threads = options_.threads;
    std::vector<core::RunResult> results(cells.size());
    runSweep(cells, {options_.seed}, sweepOptions,
             [&results](std::size_t cell, std::size_t,
                        core::RunResult&& result) {
                 results[cell] = std::move(result);
             });
    return results;
}

void
Runner::fill(const std::vector<CellKey>& keys)
{
    std::vector<CellKey> missing;
    std::vector<SweepCell> cells;
    for (const CellKey& key : keys) {
        if (results_.count(key) ||
            std::find(missing.begin(), missing.end(), key) != missing.end())
            continue;
        missing.push_back(key);
        SweepCell cell;
        cell.scenario = std::get<0>(key);
        cell.strategy = std::get<1>(key);
        cell.config = baseConfig_;
        cell.config.useProfiling = std::get<2>(key);
        cell.label = workload::toString(cell.scenario);
        cells.push_back(std::move(cell));
    }
    if (cells.empty())
        return;
    std::vector<core::RunResult> results = execute(cells, "matrix");
    for (std::size_t i = 0; i < missing.size(); ++i)
        results_.emplace(missing[i], std::move(results[i]));
}

const core::RunResult&
Runner::run(workload::ScenarioKind scenario, core::StrategyKind strategy,
            bool profiling)
{
    const CellKey key{scenario, strategy, profiling};
    fill({key});
    return results_.at(key);
}

std::vector<core::RunResult>
Runner::sweep(const std::vector<SweepCell>& cells)
{
    std::vector<core::RunResult> results = execute(cells, "adhoc");
    if (recordAdhoc_)
        adhoc_.insert(adhoc_.end(), results.begin(), results.end());
    return results;
}

} // namespace hcloud::exp
