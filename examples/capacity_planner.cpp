/**
 * @file
 * Capacity planner: given a workload scenario and a planning horizon,
 * recommend the provisioning strategy with the lowest total cost that
 * still meets a performance floor.
 *
 * This is the decision a platform team actually faces: "we expect this
 * load shape for N weeks — what should we buy?" The planner runs all
 * five strategies through the simulator, prices them with committed
 * reservations (Figure 13 semantics), filters by a QoS floor, and prints
 * the recommendation with the full evidence table.
 *
 * Usage: capacity_planner [static|low|high] [weeks] [minPerf]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cloud/pricing.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"

namespace {

struct Candidate
{
    std::string name;
    double cost = 0.0;
    double perf = 0.0;
    double tailPerf = 0.0;
    bool meetsFloor = false;
};

} // namespace

int
main(int argc, char** argv)
{
    using namespace hcloud;

    workload::ScenarioKind kind = workload::ScenarioKind::LowVariability;
    double weeks = 26.0;
    double min_perf = 0.75;
    if (argc > 1) {
        if (!std::strcmp(argv[1], "static"))
            kind = workload::ScenarioKind::Static;
        else if (!std::strcmp(argv[1], "high"))
            kind = workload::ScenarioKind::HighVariability;
    }
    if (argc > 2)
        weeks = std::atof(argv[2]);
    if (argc > 3)
        min_perf = std::atof(argv[3]);

    std::printf("capacity plan: %s scenario, %.0f-week horizon, "
                "perf floor %.0f%%\n\n",
                toString(kind), weeks, 100.0 * min_perf);

    exp::Runner runner;
    std::vector<exp::Runner::CellKey> cells;
    for (core::StrategyKind s : core::kAllStrategies)
        cells.emplace_back(kind, s, true);
    runner.fill(cells);
    const cloud::AwsStylePricing pricing;
    std::vector<Candidate> candidates;
    for (core::StrategyKind s : core::kAllStrategies) {
        const core::RunResult& r = runner.run(kind, s);
        Candidate c;
        c.name = r.strategy;
        c.cost =
            r.costOverHorizon(pricing, sim::weeks(weeks)).total();
        c.perf = r.meanPerfNorm();
        sim::SampleSet all;
        all.merge(r.batchPerfNorm);
        all.merge(r.lcPerfNorm);
        c.tailPerf = all.empty() ? 0.0 : all.quantile(0.05);
        c.meetsFloor = c.perf >= min_perf;
        candidates.push_back(c);
    }

    std::vector<std::vector<std::string>> rows;
    const Candidate* best = nullptr;
    for (const Candidate& c : candidates) {
        if (c.meetsFloor && (!best || c.cost < best->cost))
            best = &c;
        rows.push_back({c.name, exp::fmt(c.cost / 1000.0, 1),
                        exp::fmt(100.0 * c.perf, 1),
                        exp::fmt(100.0 * c.tailPerf, 1),
                        c.meetsFloor ? "yes" : "no"});
    }
    exp::printTable({"strategy", "cost (k$)", "mean perf %",
                     "p95-tail perf %", "meets floor"},
                    rows);

    if (best) {
        std::printf("\nrecommendation: %s ($%.0fk over %.0f weeks)\n",
                    best->name.c_str(), best->cost / 1000.0, weeks);
    } else {
        std::printf("\nno strategy meets the %.0f%% performance floor; "
                    "consider relaxing it or reserving for peak (SR)\n",
                    100.0 * min_perf);
    }

    // Show where the crossovers are so the reader can sanity-check.
    std::printf("\ncost vs horizon (k$):\n");
    std::vector<std::vector<std::string>> sweep;
    for (core::StrategyKind s : core::kAllStrategies) {
        const core::RunResult& r = runner.run(kind, s);
        std::vector<std::string> row = {r.strategy};
        for (double w : {4.0, 13.0, 26.0, 52.0}) {
            row.push_back(exp::fmt(
                r.costOverHorizon(pricing, sim::weeks(w)).total() /
                    1000.0,
                1));
        }
        sweep.push_back(row);
    }
    exp::printTable({"strategy", "4wk", "13wk", "26wk", "52wk"}, sweep);
    return 0;
}
