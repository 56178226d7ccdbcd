/**
 * @file
 * Figure drivers: hybrid-strategy comparison (Figures 10-11), the
 * Section 5 sensitivity studies (Figures 12-17) and the resource-
 * efficiency views (Figures 18-21).
 */

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "cloud/pricing.hpp"
#include "exp/figures.hpp"
#include "exp/figures_detail.hpp"
#include "exp/report.hpp"
#include "workload/latency_model.hpp"

namespace hcloud::exp {

void
fig10HybridPerf(Runner& runner)
{
    printHeader("Figure 10: SR / HF / HM performance, with and without "
                "profiling information");
    std::vector<Runner::CellKey> cells = detail::matrixCells(
        {core::StrategyKind::SR, core::StrategyKind::HF,
         core::StrategyKind::HM},
        /*withUnprofiled=*/true);
    for (const Runner::CellKey& key : detail::matrixCells(
             {core::StrategyKind::OdF, core::StrategyKind::OdM}))
        cells.push_back(key);
    runner.fill(cells);
    detail::perfPanel(runner,
                      {core::StrategyKind::SR, core::StrategyKind::HF,
                       core::StrategyKind::HM});

    double hf_gain = 0.0;
    double hm_gain = 0.0;
    double hybrid_perf = 0.0;
    double sr_perf = 0.0;
    double od_perf = 0.0;
    for (workload::ScenarioKind s : workload::kAllScenarios) {
        hf_gain += runner.run(s, core::StrategyKind::HF, true)
                       .meanPerfNorm() /
            runner.run(s, core::StrategyKind::HF, false).meanPerfNorm();
        hm_gain += runner.run(s, core::StrategyKind::HM, true)
                       .meanPerfNorm() /
            runner.run(s, core::StrategyKind::HM, false).meanPerfNorm();
        sr_perf += runner.run(s, core::StrategyKind::SR).meanPerfNorm();
        hybrid_perf +=
            0.5 * (runner.run(s, core::StrategyKind::HF).meanPerfNorm() +
                   runner.run(s, core::StrategyKind::HM).meanPerfNorm());
        od_perf +=
            0.5 * (runner.run(s, core::StrategyKind::OdF).meanPerfNorm() +
                   runner.run(s, core::StrategyKind::OdM).meanPerfNorm());
    }
    printClaim("profiling gain for HF (avg)", "~2.4x",
               fmt(hf_gain / 3.0, 2) + "x");
    printClaim("profiling gain for HM (avg)", "~2.77x",
               fmt(hm_gain / 3.0, 2) + "x");
    printClaim("hybrid within 8% of SR perf",
               "<= 8%", fmt(100.0 * (1.0 - hybrid_perf / sr_perf), 1) +
                   "% below SR");
    printClaim("hybrid vs fully on-demand perf", "~2.1x better",
               fmt(hybrid_perf / od_perf, 2) + "x better");
}

void
fig11HybridCost(Runner& runner)
{
    printHeader("Figure 11: cost comparison SR / HF / HM "
                "(reserved vs on-demand split)");
    runner.fill(detail::matrixCells({core::StrategyKind::SR,
                                     core::StrategyKind::HF,
                                     core::StrategyKind::HM}));
    detail::costPanel(runner,
                      {core::StrategyKind::SR, core::StrategyKind::HF,
                       core::StrategyKind::HM});
    const cloud::AwsStylePricing pricing;
    double sr = 0.0;
    double hybrid = 0.0;
    for (workload::ScenarioKind s :
         {workload::ScenarioKind::LowVariability,
          workload::ScenarioKind::HighVariability}) {
        sr += runner.run(s, core::StrategyKind::SR).cost(pricing).total();
        hybrid += 0.5 *
            (runner.run(s, core::StrategyKind::HF).cost(pricing).total() +
             runner.run(s, core::StrategyKind::HM).cost(pricing).total());
    }
    printClaim("hybrid cost saving vs SR (variable scenarios)", "~46%",
               fmt(100.0 * (1.0 - hybrid / sr), 1) + "%");
    double util = 0.0;
    for (workload::ScenarioKind s : workload::kAllScenarios)
        util += runner.run(s, core::StrategyKind::HM)
                    .reservedUtilizationAvg;
    printClaim("reserved utilization in steady state", "~80%",
               fmt(100.0 * util / 3.0, 1) + "%");
}

void
fig12PriceRatio(Runner& runner)
{
    printHeader("Figure 12: cost sensitivity to the on-demand:reserved "
                "price ratio (normalized to static SR at ratio 2.74)");
    runner.fill(detail::matrixCells());
    const double base =
        detail::staticSrCost(runner, cloud::AwsStylePricing());
    const double ratios[] = {0.01, 0.5, 1.0, 1.5, 2.0, 2.74, 3.0, 4.0};
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        std::printf("\n-- %s scenario --\n", toString(scenario));
        std::vector<std::vector<std::string>> rows;
        for (core::StrategyKind s : core::kAllStrategies) {
            const core::RunResult& r = runner.run(scenario, s);
            std::vector<std::string> row = {r.strategy};
            for (double ratio : ratios) {
                const cloud::AwsStylePricing pricing(ratio);
                row.push_back(fmt(r.cost(pricing).total() / base, 2));
            }
            rows.push_back(row);
        }
        std::vector<std::string> header = {"strategy"};
        for (double ratio : ratios)
            header.push_back("r=" + fmt(ratio, 2));
        printTable(header, rows);
    }
    printClaim("SR overtakes HM in high variability only at ratio",
               ">= 3", "find the crossover column above");
}

void
fig13Duration(Runner& runner)
{
    printHeader("Figure 13: absolute cost vs scenario duration "
                "(x1000 $, reservations charged as full 1-year terms)");
    runner.fill(detail::matrixCells());
    const cloud::AwsStylePricing pricing;
    const double weeks[] = {1, 5, 10, 15, 20, 25, 30, 40, 52, 60};
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        std::printf("\n-- %s scenario --\n", toString(scenario));
        std::vector<std::vector<std::string>> rows;
        for (core::StrategyKind s : core::kAllStrategies) {
            const core::RunResult& r = runner.run(scenario, s);
            std::vector<std::string> row = {r.strategy};
            for (double w : weeks) {
                const auto c =
                    r.costOverHorizon(pricing, sim::weeks(w));
                row.push_back(fmt(c.total() / 1000.0, 1));
            }
            rows.push_back(row);
        }
        std::vector<std::string> header = {"strategy"};
        for (double w : weeks)
            header.push_back(fmt(w, 0) + "wk");
        printTable(header, rows);
    }
    printClaim("static scenario: OdM cheapest short-term, SR beyond",
               "~20-25 weeks", "find the crossover row/col above");
    printClaim("high variability: SR never optimal",
               "HM best beyond ~18 weeks", "compare rows above");
}

namespace {

/**
 * Per-strategy p5-of-perf (and optionally cost) tables over one swept
 * knob of the high-variability scenario: one cell per (strategy x knob),
 * all in one sweep. @p configure applies a knob value to a cell; the
 * columns read "<knobHeader><knob><knobSuffix>".
 */
template <typename Configure>
void
sensitivitySweep(Runner& runner, const char* knobHeader,
                 const std::vector<double>& knobs, Configure configure,
                 bool withCost, const char* knobSuffix = "")
{
    const cloud::AwsStylePricing pricing;
    const double base = detail::staticSrCost(runner, pricing);
    std::vector<SweepCell> cells;
    for (core::StrategyKind s : core::kAllStrategies) {
        for (double knob : knobs) {
            SweepCell cell;
            cell.scenario = workload::ScenarioKind::HighVariability;
            cell.strategy = s;
            cell.config = runner.baseConfig();
            cell.label = workload::toString(cell.scenario);
            configure(cell, knob);
            cells.push_back(std::move(cell));
        }
    }
    const std::vector<core::RunResult> results = runner.sweep(cells);
    std::vector<std::vector<std::string>> perf_rows;
    std::vector<std::vector<std::string>> cost_rows;
    std::size_t idx = 0;
    for (core::StrategyKind s : core::kAllStrategies) {
        std::vector<std::string> perf_row = {toString(s)};
        std::vector<std::string> cost_row = {toString(s)};
        for (std::size_t k = 0; k < knobs.size(); ++k, ++idx) {
            const core::RunResult& r = results[idx];
            perf_row.push_back(fmt(100.0 * detail::tailPerf(r), 1));
            cost_row.push_back(fmt(r.cost(pricing).total() / base, 2));
        }
        perf_rows.push_back(perf_row);
        cost_rows.push_back(cost_row);
    }
    std::vector<std::string> header = {"strategy"};
    for (double knob : knobs)
        header.push_back(knobHeader + fmt(knob, 0) + knobSuffix);
    std::printf("p95-tail performance normalized to isolation (%%):\n");
    printTable(header, perf_rows);
    if (withCost) {
        std::printf("cost (normalized to static SR):\n");
        printTable(header, cost_rows);
    }
}

} // namespace

void
fig14SpinUpAndExternalLoad(Runner& runner)
{
    printHeader("Figure 14a: performance sensitivity to instance "
                "spin-up time (high-variability scenario)");
    sensitivitySweep(
        runner, "t=",
        {0.0, 15.0, 30.0, 60.0, 120.0},
        [](SweepCell& cell, double knob) {
            cell.config.spinUpFixed = knob;
        },
        /*withCost=*/false);
    printClaim("SR unaffected by spin-up; OdF/OdM degrade most",
               "flat SR curve", "compare rows above");

    printHeader("Figure 14b: performance sensitivity to external load "
                "(high-variability scenario)");
    sensitivitySweep(
        runner, "u%=",
        {0.0, 25.0, 50.0, 75.0, 100.0},
        [](SweepCell& cell, double knob) {
            cell.config.externalLoad.meanUtilization = knob / 100.0;
        },
        /*withCost=*/false);
    printClaim("SR immune; OdM degrades most; HM degrades past ~50%",
               "see Section 5.1", "compare rows above");
}

void
fig15Retention(Runner& runner)
{
    printHeader("Figure 15: sensitivity to idle-instance retention time "
                "(multiples of the spin-up overhead, high variability)");
    sensitivitySweep(
        runner, "x",
        {0.0, 10.0, 50.0, 100.0, 250.0, 500.0},
        [](SweepCell& cell, double knob) {
            cell.config.retentionMultiple = knob;
        },
        /*withCost=*/true);
    printClaim("zero retention hurts performance (spin-up churn)",
               "low perf at x0", "compare x0 column");
    printClaim("excessive retention raises OdF/OdM cost",
               "rising cost with retention", "compare cost columns");
}

void
fig16SensitiveApps(Runner& runner)
{
    printHeader("Figure 16: sensitivity to the fraction of "
                "interference-sensitive applications (high variability)");
    // Each point needs its own trace (the sensitive fraction is a
    // scenario-generation knob), so the cells carry scenario overrides;
    // the five strategies of one fraction share its trace.
    sensitivitySweep(
        runner, "f=",
        {0.0, 20.0, 40.0, 60.0, 80.0, 100.0},
        [&runner](SweepCell& cell, double percent) {
            workload::ScenarioConfig scenario =
                runner.scenarioConfig(cell.scenario);
            scenario.sensitiveFraction = percent / 100.0;
            cell.scenarioOverride = scenario;
            cell.label = "fig16";
        },
        /*withCost=*/true, "%");
    printClaim("hybrids hold up until ~80% sensitive apps",
               "queueing dominates beyond", "compare f=80/100 columns");
    printClaim("on-demand cost surges with sensitive fraction",
               "less co-scheduling possible", "compare cost rows");
}

void
fig17PricingModels(Runner& runner)
{
    printHeader("Figure 17: sensitivity to the cloud pricing model");
    const cloud::AwsStylePricing aws;
    const cloud::AzureOnDemandPricing azure;
    const cloud::GceSustainedUsePricing gce;
    runner.fill(detail::matrixCells());
    const double base = detail::staticSrCost(runner, aws);
    std::vector<std::vector<std::string>> rows;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        for (core::StrategyKind s : core::kAllStrategies) {
            const core::RunResult& r = runner.run(scenario, s);
            rows.push_back({std::string(toString(scenario)), r.strategy,
                            fmt(r.cost(aws).total() / base, 2),
                            fmt(r.cost(azure).total() / base, 2),
                            fmt(r.cost(gce).total() / base, 2)});
        }
    }
    printTable({"scenario", "strategy", "aws reserved+od",
                "azure od-only", "gce od+discounts"},
               rows);

    const auto& high = workload::ScenarioKind::HighVariability;
    const double hm_azure =
        runner.run(high, core::StrategyKind::HM).cost(azure).total();
    const double odf_azure =
        runner.run(high, core::StrategyKind::OdF).cost(azure).total();
    const double hm_gce =
        runner.run(high, core::StrategyKind::HM).cost(gce).total();
    const double odf_gce =
        runner.run(high, core::StrategyKind::OdF).cost(gce).total();
    printClaim("high var: HM vs OdF under Azure pricing", "~32% lower",
               fmt(100.0 * (1.0 - hm_azure / odf_azure), 1) + "% lower");
    printClaim("high var: HM vs OdF under GCE discounts", "~30% lower",
               fmt(100.0 * (1.0 - hm_gce / odf_gce), 1) + "% lower");
}

namespace {

/** The profiled high-variability cell of every strategy (Figs 18-20). */
std::vector<Runner::CellKey>
highVariabilityCells()
{
    std::vector<Runner::CellKey> keys;
    for (core::StrategyKind s : core::kAllStrategies)
        keys.emplace_back(workload::ScenarioKind::HighVariability, s, true);
    return keys;
}

} // namespace

void
fig18Allocation(Runner& runner)
{
    printHeader("Figure 18: resource allocation over time, "
                "high-variability scenario (cores)");
    const workload::ArrivalTrace trace = workload::generateScenario(
        runner.scenarioConfig(workload::ScenarioKind::HighVariability));
    runner.fill(highVariabilityCells());
    for (core::StrategyKind s : core::kAllStrategies) {
        const core::RunResult& r =
            runner.run(workload::ScenarioKind::HighVariability, s);
        std::printf("\n-- configuration %s --\n", r.strategy.c_str());
        std::printf("  %8s %10s %10s %10s\n", "t(min)", "required",
                    "reserved", "on-demand");
        const std::size_t points = 13;
        const auto req =
            trace.requiredCores().resample(0.0, r.makespan, points);
        const auto res =
            r.reservedAllocated.resample(0.0, r.makespan, points);
        const auto od =
            r.onDemandAllocated.resample(0.0, r.makespan, points);
        for (std::size_t i = 0; i < points; ++i) {
            std::printf("  %8.0f %10.0f %10.0f %10.0f\n",
                        req[i].t / 60.0, req[i].v, res[i].v, od[i].v);
        }
    }
}

void
fig19And20Utilization(Runner& runner)
{
    printHeader("Figures 19-20: per-instance utilization, "
                "high-variability scenario");
    runner.fill(highVariabilityCells());
    for (core::StrategyKind s : core::kAllStrategies) {
        const core::RunResult& r =
            runner.run(workload::ScenarioKind::HighVariability, s);
        std::printf("\n-- strategy %s: %zu instances over the run --\n",
                    r.strategy.c_str(), r.instanceTimelines.size());
        // Condensed heatmap: time buckets x (live count, utilization
        // quartiles across live instances).
        const std::size_t buckets = 12;
        std::printf("  %8s %6s | reserved util p25/p50/p75 | on-demand "
                    "util p25/p50/p75 (live)\n",
                    "t(min)", "live");
        for (std::size_t b = 0; b < buckets; ++b) {
            const sim::Time t =
                r.makespan * static_cast<double>(b) / (buckets - 1);
            sim::SampleSet res_util;
            sim::SampleSet od_util;
            for (const auto& [id, tl] : r.instanceTimelines) {
                if (t < tl.acquiredAt || t > tl.releasedAt)
                    continue;
                // Find the utilization sample at or before t.
                double u = 0.0;
                bool found = false;
                for (const auto& p : tl.utilization) {
                    if (p.t > t)
                        break;
                    u = p.v;
                    found = true;
                }
                if (!found)
                    continue;
                (tl.reserved ? res_util : od_util).add(u);
            }
            auto q = [](const sim::SampleSet& ss, double p) {
                return ss.empty() ? 0.0 : 100.0 * ss.quantile(p);
            };
            std::printf("  %8.0f %6zu | %5.0f %5.0f %5.0f | %5.0f %5.0f "
                        "%5.0f (%zu)\n",
                        t / 60.0, res_util.count() + od_util.count(),
                        q(res_util, 0.25), q(res_util, 0.5),
                        q(res_util, 0.75), q(od_util, 0.25),
                        q(od_util, 0.5), q(od_util, 0.75),
                        od_util.count());
        }
    }
    // Section 5.4 counters.
    const auto& odm = runner.run(workload::ScenarioKind::HighVariability,
                                 core::StrategyKind::OdM);
    const auto& hm = runner.run(workload::ScenarioKind::HighVariability,
                                core::StrategyKind::HM);
    printClaim("OdM instances released immediately after use", "~43%",
               fmt(100.0 * odm.immediateReleases /
                       std::max<std::size_t>(odm.acquisitions, 1), 1) +
                   "%");
    printClaim("HM instances released immediately after use", "~11%",
               fmt(100.0 * hm.immediateReleases /
                       std::max<std::size_t>(hm.acquisitions, 1), 1) +
                   "%");
}

void
fig21Breakdown(Runner& runner)
{
    printHeader("Figure 21: allocation breakdown by application type, "
                "low-variability scenario, HM");
    const core::RunResult& r = runner.run(
        workload::ScenarioKind::LowVariability, core::StrategyKind::HM);
    static const char* kGroups[] = {"hadoop", "spark", "memcached"};
    for (const char* side : {"reserved", "on-demand"}) {
        std::printf("\n%s resources (cores):\n", side);
        std::printf("  %8s %10s %10s %10s %10s\n", "t(min)", "allocated",
                    kGroups[0], kGroups[1], kGroups[2]);
        const sim::StepSeries& alloc = side == std::string("reserved")
            ? r.reservedAllocated
            : r.onDemandAllocated;
        const std::size_t points = 13;
        for (std::size_t i = 0; i < points; ++i) {
            const sim::Time t =
                r.makespan * static_cast<double>(i) / (points - 1);
            std::printf("  %8.0f %10.0f", t / 60.0, alloc.at(t));
            for (const char* g : kGroups) {
                const std::string key =
                    std::string(g) + "/" + side;
                const auto it = r.breakdown.find(key);
                std::printf(" %10.0f",
                            it == r.breakdown.end() ? 0.0
                                                    : it->second.at(t));
            }
            std::printf("\n");
        }
    }
    printClaim("memcached occupies reserved; batch overflows on-demand",
               "Figure 21 shape", "compare group columns per side");
}

} // namespace hcloud::exp
