/**
 * @file
 * Integration tests: comparative invariants across strategies that mirror
 * the paper's qualitative findings, run at reduced scale.
 *
 * These are the "does the system reproduce the paper's shape" checks:
 * SR beats OdM on performance, small instances hurt OdM's tail latency,
 * hybrids track SR's performance, utilization orderings, and sensitivity
 * directions (spin-up, external load).
 */

#include <gtest/gtest.h>

#include <map>

#include "cloud/pricing.hpp"
#include "core/engine.hpp"
#include "exp/runner.hpp"
#include "workload/scenario.hpp"

namespace hcloud {
namespace {

/** Shared reduced-scale run matrix (computed once for the whole suite). */
class IntegrationTest : public ::testing::Test
{
  protected:
    static exp::Runner&
    runner()
    {
        static exp::Runner instance = [] {
            exp::Runner r{
                exp::ExperimentOptions{/*loadScale=*/0.30, /*seed=*/42}};
            // Every profiled cell plus the unprofiled static row, in one
            // sweep.
            std::vector<exp::Runner::CellKey> cells;
            for (workload::ScenarioKind scenario : workload::kAllScenarios)
                for (core::StrategyKind s : core::kAllStrategies)
                    cells.emplace_back(scenario, s, true);
            for (core::StrategyKind s : core::kAllStrategies)
                cells.emplace_back(workload::ScenarioKind::Static, s, false);
            r.fill(cells);
            return r;
        }();
        return instance;
    }

    /** Mean normalized perf of each (strategy, config) cell on the
     *  high-variability scenario, run in one sweep. */
    static std::vector<double>
    highVariabilityPerf(
        const std::vector<std::pair<core::StrategyKind, core::EngineConfig>>&
            runs)
    {
        std::vector<exp::SweepCell> cells;
        for (const auto& [strategy, config] : runs) {
            exp::SweepCell cell;
            cell.scenario = workload::ScenarioKind::HighVariability;
            cell.strategy = strategy;
            cell.config = config;
            cells.push_back(std::move(cell));
        }
        std::vector<double> perf;
        for (const core::RunResult& r : runner().sweep(cells))
            perf.push_back(r.meanPerfNorm());
        return perf;
    }

    static const core::RunResult&
    get(workload::ScenarioKind scenario, core::StrategyKind strategy,
        bool profiling = true)
    {
        return runner().run(scenario, strategy, profiling);
    }
};

TEST_F(IntegrationTest, SrDeliversBestPerformanceEverywhere)
{
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        const double sr = get(scenario, core::StrategyKind::SR)
                              .meanPerfNorm();
        for (core::StrategyKind s :
             {core::StrategyKind::OdF, core::StrategyKind::OdM}) {
            EXPECT_GE(sr + 0.03, get(scenario, s).meanPerfNorm())
                << toString(scenario) << " vs " << toString(s);
        }
    }
}

TEST_F(IntegrationTest, OdMIsTheWorstPerformer)
{
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        const double odm =
            get(scenario, core::StrategyKind::OdM).meanPerfNorm();
        for (core::StrategyKind s :
             {core::StrategyKind::SR, core::StrategyKind::OdF,
              core::StrategyKind::HF, core::StrategyKind::HM}) {
            EXPECT_LT(odm, get(scenario, s).meanPerfNorm() + 0.02)
                << toString(scenario) << " vs " << toString(s);
        }
    }
}

TEST_F(IntegrationTest, OdMTailLatencyFarWorseThanSr)
{
    // The paper's memcached suffers an order of magnitude on OdM under
    // load variability.
    for (workload::ScenarioKind scenario :
         {workload::ScenarioKind::LowVariability,
          workload::ScenarioKind::HighVariability}) {
        const double sr =
            get(scenario, core::StrategyKind::SR).lcLatencyUs.mean();
        const double odm =
            get(scenario, core::StrategyKind::OdM).lcLatencyUs.mean();
        EXPECT_GT(odm, 2.0 * sr) << toString(scenario);
    }
}

TEST_F(IntegrationTest, HybridsTrackSrPerformance)
{
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        const double sr =
            get(scenario, core::StrategyKind::SR).meanPerfNorm();
        for (core::StrategyKind s :
             {core::StrategyKind::HF, core::StrategyKind::HM}) {
            const double hybrid = get(scenario, s).meanPerfNorm();
            EXPECT_GT(hybrid, 0.85 * sr)
                << toString(scenario) << " " << toString(s);
        }
    }
}

TEST_F(IntegrationTest, ProfilingImprovesPerformance)
{
    // Per-strategy gains vary at reduced scale (user defaults happen to
    // overprovision small jobs), but the aggregate must clearly favor
    // profiling, with SR showing the paper's large gain.
    double with_sum = 0.0;
    double without_sum = 0.0;
    for (core::StrategyKind s : core::kAllStrategies) {
        with_sum +=
            get(workload::ScenarioKind::Static, s, true).meanPerfNorm();
        without_sum +=
            get(workload::ScenarioKind::Static, s, false).meanPerfNorm();
    }
    EXPECT_GT(with_sum, 1.05 * without_sum);
    const double sr_with =
        get(workload::ScenarioKind::Static, core::StrategyKind::SR, true)
            .meanPerfNorm();
    const double sr_without =
        get(workload::ScenarioKind::Static, core::StrategyKind::SR, false)
            .meanPerfNorm();
    EXPECT_GT(sr_with, 1.3 * sr_without);
}

TEST_F(IntegrationTest, OnDemandCostsMoreThanAmortizedReserved)
{
    const cloud::AwsStylePricing pricing;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        const double sr = get(scenario, core::StrategyKind::SR)
                              .cost(pricing)
                              .total();
        const double odf = get(scenario, core::StrategyKind::OdF)
                               .cost(pricing)
                               .total();
        EXPECT_GT(odf, 1.2 * sr) << toString(scenario);
    }
}

TEST_F(IntegrationTest, HybridsCheaperThanFullyOnDemand)
{
    const cloud::AwsStylePricing pricing;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        const double odf = get(scenario, core::StrategyKind::OdF)
                               .cost(pricing)
                               .total();
        const double hf = get(scenario, core::StrategyKind::HF)
                              .cost(pricing)
                              .total();
        EXPECT_LT(hf, odf) << toString(scenario);
    }
}

TEST_F(IntegrationTest, SrUtilizationCollapsesUnderVariability)
{
    const double static_util =
        get(workload::ScenarioKind::Static, core::StrategyKind::SR)
            .reservedUtilizationAvg;
    const double high_util =
        get(workload::ScenarioKind::HighVariability,
            core::StrategyKind::SR)
            .reservedUtilizationAvg;
    EXPECT_GT(static_util, 0.6);
    EXPECT_LT(high_util, static_util - 0.25)
        << "peak-sized pools waste capacity under variability";
}

TEST_F(IntegrationTest, HybridReservedUtilizationHigh)
{
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        for (core::StrategyKind s :
             {core::StrategyKind::HF, core::StrategyKind::HM}) {
            EXPECT_GT(get(scenario, s).reservedUtilizationAvg, 0.55)
                << toString(scenario) << " " << toString(s);
        }
    }
}

TEST_F(IntegrationTest, CommittedCostCrossover)
{
    // Figure 13's structure: on-demand wins short horizons, reservations
    // win long horizons (static scenario).
    const cloud::AwsStylePricing pricing;
    const auto& sr = get(workload::ScenarioKind::Static,
                         core::StrategyKind::SR);
    const auto& odm = get(workload::ScenarioKind::Static,
                          core::StrategyKind::OdM);
    const double sr_1wk =
        sr.costOverHorizon(pricing, sim::weeks(1.0)).total();
    const double odm_1wk =
        odm.costOverHorizon(pricing, sim::weeks(1.0)).total();
    EXPECT_LT(odm_1wk, sr_1wk) << "on-demand cheaper at 1 week";
    const double sr_52wk =
        sr.costOverHorizon(pricing, sim::weeks(52.0)).total();
    const double odm_52wk =
        odm.costOverHorizon(pricing, sim::weeks(52.0)).total();
    EXPECT_LT(sr_52wk, odm_52wk) << "reserved cheaper at 1 year";
}

TEST_F(IntegrationTest, SpinUpSensitivityDirection)
{
    // Figure 14a: slower spin-up hurts on-demand strategies, not SR.
    core::EngineConfig fast = runner().baseConfig();
    fast.spinUpFixed = 0.0;
    core::EngineConfig slow = runner().baseConfig();
    slow.spinUpFixed = 120.0;
    const std::vector<double> perf = highVariabilityPerf(
        {{core::StrategyKind::OdF, fast},
         {core::StrategyKind::OdF, slow},
         {core::StrategyKind::SR, fast},
         {core::StrategyKind::SR, slow}});
    EXPECT_GT(perf[0], perf[1] + 0.01);
    EXPECT_NEAR(perf[2], perf[3], 0.03) << "SR has no spin-ups";
}

TEST_F(IntegrationTest, ExternalLoadSensitivityDirection)
{
    // Figure 14b: external load destroys OdM, barely touches SR.
    core::EngineConfig calm = runner().baseConfig();
    calm.externalLoad.meanUtilization = 0.0;
    calm.externalLoad.band = 0.0;
    core::EngineConfig stormy = runner().baseConfig();
    stormy.externalLoad.meanUtilization = 0.75;
    const std::vector<double> perf = highVariabilityPerf(
        {{core::StrategyKind::OdM, calm},
         {core::StrategyKind::OdM, stormy},
         {core::StrategyKind::SR, calm},
         {core::StrategyKind::SR, stormy}});
    EXPECT_GT(perf[0], perf[1] + 0.10);
    EXPECT_NEAR(perf[2], perf[3], 0.05) << "SR is fully isolated";
}

TEST_F(IntegrationTest, MappingPolicyEndToEnd)
{
    // Figure 6's headline: the dynamic policy beats the random one on
    // on-demand-side performance.
    core::EngineConfig random = runner().baseConfig();
    random.mappingPolicy = core::PolicyKind::P1Random;
    exp::SweepCell cell;
    cell.scenario = workload::ScenarioKind::HighVariability;
    cell.strategy = core::StrategyKind::HM;
    cell.config = random;
    const core::RunResult p1 = runner().sweep({cell})[0];
    const core::RunResult& p8 = get(cell.scenario, core::StrategyKind::HM);
    EXPECT_GT(p8.meanPerfNorm() + 0.03, p1.meanPerfNorm());
    // The random policy queues far more work on the reserved side.
    EXPECT_GE(p1.queuedJobs + 5, p8.queuedJobs);
}

} // namespace
} // namespace hcloud
