/**
 * @file
 * SweepScheduler tests: Welford/merge math against direct computation,
 * seed-list derivation, EngineRun::reset()
 * bit-identity with a fresh engine, thread-count and submission-order
 * independence of the streaming aggregates and of the full results a
 * visitor receives, literal seed lists, trace-cache and engine-reuse
 * accounting, and the process metrics a sweep publishes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/pricing.hpp"
#include "cloud/provider_profile.hpp"
#include "core/engine_run.hpp"
#include "core/strategy.hpp"
#include "exp/sweep.hpp"
#include "obs/process_metrics.hpp"
#include "profiling/quasar.hpp"
#include "workload/archetypes.hpp"
#include "workload/scenario.hpp"

namespace hcloud {
namespace {

TEST(Welford, MatchesDirectMeanAndVariance)
{
    const std::vector<double> xs = {3.0, 1.5, -2.0, 8.25, 4.0, 4.0, 0.5};
    exp::Welford acc;
    for (double x : xs)
        acc.add(x);
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= double(xs.size());
    double m2 = 0.0;
    for (double x : xs)
        m2 += (x - mean) * (x - mean);
    const double variance = m2 / double(xs.size() - 1);
    EXPECT_EQ(acc.n, xs.size());
    EXPECT_NEAR(acc.mean, mean, 1e-12);
    EXPECT_NEAR(acc.variance(), variance, 1e-12);
    EXPECT_NEAR(acc.stddev(), std::sqrt(variance), 1e-12);
    EXPECT_NEAR(acc.ci95(),
                1.96 * std::sqrt(variance) / std::sqrt(double(xs.size())),
                1e-12);
}

TEST(Welford, BelowTwoSamplesHasZeroSpread)
{
    exp::Welford acc;
    EXPECT_EQ(acc.variance(), 0.0);
    EXPECT_EQ(acc.ci95(), 0.0);
    acc.add(7.5);
    EXPECT_EQ(acc.mean, 7.5);
    EXPECT_EQ(acc.variance(), 0.0);
    EXPECT_EQ(acc.ci95(), 0.0);
}

TEST(Welford, MergeEqualsSequentialFold)
{
    const std::vector<double> xs = {0.25, 9.0, -1.0, 3.5, 3.5, 12.0};
    for (std::size_t split = 0; split <= xs.size(); ++split) {
        exp::Welford left;
        exp::Welford right;
        exp::Welford sequential;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            (i < split ? left : right).add(xs[i]);
            sequential.add(xs[i]);
        }
        left.merge(right);
        EXPECT_EQ(left.n, sequential.n) << "split " << split;
        EXPECT_NEAR(left.mean, sequential.mean, 1e-12);
        EXPECT_NEAR(left.m2, sequential.m2, 1e-9);
    }
}

TEST(SweepSeeds, DerivationIsDeterministicDistinctAndPrefixStable)
{
    const std::vector<std::uint64_t> five = exp::deriveSeedList(42, 5);
    const std::vector<std::uint64_t> again = exp::deriveSeedList(42, 5);
    const std::vector<std::uint64_t> ten = exp::deriveSeedList(42, 10);
    ASSERT_EQ(five.size(), 5u);
    EXPECT_EQ(five, again);
    // Growing the seed count extends the list without moving earlier
    // seeds, so a 10-seed rerun reuses the 5-seed results.
    ASSERT_EQ(ten.size(), 10u);
    EXPECT_TRUE(std::equal(five.begin(), five.end(), ten.begin()));
    EXPECT_EQ(std::set<std::uint64_t>(ten.begin(), ten.end()).size(),
              10u);
    // Different bases give different lists.
    EXPECT_NE(exp::deriveSeedList(43, 5), five);
}

/** Short scenario so an engine run costs milliseconds, not seconds. */
workload::ScenarioConfig
tinyScenario(workload::ScenarioKind kind, std::uint64_t seed)
{
    workload::ScenarioConfig cfg;
    cfg.kind = kind;
    cfg.duration = sim::hours(0.2);
    cfg.seed = seed;
    return cfg;
}

/** Numeric spine of a RunResult (exact comparison => bit-identity). */
std::vector<double>
digest(const core::RunResult& r)
{
    const cloud::AwsStylePricing pricing;
    const cloud::CostBreakdown cost = r.cost(pricing);
    std::vector<double> d = {
        r.makespan,
        r.meanPerfNorm(),
        r.reservedUtilizationAvg,
        static_cast<double>(r.jobCount),
        static_cast<double>(r.failedJobs),
        static_cast<double>(r.acquisitions),
        static_cast<double>(r.immediateReleases),
        static_cast<double>(r.reschedules),
        static_cast<double>(r.queuedJobs),
        static_cast<double>(r.outcomes.size()),
        static_cast<double>(r.instanceTimelines.size()),
        cost.reserved,
        cost.onDemand,
        static_cast<double>(r.trace.recorded),
        static_cast<double>(r.telemetry.eventsProcessed),
    };
    for (const sim::SampleSet* ss :
         {&r.batchTurnaroundMin, &r.batchPerfNorm, &r.lcLatencyUs,
          &r.lcPerfNorm, &r.perfReserved, &r.perfOnDemand,
          &r.spinUpWaits, &r.queueWaits}) {
        d.push_back(static_cast<double>(ss->count()));
        if (!ss->empty()) {
            d.push_back(ss->mean());
            d.push_back(ss->quantile(0.05));
            d.push_back(ss->quantile(0.5));
            d.push_back(ss->quantile(0.95));
        }
    }
    return d;
}

/** Bit-identity of two results: labels, digest and per-job outcomes. */
void
expectIdentical(const core::RunResult& a, const core::RunResult& b,
                const std::string& what)
{
    EXPECT_EQ(a.strategy, b.strategy) << what;
    EXPECT_EQ(a.scenario, b.scenario) << what;
    EXPECT_EQ(a.profiling, b.profiling) << what;
    const std::vector<double> x = digest(a);
    const std::vector<double> y = digest(b);
    ASSERT_EQ(x.size(), y.size()) << what;
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(x[i], y[i]) << what << " digest[" << i << "]";
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        const core::JobOutcome& p = a.outcomes[i];
        const core::JobOutcome& q = b.outcomes[i];
        EXPECT_EQ(p.id, q.id) << what;
        EXPECT_EQ(p.perfNorm, q.perfNorm) << what << " job " << i;
        EXPECT_EQ(p.turnaroundMin, q.turnaroundMin) << what;
        EXPECT_EQ(p.latencyP99Us, q.latencyP99Us) << what;
        EXPECT_EQ(p.waitSec, q.waitSec) << what;
    }
}

core::EngineRun::StrategyFactory
factoryFor(core::StrategyKind kind)
{
    return [kind](core::EngineContext& ctx) {
        return core::makeStrategy(kind, ctx);
    };
}

TEST(EngineRunReset, ResetRunIsBitIdenticalToFreshEngine)
{
    const cloud::ProviderProfile profile = cloud::ProviderProfile::gce();
    const workload::ArrivalTrace warmupTrace = workload::generateScenario(
        tinyScenario(workload::ScenarioKind::HighVariability, 7));
    const workload::ArrivalTrace trace = workload::generateScenario(
        tinyScenario(workload::ScenarioKind::LowVariability, 1234));

    core::EngineConfig warmupCfg;
    warmupCfg.seed = 7;
    core::EngineConfig cfg;
    cfg.seed = 1234;

    // Dirty an engine with a different scenario/strategy/seed, then
    // reset it into the target configuration...
    core::EngineRun reused(warmupCfg, profile,
                           factoryFor(core::StrategyKind::HM));
    (void)reused.runBatch(warmupTrace, "warmup");
    reused.reset(cfg, profile, factoryFor(core::StrategyKind::OdF));
    const core::RunResult viaReset = reused.runBatch(trace, "target");

    // ...and the result must match a from-scratch engine exactly.
    core::EngineRun fresh(cfg, profile,
                          factoryFor(core::StrategyKind::OdF));
    const core::RunResult direct = fresh.runBatch(trace, "target");

    expectIdentical(viaReset, direct, "reset");
    ASSERT_EQ(viaReset.trace.records.size(), direct.trace.records.size());
}

TEST(EngineRunReset, ResetAcrossProfilingAndStrategiesMatchesFreshEngine)
{
    // One engine walks every strategy with profiling toggled on and off
    // between runs (the order a sweep's pooled engine may see); each
    // reset run must equal a from-scratch engine with the same arguments.
    const cloud::ProviderProfile profile = cloud::ProviderProfile::gce();
    const workload::ArrivalTrace trace = workload::generateScenario(
        tinyScenario(workload::ScenarioKind::HighVariability, 5));
    std::unique_ptr<core::EngineRun> reused;
    for (core::StrategyKind strategy : core::kAllStrategies) {
        for (bool profiling : {true, false}) {
            core::EngineConfig cfg;
            cfg.seed = 5;
            cfg.useProfiling = profiling;
            if (reused)
                reused->reset(cfg, profile, factoryFor(strategy));
            else
                reused = std::make_unique<core::EngineRun>(
                    cfg, profile, factoryFor(strategy));
            const core::RunResult viaReset = reused->runBatch(trace, "s");
            core::EngineRun fresh(cfg, profile, factoryFor(strategy));
            expectIdentical(viaReset, fresh.runBatch(trace, "s"),
                            std::string(core::toString(strategy)) +
                                (profiling ? "/profiled" : "/default"));
        }
    }
}

TEST(EngineRunReset, BackToBackResetsStayIdentical)
{
    const cloud::ProviderProfile profile = cloud::ProviderProfile::gce();
    const workload::ArrivalTrace trace = workload::generateScenario(
        tinyScenario(workload::ScenarioKind::Static, 99));
    core::EngineConfig cfg;
    cfg.seed = 99;

    core::EngineRun engine(cfg, profile,
                           factoryFor(core::StrategyKind::HF));
    const std::vector<double> first =
        digest(engine.runBatch(trace, "s"));
    for (int round = 0; round < 3; ++round) {
        engine.reset(cfg, profile, factoryFor(core::StrategyKind::HF));
        EXPECT_EQ(first, digest(engine.runBatch(trace, "s")))
            << "round " << round;
    }
}

// The engine times its own phases: setup from construction (or reset) to
// the session start, the sim loop across every advanceTo, and finalize
// only in finalize(), so a live result never carries a finalize time.
TEST(EngineRunTelemetry, SessionPhasesAccumulate)
{
    const cloud::ProviderProfile profile = cloud::ProviderProfile::gce();
    const workload::ArrivalTrace trace = workload::generateScenario(
        tinyScenario(workload::ScenarioKind::Static, 11));
    core::EngineConfig cfg;
    cfg.seed = 11;
    cfg.useProfiling = false;
    const auto factory = factoryFor(core::StrategyKind::HM);

    core::EngineRun engine(cfg, profile, factory);
    engine.beginSession(trace);
    const core::RunResult started = engine.liveResult("s");
    EXPECT_GT(started.telemetry.setupSec, 0.0);
    EXPECT_EQ(started.telemetry.simLoopSec, 0.0);
    EXPECT_EQ(started.telemetry.finalizeSec, 0.0);

    double loop = 0.0;
    for (double t : {60.0, 120.0, 180.0}) {
        ASSERT_TRUE(engine.advanceTo(t));
        const core::RunResult live = engine.liveResult("s");
        EXPECT_GE(live.telemetry.simLoopSec, loop) << "t=" << t;
        EXPECT_EQ(live.telemetry.finalizeSec, 0.0) << "t=" << t;
        EXPECT_EQ(live.telemetry.setupSec, started.telemetry.setupSec);
        loop = live.telemetry.simLoopSec;
    }
    EXPECT_GT(loop, 0.0);

    engine.reset(cfg, profile, factory);
    engine.beginSession(trace);
    const core::RunResult restarted = engine.liveResult("s");
    EXPECT_EQ(restarted.telemetry.simLoopSec, 0.0);
    EXPECT_EQ(restarted.telemetry.finalizeSec, 0.0);
}

// reset() keeps the bootstrapped classifier when the classifier config is
// unchanged; its trained state must be indistinguishable from a fresh
// bootstrap, or reused engines would classify differently than fresh ones.
TEST(QuasarReset, KeptClassifierMatchesFreshBootstrap)
{
    workload::JobSpec spec;
    spec.kind = workload::AppKind::Memcached;
    spec.coresIdeal = 4.0;
    spec.memoryPerCore = 2.0;
    sim::Rng specRng = sim::Rng(99).child("spec");
    spec.sensitivity = workload::generateSensitivity(spec.kind, specRng);

    profiling::QuasarConfig cfg;
    cfg.seed = 5;

    profiling::Quasar fresh(cfg);
    const profiling::Estimate want = fresh.estimate(spec);

    // Dirty a Quasar under a different run seed, then reset it into the
    // same config the fresh one was built with.
    profiling::QuasarConfig other = cfg;
    other.seed = 77;
    profiling::Quasar reused(other);
    (void)reused.estimate(spec);
    reused.reset(cfg);
    EXPECT_EQ(reused.cacheSize(), 0u);
    EXPECT_EQ(reused.classifications(), 0u);
    const profiling::Estimate got = reused.estimate(spec);

    EXPECT_EQ(got.quality, want.quality);
    EXPECT_EQ(got.cores, want.cores);
    EXPECT_EQ(got.memoryPerCore, want.memoryPerCore);
    EXPECT_EQ(got.sensitivityScalar, want.sensitivityScalar);
    EXPECT_EQ(got.pressure, want.pressure);
    for (std::size_t i = 0; i < workload::kNumResources; ++i)
        EXPECT_EQ(got.sensitivity[i], want.sensitivity[i]) << i;
}

/** A small cells x strategies grid over short scenarios. */
std::vector<exp::SweepCell>
tinyGrid()
{
    std::vector<exp::SweepCell> cells;
    for (core::StrategyKind strategy :
         {core::StrategyKind::SR, core::StrategyKind::HM}) {
        for (workload::ScenarioKind scenario :
             {workload::ScenarioKind::Static,
              workload::ScenarioKind::HighVariability}) {
            exp::SweepCell cell;
            cell.scenario = scenario;
            cell.strategy = strategy;
            cell.scenarioOverride = tinyScenario(scenario, 0);
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

exp::SweepOptions
tinyOptions(std::size_t threads)
{
    exp::SweepOptions options;
    options.title = "tiny";
    options.seeds = 3;
    options.baseSeed = 42;
    options.threads = threads;
    return options;
}

TEST(SweepScheduler, AggregatesAreByteIdenticalAcrossThreadCounts)
{
    const std::vector<exp::SweepCell> grid = tinyGrid();
    const exp::SweepResult serial = exp::runSweep(grid, tinyOptions(1));
    const exp::SweepResult pooled = exp::runSweep(grid, tinyOptions(4));
    EXPECT_EQ(serial.telemetry.threads, 1u);
    EXPECT_EQ(pooled.telemetry.threads, 4u);
    EXPECT_EQ(exp::sweepCellsJson(serial), exp::sweepCellsJson(pooled));
}

TEST(SweepScheduler, AggregatesIndependentOfCellSubmissionOrder)
{
    std::vector<exp::SweepCell> grid = tinyGrid();
    const exp::SweepResult forward = exp::runSweep(grid, tinyOptions(2));
    std::reverse(grid.begin(), grid.end());
    const exp::SweepResult reversed =
        exp::runSweep(grid, tinyOptions(2));
    ASSERT_EQ(forward.cells.size(), reversed.cells.size());
    for (const exp::SweepCellAggregate& cell : forward.cells) {
        const auto it = std::find_if(
            reversed.cells.begin(), reversed.cells.end(),
            [&](const exp::SweepCellAggregate& other) {
                return other.label == cell.label;
            });
        ASSERT_NE(it, reversed.cells.end()) << cell.label;
        EXPECT_EQ(cell.cost.mean, it->cost.mean) << cell.label;
        EXPECT_EQ(cell.cost.m2, it->cost.m2) << cell.label;
        EXPECT_EQ(cell.utilization.mean, it->utilization.mean);
        EXPECT_EQ(cell.qualityP95.mean, it->qualityP95.mean);
        EXPECT_EQ(cell.qosViolations.mean, it->qosViolations.mean);
        EXPECT_EQ(cell.makespan.mean, it->makespan.mean);
        EXPECT_EQ(cell.eventsProcessed, it->eventsProcessed);
    }
}

TEST(SweepScheduler, AggregatesMatchDirectEngineRuns)
{
    // One cell, two seeds: the sweep's streaming aggregates must equal a
    // hand-rolled reduction of the same two engine runs.
    exp::SweepCell cell;
    cell.scenario = workload::ScenarioKind::LowVariability;
    cell.strategy = core::StrategyKind::HM;
    cell.scenarioOverride =
        tinyScenario(workload::ScenarioKind::LowVariability, 0);

    exp::SweepOptions options = tinyOptions(1);
    options.seeds = 2;
    const exp::SweepResult sweep = exp::runSweep({cell}, options);
    ASSERT_EQ(sweep.cells.size(), 1u);
    ASSERT_EQ(sweep.seedList.size(), 2u);

    const cloud::ProviderProfile profile = cloud::ProviderProfile::gce();
    const cloud::AwsStylePricing pricing;
    exp::Welford cost;
    exp::Welford utilization;
    exp::Welford qualityP95;
    for (std::uint64_t seed : sweep.seedList) {
        workload::ScenarioConfig scenario = *cell.scenarioOverride;
        scenario.loadScale = options.loadScale;
        scenario.seed = seed;
        core::EngineConfig cfg = cell.config;
        cfg.seed = seed;
        core::EngineRun engine(cfg, profile,
                               factoryFor(cell.strategy));
        const core::RunResult r = engine.runBatch(
            workload::generateScenario(scenario),
            sweep.cells[0].label);
        cost.add(r.cost(pricing).total());
        utilization.add(r.reservedUtilizationAvg);
        sim::SampleSet perf = r.batchPerfNorm;
        perf.merge(r.lcPerfNorm);
        qualityP95.add(perf.quantile(0.95));
    }
    EXPECT_EQ(sweep.cells[0].cost.n, 2u);
    EXPECT_EQ(sweep.cells[0].cost.mean, cost.mean);
    EXPECT_EQ(sweep.cells[0].cost.m2, cost.m2);
    EXPECT_EQ(sweep.cells[0].utilization.mean, utilization.mean);
    EXPECT_EQ(sweep.cells[0].qualityP95.mean, qualityP95.mean);
}

TEST(SweepScheduler, TraceCacheSharesAcrossStrategiesOfOneScenario)
{
    // 5 strategies x 1 scenario x 2 seeds: the trace depends only on
    // (scenario, seed), so exactly 2 generations and 8 cache hits.
    std::vector<exp::SweepCell> cells;
    for (core::StrategyKind strategy : core::kAllStrategies) {
        exp::SweepCell cell;
        cell.scenario = workload::ScenarioKind::Static;
        cell.strategy = strategy;
        cell.scenarioOverride =
            tinyScenario(workload::ScenarioKind::Static, 0);
        cells.push_back(std::move(cell));
    }
    exp::SweepOptions options = tinyOptions(1);
    options.seeds = 2;
    const exp::SweepResult sweep = exp::runSweep(cells, options);
    EXPECT_EQ(sweep.telemetry.runs, 10u);
    EXPECT_EQ(sweep.telemetry.traceCacheMisses, 2u);
    EXPECT_EQ(sweep.telemetry.traceCacheHits, 8u);
    // One worker => one engine constructed, every later run a reset.
    EXPECT_EQ(sweep.telemetry.enginesCreated, 1u);
    EXPECT_EQ(sweep.telemetry.engineResets, 9u);
    // Serial execution folds every record the moment it lands.
    EXPECT_LE(sweep.telemetry.maxBufferedRuns, 1u);
    EXPECT_GT(sweep.telemetry.eventsProcessed, 0u);
    EXPECT_GT(sweep.telemetry.eventsPerSec, 0.0);
}

/**
 * The full 3 x 5 x 2 figure matrix at 10% load through one sweep per
 * thread count, collecting every RunResult through the visitor.
 */
std::vector<core::RunResult>
matrixThroughVisitor(std::size_t threads)
{
    std::vector<exp::SweepCell> cells;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        for (core::StrategyKind strategy : core::kAllStrategies) {
            for (bool profiling : {true, false}) {
                exp::SweepCell cell;
                cell.scenario = scenario;
                cell.strategy = strategy;
                cell.config.useProfiling = profiling;
                cell.label = workload::toString(scenario);
                cells.push_back(std::move(cell));
            }
        }
    }
    exp::SweepOptions options;
    options.title = "matrix";
    options.loadScale = 0.1;
    options.threads = threads;
    std::vector<core::RunResult> results(cells.size());
    std::vector<int> visits(cells.size(), 0);
    const exp::SweepResult sweep = exp::runSweep(
        cells, {42}, options,
        [&](std::size_t cell, std::size_t seedIndex,
            core::RunResult&& result) {
            EXPECT_EQ(seedIndex, 0u);
            ++visits[cell];
            results[cell] = std::move(result);
        });
    EXPECT_EQ(sweep.telemetry.threads, threads);
    for (std::size_t c = 0; c < cells.size(); ++c)
        EXPECT_EQ(visits[c], 1) << "cell " << c;
    return results;
}

TEST(SweepScheduler, FullMatrixVisitorBitIdenticalAcrossThreadCounts)
{
    const std::vector<core::RunResult> serial = matrixThroughVisitor(1);
    const std::vector<core::RunResult> pooled = matrixThroughVisitor(4);
    ASSERT_EQ(serial.size(), 30u);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].strategy.empty()) << "cell " << i;
        expectIdentical(serial[i], pooled[i],
                        serial[i].scenario + "/" + serial[i].strategy +
                            (serial[i].profiling ? "/profiled"
                                                 : "/default"));
    }
}

TEST(SweepScheduler, LiteralSeedListMatchesFreshEngineRun)
{
    // A one-seed list runs that seed literally (no derivation): engine
    // seed and scenario seed both equal it, as on a direct EngineRun.
    const std::uint64_t seed = 987654321;
    exp::SweepCell cell;
    cell.scenario = workload::ScenarioKind::Static;
    cell.strategy = core::StrategyKind::HF;
    cell.config.seed = 1; // replaced by the task's seed
    cell.scenarioOverride = tinyScenario(workload::ScenarioKind::Static, 0);
    cell.label = "literal";

    exp::SweepOptions options = tinyOptions(1);
    core::RunResult viaSweep;
    const exp::SweepResult sweep =
        exp::runSweep({cell}, {seed}, options,
                      [&](std::size_t, std::size_t, core::RunResult&& r) {
                          viaSweep = std::move(r);
                      });
    EXPECT_EQ(sweep.seedList, std::vector<std::uint64_t>{seed});
    EXPECT_EQ(sweep.seeds, 1u);

    workload::ScenarioConfig scenario = *cell.scenarioOverride;
    scenario.loadScale = options.loadScale;
    scenario.seed = seed;
    core::EngineConfig cfg = cell.config;
    cfg.seed = seed;
    core::EngineRun fresh(cfg, cloud::ProviderProfile::gce(),
                          factoryFor(cell.strategy));
    expectIdentical(viaSweep,
                    fresh.runBatch(workload::generateScenario(scenario),
                                   "literal"),
                    "literal seed");
}

TEST(SweepScheduler, EveryRunPublishesProcessMetrics)
{
    obs::ProcessMetrics& pm = obs::ProcessMetrics::instance();
    obs::ProcessCounter& completed = pm.counter(
        "hcloud_run_completed_total", exp::kRunCompletedHelp);
    obs::ProcessCounter& events =
        pm.counter("hcloud_run_sim_events_total", "");
    obs::ProcessCounter& loop = pm.counter(
        "hcloud_phase_seconds_total", "", {{"phase", "sim_loop"}});
    const double completedBefore = completed.value();
    const double eventsBefore = events.value();
    const double loopBefore = loop.value();
    const exp::SweepResult sweep = exp::runSweep(tinyGrid(), tinyOptions(2));
    EXPECT_EQ(completed.value() - completedBefore,
              static_cast<double>(sweep.telemetry.runs));
    EXPECT_EQ(events.value() - eventsBefore,
              static_cast<double>(sweep.telemetry.eventsProcessed));
    EXPECT_GT(loop.value(), loopBefore);
}

TEST(SweepScheduler, SinkStemsGiveEveryRunItsOwnPartFile)
{
    exp::SweepCell cell;
    cell.scenario = workload::ScenarioKind::Static;
    cell.strategy = core::StrategyKind::SR;
    cell.scenarioOverride = tinyScenario(workload::ScenarioKind::Static, 0);
    cell.config.trace.mode = obs::TraceConfig::Mode::On;
    cell.config.trace.sinkStem = ::testing::TempDir() + "sweep_sink.jsonl";
    std::set<std::string> paths;
    for (int call = 0; call < 2; ++call) {
        exp::runSweep({cell, cell}, {1, 2}, tinyOptions(2),
                      [&](std::size_t, std::size_t, core::RunResult&& r) {
                          EXPECT_TRUE(r.trace.sinkOk);
                          EXPECT_EQ(r.trace.sinkPath.rfind(
                                        cell.config.trace.sinkStem + ".",
                                        0),
                                    0u)
                              << r.trace.sinkPath;
                          paths.insert(r.trace.sinkPath);
                          std::remove(r.trace.sinkPath.c_str());
                      });
    }
    EXPECT_EQ(paths.size(), 8u) << "one part file per (sweep, cell, seed)";
}

TEST(SweepScheduler, ProgressGaugeSeriesIsReclaimed)
{
    obs::ProcessMetrics& pm = obs::ProcessMetrics::instance();
    // Warm up so the sweep's (and pool's) persistent counter families
    // exist, then assert a further sweep leaves no series behind.
    (void)exp::runSweep(tinyGrid(), tinyOptions(2));
    const std::size_t before = pm.seriesCount();
    (void)exp::runSweep(tinyGrid(), tinyOptions(2));
    EXPECT_EQ(pm.seriesCount(), before);
    // The per-title progress gauge is gone from the exposition page.
    for (const obs::ProcessMetrics::FamilySample& family : pm.snapshot()) {
        if (family.name == "hcloud_sweep_tasks_remaining") {
            EXPECT_TRUE(family.series.empty());
        }
    }
}

TEST(SweepScheduler, FigureGridsHaveExpectedShape)
{
    const core::EngineConfig base;
    EXPECT_EQ(exp::fig12SweepGrid(base).size(), 15u);
    EXPECT_EQ(exp::fig15SweepGrid(base).size(), 6u);
    EXPECT_EQ(exp::fig16SweepGrid(base).size(), 6u);
    // fig16 varies the sensitive fraction through scenario overrides.
    for (const exp::SweepCell& cell : exp::fig16SweepGrid(base))
        EXPECT_TRUE(cell.scenarioOverride.has_value());
    // Scenario digests separate seeds and sensitive fractions.
    workload::ScenarioConfig a;
    workload::ScenarioConfig b = a;
    EXPECT_EQ(workload::digest(a), workload::digest(b));
    b.seed = a.seed + 1;
    EXPECT_NE(workload::digest(a), workload::digest(b));
    b = a;
    b.sensitiveFraction = 0.5;
    EXPECT_NE(workload::digest(a), workload::digest(b));
}

} // namespace
} // namespace hcloud
