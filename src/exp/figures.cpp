#include "exp/figures.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cloud/pricing.hpp"
#include "cloud/provider.hpp"
#include "core/queue_estimator.hpp"
#include "exp/figures_detail.hpp"
#include "exp/report.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "workload/archetypes.hpp"
#include "workload/batch_model.hpp"
#include "workload/latency_model.hpp"

namespace hcloud::exp {

namespace {

/** Instance types shown in Figures 1-2, smallest to largest. */
const char* kLadder[] = {"micro", "st1", "st2", "st8", "m16"};

/**
 * One (provider x instance-type) sampling cell of Figures 1-2. The cells
 * are independent — each builds its own simulator and provider from a
 * named child seed — so the figure drivers fan them out with
 * runtime::parallelMap, which returns rows in ladder order, bit-identical
 * to the serial loop.
 */
struct SamplingCell
{
    cloud::ProviderProfile profile;
    const char* type;
};

std::vector<SamplingCell>
samplingCells()
{
    std::vector<SamplingCell> cells;
    for (const auto& profile :
         {cloud::ProviderProfile::ec2(), cloud::ProviderProfile::gce()}) {
        for (const char* type_name : kLadder)
            cells.push_back({profile, type_name});
    }
    return cells;
}


/**
 * Simulate one batch job (Figure 1's Mahout recommender) to completion on
 * a dedicated fresh instance of the given type and return minutes (or a
 * negative value when the platform killed the VM).
 *
 * The job follows Amdahl scaling with serial fraction ~0.35 (measured
 * Hadoop jobs on a single node stop scaling well past a few cores), so
 * the vCPU ladder compresses completion times the way Figure 1 shows
 * rather than linearly.
 */
double
batchCompletionOn(cloud::Instance& inst, const workload::JobSpec& spec,
                  sim::Time start)
{
    if (inst.faulty())
        return -1.0;
    constexpr double kSerialFraction = 0.35;
    const double sens = spec.sensitivityScalar();
    const double v = inst.type().vcpus;
    const double speedup =
        1.0 / (kSerialFraction + (1.0 - kSerialFraction) / v);
    // spec.idealDuration is the single-core, quality-1 duration.
    double remaining = spec.idealDuration;
    const sim::Duration dt = 5.0;
    sim::Time t = start;
    while (remaining > 0.0 && t < start + sim::hours(10.0)) {
        t += dt;
        const double q = inst.effectiveQuality(t, sens, std::nullopt);
        remaining -= dt * q * speedup;
    }
    return (t - start) / 60.0;
}

} // namespace

void
fig01VariabilityBatch(const ExperimentOptions& opt)
{
    printHeader("Figure 1: Hadoop completion-time variability "
                "across instance types (40 instances each)");
    // The reference job: a Mahout recommender that takes ~47 min on a
    // dedicated 16-vCPU instance (115 single-core minutes with a 0.35
    // serial fraction).
    workload::JobSpec spec;
    spec.kind = workload::AppKind::HadoopRecommender;
    spec.coresIdeal = 16.0;
    spec.idealDuration = 115.0 * 60.0;
    sim::Rng sens_rng(opt.seed);
    spec.sensitivity =
        workload::generateSensitivity(spec.kind, sens_rng);

    const std::vector<SamplingCell> cells = samplingCells();
    const std::vector<std::vector<std::string>> rows = runtime::parallelMap(
        opt.threads, cells.size(), [&](std::size_t c) {
            const SamplingCell& cell = cells[c];
            sim::Simulator simulator;
            cloud::CloudProvider provider(
                simulator, cell.profile, {},
                sim::Rng(opt.seed)
                    .child(cell.profile.name)
                    .child(cell.type));
            const auto& type =
                cloud::InstanceTypeCatalog::defaultCatalog().byName(
                    cell.type);
            sim::SampleSet minutes;
            int failures = 0;
            for (int i = 0; i < 40; ++i) {
                cloud::Instance* inst =
                    provider.acquire(type, nullptr);
                inst->setState(cloud::InstanceState::Running);
                const double m =
                    batchCompletionOn(*inst, spec, simulator.now());
                if (m < 0.0) {
                    ++failures;
                } else {
                    minutes.add(m);
                }
            }
            auto row = boxplotRow(std::string(cell.profile.name) + "/" +
                                      cell.type,
                                  minutes.boxplot(), 1);
            row.push_back(std::to_string(failures));
            return row;
        });
    printTable({"provider/type", "p5(min)", "p25", "mean", "p75", "p95",
                "killed"},
               rows);
    printClaim("EC2 micro jobs killed by the platform", "several of 40",
               "see 'killed' column");
    printClaim("variability shrinks for >=8 vCPU instances",
               "tight m16 violins", "compare p95-p5 spread");
}

std::vector<std::string>
fig02BoxplotHeader()
{
    // Each row value is an across-instance quantile of the per-instance
    // p95-over-time of modeled p99 latency, so the headers carry the
    // inner statistic: "p95(p99us)" is NOT a p95 of raw latencies.
    return {"provider/type", "p5(p99us)", "p25(p99us)", "mean(p99us)",
            "p75(p99us)", "p95(p99us)"};
}

void
fig02VariabilityMemcached(const ExperimentOptions& opt)
{
    printHeader("Figure 2: memcached p99 variability across instance "
                "types (40 instances each, load scaled by vCPUs)");
    sim::Rng sens_rng(opt.seed + 1);
    const workload::ResourceVector sensitivity =
        workload::generateSensitivity(workload::AppKind::Memcached,
                                      sens_rng);
    const double sens =
        workload::interferenceSensitivity(sensitivity);

    const std::vector<SamplingCell> cells = samplingCells();
    const std::vector<std::vector<std::string>> rows = runtime::parallelMap(
        opt.threads, cells.size(), [&](std::size_t c) {
            const SamplingCell& cell = cells[c];
            sim::Simulator simulator;
            cloud::CloudProvider provider(
                simulator, cell.profile, {},
                sim::Rng(opt.seed + 1)
                    .child(cell.profile.name)
                    .child(cell.type));
            const auto& type =
                cloud::InstanceTypeCatalog::defaultCatalog().byName(
                    cell.type);
            // Clients scaled with vCPUs: equal, moderate per-core load
            // everywhere (the paper keeps all instances at a similar,
            // non-saturating system load).
            const double load = type.vcpus *
                workload::latency_model::kRpsPerCore * 0.35;
            sim::SampleSet p99s;
            for (int i = 0; i < 40; ++i) {
                cloud::Instance* inst = provider.acquire(type, nullptr);
                inst->setState(cloud::InstanceState::Running);
                sim::SampleSet samples;
                for (sim::Time t = 10.0; t <= sim::minutes(30.0);
                     t += 10.0) {
                    const double q =
                        inst->effectiveQuality(t, sens, std::nullopt);
                    const double pressure =
                        inst->interferencePressure(t, std::nullopt);
                    const double q_cap = 0.65 * q + 0.35;
                    samples.add(workload::latency_model::p99Us(
                        load, type.vcpus, q_cap, sens * pressure));
                }
                p99s.add(samples.quantile(0.95));
            }
            return boxplotRow(std::string(cell.profile.name) + "/" +
                                  cell.type,
                              p99s.boxplot(), 0);
        });
    printTable(fig02BoxplotHeader(), rows);
    printClaim("small instances: severe tail variability",
               "100s-1400 us spread", "compare p95 across sizes");
    printClaim("GCE beats EC2 on tail latency", "lower GCE p95",
               "compare providers");
}

void
table1StrategyMatrix()
{
    printHeader("Table 1: configuration comparison");
    printTable(
        {"configuration", "cost", "perf unpredictability", "spin-up",
         "flexibility", "typical usage"},
        {
            {"Reserved", "high upfront, low per hour", "no", "no", "no",
             "long-term"},
            {"On-demand", "no upfront, high per hour", "yes", "yes",
             "yes", "short-term"},
            {"Hybrid", "medium upfront, medium per hour", "low", "some",
             "yes", "long-term"},
        });
    const cloud::AwsStylePricing pricing;
    const auto& st16 =
        cloud::InstanceTypeCatalog::defaultCatalog().byName("st16");
    std::printf("\nconcrete prices (st16): on-demand $%.3f/h, reserved "
                "$%.3f/h effective, upfront $%.0f/yr (ratio %.2f)\n",
                pricing.onDemandHourly(st16),
                pricing.reservedEffectiveHourly(st16),
                pricing.reservedUpfront(st16), pricing.ratio());
}

void
table2Scenarios(const ExperimentOptions& opt)
{
    printHeader("Table 2 / Figure 3: workload scenario characteristics");
    struct PaperRow
    {
        double maxMin;
        double jobRatio;
        double coreRatio;
    };
    const std::map<workload::ScenarioKind, PaperRow> paper = {
        {workload::ScenarioKind::Static, {1.1, 4.2, 1.4}},
        {workload::ScenarioKind::LowVariability, {1.5, 3.6, 1.4}},
        {workload::ScenarioKind::HighVariability, {6.2, 4.1, 1.5}},
    };
    std::vector<std::vector<std::string>> rows;
    for (workload::ScenarioKind kind : workload::kAllScenarios) {
        workload::ScenarioConfig cfg;
        cfg.kind = kind;
        cfg.seed = opt.seed;
        cfg.loadScale = opt.loadScale;
        const workload::ArrivalTrace trace =
            workload::generateScenario(cfg);
        const workload::TraceStats s = trace.stats();
        const PaperRow& p = paper.at(kind);
        rows.push_back({toString(kind),
                        fmt(s.maxMinCoreRatio, 1) + " (" +
                            fmt(p.maxMin, 1) + ")",
                        fmt(s.batchLcJobRatio, 1) + " (" +
                            fmt(p.jobRatio, 1) + ")",
                        fmt(s.batchLcCoreRatio, 1) + " (" +
                            fmt(p.coreRatio, 1) + ")",
                        fmt(s.meanInterArrival, 2) + " (1.00)",
                        fmt(s.idealCompletion / 3600.0, 1) + " (2.0)",
                        std::to_string(s.jobCount),
                        fmt(s.minCores, 0) + "-" + fmt(s.maxCores, 0)});
    }
    printTable({"scenario", "max:min (paper)", "batch:LC jobs (paper)",
                "batch:LC cores (paper)", "inter-arrival s (paper)",
                "ideal hr (paper)", "jobs", "cores"},
               rows);

    std::printf("\nFigure 3 target curves (cores):\n");
    for (workload::ScenarioKind kind : workload::kAllScenarios) {
        std::printf("  %-16s", toString(kind));
        for (int m = 0; m <= 120; m += 10) {
            std::printf(" %5.0f",
                        workload::targetLoad(kind, sim::minutes(m)) *
                            opt.loadScale);
        }
        std::printf("\n");
    }
}

namespace detail {

std::vector<Runner::CellKey>
matrixCells(const std::vector<core::StrategyKind>& strategies,
            bool withUnprofiled)
{
    std::vector<Runner::CellKey> keys;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        for (core::StrategyKind s : strategies) {
            keys.emplace_back(scenario, s, true);
            if (withUnprofiled)
                keys.emplace_back(scenario, s, false);
        }
    }
    return keys;
}

double
staticSrCost(Runner& runner, const cloud::PricingModel& pricing)
{
    const core::RunResult& base =
        runner.run(workload::ScenarioKind::Static, core::StrategyKind::SR);
    return base.cost(pricing).total();
}

double
tailPerf(const core::RunResult& r)
{
    sim::SampleSet all;
    all.merge(r.batchPerfNorm);
    all.merge(r.lcPerfNorm);
    return all.empty() ? 0.0 : all.quantile(0.05);
}

void
perfPanel(Runner& runner, const std::vector<core::StrategyKind>& strategies)
{
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        std::printf("\n-- %s scenario --\n", toString(scenario));
        std::vector<std::vector<std::string>> batch_rows;
        std::vector<std::vector<std::string>> lc_rows;
        for (core::StrategyKind s : strategies) {
            for (bool profiling : {true, false}) {
                const core::RunResult& r =
                    runner.run(scenario, s, profiling);
                const std::string label = r.strategy +
                    (profiling ? "/profiled" : "/default");
                batch_rows.push_back(
                    boxplotRow(label, r.batchTurnaroundMin.boxplot(), 1));
                lc_rows.push_back(
                    boxplotRow(label, r.lcLatencyUs.boxplot(), 0));
            }
        }
        std::printf("batch completion time (min):\n");
        printTable({"strategy", "p5", "p25", "mean", "p75", "p95"},
                   batch_rows);
        std::printf("latency-critical p99 (us):\n");
        printTable({"strategy", "p5", "p25", "mean", "p75", "p95"},
                   lc_rows);
    }
}

void
costPanel(Runner& runner, const std::vector<core::StrategyKind>& strategies)
{
    const cloud::AwsStylePricing pricing;
    const double base = detail::staticSrCost(runner, pricing);
    std::vector<std::vector<std::string>> rows;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        for (core::StrategyKind s : strategies) {
            const core::RunResult& r = runner.run(scenario, s);
            const cloud::CostBreakdown c = r.cost(pricing);
            rows.push_back({std::string(toString(scenario)), r.strategy,
                            fmt(c.reserved / base, 2),
                            fmt(c.onDemand / base, 2),
                            fmt(c.total() / base, 2)});
        }
    }
    printTable({"scenario", "strategy", "reserved", "on-demand",
                "total (norm to static SR)"},
               rows);
}

} // namespace detail

void
fig04BaselinePerf(Runner& runner)
{
    printHeader("Figure 4: SR / OdF / OdM performance, with and without "
                "profiling information");
    runner.fill(detail::matrixCells(
        {core::StrategyKind::SR, core::StrategyKind::OdF,
         core::StrategyKind::OdM},
        /*withUnprofiled=*/true));
    detail::perfPanel(runner, {core::StrategyKind::SR, core::StrategyKind::OdF,
                       core::StrategyKind::OdM});
    // Headline: profiling info is worth ~2.4x for SR on average.
    double with_p = 0.0;
    double without_p = 0.0;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        with_p += runner.run(scenario, core::StrategyKind::SR, true)
                      .meanPerfNorm();
        without_p += runner.run(scenario, core::StrategyKind::SR, false)
                         .meanPerfNorm();
    }
    printClaim("SR profiled-vs-default perf gain (avg)", "~2.4x",
               fmt(with_p / without_p, 2) + "x");
    double sr_perf = 0.0;
    double odm_perf = 0.0;
    for (workload::ScenarioKind scenario : workload::kAllScenarios) {
        sr_perf +=
            runner.run(scenario, core::StrategyKind::SR).meanPerfNorm();
        odm_perf +=
            runner.run(scenario, core::StrategyKind::OdM).meanPerfNorm();
    }
    printClaim("OdM perf degradation vs SR (avg)", "~2.2x worse",
               fmt(sr_perf / odm_perf, 2) + "x worse");
}

void
fig05BaselineCost(Runner& runner)
{
    printHeader("Figure 5: cost of fully reserved and on-demand systems "
                "(2-hour run, AWS-style pricing, amortized reservations)");
    runner.fill(detail::matrixCells({core::StrategyKind::SR,
                                     core::StrategyKind::OdF,
                                     core::StrategyKind::OdM}));
    detail::costPanel(runner, {core::StrategyKind::SR, core::StrategyKind::OdF,
                       core::StrategyKind::OdM});
    printClaim("on-demand more cost-efficient short-term", "~2.5x",
               "see OdF/OdM vs 1-year commitment of SR");
}

namespace {

/**
 * The high-variability scenario under HF and HM with every mapping
 * policy, in (strategy, policy) order (Figures 6-7).
 */
std::vector<core::RunResult>
policyRuns(Runner& runner)
{
    std::vector<SweepCell> cells;
    for (core::StrategyKind s :
         {core::StrategyKind::HF, core::StrategyKind::HM}) {
        for (core::PolicyKind p : core::kAllPolicies) {
            SweepCell cell;
            cell.scenario = workload::ScenarioKind::HighVariability;
            cell.strategy = s;
            cell.config = runner.baseConfig();
            cell.config.useProfiling = true;
            cell.config.mappingPolicy = p;
            // Label carries the policy so ad-hoc report entries stay
            // tellable apart (every sweep point shares scenario and
            // strategy).
            cell.label = std::string("high_variability/") + toString(p);
            cells.push_back(std::move(cell));
        }
    }
    return runner.sweep(cells);
}

} // namespace

void
fig06PolicyPerf(Runner& runner)
{
    printHeader("Figure 6: mapping-policy sensitivity (high-variability "
                "scenario) - perf normalized to isolation, %");
    const std::vector<core::RunResult> runs = policyRuns(runner);
    std::vector<std::vector<std::string>> rows;
    std::size_t i = 0;
    for (core::StrategyKind s :
         {core::StrategyKind::HF, core::StrategyKind::HM}) {
        for (core::PolicyKind p : core::kAllPolicies) {
            const core::RunResult& r = runs[i++];
            rows.push_back(
                {toString(s), toString(p),
                 fmt(100.0 * r.perfReserved.mean(), 1),
                 fmt(100.0 * (r.perfReserved.empty()
                                  ? 0.0
                                  : r.perfReserved.quantile(0.05)), 1),
                 fmt(100.0 * r.perfOnDemand.mean(), 1),
                 fmt(100.0 * (r.perfOnDemand.empty()
                                  ? 0.0
                                  : r.perfOnDemand.quantile(0.05)), 1)});
        }
    }
    printTable({"strategy", "policy", "reserved mean%", "reserved p5%",
                "on-demand mean%", "on-demand p5%"},
               rows);
    printClaim("random mapping (P1) hurts both sides",
               "reserved queued, sensitive jobs degraded on-demand",
               "compare P1 vs P8 rows");
}

void
fig07PolicyUtilCost(Runner& runner)
{
    printHeader("Figure 7: reserved utilization and cost across mapping "
                "policies (high-variability scenario)");
    const cloud::AwsStylePricing pricing;
    const double base = detail::staticSrCost(runner, pricing);
    const std::vector<core::RunResult> runs = policyRuns(runner);
    std::vector<std::vector<std::string>> rows;
    std::size_t i = 0;
    for (core::StrategyKind s :
         {core::StrategyKind::HF, core::StrategyKind::HM}) {
        for (core::PolicyKind p : core::kAllPolicies) {
            const core::RunResult& r = runs[i++];
            rows.push_back({toString(s), toString(p),
                            fmt(100.0 * r.reservedUtilizationAvg, 1),
                            fmt(r.cost(pricing).total() / base, 2),
                            std::to_string(r.queuedJobs)});
        }
    }
    printTable({"strategy", "policy", "reserved util %",
                "cost (norm to static SR)", "queued jobs"},
               rows);
}

void
fig09DynamicPolicy(Runner& runner)
{
    printHeader("Figure 9a: adaptive soft utilization limit over time "
                "(high-variability scenario, HM)");
    const core::RunResult& r = runner.run(
        workload::ScenarioKind::HighVariability, core::StrategyKind::HM);
    printSeries("soft limit (%)", r.softLimitHistory, 0.0, r.makespan, 16,
                100.0);

    printHeader("Figure 9b: queueing-time estimator validation "
                "(estimated vs measured availability CDF)");
    // Drive the estimator with synthetic Poisson release processes of
    // known rates (types A, B, C of the paper) and compare its predicted
    // availability CDF against the measured distribution of waits.
    core::QueueEstimator estimator;
    const auto& catalog = cloud::InstanceTypeCatalog::defaultCatalog();
    struct Case
    {
        const char* label;
        const char* type;
        double meanGap; // seconds between releases
    };
    const Case cases[] = {
        {"A (4 vCPU)", "st4", 0.45},
        {"B (8 vCPU)", "st8", 0.90},
        {"C (16 vCPU)", "st16", 1.60},
    };
    sim::Rng rng(runner.options().seed);
    for (const Case& c : cases) {
        const auto& type = catalog.byName(c.type);
        sim::Rng stream = rng.child(c.label);
        sim::Time t = 0.0;
        std::vector<sim::Time> releases;
        while (t < 600.0) {
            t += stream.exponential(c.meanGap);
            releases.push_back(t);
            estimator.recordRelease(type, t);
        }
        // Measured: waits of jobs arriving uniformly at random.
        sim::SampleSet measured;
        for (int i = 0; i < 400; ++i) {
            const sim::Time arrive = stream.uniform(0.0, 590.0);
            for (sim::Time rel : releases) {
                if (rel >= arrive) {
                    measured.add(rel - arrive);
                    break;
                }
            }
        }
        std::printf("%s: release rate est %.2f/s\n", c.label,
                    estimator.releaseRate(type, 600.0));
        std::printf("  %-10s %-12s %-12s\n", "wait(s)", "P_est", "P_meas");
        for (double x : {0.25, 0.5, 1.0, 2.0, 3.5}) {
            std::printf("  %-10.2f %-12.3f %-12.3f\n", x,
                        estimator.probAvailableWithin(type, x, 600.0),
                        measured.cdf(x));
        }
    }
    printClaim("estimated vs measured queueing time", "minimal deviation",
               "compare P_est / P_meas columns");
}

} // namespace hcloud::exp
