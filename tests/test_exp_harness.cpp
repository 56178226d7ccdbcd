/**
 * @file
 * Tests for the experiment harness: reporter formatting, the memoized
 * run matrix, the shared bench CLI (strict positional validation and the
 * trace-sink/env wiring), figure-table semantics, and the JSON report
 * schema (version stamp + golden key-path file).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "exp/cli.hpp"
#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "exp/report_json.hpp"
#include "exp/runner.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"
#include "workload/scenario.hpp"

namespace hcloud::exp {
namespace {

TEST(Report, FmtPrecision)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(3.14159, 0), "3");
    EXPECT_EQ(fmt(-1.5, 1), "-1.5");
    EXPECT_EQ(fmt(0.0, 3), "0.000");
}

TEST(Report, BoxplotRowLayout)
{
    sim::BoxplotSummary b;
    b.p5 = 1.0;
    b.p25 = 2.0;
    b.mean = 3.0;
    b.p75 = 4.0;
    b.p95 = 5.0;
    const auto row = boxplotRow("label", b, 1);
    ASSERT_EQ(row.size(), 6u);
    EXPECT_EQ(row[0], "label");
    EXPECT_EQ(row[1], "1.0");
    EXPECT_EQ(row[5], "5.0");
}

TEST(Runner, RunsMemoizedByCell)
{
    Runner runner{ExperimentOptions{0.1, 42}};
    const core::RunResult& a =
        runner.run(workload::ScenarioKind::Static, core::StrategyKind::SR);
    const core::RunResult& b =
        runner.run(workload::ScenarioKind::Static, core::StrategyKind::SR);
    EXPECT_EQ(&a, &b) << "identical cells must not re-run";
    const core::RunResult& c = runner.run(workload::ScenarioKind::Static,
                                          core::StrategyKind::SR, false);
    EXPECT_NE(&a, &c) << "profiling flag is part of the cell key";
    EXPECT_EQ(a.strategy, "SR");
    EXPECT_FALSE(c.profiling);
}

TEST(Runner, OptionsFlowIntoRuns)
{
    Runner runner{ExperimentOptions{0.1, 7}};
    EXPECT_EQ(runner.options().seed, 7u);
    EXPECT_EQ(runner.baseConfig().seed, 7u);
    const core::RunResult& r = runner.run(
        workload::ScenarioKind::Static, core::StrategyKind::HF);
    // A 10%-scale static scenario needs a pool of ~6 servers, not ~60.
    EXPECT_LT(r.billing.reservedCount(), 15);
    EXPECT_GT(r.billing.reservedCount(), 0);
}

TEST(Runner, FillRunsMissingCellsOnce)
{
    Runner runner{ExperimentOptions{0.1, 42, 2}};
    const Runner::CellKey sr{workload::ScenarioKind::Static,
                             core::StrategyKind::SR, true};
    const Runner::CellKey hm{workload::ScenarioKind::Static,
                             core::StrategyKind::HM, false};
    runner.fill({sr, hm, sr});
    ASSERT_EQ(runner.results().size(), 2u);
    const core::RunResult* cached = &runner.results().at(sr);
    runner.fill({sr});
    EXPECT_EQ(&runner.results().at(sr), cached) << "filled cells stay";
    EXPECT_EQ(cached->scenario, "static") << "label is the scenario name";
    EXPECT_FALSE(runner.results().at(hm).profiling);
}

TEST(Runner, RunWithCustomConfigIsIndependent)
{
    Runner runner{ExperimentOptions{0.1, 42}};
    runner.setRecordAdhoc(true);
    SweepCell cell;
    cell.scenario = workload::ScenarioKind::Static;
    cell.strategy = core::StrategyKind::HM;
    cell.config = runner.baseConfig();
    cell.config.seed = 987654321; // replaced by the root seed
    cell.config.mappingPolicy = core::PolicyKind::P1Random;
    cell.label = "static/P1";
    const std::vector<core::RunResult> a = runner.sweep({cell, cell});
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0].meanPerfNorm(), a[1].meanPerfNorm())
        << "custom runs stay deterministic";
    EXPECT_EQ(a[0].scenario, "static/P1");
    EXPECT_TRUE(runner.results().empty()) << "sweeps are not memoized";
    EXPECT_EQ(runner.adhocResults().size(), 2u);
    // The root seed wins over the cell's: a default-policy cell matches
    // the memoized matrix cell.
    cell.config.mappingPolicy = runner.baseConfig().mappingPolicy;
    const core::RunResult plain = runner.sweep({cell})[0];
    const core::RunResult& memo =
        runner.run(workload::ScenarioKind::Static, core::StrategyKind::HM);
    EXPECT_EQ(plain.makespan, memo.makespan);
    EXPECT_EQ(plain.meanPerfNorm(), memo.meanPerfNorm());
}

// ---------------------------------------------------------------------------
// Shared bench CLI

/** Run parseBenchCli over {"bench", args...}. */
BenchCli
parseArgs(std::vector<std::string> args)
{
    std::vector<char*> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (std::string& a : args)
        argv.push_back(a.data());
    return parseBenchCli(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchCliParse, ValidPositionalsAndFlags)
{
    const BenchCli cli =
        parseArgs({"0.25", "42", "4", "--json", "r.json", "--trace",
                   "t.jsonl"});
    EXPECT_FALSE(cli.parseError);
    EXPECT_EQ(cli.errorMessage, "");
    EXPECT_DOUBLE_EQ(cli.options.loadScale, 0.25);
    EXPECT_EQ(cli.options.seed, 42u);
    EXPECT_EQ(cli.options.threads, 4u);
    EXPECT_EQ(cli.jsonPath, "r.json");
    EXPECT_EQ(cli.tracePath, "t.jsonl");
    EXPECT_TRUE(cli.traceRequested);
}

TEST(BenchCliParse, MalformedPositionalsAreErrorsNotZeros)
{
    // Regression: these went through bare atof/strtoull, so "abc" ran
    // the whole bench with loadScale 0.0 instead of failing.
    for (const char* bad : {"abc", "", "0", "-0.1", "nan", "inf", "1e999",
                            "0.5x"}) {
        const BenchCli cli = parseArgs({bad});
        EXPECT_TRUE(cli.parseError) << "loadScale '" << bad << "'";
        EXPECT_FALSE(cli.errorMessage.empty()) << "loadScale '" << bad
                                               << "'";
    }
    for (const char* bad :
         {"-1", "+1", "abc", "42x", "", "99999999999999999999"}) {
        const BenchCli cli = parseArgs({"0.25", bad});
        EXPECT_TRUE(cli.parseError) << "seed '" << bad << "'";
    }
    const BenchCli threads = parseArgs({"0.25", "42", "two"});
    EXPECT_TRUE(threads.parseError);
    const BenchCli missing = parseArgs({"--trace"});
    EXPECT_TRUE(missing.parseError);
    EXPECT_EQ(missing.errorMessage, "--trace requires a path");
    const BenchCli extra = parseArgs({"0.25", "42", "4", "5"});
    EXPECT_TRUE(extra.parseError);
    EXPECT_EQ(extra.errorMessage, "too many arguments");
}

TEST(BenchCliParse, EngineConfigWiresSinkStemAndRingOverride)
{
    const char* saved = std::getenv("HCLOUD_TRACE_RING");
    const std::string saved_value = saved ? saved : "";

    ::unsetenv("HCLOUD_TRACE_RING");
    const BenchCli cli = parseArgs({"--trace", "/tmp/t.jsonl"});
    core::EngineConfig cfg = cli.engineConfig();
    EXPECT_EQ(cfg.trace.mode, obs::TraceConfig::Mode::On);
    EXPECT_EQ(cfg.trace.sinkStem, "/tmp/t.jsonl")
        << "tracing to a path must stream through per-run sinks";
    EXPECT_EQ(cfg.trace.ringCapacity, std::size_t{1} << 16);

    ::setenv("HCLOUD_TRACE_RING", "1024", 1);
    cfg = cli.engineConfig();
    EXPECT_EQ(cfg.trace.ringCapacity, 1024u);

    // Malformed or zero overrides are ignored, not applied as 0.
    ::setenv("HCLOUD_TRACE_RING", "abc", 1);
    EXPECT_EQ(cli.engineConfig().trace.ringCapacity,
              std::size_t{1} << 16);
    ::setenv("HCLOUD_TRACE_RING", "0", 1);
    EXPECT_EQ(cli.engineConfig().trace.ringCapacity,
              std::size_t{1} << 16);

    // Without tracing there is no sink stem to derive.
    ::unsetenv("HCLOUD_TRACE_RING");
    const char* saved_trace = std::getenv("HCLOUD_TRACE");
    const std::string saved_trace_value = saved_trace ? saved_trace : "";
    ::unsetenv("HCLOUD_TRACE");
    const BenchCli plain = parseArgs({"0.25"});
    EXPECT_EQ(plain.engineConfig().trace.sinkStem, "");
    if (saved_trace)
        ::setenv("HCLOUD_TRACE", saved_trace_value.c_str(), 1);

    if (saved)
        ::setenv("HCLOUD_TRACE_RING", saved_value.c_str(), 1);
}

// ---------------------------------------------------------------------------
// Figure-table semantics

TEST(Figures, Fig02HeaderNamesTheInnerP99Statistic)
{
    // Regression: the header used to read plain "p95", implying a p95 of
    // raw latencies; each cell is an across-instance quantile of the
    // per-instance p99 tail.
    const std::vector<std::string> header = fig02BoxplotHeader();
    ASSERT_EQ(header.size(), 6u);
    EXPECT_EQ(header[0], "provider/type");
    for (std::size_t i = 1; i < header.size(); ++i)
        EXPECT_NE(header[i].find("(p99us)"), std::string::npos)
            << header[i];
    EXPECT_EQ(header[5], "p95(p99us)");
}

// ---------------------------------------------------------------------------
// JSON report schema

/** Collect every key path in @p v ("runs[].counters.jobs") into @p out. */
void
collectKeyPaths(const obs::JsonValue& v, const std::string& prefix,
                std::set<std::string>& out)
{
    if (v.type == obs::JsonValue::Type::Object) {
        for (const auto& [key, child] : v.object) {
            const std::string path =
                prefix.empty() ? key : prefix + "." + key;
            out.insert(path);
            collectKeyPaths(child, path, out);
        }
    } else if (v.type == obs::JsonValue::Type::Array) {
        for (const obs::JsonValue& child : v.array)
            collectKeyPaths(child, prefix + "[]", out);
    }
}

TEST(ReportSchema, VersionStampedFirstAndKeyPathsMatchGolden)
{
    // Pinned config: every optional report section below is deterministic
    // for this cell, so the key-path set is stable.
    ExperimentOptions opt;
    opt.loadScale = 0.05;
    opt.seed = 42;
    core::EngineConfig base;
    base.trace.mode = obs::TraceConfig::Mode::On;
    // Timeline on so the runs[].timeline sample keys are part of the
    // golden key-path set (v3).
    base.timeline.mode = obs::TimelineConfig::Mode::On;
    base.timeline.cadence = 60.0;
    Runner runner{opt, base};
    runner.run(workload::ScenarioKind::Static, core::StrategyKind::HM);

    // A one-cell sweep pins the sweeps[] element keys (v4): cell
    // aggregates with mean/stddev/ci95 plus the telemetry section.
    SweepCell sweepCell;
    sweepCell.scenario = workload::ScenarioKind::Static;
    sweepCell.strategy = core::StrategyKind::HM;
    workload::ScenarioConfig sweepScenario;
    sweepScenario.duration = sim::hours(0.1);
    sweepCell.scenarioOverride = sweepScenario;
    SweepOptions sweepOpt;
    sweepOpt.title = "schema-sweep";
    sweepOpt.seeds = 2;
    sweepOpt.threads = 1;
    const SweepResult sweep = runSweep({sweepCell}, sweepOpt);

    const std::string path = ::testing::TempDir() + "schema_report.json";
    ASSERT_TRUE(writeJsonReport(path, "schema-test", runner, {sweep}));
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    const obs::JsonValue report = obs::parseJson(text.str());

    // The stamp leads the document so consumers can dispatch on it
    // before reading anything else.
    ASSERT_EQ(report.type, obs::JsonValue::Type::Object);
    ASSERT_FALSE(report.object.empty());
    EXPECT_EQ(report.object.front().first, "schemaVersion");
    EXPECT_EQ(report.find("schemaVersion")->numberOr(0),
              static_cast<double>(kReportSchemaVersion));

    std::set<std::string> paths;
    collectKeyPaths(report, "", paths);
    const std::string golden_path = std::string(HCLOUD_GOLDEN_DIR) +
        "/report_schema_v" + std::to_string(kReportSchemaVersion) +
        ".txt";
    if (std::getenv("HCLOUD_UPDATE_GOLDEN")) {
        std::ofstream golden_out(golden_path, std::ios::trunc);
        for (const std::string& p : paths)
            golden_out << p << '\n';
        ASSERT_TRUE(golden_out) << "cannot update " << golden_path;
        GTEST_SKIP() << "golden file regenerated: " << golden_path;
    }
    std::ifstream golden_in(golden_path);
    ASSERT_TRUE(golden_in)
        << golden_path
        << " missing; regenerate with HCLOUD_UPDATE_GOLDEN=1";
    std::set<std::string> golden;
    std::string line;
    while (std::getline(golden_in, line))
        if (!line.empty())
            golden.insert(line);
    EXPECT_EQ(paths, golden)
        << "report shape changed: bump kReportSchemaVersion, regenerate "
           "the golden file (HCLOUD_UPDATE_GOLDEN=1), and note the bump "
           "in EXPERIMENTS.md";
}

/**
 * Byte-exact golden trace for a small fixed-seed run: the determinism
 * contract says simulated behaviour is a pure function of (trace, config,
 * seed), so any kernel or caching change that alters a single event —
 * its time, ordering, or payload — fails here before it can silently
 * shift the paper figures. Regenerate with HCLOUD_UPDATE_GOLDEN=1 only
 * when a change is *supposed* to alter simulated behaviour, and say so
 * in the commit.
 */
TEST(GoldenTrace, SmallFixedSeedRunIsByteStable)
{
    workload::ScenarioConfig cfg;
    cfg.kind = workload::ScenarioKind::Static;
    cfg.seed = 42;
    cfg.loadScale = 0.05;
    const workload::ArrivalTrace trace = workload::generateScenario(cfg);

    core::EngineConfig config;
    config.seed = 42;
    config.trace.mode = obs::TraceConfig::Mode::On;
    core::Engine engine(config);
    const core::RunResult r =
        engine.run(trace, core::StrategyKind::HM, "golden");
    ASSERT_EQ(r.trace.dropped, 0u)
        << "golden scenario must fit the trace ring";

    std::ostringstream out;
    obs::writeJsonl(out, r.trace);
    const std::string text = out.str();

    const std::string golden_path =
        std::string(HCLOUD_GOLDEN_DIR) + "/trace_small.jsonl";
    if (std::getenv("HCLOUD_UPDATE_GOLDEN")) {
        std::ofstream golden_out(golden_path,
                                 std::ios::binary | std::ios::trunc);
        golden_out << text;
        ASSERT_TRUE(golden_out) << "cannot update " << golden_path;
        GTEST_SKIP() << "golden file regenerated: " << golden_path;
    }
    std::ifstream golden_in(golden_path, std::ios::binary);
    ASSERT_TRUE(golden_in)
        << golden_path
        << " missing; regenerate with HCLOUD_UPDATE_GOLDEN=1";
    std::stringstream golden_text;
    golden_text << golden_in.rdbuf();
    // EXPECT_EQ on multi-MB strings prints both operands on failure;
    // compare a digest-style summary first for a readable message.
    ASSERT_EQ(text.size(), golden_text.str().size())
        << "trace length changed — simulated behaviour diverged; use "
           "trace_inspect --diff to find the first divergent event";
    EXPECT_TRUE(text == golden_text.str())
        << "trace bytes changed — simulated behaviour diverged; use "
           "trace_inspect --diff to find the first divergent event";
}

} // namespace
} // namespace hcloud::exp
