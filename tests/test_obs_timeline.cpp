/**
 * @file
 * Timeline sampling: ring/sink bounding semantics, since()-cursor
 * downsampling, JSON round-trips, the perturbation-free contract
 * (enabling the timeline must not move a single simulated decision),
 * byte-identity across runner thread counts, and a byte-exact golden
 * sample stream for a small fixed-seed run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "exp/report_json.hpp"
#include "exp/runner.hpp"
#include "obs/json.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "workload/scenario.hpp"

namespace hcloud {
namespace {

/** A distinguishable sample: every field derived from @p seq. */
obs::TimelineSample
makeSample(std::uint64_t seq)
{
    obs::TimelineSample s;
    s.t = 30.0 * static_cast<double>(seq + 1);
    s.reservedInstances = static_cast<std::uint32_t>(10 + seq);
    s.onDemandInstances = static_cast<std::uint32_t>(seq % 3);
    s.spotInstances = static_cast<std::uint32_t>(seq % 2);
    s.typeCounts = {{"st16", static_cast<std::uint32_t>(10 + seq)},
                    {"st4", 1u}};
    s.reservedCores = 160.0;
    s.reservedUsed = 4.0 * static_cast<double>(seq % 40);
    s.utilization = s.reservedUsed / s.reservedCores;
    s.qualityMean = 0.8;
    s.qualityP5 = 0.5;
    s.qualityP50 = 0.82;
    s.qualityP95 = 0.97;
    s.queueLength = static_cast<std::uint32_t>(seq % 5);
    s.activeJobs = static_cast<std::uint32_t>(2 * seq);
    s.runningJobs = static_cast<std::uint32_t>(2 * seq);
    s.finishedJobs = 3 * seq;
    s.externalLoad = 0.4;
    s.spotPrice = 0.31;
    s.qosTracked = static_cast<std::uint32_t>(seq % 4);
    s.costTotal = 1.25 * static_cast<double>(seq);
    return s;
}

// ---------------------------------------------------------------------------
// Ring semantics

TEST(Timeline, DisabledRecordIsNoOp)
{
    obs::TimelineConfig cfg;
    cfg.mode = obs::TimelineConfig::Mode::Off;
    obs::Timeline timeline(cfg);
    EXPECT_FALSE(timeline.enabled());
    timeline.record(makeSample(0));
    EXPECT_EQ(timeline.recordedCount(), 0u);
    EXPECT_TRUE(timeline.samples().empty());
    obs::TimelineSample out;
    EXPECT_FALSE(timeline.latest(&out));
}

TEST(Timeline, SeqStampedAndRingEvictsOldest)
{
    obs::TimelineConfig cfg;
    cfg.mode = obs::TimelineConfig::Mode::On;
    cfg.ringCapacity = 4;
    obs::Timeline timeline(cfg);
    for (std::uint64_t i = 0; i < 10; ++i)
        timeline.record(makeSample(i));
    EXPECT_EQ(timeline.recordedCount(), 10u);
    EXPECT_EQ(timeline.droppedCount(), 6u);
    // since() returns the retained tail chronologically, seq re-stamped
    // by record() in arrival order.
    const auto tail = timeline.since(0, 1, 100);
    ASSERT_EQ(tail.size(), 4u);
    for (std::size_t i = 0; i < tail.size(); ++i) {
        EXPECT_EQ(tail[i].seq, 6u + i);
        if (i > 0) {
            EXPECT_GT(tail[i].t, tail[i - 1].t);
        }
    }
    obs::TimelineSample last;
    ASSERT_TRUE(timeline.latest(&last));
    EXPECT_EQ(last.seq, 9u);
}

TEST(Timeline, SinceStrideSelectsBySeqNotCursor)
{
    obs::TimelineConfig cfg;
    cfg.mode = obs::TimelineConfig::Mode::On;
    obs::Timeline timeline(cfg);
    for (std::uint64_t i = 0; i < 20; ++i)
        timeline.record(makeSample(i));

    // stride picks seq % stride == 0 regardless of the cursor, so two
    // clients paging from different cursors see the same downsampling.
    const auto from0 = timeline.since(0, 4, 100);
    ASSERT_EQ(from0.size(), 5u);
    for (std::size_t i = 0; i < from0.size(); ++i)
        EXPECT_EQ(from0[i].seq, 4 * i);
    const auto from5 = timeline.since(5, 4, 100);
    ASSERT_EQ(from5.size(), 3u);
    EXPECT_EQ(from5[0].seq, 8u);

    // maxSamples caps the page; the caller resumes from the cursor.
    const auto page = timeline.since(0, 1, 7);
    ASSERT_EQ(page.size(), 7u);
    EXPECT_EQ(page.back().seq, 6u);
    const auto next = timeline.since(page.back().seq + 1, 1, 7);
    ASSERT_FALSE(next.empty());
    EXPECT_EQ(next.front().seq, 7u);

    // stride < 1 behaves as 1.
    EXPECT_EQ(timeline.since(0, 0, 100).size(), 20u);
}

TEST(Timeline, SnapshotIsNonDestructive)
{
    obs::TimelineConfig cfg;
    cfg.mode = obs::TimelineConfig::Mode::On;
    obs::Timeline timeline(cfg);
    for (std::uint64_t i = 0; i < 5; ++i)
        timeline.record(makeSample(i));
    const obs::TimelineBuffer snap = timeline.snapshot();
    EXPECT_EQ(snap.recorded, 5u);
    ASSERT_EQ(snap.records.size(), 5u);
    EXPECT_EQ(snap.records.front().seq, 0u);
    // The timeline keeps recording after a snapshot.
    timeline.record(makeSample(5));
    EXPECT_EQ(timeline.recordedCount(), 6u);
    const obs::TimelineBuffer taken = timeline.take();
    EXPECT_EQ(taken.recorded, 6u);
    EXPECT_EQ(taken.records.size(), 6u);
    EXPECT_EQ(timeline.recordedCount(), 0u);
}

// ---------------------------------------------------------------------------
// Sink semantics

TEST(TimelineSink, TinyRingStreamsCompleteFile)
{
    const std::string path =
        ::testing::TempDir() + "timeline_sink_unit.jsonl";
    obs::TimelineConfig cfg;
    cfg.mode = obs::TimelineConfig::Mode::On;
    cfg.ringCapacity = 4;
    cfg.sinkPath = path;
    obs::Timeline timeline(cfg);
    for (std::uint64_t i = 0; i < 21; ++i)
        timeline.record(makeSample(i));
    const obs::TimelineBuffer buffer = timeline.take();
    EXPECT_TRUE(buffer.sinkOk);
    EXPECT_EQ(buffer.recorded, 21u);
    EXPECT_EQ(buffer.dropped, 0u) << "sink-backed timelines never evict";
    EXPECT_EQ(buffer.flushed, 21u);
    EXPECT_EQ(buffer.sinkPath, path);
    EXPECT_TRUE(buffer.records.empty())
        << "the stream lives in the file, not the buffer";

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    std::string line;
    std::uint64_t n = 0;
    while (std::getline(in, line)) {
        obs::TimelineSample s;
        ASSERT_TRUE(obs::sampleFromJsonLine(line, &s)) << line;
        EXPECT_EQ(s.seq, n);
        ++n;
    }
    EXPECT_EQ(n, 21u);
    std::remove(path.c_str());
}

TEST(TimelineSink, OpenFailureFallsBackToRing)
{
    obs::TimelineConfig cfg;
    cfg.mode = obs::TimelineConfig::Mode::On;
    cfg.ringCapacity = 4;
    cfg.sinkPath = "/nonexistent_hcloud_dir/timeline.jsonl";
    obs::Timeline timeline(cfg);
    for (std::uint64_t i = 0; i < 10; ++i)
        timeline.record(makeSample(i));
    const obs::TimelineBuffer buffer = timeline.take();
    EXPECT_FALSE(buffer.sinkOk);
    EXPECT_EQ(buffer.recorded, 10u);
    EXPECT_EQ(buffer.records.size(), 4u)
        << "fallback keeps the ring-bounded tail";
    EXPECT_EQ(buffer.dropped, 6u);
}

// ---------------------------------------------------------------------------
// JSON round-trips

TEST(TimelineJson, ToJsonRoundTripsByteExactly)
{
    const obs::TimelineSample original = makeSample(7);
    const std::string text = toJson(original);
    obs::TimelineSample parsed;
    ASSERT_TRUE(obs::sampleFromJsonLine(text, &parsed));
    EXPECT_EQ(toJson(parsed), text)
        << "parse->serialize must be the identity on sample lines";
    EXPECT_EQ(parsed.seq, original.seq);
    EXPECT_EQ(parsed.typeCounts, original.typeCounts);
    EXPECT_DOUBLE_EQ(parsed.costTotal, original.costTotal);

    // Run headers and junk are rejected, not misparsed.
    obs::TimelineSample out;
    EXPECT_FALSE(obs::sampleFromJsonLine(
        "{\"run\":{\"strategy\":\"HM\"}}", &out));
    EXPECT_FALSE(obs::sampleFromJsonLine("not json", &out));
    EXPECT_FALSE(obs::sampleFromJsonLine("", &out));
}

TEST(TimelineJson, EmptyTypeCountsOmitsTypesKey)
{
    obs::TimelineSample s = makeSample(0);
    s.typeCounts.clear();
    const std::string text = toJson(s);
    EXPECT_EQ(text.find("\"types\""), std::string::npos);
    obs::TimelineSample parsed;
    ASSERT_TRUE(obs::sampleFromJsonLine(text, &parsed));
    EXPECT_TRUE(parsed.typeCounts.empty());
    EXPECT_EQ(toJson(parsed), text);
}

// ---------------------------------------------------------------------------
// Perturbation-free contract

TEST(TimelinePerturbation, EnablingTimelineMovesNoDecision)
{
    workload::ScenarioConfig scenario_cfg;
    scenario_cfg.kind = workload::ScenarioKind::HighVariability;
    scenario_cfg.seed = 42;
    scenario_cfg.loadScale = 0.05;
    const workload::ArrivalTrace trace =
        workload::generateScenario(scenario_cfg);

    auto run = [&](obs::TimelineConfig::Mode mode) {
        core::EngineConfig cfg;
        cfg.seed = 42;
        cfg.trace.mode = obs::TraceConfig::Mode::On;
        cfg.timeline.mode = mode;
        cfg.timeline.cadence = 30.0;
        core::Engine engine(cfg);
        return engine.run(trace, core::StrategyKind::HM, "perturb");
    };
    const core::RunResult off = run(obs::TimelineConfig::Mode::Off);
    const core::RunResult on = run(obs::TimelineConfig::Mode::On);

    EXPECT_EQ(off.timeline.recorded, 0u);
    EXPECT_GT(on.timeline.recorded, 0u);

    // The decision trace is byte-identical with sampling on or off:
    // samples are built from read-only accessors, so not one RNG draw
    // may move.
    std::ostringstream off_text;
    std::ostringstream on_text;
    obs::writeJsonl(off_text, off.trace);
    obs::writeJsonl(on_text, on.trace);
    ASSERT_GT(off.trace.recorded, 0u);
    EXPECT_TRUE(off_text.str() == on_text.str())
        << "timeline sampling perturbed the decision stream";
    EXPECT_EQ(off.makespan, on.makespan);
    EXPECT_EQ(off.meanPerfNorm(), on.meanPerfNorm());
    EXPECT_EQ(off.acquisitions, on.acquisitions);
    EXPECT_EQ(off.reservedUtilizationAvg, on.reservedUtilizationAvg);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts

std::string
serializeTimeline(const obs::TimelineBuffer& buffer)
{
    std::ostringstream out;
    obs::writeJsonl(out, buffer);
    return out.str();
}

TEST(TimelineDeterminism, RingTimelineByteIdenticalAcrossThreadCounts)
{
    exp::ExperimentOptions serial_opt;
    serial_opt.loadScale = 0.1;
    serial_opt.seed = 42;
    serial_opt.threads = 1;
    exp::ExperimentOptions parallel_opt = serial_opt;
    parallel_opt.threads = 4;
    core::EngineConfig base;
    base.timeline.mode = obs::TimelineConfig::Mode::On;
    base.timeline.cadence = 60.0;

    const std::vector<exp::Runner::CellKey> cells = {
        {workload::ScenarioKind::Static, core::StrategyKind::SR, true},
        {workload::ScenarioKind::HighVariability, core::StrategyKind::HM,
         true},
    };
    exp::Runner serial{serial_opt, base};
    exp::Runner parallel{parallel_opt, base};
    serial.fill(cells);
    parallel.fill(cells);
    for (const exp::Runner::CellKey& key : cells) {
        const core::RunResult& a = serial.results().at(key);
        const core::RunResult& b = parallel.results().at(key);
        ASSERT_GT(a.timeline.recorded, 0u);
        EXPECT_EQ(serializeTimeline(a.timeline),
                  serializeTimeline(b.timeline))
            << a.scenario << "/" << a.strategy;
    }
}

/**
 * Sink-backed sweep at @p threads workers: assert the drop-free sink
 * contract per cell, merge the part files, and return the merged bytes.
 */
std::string
mergedSinkTimeline(std::size_t threads, std::uint64_t* recordedSum)
{
    exp::ExperimentOptions opt;
    opt.loadScale = 0.1;
    opt.seed = 42;
    opt.threads = threads;
    core::EngineConfig base;
    base.timeline.mode = obs::TimelineConfig::Mode::On;
    base.timeline.cadence = 60.0;
    base.timeline.ringCapacity = 16;
    const std::string stem = ::testing::TempDir() + "timeline_sink_t" +
        std::to_string(threads) + ".jsonl";
    base.timeline.sinkStem = stem;

    const std::vector<exp::Runner::CellKey> cells = {
        {workload::ScenarioKind::Static, core::StrategyKind::SR, true},
        {workload::ScenarioKind::HighVariability, core::StrategyKind::HM,
         true},
        {workload::ScenarioKind::HighVariability, core::StrategyKind::HF,
         true},
    };
    exp::Runner runner{opt, base};
    runner.fill(cells);
    *recordedSum = 0;
    for (const exp::Runner::CellKey& key : cells) {
        const core::RunResult& r = runner.results().at(key);
        EXPECT_TRUE(r.timeline.sinkOk);
        EXPECT_FALSE(r.timeline.sinkPath.empty());
        EXPECT_EQ(r.timeline.dropped, 0u)
            << "sink-backed runs must never evict";
        EXPECT_GT(r.timeline.recorded, base.timeline.ringCapacity)
            << "cell too small to exercise ring wraps; shrink the ring";
        *recordedSum += r.timeline.recorded;
    }
    const std::string merged = stem + ".merged";
    EXPECT_TRUE(exp::writeTimelineJsonl(merged, runner,
                                        /*removeParts=*/true));
    std::ifstream in(merged, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(merged.c_str());
    return text.str();
}

TEST(TimelineDeterminism, SinkMergedTimelineByteIdenticalAcrossThreads)
{
    std::uint64_t recorded1 = 0;
    std::uint64_t recorded2 = 0;
    std::uint64_t recorded4 = 0;
    const std::string t1 = mergedSinkTimeline(1, &recorded1);
    const std::string t2 = mergedSinkTimeline(2, &recorded2);
    const std::string t4 = mergedSinkTimeline(4, &recorded4);
    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(recorded1, recorded2);
    EXPECT_TRUE(t1 == t2)
        << "threads=1 vs threads=2 merged timelines differ";
    EXPECT_TRUE(t1 == t4)
        << "threads=1 vs threads=4 merged timelines differ";

    // The merged stream is complete: every recorded sample is a line,
    // plus one header per cell, and nothing else.
    std::istringstream in(t1);
    std::string line;
    std::uint64_t samples = 0;
    std::uint64_t headers = 0;
    while (std::getline(in, line)) {
        obs::TimelineSample sample;
        if (obs::sampleFromJsonLine(line, &sample)) {
            ++samples;
            continue;
        }
        const obs::JsonValue header = obs::parseJson(line);
        const obs::JsonValue* run = header.find("run");
        ASSERT_NE(run, nullptr) << line;
        EXPECT_EQ(run->find("dropped")->numberOr(-1.0), 0.0);
        ++headers;
    }
    EXPECT_EQ(headers, 3u);
    EXPECT_EQ(samples, recorded1);
}

// ---------------------------------------------------------------------------
// Environment tokens

TEST(TimelineEnv, TokensMirrorHcloudTrace)
{
    const char* saved = std::getenv("HCLOUD_TIMELINE");
    const std::string saved_value = saved ? saved : "";

    ::unsetenv("HCLOUD_TIMELINE");
    EXPECT_FALSE(obs::envSwitch("HCLOUD_TIMELINE").enabled);
    obs::TimelineConfig cfg;
    EXPECT_FALSE(cfg.resolveEnabled()) << "Auto follows the environment";
    cfg.mode = obs::TimelineConfig::Mode::On;
    EXPECT_TRUE(cfg.resolveEnabled()) << "explicit On ignores env";

    for (const char* off : {"0", "off", "false", ""}) {
        ::setenv("HCLOUD_TIMELINE", off, 1);
        EXPECT_FALSE(obs::envSwitch("HCLOUD_TIMELINE").enabled)
            << "'" << off << "'";
    }
    for (const char* on : {"1", "on", "true"}) {
        ::setenv("HCLOUD_TIMELINE", on, 1);
        EXPECT_TRUE(obs::envSwitch("HCLOUD_TIMELINE").enabled)
            << "'" << on << "'";
        EXPECT_EQ(obs::envSwitch("HCLOUD_TIMELINE").path, "")
            << "boolean tokens carry no path";
    }
    ::setenv("HCLOUD_TIMELINE", "/tmp/t.jsonl", 1);
    EXPECT_TRUE(obs::envSwitch("HCLOUD_TIMELINE").enabled);
    EXPECT_EQ(obs::envSwitch("HCLOUD_TIMELINE").path, "/tmp/t.jsonl");

    if (saved)
        ::setenv("HCLOUD_TIMELINE", saved_value.c_str(), 1);
    else
        ::unsetenv("HCLOUD_TIMELINE");
}

TEST(TimelineEnv, CadenceOverrideIsValidatedAtTheEdge)
{
    const char* saved = std::getenv("HCLOUD_TIMELINE_CADENCE");
    const std::string saved_value = saved ? saved : "";

    ::unsetenv("HCLOUD_TIMELINE_CADENCE");
    EXPECT_DOUBLE_EQ(obs::envTimelineCadence(30.0), 30.0);
    ::setenv("HCLOUD_TIMELINE_CADENCE", "120", 1);
    EXPECT_DOUBLE_EQ(obs::envTimelineCadence(30.0), 120.0);
    for (const char* bad : {"0", "-5", "abc", "", "inf", "1e999"}) {
        ::setenv("HCLOUD_TIMELINE_CADENCE", bad, 1);
        EXPECT_DOUBLE_EQ(obs::envTimelineCadence(30.0), 30.0)
            << "'" << bad << "'";
    }

    if (saved)
        ::setenv("HCLOUD_TIMELINE_CADENCE", saved_value.c_str(), 1);
    else
        ::unsetenv("HCLOUD_TIMELINE_CADENCE");
}

// ---------------------------------------------------------------------------
// Golden sample stream

/**
 * Byte-exact golden timeline for a small fixed-seed run: the sample
 * stream is a pure function of (trace, config, seed), so any change to
 * sampling cadence, snapshot contents or serialization shows up here as
 * a reviewable diff. Regenerate with HCLOUD_UPDATE_GOLDEN=1 only when a
 * change is *supposed* to alter the stream, and say so in the commit.
 */
TEST(GoldenTimeline, SmallFixedSeedRunIsByteStable)
{
    workload::ScenarioConfig cfg;
    cfg.kind = workload::ScenarioKind::Static;
    cfg.seed = 42;
    cfg.loadScale = 0.05;
    const workload::ArrivalTrace trace = workload::generateScenario(cfg);

    core::EngineConfig config;
    config.seed = 42;
    config.timeline.mode = obs::TimelineConfig::Mode::On;
    config.timeline.cadence = 60.0;
    core::Engine engine(config);
    const core::RunResult r =
        engine.run(trace, core::StrategyKind::HM, "golden");
    ASSERT_GT(r.timeline.recorded, 0u);
    ASSERT_EQ(r.timeline.dropped, 0u)
        << "golden scenario must fit the timeline ring";

    std::ostringstream out;
    obs::writeJsonl(out, r.timeline);
    const std::string text = out.str();

    const std::string golden_path =
        std::string(HCLOUD_GOLDEN_DIR) + "/timeline_small.jsonl";
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
    ASSERT_EQ(text.size(), golden_text.str().size())
        << "timeline length changed — sampling or serialization "
           "diverged";
    EXPECT_TRUE(text == golden_text.str())
        << "timeline bytes changed — sampling or serialization diverged";
}

} // namespace
} // namespace hcloud
