/**
 * @file
 * Observability layer: tracer semantics (ring bound, filters, disabled
 * no-op), JSON/JSONL round-trips, decision-reason coverage, the report's
 * metrics rows, and the tentpole determinism contract — the traced event
 * stream must serialize byte-identically at any runner thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/engine.hpp"
#include "core/mapping_policy.hpp"
#include "exp/report_json.hpp"
#include "exp/runner.hpp"
#include "obs/json.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "workload/scenario.hpp"

namespace hcloud {
namespace {

// ---------------------------------------------------------------------------
// JSON

TEST(ObsJson, FormatDoubleRoundTripsBitExactly)
{
    const double values[] = {0.0,    1.0,   -2.5,       0.1,
                             1.0 / 3.0,     6.02e23,    1e-300,
                             123456789.123, -0.0078125, 3.14159265358979};
    for (double v : values) {
        const std::string s = obs::formatDouble(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
    EXPECT_EQ(obs::formatDouble(0.0 / 0.0), "null");
}

TEST(ObsJson, WriterProducesValidNestedJson)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("name", "a\"b\\c\n");
    w.field("pi", 3.25);
    w.field("n", std::uint64_t{42});
    w.field("ok", true);
    w.key("list");
    w.beginArray();
    w.value(1);
    w.value(2);
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"name\":\"a\\\"b\\\\c\\n\",\"pi\":3.25,"
                       "\"n\":42,\"ok\":true,\"list\":[1,2]}");

    const obs::JsonValue parsed = obs::parseJson(w.str());
    ASSERT_EQ(parsed.type, obs::JsonValue::Type::Object);
    EXPECT_EQ(parsed.find("name")->stringOr(""), "a\"b\\c\n");
    EXPECT_EQ(parsed.find("pi")->numberOr(0), 3.25);
    EXPECT_TRUE(parsed.find("ok")->boolOr(false));
    ASSERT_EQ(parsed.find("list")->array.size(), 2u);
    EXPECT_EQ(parsed.find("list")->array[1].numberOr(0), 2.0);
}

TEST(ObsJson, ParserRejectsMalformedInput)
{
    EXPECT_THROW(obs::parseJson("{\"a\":"), std::runtime_error);
    EXPECT_THROW(obs::parseJson("[1,]"), std::runtime_error);
    EXPECT_THROW(obs::parseJson("{} trailing"), std::runtime_error);
}

/**
 * The parser recurses once per array or object level; past the cap it
 * throws instead of overflowing the stack.
 */
TEST(ObsJson, NestingBeyondLimitIsAParseError)
{
    auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    const obs::JsonValue deepest = obs::parseJson(nested(obs::kMaxJsonDepth));
    EXPECT_EQ(deepest.type, obs::JsonValue::Type::Array);
    EXPECT_NO_THROW(obs::parseJson(
        "{\"a\":" + nested(obs::kMaxJsonDepth - 1) + "}"));
    EXPECT_THROW(obs::parseJson(nested(obs::kMaxJsonDepth + 1)),
                 std::runtime_error);
    EXPECT_THROW(obs::parseJson("{\"a\":" + nested(obs::kMaxJsonDepth) + "}"),
                 std::runtime_error);
    EXPECT_THROW(obs::parseJson(std::string(1000000, '[')),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Event taxonomy

TEST(ObsTraceEvent, ToStringAndParseAreTotalInverses)
{
    std::set<std::string> names;
    for (obs::EventKind kind : obs::kAllEventKinds) {
        const std::string name = toString(kind);
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(names.insert(name).second) << name << " duplicated";
        obs::EventKind back{};
        ASSERT_TRUE(obs::parseEventKind(name, &back)) << name;
        EXPECT_EQ(back, kind);
    }
    names.clear();
    for (obs::DecisionReason reason : obs::kAllDecisionReasons) {
        const std::string name = toString(reason);
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(names.insert(name).second) << name << " duplicated";
        obs::DecisionReason back{};
        ASSERT_TRUE(obs::parseDecisionReason(name, &back)) << name;
        EXPECT_EQ(back, reason);
    }
    for (obs::Severity sev :
         {obs::Severity::Debug, obs::Severity::Info, obs::Severity::Warn}) {
        obs::Severity back{};
        ASSERT_TRUE(obs::parseSeverity(toString(sev), &back));
        EXPECT_EQ(back, sev);
    }
    obs::EventKind kind_out{};
    EXPECT_FALSE(obs::parseEventKind("no_such_kind", &kind_out));
}

// ---------------------------------------------------------------------------
// Tracer

TEST(ObsTracer, DisabledTracerIsANoOp)
{
    obs::TraceConfig cfg;
    cfg.mode = obs::TraceConfig::Mode::Off;
    obs::Tracer tracer(cfg);
    EXPECT_FALSE(tracer.enabled());
    tracer.job(obs::EventKind::JobSubmit, 1.0, 7);
    tracer.decision(2.0, obs::DecisionReason::BelowSoftLimit, 7);
    obs::TraceEvent direct;
    direct.time = 3.0;
    direct.kind = obs::EventKind::JobFinish;
    tracer.record(direct);
    EXPECT_EQ(tracer.recordedCount(), 0u);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(ObsTracer, RingOverflowDropsOldestKeepsChronology)
{
    obs::TraceConfig cfg;
    cfg.mode = obs::TraceConfig::Mode::On;
    cfg.ringCapacity = 4;
    obs::Tracer tracer(cfg);
    for (int i = 0; i < 10; ++i)
        tracer.job(obs::EventKind::JobSubmit, static_cast<double>(i),
                   static_cast<sim::JobId>(i + 1));
    EXPECT_EQ(tracer.recordedCount(), 10u);
    EXPECT_EQ(tracer.droppedCount(), 6u);
    const obs::TraceBuffer buffer = tracer.take();
    ASSERT_EQ(buffer.records.size(), 4u);
    EXPECT_EQ(buffer.recorded, 10u);
    EXPECT_EQ(buffer.dropped, 6u);
    // The newest four survive, in chronological order.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(buffer.records[i].time, static_cast<double>(6 + i));
    // take() leaves the tracer empty but still enabled.
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_TRUE(tracer.enabled());
}

TEST(ObsTracer, SeverityAndCategoryFiltersApply)
{
    obs::TraceConfig cfg;
    cfg.mode = obs::TraceConfig::Mode::On;
    cfg.minSeverity = obs::Severity::Info;
    cfg.categoryMask = obs::categoryBit(obs::Category::Job) |
                       obs::categoryBit(obs::Category::Decision);
    obs::Tracer tracer(cfg);
    tracer.job(obs::EventKind::JobSubmit, 1.0, 1); // kept
    tracer.job(obs::EventKind::JobStart, 2.0, 1, 0.0, {},
               obs::Severity::Debug); // below min severity
    tracer.instance(obs::EventKind::InstanceReady, 3.0, 9); // masked out
    tracer.controller(obs::EventKind::SoftLimitUpdate, 4.0, 0.7,
                      {}, obs::Severity::Info); // masked out
    tracer.decision(5.0, obs::DecisionReason::SoftLimitExceeded, 1); // kept
    ASSERT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.events()[0].kind, obs::EventKind::JobSubmit);
    EXPECT_EQ(tracer.events()[1].kind, obs::EventKind::Decision);
}

TEST(ObsTracer, EnvKnobMirrorsHcloudThreadsConventions)
{
    const char* saved = std::getenv("HCLOUD_TRACE");
    const std::string saved_value = saved ? saved : "";

    ::setenv("HCLOUD_TRACE", "0", 1);
    EXPECT_FALSE(obs::envSwitch("HCLOUD_TRACE").enabled);
    EXPECT_EQ(obs::envSwitch("HCLOUD_TRACE").path, "");
    obs::TraceConfig cfg; // Mode::Auto
    EXPECT_FALSE(cfg.resolveEnabled());

    ::setenv("HCLOUD_TRACE", "1", 1);
    EXPECT_TRUE(obs::envSwitch("HCLOUD_TRACE").enabled);
    EXPECT_EQ(obs::envSwitch("HCLOUD_TRACE").path, "");
    EXPECT_TRUE(cfg.resolveEnabled());

    ::setenv("HCLOUD_TRACE", "off", 1);
    EXPECT_FALSE(obs::envSwitch("HCLOUD_TRACE").enabled);

    ::setenv("HCLOUD_TRACE", "/tmp/run.jsonl", 1);
    EXPECT_TRUE(obs::envSwitch("HCLOUD_TRACE").enabled);
    EXPECT_EQ(obs::envSwitch("HCLOUD_TRACE").path, "/tmp/run.jsonl");

    ::unsetenv("HCLOUD_TRACE");
    EXPECT_FALSE(obs::envSwitch("HCLOUD_TRACE").enabled);
    // Explicit modes ignore the environment either way.
    cfg.mode = obs::TraceConfig::Mode::On;
    EXPECT_TRUE(cfg.resolveEnabled());

    if (saved)
        ::setenv("HCLOUD_TRACE", saved_value.c_str(), 1);
}

TEST(ObsTracer, JsonlRoundTripPreservesEveryField)
{
    obs::TraceEvent original;
    original.time = 1234.5625;
    original.kind = obs::EventKind::Decision;
    original.severity = obs::Severity::Warn;
    original.reason = obs::DecisionReason::QosViolationReschedule;
    original.job = 42;
    original.instance = 7;
    original.value = 3.0;
    original.detail = "st16 \"quoted\"";

    obs::TraceEvent back;
    ASSERT_TRUE(obs::eventFromJsonLine(toJson(original), &back));
    EXPECT_EQ(back.time, original.time);
    EXPECT_EQ(back.kind, original.kind);
    EXPECT_EQ(back.severity, original.severity);
    EXPECT_EQ(back.reason, original.reason);
    EXPECT_EQ(back.job, original.job);
    EXPECT_EQ(back.instance, original.instance);
    EXPECT_EQ(back.value, original.value);
    EXPECT_EQ(back.detail, original.detail);

    // Defaulted fields are omitted from the wire form yet round-trip.
    obs::TraceEvent plain;
    plain.time = 9.0;
    plain.kind = obs::EventKind::JobFinish;
    plain.job = 3;
    const std::string line = toJson(plain);
    EXPECT_EQ(line.find("sev"), std::string::npos);
    EXPECT_EQ(line.find("reason"), std::string::npos);
    EXPECT_EQ(line.find("detail"), std::string::npos);
    ASSERT_TRUE(obs::eventFromJsonLine(line, &back));
    EXPECT_EQ(back.severity, obs::Severity::Info);
    EXPECT_EQ(back.reason, obs::DecisionReason::None);
    EXPECT_EQ(back.detail, "");

    // Non-event lines (e.g. run headers) are rejected, not mis-parsed.
    EXPECT_FALSE(obs::eventFromJsonLine(
        "{\"run\":{\"strategy\":\"HM\"}}", &back));
    EXPECT_FALSE(obs::eventFromJsonLine("not json", &back));
}

TEST(ObsTracer, NonFiniteValuesSurviveTheJsonRoundTrip)
{
    obs::TraceEvent event;
    event.time = 1.0;
    event.kind = obs::EventKind::Decision;
    event.reason = obs::DecisionReason::SoftLimitExceeded;

    obs::TraceEvent back;
    event.value = std::nan("");
    ASSERT_TRUE(obs::eventFromJsonLine(toJson(event), &back));
    EXPECT_TRUE(std::isnan(back.value));
    EXPECT_NE(toJson(event).find("\"value\":\"NaN\""), std::string::npos);

    event.value = std::numeric_limits<double>::infinity();
    ASSERT_TRUE(obs::eventFromJsonLine(toJson(event), &back));
    EXPECT_EQ(back.value, std::numeric_limits<double>::infinity());

    event.value = -std::numeric_limits<double>::infinity();
    ASSERT_TRUE(obs::eventFromJsonLine(toJson(event), &back));
    EXPECT_EQ(back.value, -std::numeric_limits<double>::infinity());

    // Legacy writers emitted "value":null for any non-finite double; that
    // used to silently parse back as 0.0. It now maps to NaN.
    ASSERT_TRUE(obs::eventFromJsonLine(
        "{\"t\":1,\"kind\":\"decision\",\"reason\":\"soft_limit_exceeded\","
        "\"value\":null}",
        &back));
    EXPECT_TRUE(std::isnan(back.value));

    // Unknown string payloads are malformed, not silently zero.
    EXPECT_FALSE(obs::eventFromJsonLine(
        "{\"t\":1,\"kind\":\"decision\",\"reason\":\"soft_limit_exceeded\","
        "\"value\":\"bogus\"}",
        &back));
}

// ---------------------------------------------------------------------------
// Trace sink (the tentpole): complete on-disk streams past ringCapacity

std::vector<std::string>
fileLines(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(ObsTraceSink, SinkKeepsCompleteStreamPastRingCapacity)
{
    const std::string path = ::testing::TempDir() + "obs_sink.jsonl.part";
    obs::TraceConfig cfg;
    cfg.mode = obs::TraceConfig::Mode::On;
    cfg.ringCapacity = 8;
    cfg.sinkPath = path;
    obs::Tracer tracer(cfg);
    ASSERT_NE(tracer.sink(), nullptr);
    for (int i = 0; i < 100; ++i)
        tracer.job(obs::EventKind::JobSubmit, static_cast<double>(i),
                   static_cast<sim::JobId>(i + 1));

    // Recording 12.5 rings' worth drops nothing: wraps drain to disk.
    EXPECT_EQ(tracer.recordedCount(), 100u);
    EXPECT_EQ(tracer.droppedCount(), 0u);

    const obs::TraceBuffer buffer = tracer.take();
    EXPECT_EQ(buffer.recorded, 100u);
    EXPECT_EQ(buffer.dropped, 0u);
    EXPECT_TRUE(buffer.sinkOk);
    EXPECT_EQ(buffer.sinkPath, path);
    EXPECT_EQ(buffer.flushed, 100u);
    EXPECT_TRUE(buffer.records.empty())
        << "a sink-backed buffer advertises the file, not ring leftovers";

    // The file holds every event, in record order, parseable.
    const std::vector<std::string> lines = fileLines(path);
    ASSERT_EQ(lines.size(), 100u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        obs::TraceEvent event;
        ASSERT_TRUE(obs::eventFromJsonLine(lines[i], &event)) << lines[i];
        EXPECT_EQ(event.time, static_cast<double>(i));
        EXPECT_EQ(event.job, static_cast<sim::JobId>(i + 1));
    }
    std::remove(path.c_str());
}

TEST(ObsTraceSink, UnopenableSinkFallsBackToBoundedRing)
{
    obs::TraceConfig cfg;
    cfg.mode = obs::TraceConfig::Mode::On;
    cfg.ringCapacity = 4;
    cfg.sinkPath =
        ::testing::TempDir() + "no_such_dir_xyz/obs_sink.jsonl.part";
    obs::Tracer tracer(cfg);
    EXPECT_EQ(tracer.sink(), nullptr);
    for (int i = 0; i < 10; ++i)
        tracer.job(obs::EventKind::JobSubmit, static_cast<double>(i),
                   static_cast<sim::JobId>(i + 1));
    const obs::TraceBuffer buffer = tracer.take();
    // The run still traces — ring semantics — but flags the broken sink
    // so writeTraceJsonl reports the stream incomplete instead of
    // silently writing a truncated artifact.
    EXPECT_FALSE(buffer.sinkOk);
    EXPECT_TRUE(buffer.sinkPath.empty());
    EXPECT_EQ(buffer.recorded, 10u);
    EXPECT_EQ(buffer.dropped, 6u);
    ASSERT_EQ(buffer.records.size(), 4u);
    EXPECT_EQ(buffer.records.front().time, 6.0);
}

/** Record entry @p i into a tracer or a timeline. */
void
recordOne(obs::Tracer& tracer, int i)
{
    tracer.job(obs::EventKind::JobSubmit, static_cast<double>(i),
               static_cast<sim::JobId>(i + 1));
}

void
recordOne(obs::Timeline& timeline, int i)
{
    obs::TimelineSample sample;
    sample.t = static_cast<double>(i);
    timeline.record(sample);
}

template <class R>
class RecorderSinkFailure : public ::testing::Test
{
};
using RecorderTypes = ::testing::Types<obs::Tracer, obs::Timeline>;
TYPED_TEST_SUITE(RecorderSinkFailure, RecorderTypes);

/**
 * A sink that fails (ENOSPC on /dev/full) loses the lines of the failed
 * drain; they must be counted as dropped, so every record is accounted
 * for. 3 records fail only at take()'s final flush, 40 fail after ring
 * wraps moved them into the sink buffer, 10000 fail mid-run.
 */
TYPED_TEST(RecorderSinkFailure, FailedSinkAccountsForEveryRecord)
{
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full is absent";
    for (const int count : {3, 40, 10000}) {
        std::remove_cvref_t<decltype(std::declval<TypeParam&>().config())>
            cfg;
        cfg.mode = obs::RecorderConfig::Mode::On;
        cfg.ringCapacity = 4;
        cfg.sinkPath = "/dev/full";
        TypeParam recorder(cfg);
        ASSERT_NE(recorder.sink(), nullptr);
        for (int i = 0; i < count; ++i)
            recordOne(recorder, i);
        const auto buffer = recorder.take();
        EXPECT_FALSE(buffer.sinkOk) << count;
        EXPECT_TRUE(buffer.sinkPath.empty()) << count;
        EXPECT_EQ(buffer.recorded, static_cast<std::uint64_t>(count));
        EXPECT_EQ(buffer.recorded,
                  buffer.flushed + buffer.dropped + buffer.records.size())
            << count << " records: flushed " << buffer.flushed
            << ", dropped " << buffer.dropped << ", retained "
            << buffer.records.size();
    }
}

// ---------------------------------------------------------------------------
// Decision-reason coverage of the dynamic mapping policy

TEST(ObsDecisions, DynamicPolicyReportsEveryBranchReason)
{
    core::MappingInputs in;
    in.softLimit = 0.6;
    in.hardLimit = 0.8;
    obs::DecisionReason reason{};

    in.reservedUtilization = 0.3;
    EXPECT_EQ(core::decideMapping(core::PolicyKind::P8Dynamic, in, &reason),
              core::MapTarget::Reserved);
    EXPECT_EQ(reason, obs::DecisionReason::BelowSoftLimit);

    in.reservedUtilization = 0.7;
    in.jobQuality = 0.5;
    in.onDemandQ90 = 0.9;
    EXPECT_EQ(core::decideMapping(core::PolicyKind::P8Dynamic, in, &reason),
              core::MapTarget::OnDemand);
    EXPECT_EQ(reason, obs::DecisionReason::SoftLimitExceeded);

    in.jobQuality = 0.95; // on-demand cannot satisfy
    EXPECT_EQ(core::decideMapping(core::PolicyKind::P8Dynamic, in, &reason),
              core::MapTarget::Reserved);
    EXPECT_EQ(reason, obs::DecisionReason::QualityBelowQ90);

    in.reservedUtilization = 0.9;
    in.jobQuality = 0.5;
    EXPECT_EQ(core::decideMapping(core::PolicyKind::P8Dynamic, in, &reason),
              core::MapTarget::OnDemand);
    EXPECT_EQ(reason, obs::DecisionReason::HardLimitExceeded);

    in.jobQuality = 0.95;
    in.estimatedQueueWait = 100.0;
    in.largeSpinUpMedian = 15.0;
    EXPECT_EQ(core::decideMapping(core::PolicyKind::P8Dynamic, in, &reason),
              core::MapTarget::OnDemandLarge);
    EXPECT_EQ(reason, obs::DecisionReason::QueueWaitExceeded);

    in.estimatedQueueWait = 1.0;
    EXPECT_EQ(core::decideMapping(core::PolicyKind::P8Dynamic, in, &reason),
              core::MapTarget::QueueReserved);
    EXPECT_EQ(reason, obs::DecisionReason::QualityBelowQ90);

    // Static policies report PolicyStatic.
    EXPECT_EQ(core::decideMapping(core::PolicyKind::P3Q50, in, &reason),
              core::MapTarget::Reserved);
    EXPECT_EQ(reason, obs::DecisionReason::PolicyStatic);
}

// ---------------------------------------------------------------------------
// Engine integration

core::RunResult
tracedRun(core::StrategyKind strategy, workload::ScenarioKind scenario,
          obs::TraceConfig::Mode mode, double loadScale = 0.1)
{
    workload::ScenarioConfig scenario_cfg;
    scenario_cfg.kind = scenario;
    scenario_cfg.seed = 42;
    scenario_cfg.loadScale = loadScale;
    core::EngineConfig cfg;
    cfg.seed = 42;
    cfg.trace.mode = mode;
    core::Engine engine(cfg);
    return engine.run(workload::generateScenario(scenario_cfg), strategy,
                      workload::toString(scenario));
}

std::size_t
countKind(const obs::TraceBuffer& trace, obs::EventKind kind)
{
    std::size_t n = 0;
    for (const obs::TraceEvent& e : trace.records)
        if (e.kind == kind)
            ++n;
    return n;
}

std::size_t
countReason(const obs::TraceBuffer& trace, obs::DecisionReason reason)
{
    std::size_t n = 0;
    for (const obs::TraceEvent& e : trace.records)
        if (e.reason == reason)
            ++n;
    return n;
}

TEST(ObsEngineTrace, EventStreamAgreesWithRunCounters)
{
    const core::RunResult r =
        tracedRun(core::StrategyKind::HM,
                  workload::ScenarioKind::HighVariability,
                  obs::TraceConfig::Mode::On);
    ASSERT_GT(r.trace.recorded, 0u);
    ASSERT_EQ(r.trace.dropped, 0u)
        << "bump ringCapacity if this scenario outgrew the default ring";

    // Every decision site's reason lands in the stream exactly as the
    // metrics counters tally it.
    EXPECT_EQ(countKind(r.trace, obs::EventKind::JobSubmit), r.jobCount);
    EXPECT_EQ(countKind(r.trace, obs::EventKind::JobFinish) +
                  countKind(r.trace, obs::EventKind::JobFail),
              r.jobCount);
    EXPECT_EQ(countKind(r.trace, obs::EventKind::JobFail), r.failedJobs);
    EXPECT_EQ(countKind(r.trace, obs::EventKind::JobQueue), r.queuedJobs);
    EXPECT_EQ(countKind(r.trace, obs::EventKind::InstanceRequest),
              r.acquisitions);
    EXPECT_EQ(countReason(r.trace,
                          obs::DecisionReason::QosViolationReschedule),
              r.reschedules);
    EXPECT_EQ(countReason(r.trace, obs::DecisionReason::LowQualityRelease),
              r.immediateReleases);
    // The hybrid strategy maps every submitted job through a decision.
    EXPECT_GE(countKind(r.trace, obs::EventKind::Decision), r.jobCount);

    // Decision events always carry a reason.
    for (const obs::TraceEvent& e : r.trace.records) {
        if (e.kind == obs::EventKind::Decision) {
            EXPECT_NE(e.reason, obs::DecisionReason::None)
                << "decision at t=" << e.time << " missing its reason";
        }
    }

    // Each report metrics[] row is the run field it comes from, in name
    // order: a gauge is its series' last point, a counter its counters{}
    // entry, a histogram its sample set.
    obs::JsonWriter w;
    exp::runResultJson(w, r);
    const obs::JsonValue report = obs::parseJson(w.str());
    const obs::JsonValue* counters = report.find("counters");
    const obs::JsonValue* metrics = report.find("metrics");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(metrics, nullptr);
    const auto gauge = [](const sim::StepSeries& series) {
        return series.points().back().v;
    };
    const auto counter = [&](const char* name, std::size_t value) {
        EXPECT_EQ(counters->find(name)->number,
                  static_cast<double>(value));
        return static_cast<double>(value);
    };
    struct Row
    {
        const char* name;
        const char* kind;
        double value;
        const sim::SampleSet* samples = nullptr;
    };
    const Row rows[] = {
        {"cluster_on_demand_cores", "gauge", gauge(r.onDemandAllocated)},
        {"cluster_on_demand_cores_used", "gauge", gauge(r.onDemandUsed)},
        {"cluster_reserved_cores", "gauge", gauge(r.reservedAllocated)},
        {"cluster_reserved_utilization", "gauge",
         gauge(r.reservedUtilization)},
        {"strategy_acquisitions", "counter",
         counter("acquisitions", r.acquisitions)},
        {"strategy_immediate_releases", "counter",
         counter("immediate_releases", r.immediateReleases)},
        {"strategy_queue_wait_sec", "histogram", r.queueWaits.mean(),
         &r.queueWaits},
        {"strategy_queued_jobs", "counter",
         counter("queued_jobs", r.queuedJobs)},
        {"strategy_reschedules", "counter",
         counter("reschedules", r.reschedules)},
        {"strategy_spin_up_wait_sec", "histogram", r.spinUpWaits.mean(),
         &r.spinUpWaits},
        {"strategy_spot_interruptions", "counter",
         counter("spot_interruptions", r.spotInterruptions)},
    };
    ASSERT_EQ(metrics->array.size(), std::size(rows));
    ASSERT_FALSE(r.spinUpWaits.empty());
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const Row& want = rows[i];
        const obs::JsonValue& row = metrics->array[i];
        SCOPED_TRACE(want.name);
        EXPECT_EQ(row.find("name")->string, want.name);
        EXPECT_EQ(row.find("kind")->string, want.kind);
        EXPECT_EQ(row.find("value")->number, want.value);
        if (want.samples == nullptr)
            continue;
        EXPECT_EQ(row.find("count")->number,
                  static_cast<double>(want.samples->count()));
        EXPECT_EQ(row.find("max")->number, want.samples->max());
    }

    // Telemetry: the run did measurable work.
    EXPECT_GT(r.telemetry.simLoopSec, 0.0);
    EXPECT_GT(r.telemetry.eventsProcessed, 0u);
    EXPECT_GT(r.telemetry.eventsPerSec, 0.0);
}

TEST(ObsEngineTrace, TracingDoesNotPerturbTheSimulation)
{
    const core::RunResult off =
        tracedRun(core::StrategyKind::HM,
                  workload::ScenarioKind::HighVariability,
                  obs::TraceConfig::Mode::Off);
    const core::RunResult on =
        tracedRun(core::StrategyKind::HM,
                  workload::ScenarioKind::HighVariability,
                  obs::TraceConfig::Mode::On);
    EXPECT_TRUE(off.trace.records.empty());
    EXPECT_EQ(off.trace.recorded, 0u);
    EXPECT_FALSE(on.trace.records.empty());
    // Bit-identical simulation either way.
    EXPECT_EQ(off.makespan, on.makespan);
    EXPECT_EQ(off.meanPerfNorm(), on.meanPerfNorm());
    EXPECT_EQ(off.jobCount, on.jobCount);
    EXPECT_EQ(off.acquisitions, on.acquisitions);
    EXPECT_EQ(off.reservedUtilizationAvg, on.reservedUtilizationAvg);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts (the tentpole contract)

std::string
serializeTrace(const obs::TraceBuffer& buffer)
{
    std::ostringstream out;
    obs::writeJsonl(out, buffer);
    return out.str();
}

/** The three cells the determinism checks run, filled in one sweep. */
const std::vector<exp::Runner::CellKey> kDeterminismCells = {
    {workload::ScenarioKind::Static, core::StrategyKind::SR, true},
    {workload::ScenarioKind::HighVariability, core::StrategyKind::HM, true},
    {workload::ScenarioKind::HighVariability, core::StrategyKind::HF, true},
};

TEST(ObsDeterminism, TraceJsonlByteIdenticalAcrossThreadCounts)
{
    exp::ExperimentOptions serial_opt;
    serial_opt.loadScale = 0.1;
    serial_opt.seed = 42;
    serial_opt.threads = 1;
    exp::ExperimentOptions parallel_opt = serial_opt;
    parallel_opt.threads = 4;
    core::EngineConfig base;
    base.trace.mode = obs::TraceConfig::Mode::On;

    exp::Runner serial{serial_opt, base};
    exp::Runner parallel{parallel_opt, base};
    serial.fill(kDeterminismCells);
    parallel.fill(kDeterminismCells);
    for (const exp::Runner::CellKey& key : kDeterminismCells) {
        const core::RunResult& a = serial.results().at(key);
        const core::RunResult& b = parallel.results().at(key);
        ASSERT_GT(a.trace.recorded, 0u);
        EXPECT_EQ(serializeTrace(a.trace), serializeTrace(b.trace))
            << a.scenario << "/" << a.strategy;
    }
}

/**
 * Run the three determinism cells through a sink-backed Runner at
 * @p threads workers, merge the part files, and return the merged
 * bytes. Asserts the tentpole sink contract on every cell: dropped == 0
 * and a complete on-disk stream even though the ring (256) is far below
 * the event count.
 */
std::string
mergedSinkTrace(std::size_t threads, std::uint64_t* recordedSum)
{
    exp::ExperimentOptions opt;
    opt.loadScale = 0.1;
    opt.seed = 42;
    opt.threads = threads;
    core::EngineConfig base;
    base.trace.mode = obs::TraceConfig::Mode::On;
    base.trace.ringCapacity = 256;
    const std::string stem = ::testing::TempDir() + "obs_sink_t" +
        std::to_string(threads) + ".jsonl";
    base.trace.sinkStem = stem;

    exp::Runner runner{opt, base};
    runner.fill(kDeterminismCells);
    *recordedSum = 0;
    for (const exp::Runner::CellKey& key : kDeterminismCells) {
        const core::RunResult& r = runner.results().at(key);
        EXPECT_TRUE(r.trace.sinkOk);
        EXPECT_FALSE(r.trace.sinkPath.empty());
        EXPECT_EQ(r.trace.dropped, 0u)
            << "sink-backed runs must never evict";
        EXPECT_GT(r.trace.recorded, base.trace.ringCapacity)
            << "cell too small to exercise ring wraps; shrink the ring";
        EXPECT_EQ(r.trace.flushed, r.trace.recorded);
        *recordedSum += r.trace.recorded;
    }
    const std::string merged = stem + ".merged";
    EXPECT_TRUE(exp::writeTraceJsonl(merged, runner,
                                     /*removeParts=*/true));
    std::ifstream in(merged, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(merged.c_str());
    return text.str();
}

TEST(ObsDeterminism, SinkMergedTraceByteIdenticalAcrossThreadCounts)
{
    std::uint64_t recorded1 = 0;
    std::uint64_t recorded2 = 0;
    std::uint64_t recorded4 = 0;
    const std::string t1 = mergedSinkTrace(1, &recorded1);
    const std::string t2 = mergedSinkTrace(2, &recorded2);
    const std::string t4 = mergedSinkTrace(4, &recorded4);
    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(recorded1, recorded2);
    EXPECT_TRUE(t1 == t2) << "threads=1 vs threads=2 merged traces differ";
    EXPECT_TRUE(t1 == t4) << "threads=1 vs threads=4 merged traces differ";

    // The merged stream is complete: every recorded event is a line, plus
    // one header per cell, and nothing else.
    std::istringstream in(t1);
    std::string line;
    std::uint64_t events = 0;
    std::uint64_t headers = 0;
    while (std::getline(in, line)) {
        obs::TraceEvent event;
        if (obs::eventFromJsonLine(line, &event)) {
            ++events;
            continue;
        }
        const obs::JsonValue header = obs::parseJson(line);
        const obs::JsonValue* run = header.find("run");
        ASSERT_NE(run, nullptr) << line;
        EXPECT_EQ(run->find("dropped")->numberOr(-1.0), 0.0);
        ++headers;
    }
    EXPECT_EQ(headers, 3u);
    EXPECT_EQ(events, recorded1);
}

// ---------------------------------------------------------------------------
// Report artifacts

TEST(ObsReports, JsonReportAndTraceJsonlRoundTrip)
{
    exp::ExperimentOptions opt;
    opt.loadScale = 0.05;
    opt.seed = 42;
    core::EngineConfig base;
    base.trace.mode = obs::TraceConfig::Mode::On;
    exp::Runner runner{opt, base};
    runner.run(workload::ScenarioKind::Static, core::StrategyKind::SR);
    runner.run(workload::ScenarioKind::Static, core::StrategyKind::HM);

    const std::string dir = ::testing::TempDir();
    const std::string report_path = dir + "obs_report.json";
    const std::string trace_path = dir + "obs_trace.jsonl";
    ASSERT_TRUE(exp::writeJsonReport(report_path, "obs-test", runner));
    ASSERT_TRUE(exp::writeTraceJsonl(trace_path, runner));

    // Report parses and mirrors the in-memory results.
    std::ifstream report_in(report_path, std::ios::binary);
    std::stringstream report_text;
    report_text << report_in.rdbuf();
    const obs::JsonValue report = obs::parseJson(report_text.str());
    EXPECT_EQ(report.find("title")->stringOr(""), "obs-test");
    EXPECT_EQ(report.find("seed")->numberOr(0), 42.0);
    const obs::JsonValue* runs = report.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), 2u);
    for (const obs::JsonValue& run : runs->array) {
        EXPECT_EQ(run.find("scenario")->stringOr(""), "static");
        const obs::JsonValue* counters = run.find("counters");
        ASSERT_NE(counters, nullptr);
        EXPECT_GT(counters->find("jobs")->numberOr(0), 0.0);
        const obs::JsonValue* telemetry = run.find("telemetry");
        ASSERT_NE(telemetry, nullptr);
        EXPECT_EQ(telemetry->find("threads")->numberOr(0), 1.0);
        ASSERT_NE(run.find("metrics"), nullptr);
        EXPECT_FALSE(run.find("metrics")->array.empty());
    }

    // The JSONL alternates run headers and parseable events.
    std::ifstream trace_in(trace_path, std::ios::binary);
    std::string line;
    std::size_t headers = 0;
    std::size_t events = 0;
    while (std::getline(trace_in, line)) {
        obs::TraceEvent event;
        if (obs::eventFromJsonLine(line, &event)) {
            ++events;
            continue;
        }
        const obs::JsonValue header = obs::parseJson(line);
        ASSERT_NE(header.find("run"), nullptr) << line;
        ++headers;
    }
    EXPECT_EQ(headers, 2u);
    EXPECT_GT(events, 0u);
}

TEST(ObsReports, AdhocRecordingCapturesUncachedRuns)
{
    exp::ExperimentOptions opt;
    opt.loadScale = 0.05;
    opt.seed = 42;
    exp::Runner runner{opt};
    runner.setRecordAdhoc(true);
    exp::SweepCell cell;
    cell.scenario = workload::ScenarioKind::Static;
    cell.strategy = core::StrategyKind::HM;
    cell.config = runner.baseConfig();
    cell.config.retentionMultiple = 10.0;
    cell.label = "static/retention-10x";
    runner.sweep({cell});
    ASSERT_EQ(runner.adhocResults().size(), 1u);
    EXPECT_EQ(runner.adhocResults()[0].scenario, "static/retention-10x");
    EXPECT_EQ(runner.adhocResults()[0].telemetry.threads, 1u);
}

} // namespace
} // namespace hcloud
