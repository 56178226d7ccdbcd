/**
 * @file
 * The serving layer's determinism contract, proven over real HTTP:
 * a tenant session fed the jobs of a generated scenario trace one
 * request at a time emits a decision stream bit-identical to the same
 * configuration executed as a batch run through exp::Runner — same
 * times, jobs, reason codes, values and details. Also the concurrency
 * hammer: four tenants driven from four client threads (run under
 * TSan in CI) must never crash, race, or drop a submission.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "exp/runner.hpp"
#include "obs/json.hpp"
#include "obs/process_metrics.hpp"
#include "obs/trace_event.hpp"
#include "srv/http_client.hpp"
#include "srv/json_api.hpp"
#include "srv/serve_app.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"

namespace hcloud {
namespace {

/** One Decision trace event with a subject job, as the batch run saw it. */
struct BatchDecision
{
    double time;
    sim::JobId job;
    std::string reason;
    double value;
    std::string detail;
};

std::vector<BatchDecision>
batchDecisions(const core::RunResult& result)
{
    std::vector<BatchDecision> out;
    for (const obs::TraceEvent& e : result.trace.records) {
        if (e.kind == obs::EventKind::Decision && e.job != 0)
            out.push_back({e.time, e.job, obs::toString(e.reason),
                           e.value, e.detail});
    }
    return out;
}

std::string
tenantBody(const std::string& id, core::StrategyKind strategy,
           const workload::ScenarioConfig& scenario,
           const core::EngineConfig& engine)
{
    obs::JsonWriter w;
    w.beginObject();
    if (!id.empty())
        w.field("id", id);
    w.field("strategy", core::toString(strategy));
    w.key("scenario");
    w.beginObject();
    w.field("kind", workload::toString(scenario.kind));
    w.field("duration", scenario.duration);
    w.field("seed", static_cast<std::uint64_t>(scenario.seed));
    w.field("loadScale", scenario.loadScale);
    w.endObject();
    w.key("engine");
    w.beginObject();
    w.field("seed", static_cast<std::uint64_t>(engine.seed));
    w.field("useProfiling", engine.useProfiling);
    w.field("maxRuntime", engine.maxRuntime);
    if (engine.timeline.mode != obs::TimelineConfig::Mode::Auto) {
        w.key("timeline");
        w.beginObject();
        w.field("enabled",
                engine.timeline.mode == obs::TimelineConfig::Mode::On);
        w.field("cadence", engine.timeline.cadence);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.take();
}

std::string
advanceBody(double to)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("to", to);
    w.endObject();
    return w.take();
}

/**
 * Run one (scenario, HM, profiling) cell through exp::Runner, then
 * replay the identical configuration as an HTTP tenant — same scenario
 * config, same engine seed, jobs POSTed in arrival order through the
 * bit-exact JobSpec JSON round trip — and require the two decision
 * streams to match element for element, bitwise on the doubles.
 */
void
expectHttpMatchesBatch(bool useProfiling, double duration)
{
    exp::ExperimentOptions options;
    options.seed = 42;
    options.loadScale = 0.05;
    options.threads = 1;
    exp::Runner runner(options);

    workload::ScenarioConfig scenario =
        runner.scenarioConfig(workload::ScenarioKind::Static);
    scenario.duration = duration;

    exp::SweepCell cell;
    cell.scenario = workload::ScenarioKind::Static;
    cell.strategy = core::StrategyKind::HM;
    cell.config.useProfiling = useProfiling;
    // Bound the post-scenario tick tail (the default horizon is 12 h of
    // idle housekeeping) so the test runs in seconds, identically on
    // both sides of the comparison.
    cell.config.maxRuntime = duration + 2.0 * 3600.0;
    cell.config.trace.mode = obs::TraceConfig::Mode::On;
    cell.config.trace.ringCapacity = 1u << 18; // never ring-truncate
    cell.scenarioOverride = scenario;
    const std::vector<core::RunResult> results = runner.sweep({cell});
    ASSERT_EQ(results.size(), 1u);
    const std::vector<BatchDecision> expected =
        batchDecisions(results[0]);
    ASSERT_FALSE(expected.empty())
        << "batch run produced no job decisions; scenario too small";

    // What the sweep actually ran: the cell's config with its seed
    // replaced by options().seed (the Runner seed contract).
    core::EngineConfig engine = cell.config;
    engine.seed = options.seed;

    obs::ProcessMetrics metrics;
    srv::ServeConfig config;
    config.shards = 2;
    config.httpWorkers = 2;
    srv::ServeApp app(config, metrics);
    ASSERT_TRUE(app.start(0));
    srv::HttpClient client(app.boundPort());

    const auto created = client.post(
        "/v1/tenants",
        tenantBody("det", core::StrategyKind::HM, scenario, engine));
    ASSERT_TRUE(created.ok);
    ASSERT_EQ(created.status, 201) << created.body;

    // The same trace the batch run executed, submitted one HTTP request
    // per job, each spec crossing the wire as JSON.
    const workload::ArrivalTrace trace =
        workload::generateScenario(scenario);
    ASSERT_FALSE(trace.jobs().empty());
    for (const workload::JobSpec& job : trace.jobs()) {
        obs::JsonWriter w;
        srv::jobSpecJson(w, job);
        const auto r = client.post("/v1/tenants/det/jobs", w.take());
        ASSERT_TRUE(r.ok);
        ASSERT_EQ(r.status, 200) << r.body;
    }

    // Drain the session past the engine's safety horizon so every late
    // decision (retention, QoS rescheduling, the maxRuntime sweep) has
    // fired, exactly as the batch run-to-completion did.
    const auto advanced = client.post("/v1/tenants/det/advance",
                                      advanceBody(engine.maxRuntime + 1.0));
    ASSERT_EQ(advanced.status, 200) << advanced.body;

    const auto report = client.get("/v1/tenants/det/report");
    ASSERT_EQ(report.status, 200);
    const obs::JsonValue parsed = obs::parseJson(report.body);
    const obs::JsonValue* decisions = parsed.find("decisions");
    ASSERT_NE(decisions, nullptr);
    ASSERT_EQ(decisions->type, obs::JsonValue::Type::Array);

    ASSERT_EQ(decisions->array.size(), expected.size())
        << "HTTP session and batch run disagree on decision count";
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const obs::JsonValue& d = decisions->array[i];
        const BatchDecision& e = expected[i];
        SCOPED_TRACE("decision " + std::to_string(i) + " (job " +
                     std::to_string(e.job) + ", " + e.reason + ")");
        ASSERT_EQ(d.type, obs::JsonValue::Type::Object);
        const obs::JsonValue* time = d.find("time");
        const obs::JsonValue* job = d.find("job");
        const obs::JsonValue* reason = d.find("reason");
        const obs::JsonValue* value = d.find("value");
        ASSERT_NE(time, nullptr);
        ASSERT_NE(job, nullptr);
        ASSERT_NE(reason, nullptr);
        ASSERT_NE(value, nullptr);
        EXPECT_EQ(time->number, e.time); // exact: JSON round-trips bits
        EXPECT_EQ(static_cast<sim::JobId>(job->number), e.job);
        EXPECT_EQ(reason->string, e.reason);
        EXPECT_EQ(value->number, e.value);
        const obs::JsonValue* detail = d.find("detail");
        EXPECT_EQ(detail != nullptr ? detail->string : std::string(),
                  e.detail);
    }

    app.stop();
}

TEST(ServeDeterminism, HttpDecisionStreamMatchesBatchRunner)
{
    expectHttpMatchesBatch(/*useProfiling=*/false, /*duration=*/1800.0);
}

TEST(ServeDeterminism, HttpDecisionStreamMatchesBatchRunnerProfiled)
{
    expectHttpMatchesBatch(/*useProfiling=*/true, /*duration=*/900.0);
}

/**
 * The timeline acceptance check: a daemon session driven over HTTP and
 * the equivalent exp::Runner batch run must produce *byte-identical*
 * timeline JSONL for the same scenario and seed. Samples land on the
 * first engine tick at or after each cadence boundary, and the tick
 * times are a pure function of (trace, config, seed) — whether the run
 * was driven in one engine.run() or job by job over the wire. The batch
 * run stops ticking once its work is exhausted while the session is
 * advanced explicitly past that point, so the batch stream must be a
 * byte-exact *prefix* of the session stream (the session's extra
 * samples just continue the cadence over explicitly-driven idle time).
 */
TEST(ServeDeterminism, HttpTimelineJsonlMatchesBatchRunner)
{
    exp::ExperimentOptions options;
    options.seed = 42;
    options.loadScale = 0.05;
    options.threads = 1;
    exp::Runner runner(options);

    workload::ScenarioConfig scenario =
        runner.scenarioConfig(workload::ScenarioKind::Static);
    scenario.duration = 1800.0;

    exp::SweepCell cell;
    cell.scenario = workload::ScenarioKind::Static;
    cell.strategy = core::StrategyKind::HM;
    cell.config.useProfiling = false;
    cell.config.maxRuntime = scenario.duration + 2.0 * 3600.0;
    cell.config.timeline.mode = obs::TimelineConfig::Mode::On;
    cell.config.timeline.cadence = 30.0;
    cell.scenarioOverride = scenario;
    const std::vector<core::RunResult> results = runner.sweep({cell});
    ASSERT_EQ(results.size(), 1u);
    const obs::TimelineBuffer& batch = results[0].timeline;
    ASSERT_GT(batch.recorded, 0u);
    ASSERT_EQ(batch.dropped, 0u)
        << "batch run must fit the timeline ring for a full comparison";
    std::vector<std::string> batchLines;
    batchLines.reserve(batch.records.size());
    for (const obs::TimelineSample& s : batch.records)
        batchLines.push_back(obs::toJson(s));

    core::EngineConfig engine = cell.config;
    engine.seed = options.seed;

    obs::ProcessMetrics metrics;
    srv::ServeConfig config;
    config.shards = 2;
    config.httpWorkers = 2;
    // A deliberately different daemon default: the explicit per-session
    // config must win, or replay-equivalence is broken.
    config.timelineCadence = 7.0;
    srv::ServeApp app(config, metrics);
    ASSERT_TRUE(app.start(0));
    srv::HttpClient client(app.boundPort());

    const auto created = client.post(
        "/v1/tenants",
        tenantBody("tl", core::StrategyKind::HM, scenario, engine));
    ASSERT_EQ(created.status, 201) << created.body;

    const workload::ArrivalTrace trace =
        workload::generateScenario(scenario);
    for (const workload::JobSpec& job : trace.jobs()) {
        obs::JsonWriter w;
        srv::jobSpecJson(w, job);
        const auto r = client.post("/v1/tenants/tl/jobs", w.take());
        ASSERT_EQ(r.status, 200) << r.body;
    }
    const auto advanced = client.post(
        "/v1/tenants/tl/advance", advanceBody(engine.maxRuntime + 1.0));
    ASSERT_EQ(advanced.status, 200) << advanced.body;

    // Page the whole stream through the since-cursor, re-serializing
    // each sample with the shared writer: the bytes must match the
    // batch stream sample for sample.
    std::vector<std::string> httpLines;
    std::uint64_t cursor = 0;
    for (;;) {
        const auto page = client.get(
            "/v1/tenants/tl/timeline?since=" + std::to_string(cursor));
        ASSERT_EQ(page.status, 200) << page.body;
        const obs::JsonValue v = obs::parseJson(page.body);
        ASSERT_TRUE(v.find("enabled")->boolOr(false));
        EXPECT_DOUBLE_EQ(v.find("cadence")->numberOr(0), 30.0);
        EXPECT_EQ(v.find("dropped")->numberOr(-1), 0.0);
        const obs::JsonValue* samples = v.find("samples");
        ASSERT_NE(samples, nullptr);
        if (samples->array.empty())
            break;
        for (const obs::JsonValue& sj : samples->array) {
            obs::TimelineSample s;
            ASSERT_TRUE(obs::sampleFromJson(sj, &s));
            httpLines.push_back(obs::toJson(s));
        }
        cursor =
            static_cast<std::uint64_t>(v.find("nextSince")->numberOr(0));
    }

    ASSERT_GE(httpLines.size(), batchLines.size())
        << "HTTP session sampled less than the batch run";
    for (std::size_t i = 0; i < batchLines.size(); ++i) {
        SCOPED_TRACE("sample " + std::to_string(i));
        EXPECT_EQ(httpLines[i], batchLines[i]);
    }
    // The session's extra samples continue the same cadence grid.
    for (std::size_t i = batchLines.size(); i < httpLines.size(); ++i) {
        obs::TimelineSample s;
        ASSERT_TRUE(obs::sampleFromJsonLine(httpLines[i], &s));
        EXPECT_EQ(s.seq, i);
    }

    app.stop();
}

/**
 * Four tenants hammered from four client threads. Submissions must all
 * land (no lost updates, no 5xx, no crash); concurrent cross-tenant
 * report and /metrics reads race against the writers through the shard
 * strands. Every create finishes before any thread submits, so no read
 * can meet a tenant whose engine is still being built (that read would
 * rightly get 409 tenant_initializing). This is the test CI runs under
 * ThreadSanitizer.
 */
TEST(ServeConcurrency, FourTenantsFourClientThreads)
{
    obs::ProcessMetrics metrics;
    srv::ServeConfig config;
    config.shards = 4;
    config.httpWorkers = 4;
    srv::ServeApp app(config, metrics);
    ASSERT_TRUE(app.start(0));

    constexpr int kThreads = 4;
    constexpr int kJobs = 40;
    std::atomic<int> failures{0};
    // Counted down by every create, failed or not, so no thread waits
    // forever on a tenant that will never exist.
    std::latch created(kThreads);

    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&app, &failures, &created, t] {
            srv::HttpClient client(app.boundPort());
            const std::string id = "load-" + std::to_string(t);

            workload::ScenarioConfig scenario;
            scenario.kind = workload::ScenarioKind::Static;
            scenario.duration = 600.0;
            scenario.seed = 7 + static_cast<std::uint64_t>(t);
            scenario.loadScale = 0.02;
            core::EngineConfig engine;
            engine.seed = 7 + static_cast<std::uint64_t>(t);
            engine.useProfiling = false;
            const auto create = client.post(
                "/v1/tenants",
                tenantBody(id, core::StrategyKind::HM, scenario, engine));
            created.count_down();
            if (create.status != 201) {
                failures.fetch_add(1);
                return;
            }
            created.wait();

            for (int i = 0; i < kJobs; ++i) {
                obs::JsonWriter w;
                w.beginObject();
                w.field("kind", "hadoop-recommender");
                w.field("arrival", i * 5.0);
                w.field("coresIdeal", 4);
                w.field("idealDuration", 30.0);
                w.endObject();
                const auto r =
                    client.post("/v1/tenants/" + id + "/jobs", w.take());
                if (r.status != 200)
                    failures.fetch_add(1);
                // Interleave reads that cross shard strands and the
                // shared metrics registry while other tenants write.
                if (i % 8 == 0) {
                    const auto m = client.get("/metrics");
                    if (m.status != 200)
                        failures.fetch_add(1);
                }
            }

            // Cross-tenant reads: every tenant was created before any
            // thread got here, so each one must answer.
            for (int o = 0; o < kThreads; ++o) {
                const auto r = client.get(
                    "/v1/tenants/load-" + std::to_string(o) + "/report");
                if (r.status != 200)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread& thread : clients)
        thread.join();
    EXPECT_EQ(failures.load(), 0);

    // Every submission must have landed in its tenant's engine.
    srv::HttpClient client(app.boundPort());
    for (int t = 0; t < kThreads; ++t) {
        const auto r = client.get("/v1/tenants/load-" + std::to_string(t) +
                                  "/report");
        ASSERT_EQ(r.status, 200);
        const obs::JsonValue parsed = obs::parseJson(r.body);
        const obs::JsonValue* jobs = parsed.find("jobs");
        ASSERT_NE(jobs, nullptr);
        EXPECT_EQ(static_cast<int>(jobs->number), kJobs)
            << "tenant load-" << t << " lost submissions";
    }

    app.stop();
}

} // namespace
} // namespace hcloud
