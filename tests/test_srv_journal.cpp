/**
 * @file
 * Durability + lifecycle of the serve layer: journal record round-trips,
 * restart recovery (graceful AND SIGKILL of the real daemon binary, both
 * asserted byte-identical against the pre-crash reports), truncated-tail
 * tolerance, idle eviction + lazy revival, tenant deletion (journal file
 * and per-tenant metric series must not leak, and the id stays claimed
 * until both are gone), and the admission caps
 * (session count + per-tenant journal quota as structured 429s).
 *
 * Every test runs in its own mkdtemp data dir; the SIGKILL test fork/
 * execs the hcloud_serve binary (HCLOUD_SERVE_BIN, wired by CMake), and
 * so does the check that the binary rejects bad flags before it starts.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/json.hpp"
#include "obs/process_metrics.hpp"
#include "srv/http_client.hpp"
#include "srv/serve_app.hpp"
#include "srv/session_journal.hpp"

namespace hcloud {
namespace {

/** rm -rf for the flat test data dirs this suite creates. */
void
removeTree(const std::string& dir)
{
    if (DIR* d = ::opendir(dir.c_str())) {
        while (dirent* e = ::readdir(d)) {
            const std::string name = e->d_name;
            if (name == "." || name == "..")
                continue;
            const std::string path = dir + "/" + name;
            struct stat st{};
            if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
                removeTree(path);
            else
                ::unlink(path.c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

bool
fileExists(const std::string& path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

/** Per-test temp data dir + helpers to build journaled apps. */
class SrvJournal : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char tmpl[] = "/tmp/hcloud_journal_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dataDir_ = tmpl;
    }

    void TearDown() override { removeTree(dataDir_); }

    /** Fresh app over @p dataDir with its own metrics registry. */
    std::unique_ptr<srv::ServeApp>
    makeApp(const std::string& dataDir, srv::ServeConfig config = {})
    {
        config.shards = 2;
        config.httpWorkers = 2;
        config.journal.dataDir = dataDir;
        registries_.push_back(std::make_unique<obs::ProcessMetrics>());
        auto app = std::make_unique<srv::ServeApp>(std::move(config),
                                                   *registries_.back());
        EXPECT_TRUE(app->start(0));
        return app;
    }

    static std::string tenantBody(const std::string& id)
    {
        std::string body = "{\"strategy\":\"HM\",";
        if (!id.empty())
            body += "\"id\":\"" + id + "\",";
        body += "\"scenario\":{\"kind\":\"static\",\"duration\":600,"
                "\"loadScale\":0.05},"
                "\"engine\":{\"seed\":42,\"useProfiling\":false}}";
        return body;
    }

    static std::string jobBody(double arrival)
    {
        return "{\"kind\":\"hadoop-recommender\",\"arrival\":" +
               std::to_string(arrival) +
               ",\"coresIdeal\":4,\"idealDuration\":30}";
    }

    /** The error.code string of a structured error body. */
    static std::string errorCode(const std::string& body)
    {
        const obs::JsonValue v = obs::parseJson(body);
        const obs::JsonValue* error = v.find("error");
        if (!error)
            return "<no error object>";
        const obs::JsonValue* code = error->find("code");
        return code ? code->string : "<no code>";
    }

    /** Create tenant + 2 jobs + one advance; the canonical workload. */
    static void driveTenant(srv::HttpClient& client,
                            const std::string& id)
    {
        srv::ClientResponse r =
            client.post("/v1/tenants", tenantBody(id));
        ASSERT_TRUE(r.ok);
        ASSERT_EQ(r.status, 201) << r.body;
        r = client.post("/v1/tenants/" + id + "/jobs", jobBody(1.5));
        ASSERT_EQ(r.status, 200) << r.body;
        r = client.post("/v1/tenants/" + id + "/jobs", jobBody(3.0));
        ASSERT_EQ(r.status, 200) << r.body;
        r = client.post("/v1/tenants/" + id + "/advance",
                        "{\"to\":120}");
        ASSERT_EQ(r.status, 200) << r.body;
    }

    static std::string report(srv::HttpClient& client,
                              const std::string& id)
    {
        const srv::ClientResponse r =
            client.get("/v1/tenants/" + id + "/report");
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(r.status, 200) << r.body;
        return r.body;
    }

    std::string dataDir_;
    /** One registry per app so restarted apps never share counters. */
    std::vector<std::unique_ptr<obs::ProcessMetrics>> registries_;
};

TEST_F(SrvJournal, FsyncPolicyParsesAndPrints)
{
    srv::FsyncPolicy policy;
    ASSERT_TRUE(srv::parseFsyncPolicy("always", &policy));
    EXPECT_EQ(policy, srv::FsyncPolicy::Always);
    ASSERT_TRUE(srv::parseFsyncPolicy("interval", &policy));
    EXPECT_EQ(policy, srv::FsyncPolicy::Interval);
    ASSERT_TRUE(srv::parseFsyncPolicy("never", &policy));
    EXPECT_EQ(policy, srv::FsyncPolicy::Never);
    EXPECT_FALSE(srv::parseFsyncPolicy("sometimes", &policy));
    EXPECT_STREQ(srv::toString(srv::FsyncPolicy::Interval), "interval");
}

TEST_F(SrvJournal, TenantIdValidation)
{
    EXPECT_TRUE(srv::validTenantId("acme"));
    EXPECT_TRUE(srv::validTenantId("t-12"));
    EXPECT_TRUE(srv::validTenantId("A.b_c-9"));
    EXPECT_TRUE(srv::validTenantId(std::string(64, 'x')));
    EXPECT_FALSE(srv::validTenantId(""));
    EXPECT_FALSE(srv::validTenantId(std::string(65, 'x')));
    EXPECT_FALSE(srv::validTenantId(".hidden"));
    EXPECT_FALSE(srv::validTenantId("-flag"));
    EXPECT_FALSE(srv::validTenantId("a/b"));
    EXPECT_FALSE(srv::validTenantId("a b"));
    EXPECT_FALSE(srv::validTenantId("caf\xc3\xa9"));
}

TEST_F(SrvJournal, RecordsRoundTripThroughLoad)
{
    srv::JournalConfig config;
    config.dataDir = dataDir_;
    config.fsync = srv::FsyncPolicy::Never;

    srv::SessionConfig session;
    session.id = "acme";
    session.scenario.duration = 600;
    session.scenario.loadScale = 0.05;
    session.engine.seed = 42;
    session.engine.useProfiling = false;

    workload::JobSpec spec;
    spec.id = 7;
    spec.arrival = 1.25;
    spec.coresIdeal = 4.0;
    spec.idealDuration = 30.0;

    obs::ProcessMetrics metrics;
    const std::string path = srv::SessionJournal::pathFor(dataDir_,
                                                          "acme");
    {
        srv::SessionJournal journal(config, "acme", /*truncate=*/true,
                                    metrics);
        ASSERT_TRUE(journal.ok()) << journal.error();
        EXPECT_EQ(journal.path(), path);
        journal.appendCreate(session);
        journal.appendSubmit(spec);
        journal.appendAdvance(120.5);
        EXPECT_EQ(journal.appends(), 3u);
        EXPECT_GT(journal.bytes(), 0u);
    }

    const srv::JournalLoad load = srv::loadJournal(path);
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.droppedLines, 0u);
    ASSERT_EQ(load.records.size(), 3u);

    EXPECT_EQ(load.records[0].op, srv::JournalRecord::Op::Create);
    EXPECT_EQ(load.records[0].config.id, "acme");
    EXPECT_EQ(load.records[0].config.engine.seed, 42u);
    EXPECT_DOUBLE_EQ(load.records[0].config.scenario.loadScale, 0.05);

    EXPECT_EQ(load.records[1].op, srv::JournalRecord::Op::Submit);
    EXPECT_EQ(load.records[1].job.id, 7u);
    EXPECT_DOUBLE_EQ(load.records[1].job.arrival, 1.25);
    EXPECT_DOUBLE_EQ(load.records[1].job.coresIdeal, 4.0);

    EXPECT_EQ(load.records[2].op, srv::JournalRecord::Op::Advance);
    EXPECT_DOUBLE_EQ(load.records[2].to, 120.5);

    // validBytes covers the whole (uncorrupted) file.
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    EXPECT_EQ(load.validBytes,
              static_cast<std::uint64_t>(st.st_size));
}

TEST_F(SrvJournal, TruncatedTailIsDroppedNotFatal)
{
    srv::JournalConfig config;
    config.dataDir = dataDir_;
    config.fsync = srv::FsyncPolicy::Never;
    obs::ProcessMetrics metrics;
    const std::string path = srv::SessionJournal::pathFor(dataDir_,
                                                          "acme");
    {
        srv::SessionJournal journal(config, "acme", /*truncate=*/true,
                                    metrics);
        ASSERT_TRUE(journal.ok());
        srv::SessionConfig session;
        session.id = "acme";
        journal.appendCreate(session);
        journal.appendAdvance(10.0);
    }
    const srv::JournalLoad clean = srv::loadJournal(path);
    ASSERT_TRUE(clean.ok);
    ASSERT_EQ(clean.records.size(), 2u);

    // Simulate a SIGKILL mid-write: a partial record with no newline.
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"v\":1,\"op\":\"adva";
    }
    const srv::JournalLoad load = srv::loadJournal(path);
    ASSERT_TRUE(load.ok) << load.error;
    ASSERT_EQ(load.records.size(), 2u);
    EXPECT_EQ(load.droppedLines, 1u);
    EXPECT_EQ(load.validBytes, clean.validBytes);
}

TEST_F(SrvJournal, GracefulRestartRestoresByteIdenticalReports)
{
    std::string autoTenant;
    std::string acmeReport, autoReport;
    {
        auto app = makeApp(dataDir_);
        srv::HttpClient client(app->boundPort());
        driveTenant(client, "acme");
        srv::ClientResponse r =
            client.post("/v1/tenants", tenantBody(""));
        ASSERT_EQ(r.status, 201) << r.body;
        autoTenant = obs::parseJson(r.body).find("tenant")->string;
        EXPECT_EQ(autoTenant, "t-2");
        r = client.post("/v1/tenants/" + autoTenant + "/jobs",
                        jobBody(2.0));
        ASSERT_EQ(r.status, 200) << r.body;
        acmeReport = report(client, "acme");
        autoReport = report(client, autoTenant);
        app->stop();
    }

    auto app = makeApp(dataDir_);
    EXPECT_EQ(app->sessions().lifecycleStats().restored, 2u);
    srv::HttpClient client(app->boundPort());

    const srv::ClientResponse list = client.get("/v1/tenants");
    ASSERT_EQ(list.status, 200);
    EXPECT_NE(list.body.find("\"acme\""), std::string::npos);
    EXPECT_NE(list.body.find("\"" + autoTenant + "\""),
              std::string::npos);

    // Deterministic replay: the restored reports are byte-identical.
    EXPECT_EQ(report(client, "acme"), acmeReport);
    EXPECT_EQ(report(client, autoTenant), autoReport);

    // Server-assigned ids do not collide with restored ones.
    const srv::ClientResponse r =
        client.post("/v1/tenants", tenantBody(""));
    ASSERT_EQ(r.status, 201) << r.body;
    EXPECT_EQ(obs::parseJson(r.body).find("tenant")->string, "t-3");

    // And the revived sessions keep accepting (journal reopened).
    const srv::ClientResponse job =
        client.post("/v1/tenants/acme/jobs", jobBody(130.0));
    EXPECT_EQ(job.status, 200) << job.body;
}

/**
 * Journal replay reproduces the sampling stream, not just the report:
 * the create record journals the *resolved* timeline mode and cadence
 * (never Auto), so a restart — even one whose daemon default cadence
 * differs — rebuilds a byte-identical timeline.
 */
TEST_F(SrvJournal, RestartReplaysByteIdenticalTimeline)
{
    std::string before;
    {
        auto app = makeApp(dataDir_); // default cadence: 30 s
        srv::HttpClient client(app->boundPort());
        driveTenant(client, "acme");
        const srv::ClientResponse r =
            client.get("/v1/tenants/acme/timeline");
        ASSERT_EQ(r.status, 200) << r.body;
        before = r.body;
        const obs::JsonValue v = obs::parseJson(before);
        ASSERT_TRUE(v.find("enabled")->boolOr(false));
        ASSERT_GT(v.find("recorded")->numberOr(0), 0.0);
        app->stop();
    }

    // Restart with a different default: the journaled session must keep
    // its own frozen cadence, not adopt the new daemon flag.
    srv::ServeConfig config;
    config.timelineCadence = 5.0;
    auto app = makeApp(dataDir_, config);
    ASSERT_EQ(app->sessions().lifecycleStats().restored, 1u);
    srv::HttpClient client(app->boundPort());
    const srv::ClientResponse after =
        client.get("/v1/tenants/acme/timeline");
    ASSERT_EQ(after.status, 200) << after.body;
    EXPECT_EQ(after.body, before)
        << "journal replay altered the timeline stream";
}

TEST_F(SrvJournal, RestartTruncatesCorruptTailAndKeepsPrefix)
{
    std::string cleanReport;
    {
        auto app = makeApp(dataDir_);
        srv::HttpClient client(app->boundPort());
        driveTenant(client, "acme");
        cleanReport = report(client, "acme");
    }
    const std::string path = srv::SessionJournal::pathFor(dataDir_,
                                                          "acme");
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"v\":1,\"op\":\"submit\",\"job\":{bro";
    }

    auto app = makeApp(dataDir_);
    EXPECT_EQ(app->sessions().lifecycleStats().restored, 1u);
    EXPECT_EQ(app->sessions().lifecycleStats().truncatedLines, 1u);
    srv::HttpClient client(app->boundPort());
    // The valid prefix was restored; the corrupt tail was truncated
    // away so new appends extend a clean log.
    EXPECT_EQ(report(client, "acme"), cleanReport);
    const srv::ClientResponse job =
        client.post("/v1/tenants/acme/jobs", jobBody(130.0));
    EXPECT_EQ(job.status, 200) << job.body;
}

/**
 * A journal line nested past the JSON parser's depth cap fails to parse
 * like any corrupt line: replay drops it and restores the prefix, where
 * unbounded recursion used to crash every restart.
 */
TEST_F(SrvJournal, DeeplyNestedLineIsDroppedOnReplay)
{
    std::string cleanReport;
    {
        auto app = makeApp(dataDir_);
        srv::HttpClient client(app->boundPort());
        driveTenant(client, "acme");
        cleanReport = report(client, "acme");
    }
    const std::string path = srv::SessionJournal::pathFor(dataDir_,
                                                          "acme");
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << std::string(200000, '[') << '\n';
    }
    const srv::JournalLoad load = srv::loadJournal(path);
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.records.size(), 4u);
    EXPECT_EQ(load.droppedLines, 1u);

    auto app = makeApp(dataDir_);
    EXPECT_EQ(app->sessions().lifecycleStats().restored, 1u);
    EXPECT_EQ(app->sessions().lifecycleStats().truncatedLines, 1u);
    srv::HttpClient client(app->boundPort());
    EXPECT_EQ(report(client, "acme"), cleanReport);
}

/**
 * Non-finite numbers (the parser reads `nan` and `1e999` as numbers) are
 * rejected before they reach the journal: JSON has no literal for them,
 * so a journaled `null` used to stop replay at that line and lose every
 * accepted command after it.
 */
TEST_F(SrvJournal, RestartAfterRejectedNonFiniteInputRestoresEveryTenant)
{
    std::string acmeReport, betaReport;
    {
        auto app = makeApp(dataDir_);
        srv::HttpClient client(app->boundPort());
        for (const char* cadence : {"nan", "1e999"}) {
            const srv::ClientResponse r = client.post(
                "/v1/tenants",
                std::string("{\"id\":\"bad\",\"engine\":{\"timeline\":"
                            "{\"enabled\":true,\"cadence\":") +
                    cadence + "}}}");
            EXPECT_EQ(r.status, 422) << r.body;
            EXPECT_EQ(errorCode(r.body), "invalid_field");
        }
        driveTenant(client, "acme");
        srv::ClientResponse r =
            client.post("/v1/tenants", tenantBody("beta"));
        ASSERT_EQ(r.status, 201) << r.body;
        r = client.post("/v1/tenants/acme/jobs",
                        "{\"kind\":\"hadoop-svm\",\"arrival\":130,"
                        "\"idealDuration\":1e999}");
        EXPECT_EQ(r.status, 422) << r.body;
        EXPECT_EQ(errorCode(r.body), "invalid_field");
        // The valid job after the rejected one must survive the restart.
        r = client.post("/v1/tenants/acme/jobs", jobBody(130.0));
        ASSERT_EQ(r.status, 200) << r.body;
        r = client.post("/v1/tenants/beta/jobs", jobBody(5.0));
        ASSERT_EQ(r.status, 200) << r.body;
        acmeReport = report(client, "acme");
        betaReport = report(client, "beta");
        app->stop();
    }
    EXPECT_FALSE(fileExists(srv::SessionJournal::pathFor(dataDir_, "bad")));

    auto app = makeApp(dataDir_);
    EXPECT_EQ(app->sessions().lifecycleStats().restored, 2u);
    EXPECT_EQ(app->sessions().lifecycleStats().truncatedLines, 0u);
    srv::HttpClient client(app->boundPort());
    EXPECT_EQ(report(client, "acme"), acmeReport);
    EXPECT_EQ(report(client, "beta"), betaReport);
}

TEST_F(SrvJournal, IdleEvictionAndLazyRevivalPreserveReports)
{
    srv::ServeConfig config;
    // Generous threshold: under TSan a scheduler hiccup inside
    // driveTenant can exceed a tens-of-ms threshold and trigger a
    // spurious request-path eviction, skewing the counters below.
    config.limits.idleEvictSeconds = 0.3;
    auto app = makeApp(dataDir_, config);
    srv::HttpClient client(app->boundPort());
    driveTenant(client, "acme");
    const std::string before = report(client, "acme");
    EXPECT_EQ(app->sessions().liveCount(), 1u);

    // The simulation gauges exist while the session is live...
    srv::ClientResponse metrics = client.get("/metrics");
    EXPECT_NE(metrics.body.find("hcloud_sim_now{tenant=\"acme\"}"),
              std::string::npos);

    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    EXPECT_EQ(app->sessions().sweepIdle(), 1u);
    EXPECT_EQ(app->sessions().liveCount(), 0u);
    EXPECT_EQ(app->sessions().sessionCount(), 1u);
    EXPECT_EQ(app->sessions().lifecycleStats().evictions, 1u);
    // The journal survives the eviction; the engine memory is gone.
    EXPECT_TRUE(
        fileExists(srv::SessionJournal::pathFor(dataDir_, "acme")));
    // ...and are retired with the engine: an evicted session has no
    // live cluster state, so stale gauge values must not linger on the
    // scrape masquerading as one.
    metrics = client.get("/metrics");
    EXPECT_EQ(metrics.body.find("hcloud_sim_now{tenant=\"acme\"}"),
              std::string::npos)
        << "evicted tenant leaked simulation gauges";

    // Next touch revives from the journal — same bytes, back to live.
    EXPECT_EQ(report(client, "acme"), before);
    EXPECT_EQ(app->sessions().liveCount(), 1u);
    EXPECT_EQ(app->sessions().lifecycleStats().revivals, 1u);
    // A revived session keeps journaling: one more job, then force a
    // second eviction and check the new job survived it.
    srv::ClientResponse r =
        client.post("/v1/tenants/acme/jobs", jobBody(130.0));
    ASSERT_EQ(r.status, 200) << r.body;
    // The gauges reappear on the next sampled mutation (the submit
    // above), not on the read-only revival itself.
    metrics = client.get("/metrics");
    EXPECT_NE(metrics.body.find("hcloud_sim_now{tenant=\"acme\"}"),
              std::string::npos);
    const std::string extended = report(client, "acme");
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    EXPECT_EQ(app->sessions().sweepIdle(), 1u);
    EXPECT_EQ(report(client, "acme"), extended);
}

TEST_F(SrvJournal, DeleteRemovesSessionJournalAndMetricSeries)
{
    auto app = makeApp(dataDir_);
    srv::HttpClient client(app->boundPort());
    driveTenant(client, "acme");
    const std::string path = srv::SessionJournal::pathFor(dataDir_,
                                                          "acme");
    EXPECT_TRUE(fileExists(path));
    srv::ClientResponse metrics = client.get("/metrics");
    EXPECT_NE(metrics.body.find("tenant=\"acme\""), std::string::npos);
    EXPECT_NE(metrics.body.find("hcloud_serve_sessions 1"),
              std::string::npos);
    // driveTenant advanced past the sampling cadence, so the live
    // simulation gauges exist — making their absence after DELETE a
    // real reclaim check, not a vacuous one.
    EXPECT_NE(metrics.body.find("hcloud_sim_now{tenant=\"acme\"}"),
              std::string::npos)
        << metrics.body;
    EXPECT_NE(
        metrics.body.find("hcloud_sim_cost_total{tenant=\"acme\"}"),
        std::string::npos);

    const srv::ClientResponse del = client.del("/v1/tenants/acme");
    ASSERT_EQ(del.status, 200) << del.body;
    const obs::JsonValue v = obs::parseJson(del.body);
    EXPECT_EQ(v.find("tenant")->string, "acme");

    // Gone: session (404), journal file, per-tenant metric series.
    const srv::ClientResponse rep =
        client.get("/v1/tenants/acme/report");
    EXPECT_EQ(rep.status, 404);
    EXPECT_EQ(errorCode(rep.body), "unknown_tenant");
    EXPECT_FALSE(fileExists(path));
    metrics = client.get("/metrics");
    EXPECT_EQ(metrics.body.find("tenant=\"acme\""), std::string::npos);
    EXPECT_NE(metrics.body.find("hcloud_serve_sessions 0"),
              std::string::npos);
    EXPECT_EQ(app->sessions().lifecycleStats().deletes, 1u);

    // Deleting again is 404; re-creating the same id starts fresh.
    EXPECT_EQ(client.del("/v1/tenants/acme").status, 404);
    const srv::ClientResponse again =
        client.post("/v1/tenants", tenantBody("acme"));
    EXPECT_EQ(again.status, 201) << again.body;

    // A restart must NOT resurrect the deleted generation's jobs.
    app.reset();
    auto app2 = makeApp(dataDir_);
    srv::HttpClient client2(app2->boundPort());
    const srv::ClientResponse fresh =
        client2.get("/v1/tenants/acme/report");
    ASSERT_EQ(fresh.status, 200);
    EXPECT_EQ(obs::parseJson(fresh.body).find("jobs")->number, 0.0);
}

TEST_F(SrvJournal, DeleteOfEvictedTenantCleansUpToo)
{
    srv::ServeConfig config;
    // Generous threshold: under TSan a scheduler hiccup inside
    // driveTenant can exceed a tens-of-ms threshold and trigger a
    // spurious request-path eviction, skewing the counters below.
    config.limits.idleEvictSeconds = 0.3;
    auto app = makeApp(dataDir_, config);
    srv::HttpClient client(app->boundPort());
    driveTenant(client, "acme");
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    ASSERT_EQ(app->sessions().sweepIdle(), 1u);

    const srv::ClientResponse del = client.del("/v1/tenants/acme");
    ASSERT_EQ(del.status, 200) << del.body;
    EXPECT_EQ(app->sessions().sessionCount(), 0u);
    EXPECT_EQ(app->sessions().liveCount(), 0u);
    EXPECT_FALSE(
        fileExists(srv::SessionJournal::pathFor(dataDir_, "acme")));
}

TEST_F(SrvJournal, CreateOfIdStillBeingDeletedIs409)
{
    // A DELETE keeps the id claimed until the journal file and the
    // tenant's series are gone; a create of the same id that slipped in
    // earlier would have had its fresh journal unlinked.
    auto app = makeApp(dataDir_);
    srv::HttpClient client(app->boundPort());
    driveTenant(client, "acme");

    // Hold acme's strand so the DELETE stops at its strand barrier.
    std::promise<void> entered;
    std::promise<void> release;
    std::thread holder([&] {
        app->sessions().with(
            "acme", [&](srv::EngineSession&, srv::TenantMetrics&) {
                entered.set_value();
                release.get_future().wait();
                return 0;
            });
    });
    entered.get_future().wait();
    std::thread deleter([&] { app->sessions().erase("acme"); });
    for (int i = 0; i < 10'000 && app->sessions().sessionCount() != 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(app->sessions().sessionCount(), 0u);

    srv::ClientResponse r = client.get("/v1/tenants/acme/report");
    EXPECT_EQ(r.status, 404) << r.body;
    r = client.post("/v1/tenants", tenantBody("acme"));
    EXPECT_EQ(r.status, 409) << r.body;
    EXPECT_EQ(errorCode(r.body), "duplicate_tenant");

    release.set_value();
    holder.join();
    deleter.join();
    EXPECT_FALSE(
        fileExists(srv::SessionJournal::pathFor(dataDir_, "acme")));
    r = client.post("/v1/tenants", tenantBody("acme"));
    ASSERT_EQ(r.status, 201) << r.body;
    EXPECT_TRUE(
        fileExists(srv::SessionJournal::pathFor(dataDir_, "acme")));
}

TEST_F(SrvJournal, SessionCapShedsWithStructured429)
{
    srv::ServeConfig config;
    config.limits.maxSessions = 1;
    auto app = makeApp(dataDir_, config);
    srv::HttpClient client(app->boundPort());
    ASSERT_EQ(client.post("/v1/tenants", tenantBody("one")).status,
              201);
    const srv::ClientResponse r =
        client.post("/v1/tenants", tenantBody("two"));
    EXPECT_EQ(r.status, 429);
    EXPECT_EQ(errorCode(r.body), "too_many_sessions");
    EXPECT_EQ(app->sessions().sessionCount(), 1u);
    EXPECT_GE(app->sessions().lifecycleStats().admissionRejects, 1u);

    // Deleting frees the slot.
    ASSERT_EQ(client.del("/v1/tenants/one").status, 200);
    EXPECT_EQ(client.post("/v1/tenants", tenantBody("two")).status,
              201);
}

TEST_F(SrvJournal, JournalQuotaShedsWritesWithStructured429)
{
    srv::ServeConfig config;
    config.journal.maxBytesPerTenant = 600;
    auto app = makeApp(dataDir_, config);
    srv::HttpClient client(app->boundPort());
    ASSERT_EQ(client.post("/v1/tenants", tenantBody("acme")).status,
              201);

    bool shed = false;
    for (int i = 1; i <= 50 && !shed; ++i) {
        const srv::ClientResponse r = client.post(
            "/v1/tenants/acme/jobs", jobBody(static_cast<double>(i)));
        if (r.status == 429) {
            EXPECT_EQ(errorCode(r.body), "journal_quota_exceeded");
            shed = true;
        } else {
            ASSERT_EQ(r.status, 200) << r.body;
        }
    }
    EXPECT_TRUE(shed) << "journal quota never tripped";
    // Reads keep working past the quota; only writes shed.
    EXPECT_EQ(client.get("/v1/tenants/acme/report").status, 200);
}

TEST_F(SrvJournal, InvalidTenantIdsAre422)
{
    auto app = makeApp(dataDir_);
    srv::HttpClient client(app->boundPort());
    for (const char* bad : {"../escape", ".hidden", "-flag", "a b"}) {
        const srv::ClientResponse r =
            client.post("/v1/tenants", tenantBody(bad));
        EXPECT_EQ(r.status, 422) << bad;
        EXPECT_EQ(errorCode(r.body), "invalid_tenant_id") << bad;
    }
    // Nothing leaked into the data dir or the registry.
    EXPECT_EQ(app->sessions().sessionCount(), 0u);
    EXPECT_TRUE(srv::listJournals(dataDir_).empty());
}

// ---- SIGKILL crash recovery against the real daemon binary -------------

/** One fork/exec'd hcloud_serve with stdout piped for port discovery. */
struct Daemon
{
    pid_t pid = -1;
    int out = -1; ///< read end of the child's stdout
    std::uint16_t port = 0;

    ~Daemon()
    {
        if (out >= 0)
            ::close(out);
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }

    void sigkill()
    {
        ASSERT_GT(pid, 0);
        ASSERT_EQ(::kill(pid, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFSIGNALED(status));
        pid = -1;
        ::close(out);
        out = -1;
    }
};

/** Start the daemon on an ephemeral port; blocks until it listens. */
void
spawnDaemon(const std::string& dataDir, Daemon* daemon)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execl(HCLOUD_SERVE_BIN, HCLOUD_SERVE_BIN, "--port", "0",
                "--shards", "2", "--http-workers", "2", "--data-dir",
                dataDir.c_str(), "--fsync", "always",
                static_cast<char*>(nullptr));
        _exit(127); // exec failed
    }
    ::close(fds[1]);
    daemon->pid = pid;
    daemon->out = fds[0];

    // Read stdout until the "listening http://127.0.0.1:PORT/" line.
    std::string buffer;
    char chunk[256];
    for (;;) {
        const ssize_t n = ::read(daemon->out, chunk, sizeof(chunk));
        ASSERT_GT(n, 0) << "daemon exited before listening: " << buffer;
        buffer.append(chunk, static_cast<std::size_t>(n));
        const std::size_t at = buffer.find("http://127.0.0.1:");
        if (at == std::string::npos)
            continue;
        const std::size_t end = buffer.find('/', at + 17);
        if (end == std::string::npos)
            continue;
        daemon->port = static_cast<std::uint16_t>(std::atoi(
            buffer.substr(at + 17, end - at - 17).c_str()));
        break;
    }
    ASSERT_NE(daemon->port, 0);
}

TEST_F(SrvJournal, SigkillRecoveryIsByteIdentical)
{
    Daemon first;
    ASSERT_NO_FATAL_FAILURE(spawnDaemon(dataDir_, &first));
    std::string acmeReport, bravoReport;
    {
        srv::HttpClient client(first.port);
        ASSERT_NO_FATAL_FAILURE(driveTenant(client, "acme"));
        ASSERT_NO_FATAL_FAILURE(driveTenant(client, "bravo"));
        acmeReport = report(client, "acme");
        bravoReport = report(client, "bravo");
    }
    ASSERT_FALSE(acmeReport.empty());

    // No graceful shutdown: every acked command must already be
    // durable (fsync=always), so recovery owes us the exact reports.
    ASSERT_NO_FATAL_FAILURE(first.sigkill());

    Daemon second;
    ASSERT_NO_FATAL_FAILURE(spawnDaemon(dataDir_, &second));
    srv::HttpClient client(second.port);

    const srv::ClientResponse list = client.get("/v1/tenants");
    ASSERT_EQ(list.status, 200);
    EXPECT_NE(list.body.find("\"acme\""), std::string::npos);
    EXPECT_NE(list.body.find("\"bravo\""), std::string::npos);

    EXPECT_EQ(report(client, "acme"), acmeReport);
    EXPECT_EQ(report(client, "bravo"), bravoReport);

    // The recovered daemon accepts new work on the old sessions.
    const srv::ClientResponse job =
        client.post("/v1/tenants/acme/jobs", jobBody(130.0));
    EXPECT_EQ(job.status, 200) << job.body;
}

/**
 * Exit code of hcloud_serve run with @p args (after --port 0) and its
 * output discarded, or -1 when it is still running after 10 s: a
 * binary that accepts a flag it should reject starts a daemon that
 * never exits, so it is killed and counted as a failure.
 */
int
serveExitCode(const std::vector<const char*>& args)
{
    // Built before fork(): the child only makes async-signal-safe calls.
    std::vector<const char*> argv = {HCLOUD_SERVE_BIN, "--port", "0"};
    argv.insert(argv.end(), args.begin(), args.end());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        const int null = ::open("/dev/null", O_WRONLY);
        ::dup2(null, STDOUT_FILENO);
        ::dup2(null, STDERR_FILENO);
        ::execv(HCLOUD_SERVE_BIN, const_cast<char* const*>(argv.data()));
        _exit(127); // exec failed
    }
    int status = 0;
    for (int waited = 0; waited < 1000; ++waited) {
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return -1;
}

TEST(ServeCli, RejectsOutOfRangeAndRemovedFlags)
{
    // 2^44 MiB is 2^64 bytes: shifted into 64 bits it wrapped to 0
    // (unbounded), and one more MiB became a 1 MiB cap.
    EXPECT_EQ(serveExitCode({"--max-journal-mb", "17592186044416"}), 2);
    EXPECT_EQ(serveExitCode({"--max-journal-mb", "17592186044417"}), 2);
    // Past LONG_MAX: strtol clamped it instead of failing.
    EXPECT_EQ(serveExitCode({"--shards", "99999999999999999999"}), 2);
    // The strand pool and its flag are gone.
    EXPECT_EQ(serveExitCode({"--threads", "2"}), 2);
}

} // namespace
} // namespace hcloud
