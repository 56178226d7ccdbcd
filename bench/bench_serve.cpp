/**
 * @file
 * Closed-loop load generator for the hcloud serve daemon.
 *
 * Drives an in-process srv::ServeApp (the identical stack the
 * hcloud_serve binary runs) over real loopback HTTP: N tenants
 * partitioned across C client threads, each client POSTing
 * 1-second-spaced batch jobs round-robin over its tenants on a
 * keep-alive connection and timing every request wall-clock, then (when
 * --advances > 0) driving an advance phase so the submit and advance
 * request stages report separate latency distributions. Reports
 * aggregate submission throughput and p50/p90/p99/max latency, and
 * writes a machine-readable v3 artifact (default bench_serve.json; CI
 * passes --out and gates on it) with one "stages" row per request
 * stage. The committed BENCH_serve.json is a different document, the
 * hcbench paired-run record, which a bare run must not overwrite.
 *
 * --span-trace runs the whole bench with request-span tracing enabled
 * (the acceptance path: every HTTP request must join its engine
 * decisions by trace id in the emitted JSONL).
 *
 * --data-dir runs the bench with session journaling on (the durability
 * tax path: every accepted submit/advance appends one journal record,
 * fsynced per --fsync), so CI can gate the journaling overhead as a
 * journal-on vs journal-off qps ratio.
 *
 * --timeline-cadence runs the bench with cluster-state timeline
 * sampling on at the given virtual-second cadence (the observability
 * tax path; default 0 = off so the baseline row stays comparable),
 * recording the per-tenant sample totals in the artifact.
 *
 * Usage: bench_serve [--tenants N] [--clients N] [--jobs N]
 *                    [--advances N] [--span-trace PATH] [--out PATH]
 *                    [--data-dir DIR] [--fsync always|interval|never]
 *                    [--timeline-cadence N]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/json.hpp"
#include "obs/process_metrics.hpp"
#include "srv/http_client.hpp"
#include "srv/serve_app.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

std::string
tenantBody(const std::string& id, std::uint64_t seed)
{
    hcloud::obs::JsonWriter w;
    w.beginObject();
    w.field("id", id);
    w.field("strategy", "HM");
    w.key("scenario");
    w.beginObject();
    w.field("kind", "static");
    w.field("duration", 600.0);
    w.field("seed", seed);
    w.field("loadScale", 0.02);
    w.endObject();
    w.key("engine");
    w.beginObject();
    w.field("seed", seed);
    w.field("useProfiling", false);
    w.endObject();
    w.endObject();
    return w.take();
}

std::string
jobBody(double arrival)
{
    hcloud::obs::JsonWriter w;
    w.beginObject();
    w.field("kind", "hadoop-recommender");
    w.field("arrival", arrival);
    w.field("coresIdeal", 4);
    w.field("idealDuration", 30.0);
    w.endObject();
    return w.take();
}

double
percentileMs(std::vector<double>& sortedSeconds, double p)
{
    if (sortedSeconds.empty())
        return 0.0;
    const double rank =
        p * static_cast<double>(sortedSeconds.size() - 1);
    const std::size_t index = static_cast<std::size_t>(rank);
    return sortedSeconds[index] * 1e3;
}

/** Latency distribution of one request stage (sorts in place). */
struct StageStats
{
    const char* stage;
    std::size_t requests = 0;
    double p50Ms = 0.0;
    double p90Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;
};

StageStats
stageStats(const char* stage, std::vector<double>& latencySeconds)
{
    std::sort(latencySeconds.begin(), latencySeconds.end());
    StageStats s;
    s.stage = stage;
    s.requests = latencySeconds.size();
    s.p50Ms = percentileMs(latencySeconds, 0.50);
    s.p90Ms = percentileMs(latencySeconds, 0.90);
    s.p99Ms = percentileMs(latencySeconds, 0.99);
    s.maxMs =
        latencySeconds.empty() ? 0.0 : latencySeconds.back() * 1e3;
    return s;
}

void
stageJson(hcloud::obs::JsonWriter& w, const StageStats& s)
{
    w.beginObject();
    w.field("stage", s.stage);
    w.field("requests", static_cast<std::uint64_t>(s.requests));
    w.field("p50Ms", s.p50Ms);
    w.field("p90Ms", s.p90Ms);
    w.field("p99Ms", s.p99Ms);
    w.field("maxMs", s.maxMs);
    w.endObject();
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace hcloud;

    std::size_t tenants = 100;
    std::size_t clients = 8;
    std::size_t jobsPerTenant = 100;
    std::size_t advances = 3;
    std::string outPath = "bench_serve.json";
    std::string spanPath;
    std::string dataDir;
    srv::FsyncPolicy fsync = srv::FsyncPolicy::Interval;
    double timelineCadence = 0.0;
    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (std::strcmp(argv[i], "--tenants") == 0)
            tenants = static_cast<std::size_t>(std::atol(next()));
        else if (std::strcmp(argv[i], "--clients") == 0)
            clients = static_cast<std::size_t>(std::atol(next()));
        else if (std::strcmp(argv[i], "--jobs") == 0)
            jobsPerTenant = static_cast<std::size_t>(std::atol(next()));
        else if (std::strcmp(argv[i], "--advances") == 0)
            advances = static_cast<std::size_t>(std::atol(next()));
        else if (std::strcmp(argv[i], "--span-trace") == 0)
            spanPath = next();
        else if (std::strcmp(argv[i], "--out") == 0)
            outPath = next();
        else if (std::strcmp(argv[i], "--data-dir") == 0)
            dataDir = next();
        else if (std::strcmp(argv[i], "--timeline-cadence") == 0)
            timelineCadence = std::atof(next());
        else if (std::strcmp(argv[i], "--fsync") == 0) {
            if (!srv::parseFsyncPolicy(next(), &fsync)) {
                std::fprintf(stderr,
                             "bench_serve: --fsync requires always, "
                             "interval or never\n");
                return 2;
            }
        } else {
            std::fprintf(stderr, "bench_serve: unknown option %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (tenants == 0 || clients == 0 || jobsPerTenant == 0)
        return 2;
    clients = std::min(clients, tenants);

    obs::ProcessMetrics metrics;
    srv::ServeConfig config;
    config.shards = 8;
    config.httpWorkers = clients;
    config.maxPendingConnections = 2 * clients + 16;
    config.spanPath = spanPath;
    config.journal.dataDir = dataDir;
    config.journal.fsync = fsync;
    config.timelineCadence = timelineCadence;
    srv::ServeApp app(config, metrics);
    if (!spanPath.empty() && !app.spans().enabled()) {
        std::fprintf(stderr, "bench_serve: cannot open span sink %s\n",
                     spanPath.c_str());
        return 1;
    }
    std::string error;
    if (!app.start(0, &error)) {
        std::fprintf(stderr, "bench_serve: start failed: %s\n",
                     error.c_str());
        return 1;
    }

    std::printf("bench_serve: %zu tenants x %zu jobs over %zu clients "
                "(port %u)\n",
                tenants, jobsPerTenant, clients, app.boundPort());

    // Phase 1: create the tenant fleet (scenario generation dominates;
    // not part of the submission-rate window).
    const Clock::time_point setupStart = Clock::now();
    std::atomic<std::size_t> createFailures{0};
    {
        std::vector<std::thread> workers;
        for (std::size_t c = 0; c < clients; ++c) {
            workers.emplace_back([&, c] {
                srv::HttpClient client(app.boundPort());
                for (std::size_t t = c; t < tenants; t += clients) {
                    const std::string id =
                        "bench-" + std::to_string(t);
                    const auto r = client.post(
                        "/v1/tenants", tenantBody(id, 42 + t));
                    if (r.status != 201)
                        createFailures.fetch_add(1);
                }
            });
        }
        for (std::thread& w : workers)
            w.join();
    }
    const double setupSeconds = seconds(Clock::now() - setupStart);
    if (createFailures.load() != 0) {
        std::fprintf(stderr, "bench_serve: %zu tenant creations failed\n",
                     createFailures.load());
        return 1;
    }

    // Phase 2: the measured closed loop. Every client owns a tenant
    // partition and round-robins one job per tenant per virtual second.
    const std::size_t totalJobs = tenants * jobsPerTenant;
    std::vector<std::vector<double>> latencies(clients);
    std::atomic<std::size_t> submitFailures{0};
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::mutex startMutex;
    std::condition_variable startCv;

    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
            srv::HttpClient client(app.boundPort());
            std::vector<std::string> targets;
            for (std::size_t t = c; t < tenants; t += clients)
                targets.push_back("/v1/tenants/bench-" +
                                  std::to_string(t) + "/jobs");
            std::vector<double>& lat = latencies[c];
            lat.reserve(targets.size() * jobsPerTenant);

            ready.fetch_add(1);
            {
                std::unique_lock<std::mutex> lock(startMutex);
                startCv.wait(lock, [&] { return go.load(); });
            }
            for (std::size_t j = 0; j < jobsPerTenant; ++j) {
                const std::string body =
                    jobBody(static_cast<double>(j) * 1.0);
                for (const std::string& target : targets) {
                    const Clock::time_point t0 = Clock::now();
                    const auto r = client.post(target, body);
                    lat.push_back(seconds(Clock::now() - t0));
                    if (r.status != 200)
                        submitFailures.fetch_add(1);
                }
            }
        });
    }
    while (ready.load() != clients)
        std::this_thread::yield();
    const Clock::time_point windowStart = Clock::now();
    {
        std::lock_guard<std::mutex> lock(startMutex);
        go.store(true);
    }
    startCv.notify_all();
    for (std::thread& w : workers)
        w.join();
    const double wallSeconds = seconds(Clock::now() - windowStart);

    // Phase 3: the advance stage — each client steps its tenants past
    // the submitted arrivals so decision work dominated by the engine's
    // advance path gets its own latency distribution.
    std::vector<std::vector<double>> advanceLatencies(clients);
    std::atomic<std::size_t> advanceFailures{0};
    if (advances > 0) {
        std::vector<std::thread> advWorkers;
        for (std::size_t c = 0; c < clients; ++c) {
            advWorkers.emplace_back([&, c] {
                srv::HttpClient client(app.boundPort());
                std::vector<std::string> targets;
                for (std::size_t t = c; t < tenants; t += clients)
                    targets.push_back("/v1/tenants/bench-" +
                                      std::to_string(t) + "/advance");
                std::vector<double>& lat = advanceLatencies[c];
                lat.reserve(targets.size() * advances);
                for (std::size_t a = 1; a <= advances; ++a) {
                    obs::JsonWriter body;
                    body.beginObject();
                    body.field("to",
                               static_cast<double>(jobsPerTenant) +
                                   static_cast<double>(a) * 60.0);
                    body.endObject();
                    const std::string payload = body.take();
                    for (const std::string& target : targets) {
                        const Clock::time_point t0 = Clock::now();
                        const auto r = client.post(target, payload);
                        lat.push_back(seconds(Clock::now() - t0));
                        if (r.status != 200)
                            advanceFailures.fetch_add(1);
                    }
                }
            });
        }
        for (std::thread& w : advWorkers)
            w.join();
    }

    // Durability + observability tax accounting, sampled before
    // shutdown closes fds.
    std::uint64_t journalBytes = 0;
    std::uint64_t timelineSamples = 0;
    for (const auto& row : app.sessions().status()) {
        journalBytes += row.journalBytes;
        timelineSamples += row.timelineSamples;
    }

    app.stop();

    std::vector<double> all;
    all.reserve(totalJobs);
    for (const std::vector<double>& lat : latencies)
        all.insert(all.end(), lat.begin(), lat.end());
    std::vector<double> advAll;
    for (const std::vector<double>& lat : advanceLatencies)
        advAll.insert(advAll.end(), lat.begin(), lat.end());

    const StageStats submitStats = stageStats("submit", all);
    const StageStats advanceStats = stageStats("advance", advAll);
    const double qps = static_cast<double>(totalJobs) / wallSeconds;
    const double p50 = submitStats.p50Ms;
    const double p90 = submitStats.p90Ms;
    const double p99 = submitStats.p99Ms;
    const double worst = submitStats.maxMs;

    std::printf("bench_serve: %zu jobs in %.3f s -> %.0f jobs/s "
                "(p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, max %.3f ms, "
                "%zu failures)\n",
                totalJobs, wallSeconds, qps, p50, p90, p99, worst,
                submitFailures.load());
    if (advances > 0)
        std::printf("bench_serve: advance stage %zu requests "
                    "(p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, "
                    "max %.3f ms, %zu failures)\n",
                    advanceStats.requests, advanceStats.p50Ms,
                    advanceStats.p90Ms, advanceStats.p99Ms,
                    advanceStats.maxMs, advanceFailures.load());
    if (!dataDir.empty())
        std::printf("bench_serve: journaling to %s (fsync=%s, "
                    "%.1f MiB across %zu tenants)\n",
                    dataDir.c_str(), srv::toString(fsync),
                    static_cast<double>(journalBytes) / (1 << 20),
                    tenants);
    if (app.spans().enabled())
        std::printf("bench_serve: %llu span records -> %s\n",
                    static_cast<unsigned long long>(
                        app.spans().recorded()),
                    spanPath.c_str());
    if (timelineCadence > 0.0)
        std::printf("bench_serve: timeline sampling every %.1f virtual "
                    "seconds (%llu samples across %zu tenants)\n",
                    timelineCadence,
                    static_cast<unsigned long long>(timelineSamples),
                    tenants);

    obs::JsonWriter w;
    w.beginObject();
    w.field("schemaVersion", 3);
    w.field("benchmark",
            "hcloud serve closed-loop job submission over loopback "
            "HTTP (in-process ServeApp)");
    w.field("tenants", static_cast<std::uint64_t>(tenants));
    w.field("clients", static_cast<std::uint64_t>(clients));
    w.field("jobsPerTenant", static_cast<std::uint64_t>(jobsPerTenant));
    w.field("jobs", static_cast<std::uint64_t>(totalJobs));
    w.field("failures",
            static_cast<std::uint64_t>(submitFailures.load() +
                                       advanceFailures.load()));
    w.field("setupSeconds", setupSeconds);
    w.field("wallSeconds", wallSeconds);
    w.field("qps", qps);
    w.field("p50Ms", p50);
    w.field("p90Ms", p90);
    w.field("p99Ms", p99);
    w.field("maxMs", worst);
    w.key("journal");
    w.beginObject();
    w.field("enabled", !dataDir.empty());
    if (!dataDir.empty()) {
        w.field("fsync", srv::toString(fsync));
        w.field("bytes", journalBytes);
    }
    w.endObject();
    w.field("spans", app.spans().enabled());
    if (app.spans().enabled())
        w.field("spanRecords", app.spans().recorded());
    w.key("timeline");
    w.beginObject();
    w.field("enabled", timelineCadence > 0.0);
    if (timelineCadence > 0.0) {
        w.field("cadence", timelineCadence);
        w.field("samples", timelineSamples);
    }
    w.endObject();
    w.key("stages");
    w.beginArray();
    stageJson(w, submitStats);
    if (advances > 0)
        stageJson(w, advanceStats);
    w.endArray();
    w.key("host");
    w.beginObject();
    w.field("nproc", static_cast<std::uint64_t>(
                         sysconf(_SC_NPROCESSORS_ONLN)));
    w.endObject();
    w.endObject();

    std::ofstream out(outPath);
    out << w.take() << "\n";
    if (!out) {
        std::fprintf(stderr, "bench_serve: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    std::printf("bench_serve: wrote %s\n", outPath.c_str());
    return submitFailures.load() + advanceFailures.load() == 0 ? 0 : 1;
}
