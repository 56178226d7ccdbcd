/**
 * @file
 * ServeApp: the hcloud provisioning-as-a-service daemon, as a library.
 *
 * Wires the serving stack — srv::HttpServer for transport,
 * srv::SessionManager for sharded tenant sessions, obs::ProcessMetrics
 * for per-tenant observability — behind one start()/stop() pair so the
 * binary (serve_main.cpp), the benchmark (bench_serve) and the tests all
 * drive the identical daemon in-process.
 *
 * HTTP surface (all request/response bodies JSON):
 *
 *   POST /v1/tenants             create a session     -> 201 {tenant,...}
 *   GET  /v1/tenants             list tenants         -> 200 {tenants:[..]}
 *   POST /v1/tenants/{id}/jobs   submit a job, advance to its arrival
 *                                -> 200 {job, state, decisions:[..]}
 *   POST /v1/tenants/{id}/advance {"to": seconds}     -> 200 {now}
 *                                (to must be finite, >= 0, >= now and
 *                                within --max-advance of now -> else 422)
 *   DELETE /v1/tenants/{id}      remove session + journal + metric
 *                                series -> 200 {tenant, deleted}
 *   GET  /v1/tenants/{id}/report schema-versioned report (see
 *                                EngineSession::reportJson)
 *   GET  /v1/tenants/{id}/timeline
 *                                ring-retained cluster-state samples;
 *                                ?since=<seq> resumes a cursor and
 *                                ?stride=<n> downsamples (every n-th
 *                                sample by absolute seq). Bounded
 *                                response; 404 unknown tenant, 422
 *                                malformed query -> structured errors
 *   GET  /metrics                Prometheus text (per-tenant series +
 *                                per-route/per-stage latency histograms)
 *   GET  /healthz                liveness: 200 + build-info JSON
 *   GET  /statusz                human status page: session table,
 *                                strand queue depths, slowest requests
 *
 * Observability: every routed request feeds per-route and per-stage
 * latency histograms and the /statusz slow-request ring; when span
 * tracing is on (--span-trace / HCLOUD_SPANS) each request becomes a
 * trace whose spans cover the HTTP stages, strand wait/exec and engine
 * work, with decision events stamped by trace id. Requests slower than
 * --slow-ms / HCLOUD_SLOW_MS emit one structured warn line with the
 * full stage breakdown through obs::Log.
 *
 * Every client-caused failure is a 4xx with the structured body
 * {"error":{"code","message"}} (the server-wide error formatter is
 * installed on the transport, so 404/405/413/503 match too); handler
 * bugs surface as 500 with the same shape, never a crash.
 */

#ifndef HCLOUD_SRV_SERVE_APP_HPP
#define HCLOUD_SRV_SERVE_APP_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "obs/process_metrics.hpp"
#include "obs/span.hpp"
#include "srv/http_server.hpp"
#include "srv/session_manager.hpp"
#include "srv/statusz.hpp"

namespace hcloud::srv {

struct ServeConfig
{
    /** Session shards (concurrent tenant strands). */
    std::size_t shards = 8;
    /** HTTP connection workers. */
    std::size_t httpWorkers = 8;
    /** Accepted-connection queue bound (then 503). */
    std::size_t maxPendingConnections = 256;
    /** Span JSONL output path; "" defers to HCLOUD_SPANS (unset=off). */
    std::string spanPath;
    /** Slow-request log threshold in ms; 0 defers to HCLOUD_SLOW_MS
     *  (unset = no slow-request logging). */
    double slowMs = 0.0;
    /** Recent requests kept for the /statusz slow table. */
    std::size_t statusRequests = 512;
    /** Durability: journal.dataDir empty = journaling (and restore,
     *  eviction, revival) off. */
    JournalConfig journal;
    /** Admission cap + idle eviction (see SessionManager::Limits). */
    SessionManager::Limits limits;
    /** Max virtual seconds one advance call may cover (0 = unbounded);
     *  the guard that keeps `{"to": 1e308}` from pinning a strand. */
    double maxAdvance = 1e7;
    /**
     * Default cluster-state timeline cadence in virtual seconds for
     * sessions that do not pin `engine.timeline` themselves; 0 turns
     * default sampling off. Normalized into an explicit per-session
     * mode before the create record is journaled, so replay never
     * depends on the flags the daemon restarts with.
     */
    double timelineCadence = 30.0;
};

/** The daemon: sharded multi-tenant sessions behind an HTTP API. */
class ServeApp
{
  public:
    explicit ServeApp(ServeConfig config = {},
                      obs::ProcessMetrics& metrics =
                          obs::ProcessMetrics::instance());

    /** Graceful drain (equivalent to stop()). */
    ~ServeApp();

    ServeApp(const ServeApp&) = delete;
    ServeApp& operator=(const ServeApp&) = delete;

    /** Bind 127.0.0.1:@p port (0 = ephemeral) and serve. Journaled
     *  sessions were already restored during construction. */
    bool start(std::uint16_t port, std::string* error = nullptr);

    /**
     * Graceful drain: stop accepting, finish in-flight requests, wait
     * for all shard work, join every thread. Idempotent; this is what
     * SIGTERM triggers in the binary.
     */
    void stop();

    bool running() const { return server_.running(); }
    std::uint16_t boundPort() const { return server_.boundPort(); }

    SessionManager& sessions() { return sessions_; }
    const HttpServer& server() const { return server_; }
    obs::SpanTracer& spans() { return spans_; }
    const StatusBoard& statusBoard() const { return status_; }
    /** Resolved slow-request threshold (after HCLOUD_SLOW_MS). */
    double slowMs() const { return slowMs_; }

  private:
    /** The series one response updates, resolved on the first response
     *  with its (route, method, status). */
    struct ResponseSeries
    {
        obs::ProcessHistogram* seconds = nullptr;  ///< {route, method}
        obs::ProcessCounter* responses = nullptr;  ///< {route, status}
        std::array<obs::ProcessHistogram*, 4> stages{}; ///< read..write
    };

    void routes();
    /** Transport config wiring spans + the onRequest observer. */
    HttpServerConfig makeServerConfig(const ServeConfig& config);
    /** onRequest sink: histograms, status ring, slow-request log. */
    void observeRequest(const RequestSummary& summary);
    /** @p summary's series; the registry only on first use. */
    ResponseSeries responseSeries(const RequestSummary& summary);
    HttpResponse handleCreateTenant(const HttpRequest& request);
    HttpResponse handleListTenants(const HttpRequest& request);
    HttpResponse handleSubmitJob(const HttpRequest& request);
    HttpResponse handleAdvance(const HttpRequest& request);
    HttpResponse handleDeleteTenant(const HttpRequest& request);
    HttpResponse handleReport(const HttpRequest& request);
    HttpResponse handleTimeline(const HttpRequest& request);
    HttpResponse handleHealthz(const HttpRequest& request);
    HttpResponse handleStatusz(const HttpRequest& request);

    obs::ProcessMetrics& metrics_;
    obs::SpanTracer spans_;
    StatusBoard status_;
    double slowMs_ = 0.0;
    double maxAdvance_ = 0.0;
    double timelineCadence_ = 0.0;
    std::uint64_t startNs_ = 0; ///< construction time, for uptime
    /** Guards responseSeries_ and stageSeries_. */
    std::mutex responseMutex_;
    /** By (route, method, status). */
    std::map<std::tuple<std::string, std::string, int>, ResponseSeries,
             std::less<>>
        responseSeries_;
    /** hcloud_http_stage_seconds, read..write; set by the first request. */
    std::array<obs::ProcessHistogram*, 4> stageSeries_{};
    SessionManager sessions_;
    HttpServer server_; ///< last: its config captures `this`
};

} // namespace hcloud::srv

#endif // HCLOUD_SRV_SERVE_APP_HPP
