#include "srv/serve_app.hpp"

#include <cerrno>
#include <cstdlib>
#include <utility>
#include <vector>

#include <unistd.h>

#include "exp/report_json.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/timeline.hpp"
#include "srv/json_api.hpp"

namespace hcloud::srv {

namespace {

/** Route handler with ApiError -> structured 4xx translation. */
template <typename Fn>
HttpServer::Handler
api(Fn fn)
{
    return [fn = std::move(fn)](const HttpRequest& request) {
        try {
            return fn(request);
        } catch (const ApiError& e) {
            return HttpResponse::json(e.status,
                                      errorJson(e.code, e.message));
        }
    };
}

void
decisionJson(obs::JsonWriter& w, const DecisionRecord& d)
{
    w.beginObject();
    w.field("time", d.time);
    w.field("job", static_cast<std::uint64_t>(d.job));
    w.field("reason", obs::toString(d.reason));
    w.field("value", d.value);
    if (!d.detail.empty())
        w.field("detail", d.detail);
    w.endObject();
}

/** Span sink path: explicit config wins, then HCLOUD_SPANS. */
obs::SpanTracerConfig
spanConfig(const ServeConfig& config)
{
    obs::SpanTracerConfig sc;
    sc.sinkPath = config.spanPath;
    if (sc.sinkPath.empty()) {
        if (const char* env = std::getenv("HCLOUD_SPANS"))
            sc.sinkPath = env;
    }
    return sc;
}

/** Response bound of GET .../timeline: at most this many samples per
 *  call; clients page with the returned nextSince cursor. */
constexpr std::size_t kMaxTimelineSamples = 2048;

/** Find query parameter @p name in "k=v&k=v"; false when absent. */
bool
queryParam(const std::string& query, std::string_view name,
           std::string* out)
{
    std::size_t pos = 0;
    while (pos <= query.size()) {
        std::size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        const std::string_view pair(query.data() + pos, amp - pos);
        const std::size_t eq = pair.find('=');
        if (eq != std::string_view::npos && pair.substr(0, eq) == name) {
            out->assign(pair.substr(eq + 1));
            return true;
        }
        pos = amp + 1;
    }
    return false;
}

/** Strict full-token u64 query parameter with a minimum; 422 on any
 *  malformed, signed or out-of-range value. */
std::uint64_t
queryU64(const HttpRequest& request, std::string_view name,
         std::uint64_t fallback, std::uint64_t minValue)
{
    std::string raw;
    if (!queryParam(request.query, name, &raw))
        return fallback;
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(raw.c_str(), &end, 10);
    if (raw.empty() || raw[0] == '-' || raw[0] == '+' ||
        end != raw.c_str() + raw.size() || errno == ERANGE ||
        value < minValue)
        throw ApiError{422, "invalid_query",
                       "query parameter \"" + std::string(name) +
                           "\" must be an integer >= " +
                           std::to_string(minValue)};
    return static_cast<std::uint64_t>(value);
}

/** Slow threshold: explicit config wins, then HCLOUD_SLOW_MS. */
double
resolveSlowMs(double configured)
{
    if (configured > 0.0)
        return configured;
    if (const char* env = std::getenv("HCLOUD_SLOW_MS"))
        return std::atof(env);
    return 0.0;
}

} // namespace

HttpServerConfig
ServeApp::makeServerConfig(const ServeConfig& config)
{
    HttpServerConfig http;
    http.workers = config.httpWorkers;
    http.maxPendingConnections = config.maxPendingConnections;
    // `this` outlives server_ (declared last), and onRequest only fires
    // while the server runs, so the capture is safe.
    http.spans = &spans_;
    http.onRequest = [this](const RequestSummary& summary) {
        observeRequest(summary);
    };
    // Transport-level failures (404/405/413/503/500) speak the same
    // structured-error JSON as the API handlers.
    http.errorResponse = [](int status, std::string_view message) {
        const char* code;
        switch (status) {
          case 400:
            code = "bad_request";
            break;
          case 404:
            code = "not_found";
            break;
          case 405:
            code = "method_not_allowed";
            break;
          case 408:
            code = "timeout";
            break;
          case 413:
            code = "body_too_large";
            break;
          case 503:
            code = "overloaded";
            break;
          default:
            code = "internal_error";
            break;
        }
        return HttpResponse::json(status, errorJson(code, message));
    };
    return http;
}

ServeApp::ServeApp(ServeConfig config, obs::ProcessMetrics& metrics)
    : metrics_(metrics), spans_(spanConfig(config)),
      status_(config.statusRequests),
      slowMs_(resolveSlowMs(config.slowMs)),
      maxAdvance_(config.maxAdvance),
      timelineCadence_(config.timelineCadence),
      startNs_(obs::SpanTracer::nowNs()),
      sessions_(config.shards, config.journal, config.limits, metrics_),
      server_(makeServerConfig(config))
{
    routes();
    metrics_
        .gauge("hcloud_spans_enabled",
               "1 when span tracing has an open sink")
        .set(spans_.enabled() ? 1.0 : 0.0);
    // Replay-restore every journaled tenant before the server can be
    // started: a restarted daemon answers its first request with every
    // pre-crash session already rebuilt.
    sessions_.restoreAll();
}

ServeApp::~ServeApp()
{
    stop();
}

bool
ServeApp::start(std::uint16_t port, std::string* error)
{
    return server_.start(port, error);
}

void
ServeApp::stop()
{
    // Transport first (no new requests), then let the shards drain any
    // work already accepted. SessionManager's destructor drains again,
    // so stop() + destruction is safe in either order.
    server_.stop();
    spans_.flush();
}

ServeApp::ResponseSeries
ServeApp::responseSeries(const RequestSummary& summary)
{
    const auto key =
        std::tie(summary.route, summary.method, summary.status);
    std::lock_guard<std::mutex> lock(responseMutex_);
    if (const auto it = responseSeries_.find(key);
        it != responseSeries_.end())
        return it->second;

    ResponseSeries r;
    r.seconds = &metrics_.histogram("hcloud_http_request_seconds",
                                    "Request wall time per route",
                                    {{"route", summary.route},
                                     {"method", summary.method}});
    if (!stageSeries_[0]) {
        constexpr const char* kStages[] = {"read", "route", "handle",
                                           "write"};
        for (std::size_t i = 0; i < stageSeries_.size(); ++i)
            stageSeries_[i] = &metrics_.histogram(
                "hcloud_http_stage_seconds",
                "Request wall time per processing stage",
                {{"stage", kStages[i]}});
    }
    r.stages = stageSeries_;
    r.responses = &metrics_.counter(
        "hcloud_http_responses_total", "Responses per route and status",
        {{"route", summary.route},
         {"status", std::to_string(summary.status)}});
    responseSeries_.emplace(key, r);
    return r;
}

void
ServeApp::observeRequest(const RequestSummary& summary)
{
    const ResponseSeries series = responseSeries(summary);
    const double totalSec =
        static_cast<double>(summary.stages.totalNs()) / 1e9;
    series.seconds->observe(totalSec);
    const std::uint64_t stageNs[] = {
        summary.stages.readNs,
        summary.stages.routeNs,
        summary.stages.handleNs,
        summary.stages.writeNs,
    };
    for (std::size_t i = 0; i < series.stages.size(); ++i)
        series.stages[i]->observe(static_cast<double>(stageNs[i]) / 1e9);
    series.responses->inc();
    status_.add(summary);
    // Piggyback idle eviction on request traffic (rate-limited inside),
    // so durability needs no dedicated timer thread.
    sessions_.maybeSweep();

    const double totalMs = totalSec * 1e3;
    if (slowMs_ > 0.0 && totalMs >= slowMs_) {
        obs::Log::instance().warn(
            "slow_request", [&](obs::JsonWriter& w) {
                w.field("method", summary.method);
                w.field("route", summary.route);
                w.field("status", summary.status);
                if (summary.trace != 0)
                    w.field("trace", summary.trace);
                w.field("totalMs", totalMs);
                w.field("readMs",
                        static_cast<double>(summary.stages.readNs) / 1e6);
                w.field("routeMs",
                        static_cast<double>(summary.stages.routeNs) /
                            1e6);
                w.field("handleMs",
                        static_cast<double>(summary.stages.handleNs) /
                            1e6);
                w.field("writeMs",
                        static_cast<double>(summary.stages.writeNs) /
                            1e6);
            });
    }
}

void
ServeApp::routes()
{
    server_.route("POST", "/v1/tenants", api([this](auto& r) {
                      return handleCreateTenant(r);
                  }));
    server_.route("GET", "/v1/tenants", api([this](auto& r) {
                      return handleListTenants(r);
                  }));
    server_.route("POST", "/v1/tenants/*/jobs", api([this](auto& r) {
                      return handleSubmitJob(r);
                  }));
    server_.route("POST", "/v1/tenants/*/advance", api([this](auto& r) {
                      return handleAdvance(r);
                  }));
    server_.route("DELETE", "/v1/tenants/*", api([this](auto& r) {
                      return handleDeleteTenant(r);
                  }));
    server_.route("GET", "/v1/tenants/*/report", api([this](auto& r) {
                      return handleReport(r);
                  }));
    server_.route("GET", "/v1/tenants/*/timeline", api([this](auto& r) {
                      return handleTimeline(r);
                  }));
    server_.route("GET", "/metrics", [this](const HttpRequest&) {
        return metricsResponse(metrics_);
    });
    server_.route("GET", "/healthz", [this](const HttpRequest& r) {
        return handleHealthz(r);
    });
    server_.route("GET", "/statusz", [this](const HttpRequest& r) {
        return handleStatusz(r);
    });
}

HttpResponse
ServeApp::handleCreateTenant(const HttpRequest& request)
{
    SessionConfig config =
        parseSessionConfig(parseBody(request.body));
    // Resolve the daemon-wide default (--timeline-cadence) into an
    // explicit per-session mode before create journals the config:
    // replaying the journal must reproduce the original sampling
    // stream even if the daemon restarts with different flags.
    if (config.engine.timeline.mode == obs::TimelineConfig::Mode::Auto) {
        config.engine.timeline.mode = timelineCadence_ > 0.0
            ? obs::TimelineConfig::Mode::On
            : obs::TimelineConfig::Mode::Off;
        if (timelineCadence_ > 0.0)
            config.engine.timeline.cadence = timelineCadence_;
    }
    const std::string id = sessions_.create(std::move(config));

    obs::JsonWriter w;
    w.beginObject();
    w.field("schemaVersion", exp::kReportSchemaVersion);
    w.field("tenant", id);
    w.field("sessions",
            static_cast<std::uint64_t>(sessions_.sessionCount()));
    w.endObject();
    return HttpResponse::json(201, w.take());
}

HttpResponse
ServeApp::handleListTenants(const HttpRequest&)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("tenants");
    w.beginArray();
    for (const std::string& id : sessions_.tenantIds())
        w.value(id);
    w.endArray();
    w.endObject();
    return HttpResponse::json(200, w.take());
}

HttpResponse
ServeApp::handleSubmitJob(const HttpRequest& request)
{
    const std::string& tenant = request.params[0];
    const workload::JobSpec spec =
        parseJobSpec(parseBody(request.body));

    const SubmitOutcome outcome = sessions_.with(
        tenant, [&spec](EngineSession& s, TenantMetrics& metrics) {
            SubmitOutcome outcome = s.submitJob(spec);
            if (outcome.status == core::EngineRun::SubmitStatus::Accepted)
                metrics.countJob(outcome.decisions.size());
            obs::TimelineSample latest;
            if (s.latestTimelineSample(&latest))
                metrics.recordSim(latest);
            return outcome;
        });

    switch (outcome.status) {
      case core::EngineRun::SubmitStatus::Accepted:
        break;
      case core::EngineRun::SubmitStatus::ArrivalInPast:
        throw ApiError{409, "arrival_in_past",
                       "arrival is before the session clock"};
      case core::EngineRun::SubmitStatus::DuplicateId:
        throw ApiError{409, "duplicate_job",
                       "job id " + std::to_string(outcome.id) +
                           " already exists"};
    }

    obs::JsonWriter w;
    w.beginObject();
    w.field("job", static_cast<std::uint64_t>(outcome.id));
    w.field("state", outcome.state);
    w.key("decisions");
    w.beginArray();
    for (const DecisionRecord& d : outcome.decisions)
        decisionJson(w, d);
    w.endArray();
    w.endObject();
    return HttpResponse::json(200, w.take());
}

HttpResponse
ServeApp::handleAdvance(const HttpRequest& request)
{
    const std::string& tenant = request.params[0];
    // Validate BEFORE touching the strand: a non-finite target (1e309
    // overflows strtod to +inf) would make runUntil spin forever —
    // external-load processes self-reschedule — pinning the shard and
    // starving every tenant on it. getNumber rejects it.
    const double to = getNumber(parseBody(request.body), "to");
    if (to < 0.0)
        throw ApiError{422, "invalid_field",
                       "field \"to\" must be a finite number >= 0"};

    const std::pair<sim::Time, std::size_t> advanced = sessions_.with(
        tenant,
        [t = to, maxAdvance = maxAdvance_](EngineSession& s,
                                          TenantMetrics& metrics) {
            const sim::Time now = s.now();
            if (t < now)
                throw ApiError{
                    422, "clock_regression",
                    "field \"to\" (" + std::to_string(t) +
                        ") is behind the session clock (" +
                        std::to_string(now) +
                        "); virtual time is monotonic"};
            if (maxAdvance > 0.0 && t - now > maxAdvance)
                throw ApiError{
                    422, "invalid_field",
                    "field \"to\" advances " + std::to_string(t - now) +
                        "s past the session clock; the per-call "
                        "horizon is " +
                        std::to_string(maxAdvance) +
                        "s (--max-advance)"};
            const std::size_t before = s.decisions().size();
            s.advanceTo(t);
            const std::size_t decided = s.decisions().size() - before;
            metrics.countDecisions(decided);
            // Live simulation gauges track the newest cluster snapshot,
            // so a /metrics scrape between advances shows the tenant's
            // current utilization/quality/cost without touching its
            // strand.
            obs::TimelineSample latest;
            if (s.latestTimelineSample(&latest))
                metrics.recordSim(latest);
            return std::pair<sim::Time, std::size_t>(s.now(), decided);
        });

    obs::JsonWriter w;
    w.beginObject();
    w.field("now", advanced.first);
    w.field("decisions",
            static_cast<std::uint64_t>(advanced.second));
    w.endObject();
    return HttpResponse::json(200, w.take());
}

HttpResponse
ServeApp::handleDeleteTenant(const HttpRequest& request)
{
    const std::string& tenant = request.params[0];
    sessions_.erase(tenant);
    obs::JsonWriter w;
    w.beginObject();
    w.field("tenant", tenant);
    w.field("deleted", true);
    w.field("sessions",
            static_cast<std::uint64_t>(sessions_.sessionCount()));
    w.endObject();
    return HttpResponse::json(200, w.take());
}

HttpResponse
ServeApp::handleReport(const HttpRequest& request)
{
    const std::string& tenant = request.params[0];
    std::string report =
        sessions_.with(tenant, [](EngineSession& s, TenantMetrics&) {
            return s.reportJson();
        });
    return HttpResponse::json(200, std::move(report));
}

HttpResponse
ServeApp::handleTimeline(const HttpRequest& request)
{
    const std::string& tenant = request.params[0];
    const std::uint64_t since = queryU64(request, "since", 0, 0);
    const std::uint64_t stride = queryU64(request, "stride", 1, 1);

    struct View
    {
        bool enabled = false;
        double cadence = 0.0;
        std::uint64_t recorded = 0;
        std::uint64_t dropped = 0;
        std::vector<obs::TimelineSample> samples;
    };
    const View view = sessions_.with(
        tenant, [since, stride](EngineSession& s, TenantMetrics&) {
            View v;
            v.enabled = s.timeline().enabled();
            v.cadence = s.timeline().config().cadence;
            v.recorded = s.timeline().recordedCount();
            v.dropped = s.timeline().droppedCount();
            v.samples =
                s.timelineSince(since, stride, kMaxTimelineSamples);
            return v;
        });

    obs::JsonWriter w;
    w.beginObject();
    w.field("tenant", tenant);
    w.field("enabled", view.enabled);
    w.field("cadence", view.cadence);
    w.field("recorded", view.recorded);
    // dropped = samples evicted from the ring before a sink (sessions
    // have none) saw them; a cursor older than recorded-dropped can no
    // longer be served exactly.
    w.field("dropped", view.dropped);
    w.field("nextSince", view.samples.empty()
                ? since
                : view.samples.back().seq + 1);
    w.key("samples");
    w.beginArray();
    for (const obs::TimelineSample& s : view.samples) {
        w.beginObject();
        obs::timelineSampleJson(w, s);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return HttpResponse::json(200, w.take());
}

HttpResponse
ServeApp::handleHealthz(const HttpRequest&)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("status", "ok");
    w.field("service", "hcloud_serve");
    w.field("schemaVersion", exp::kReportSchemaVersion);
    w.field("pid", static_cast<std::int64_t>(::getpid()));
#if defined(__VERSION__)
    w.field("compiler", __VERSION__);
#endif
    w.field("uptimeSeconds",
            static_cast<double>(obs::SpanTracer::nowNs() - startNs_) /
                1e9);
    w.field("sessions",
            static_cast<std::uint64_t>(sessions_.sessionCount()));
    w.field("spans", spans_.enabled());
    const JournalConfig& journal = sessions_.journalConfig();
    w.field("journal", journal.enabled());
    w.field("dataDir", journal.dataDir);
    w.field("fsync", toString(journal.fsync));
    w.field("maxSessions",
            static_cast<std::uint64_t>(sessions_.limits().maxSessions));
    w.field("timelineCadence", timelineCadence_);
    w.endObject();
    return HttpResponse::json(200, w.take());
}

HttpResponse
ServeApp::handleStatusz(const HttpRequest&)
{
    StatuszInfo info;
    info.uptimeSeconds =
        static_cast<double>(obs::SpanTracer::nowNs() - startNs_) / 1e9;
    info.requestsServed = server_.requestsServed();
    info.connectionsRejected = server_.connectionsRejected();
    info.spansEnabled = spans_.enabled();
    info.spanPath = spans_.sinkPath();
    info.spansRecorded = spans_.recorded();
    info.slowMs = slowMs_;
    info.timelineCadence = timelineCadence_;
    const JournalConfig& journal = sessions_.journalConfig();
    info.journalEnabled = journal.enabled();
    info.dataDir = journal.dataDir;
    info.fsyncPolicy = toString(journal.fsync);
    info.maxSessions = sessions_.limits().maxSessions;
    info.idleEvictSeconds = sessions_.limits().idleEvictSeconds;
    info.lifecycle = sessions_.lifecycleStats();
    info.sessions = sessions_.status();
    info.queueDepths = sessions_.queueDepths();
    info.tasksExecuted = sessions_.tasksExecuted();
    info.slowest = status_.slowest(10);
    return HttpResponse::text(200, renderStatusz(info));
}

} // namespace hcloud::srv
