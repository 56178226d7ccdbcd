/**
 * @file
 * HttpServer: small threaded HTTP/1.1 server for the serving layer.
 *
 * A reusable server with method+pattern routing, keep-alive, a bounded
 * accepted-connection queue and a worker pool; the daemon and the bench
 * metrics endpoint (exp::ScopedMetricsServer) both run on it. Design
 * constraints:
 *
 *  - all socket calls are EINTR-safe; responses are written with
 *    MSG_NOSIGNAL so a client hanging up cannot SIGPIPE the process;
 *  - the listener binds 127.0.0.1 with SO_REUSEADDR; port 0 binds an
 *    ephemeral port reported by boundPort();
 *  - reads are bounded (maxRequestBytes -> 413) and idle connections are
 *    closed after idleTimeoutMs, so a stuck client cannot wedge a worker
 *    forever;
 *  - accepted connections queue up to maxPendingConnections; beyond that
 *    the accept loop answers 503 immediately — the bench's closed loop
 *    observes back-pressure instead of unbounded queueing;
 *  - stop() is idempotent and deterministic: close the listener (no new
 *    connections), wake every poll via the self-pipe, finish in-flight
 *    requests, join all threads, close every descriptor. This doubles as
 *    the SIGTERM drain of hcloud_serve;
 *  - handler exceptions become 500s; a throwing handler never kills a
 *    worker.
 *
 * Routing: patterns are '/'-separated segment lists where a "*" segment
 * matches exactly one path segment and is captured into
 * HttpRequest::params in pattern order (the pattern "/v1/tenants/" + "*"
 * + "/jobs" matches "/v1/tenants/t-3/jobs" with params = {"t-3"}). A
 * path that matches some
 * pattern under a different method yields 405; an unmatched path 404.
 * Error responses route through HttpServerConfig::errorResponse when set
 * (the JSON API installs a structured-error formatter), else plain text.
 */

#ifndef HCLOUD_SRV_HTTP_SERVER_HPP
#define HCLOUD_SRV_HTTP_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace hcloud::obs {
class ProcessMetrics;
class SpanTracer;
}

namespace hcloud::srv {

/** One parsed request, as handed to a route handler. */
struct HttpRequest
{
    std::string method; ///< upper-case ("GET", "POST", ...)
    std::string target; ///< raw request target, including any query
    std::string path;   ///< target up to '?'
    std::string query;  ///< after '?' ("" when absent)
    /** Header (name, value) pairs; names lower-cased. */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;
    /** Wildcard captures, in pattern order. */
    std::vector<std::string> params;

    /** Value of header @p name (lower-case), or nullptr. */
    const std::string* header(std::string_view name) const;
};

/** One response, as returned by a route handler. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain";
    std::string body;
    /** Force Connection: close after this response. */
    bool closeConnection = false;

    static HttpResponse text(int status, std::string body)
    {
        HttpResponse r;
        r.status = status;
        r.body = std::move(body);
        return r;
    }

    static HttpResponse json(int status, std::string body)
    {
        HttpResponse r;
        r.status = status;
        r.contentType = "application/json";
        r.body = std::move(body);
        return r;
    }
};

/** Standard reason phrase for @p status ("OK", "Not Found", ...). */
const char* statusReason(int status);

/**
 * The `GET /metrics` answer for @p metrics: Prometheus text exposition
 * 0.0.4, rendered at scrape time. The scrape is counted in
 * `hcloud_exposition_scrapes_total` first, so it sees itself.
 */
HttpResponse metricsResponse(obs::ProcessMetrics& metrics);

/**
 * Wall-clock stage durations of one served request, in steady-clock
 * nanoseconds. The stages are contiguous — read starts at the first
 * request byte, write ends when the response hit the socket — so their
 * sum is the request's wall time (accept-queue wait is reported
 * separately: it precedes the first byte and belongs to the connection,
 * not the request).
 */
struct RequestStages
{
    std::uint64_t readNs = 0;   ///< first byte -> head+body read+parsed
    std::uint64_t routeNs = 0;  ///< route-table match
    std::uint64_t handleNs = 0; ///< handler execution
    std::uint64_t writeNs = 0;  ///< response serialization + send

    std::uint64_t totalNs() const
    {
        return readNs + routeNs + handleNs + writeNs;
    }
};

/** Per-request record handed to HttpServerConfig::onRequest. */
struct RequestSummary
{
    std::string method;
    /** Matched route pattern (wildcard segments kept as "*", e.g.
     *  "/v1/tenants/STAR/jobs" with STAR spelled as the asterisk);
     *  "unmatched" for 404s so label cardinality stays bounded. */
    std::string route;
    int status = 0;
    /** Span trace id of this request (0 = span tracing off). */
    std::uint64_t trace = 0;
    /** steady-clock ns when the response finished sending. */
    std::uint64_t endNs = 0;
    RequestStages stages;
};

struct HttpServerConfig
{
    /** Worker threads serving accepted connections. */
    std::size_t workers = 4;
    /** Accepted connections waiting for a worker; beyond this, 503. */
    std::size_t maxPendingConnections = 64;
    /** Bound on request head + body; larger requests get 413. */
    std::size_t maxRequestBytes = 1u << 20;
    /** Idle keep-alive connections are closed after this long. */
    int idleTimeoutMs = 5000;
    /** Offer keep-alive (false = close after every response, which
     *  read-to-EOF clients like Prometheus scrapers rely on). */
    bool keepAlive = true;
    /**
     * Builds server-generated error responses (400/404/405/413/500/503).
     * Unset = plain-text bodies ("not found\n", ...). @p message is a
     * short human-readable explanation.
     */
    std::function<HttpResponse(int status, std::string_view message)>
        errorResponse;
    /**
     * Span tracer for end-to-end request tracing; nullptr (the default)
     * or a disabled tracer keeps the hot path free of clock samples.
     * When enabled, each routed request gets a trace id, an
     * "http.request" root span with read/route/handle/write children,
     * and the (tracer, context) pair is bound thread-locally around the
     * handler so downstream strand and engine calls join the trace.
     */
    obs::SpanTracer* spans = nullptr;
    /**
     * Invoked on the worker thread after every routed request (matched,
     * 404 or 405 — not connection-level parse failures). The serving
     * layer derives latency histograms, the /statusz slow-request table
     * and the slow-request log line from this.
     */
    std::function<void(const RequestSummary&)> onRequest;
};

/**
 * Blocking HTTP/1.1 server: one accept thread, N connection workers.
 */
class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest&)>;

    explicit HttpServer(HttpServerConfig config = {});

    /** Stops the server if still running. */
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /**
     * Register @p handler for @p method + @p pattern. Call before
     * start(); the route table is immutable while running.
     */
    void route(std::string_view method, std::string_view pattern,
               Handler handler);

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral), start accept + workers.
     * @return false (with @p error filled when non-null) on any socket
     * failure; the server is then inert and safe to destroy or restart.
     */
    bool start(std::uint16_t port, std::string* error = nullptr);

    /** Accept loop is live. */
    bool running() const { return running_; }

    /** Actual bound port (resolves port 0); 0 when not running. */
    std::uint16_t boundPort() const { return port_; }

    /** Requests answered by a handler or router so far. */
    std::uint64_t requestsServed() const { return requestsServed_; }

    /** Connections refused with 503 because the queue was full. */
    std::uint64_t connectionsRejected() const
    {
        return connectionsRejected_;
    }

    /**
     * Idempotent graceful drain: stop accepting, wake idle connections,
     * finish in-flight requests, join every thread, close every fd.
     */
    void stop();

  private:
    struct Route
    {
        std::string method;
        std::string pattern; ///< original pattern, for RequestSummary
        std::vector<std::string> segments;
        Handler handler;
    };

    /** A connection waiting for a worker (acceptNs = 0 unless the
     *  server is observing requests). */
    struct PendingConn
    {
        int fd = -1;
        std::uint64_t acceptNs = 0;
    };

    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd, std::uint64_t acceptNs);
    /** Serve one request from @p buffer/@p fd; @p acceptNs is nonzero
     *  only for the connection's first request. @return keep the
     *  connection? */
    bool serveOne(int fd, std::string& buffer, std::uint64_t acceptNs);
    /** The built error response for @p status. */
    HttpResponse errorFor(int status, std::string_view message) const;
    bool sendResponse(int fd, const HttpRequest* request,
                      const HttpResponse& response, bool keepAlive);
    /** Wait for @p fd readable (or stop/timeout): 1 = readable,
     *  0 = timeout, -1 = stop or error. */
    int waitReadable(int fd, int timeoutMs);

    HttpServerConfig config_;
    std::vector<Route> routes_;

    int listenFd_ = -1;
    int wakeFd_[2] = {-1, -1}; ///< self-pipe: [0] polled, [1] written
    /** Atomic: stop() clears it while clients may still query it. */
    std::atomic<std::uint16_t> port_{0};
    std::thread acceptThread_;
    std::vector<std::thread> workers_;
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> requestsServed_{0};
    std::atomic<std::uint64_t> connectionsRejected_{0};

    /** True when onRequest or a span tracer is configured; gates every
     *  clock sample so the default server stays observation-free. */
    bool observing_ = false;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<PendingConn> pendingFds_;
};

} // namespace hcloud::srv

#endif // HCLOUD_SRV_HTTP_SERVER_HPP
