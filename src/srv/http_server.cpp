#include "srv/http_server.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/process_metrics.hpp"
#include "obs/prom_text.hpp"
#include "obs/span.hpp"

namespace hcloud::srv {

namespace {

void
closeQuietly(int& fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** Full EINTR-safe send of @p data; SIGPIPE suppressed. */
bool
sendAll(int fd, std::string_view data)
{
    const char* p = data.data();
    std::size_t remaining = data.size();
    while (remaining > 0) {
        const ssize_t n = ::send(fd, p, remaining, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += static_cast<std::size_t>(n);
        remaining -= static_cast<std::size_t>(n);
    }
    return true;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
        s.remove_suffix(1);
    return s;
}

std::vector<std::string>
splitSegments(std::string_view path)
{
    std::vector<std::string> segments;
    std::size_t pos = 0;
    while (pos < path.size()) {
        if (path[pos] == '/') {
            ++pos;
            continue;
        }
        const std::size_t end = path.find('/', pos);
        segments.emplace_back(
            path.substr(pos, end == std::string_view::npos ? std::string_view::npos
                                                           : end - pos));
        if (end == std::string_view::npos)
            break;
        pos = end;
    }
    return segments;
}

/** Parsed request head; status != 0 encodes a parse failure. */
struct ParsedHead
{
    int errorStatus = 0;
    const char* errorMessage = "";
    std::size_t contentLength = 0;
    bool clientClose = false;
    bool http11 = true;
    HttpRequest request;
};

ParsedHead
parseHead(std::string_view head)
{
    ParsedHead out;
    const std::size_t line_end = head.find("\r\n");
    const std::string_view line = head.substr(
        0, line_end == std::string_view::npos ? head.size() : line_end);

    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? std::string_view::npos
                                      : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
        sp1 == 0 || sp2 == sp1 + 1) {
        out.errorStatus = 400;
        out.errorMessage = "malformed request line";
        return out;
    }
    const std::string_view version = trim(line.substr(sp2 + 1));
    if (version.rfind("HTTP/1.", 0) != 0) {
        out.errorStatus = 400;
        out.errorMessage = "unsupported protocol";
        return out;
    }
    out.http11 = version != "HTTP/1.0";

    HttpRequest& req = out.request;
    req.method = std::string(line.substr(0, sp1));
    std::transform(req.method.begin(), req.method.end(), req.method.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::toupper(c));
                   });
    req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    const std::size_t qmark = req.target.find('?');
    req.path = req.target.substr(0, qmark);
    req.query = qmark == std::string::npos ? std::string()
                                           : req.target.substr(qmark + 1);

    // Header lines until the blank line.
    std::size_t pos = line_end == std::string_view::npos
        ? head.size()
        : line_end + 2;
    while (pos < head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string_view::npos)
            eol = head.size();
        const std::string_view hline = head.substr(pos, eol - pos);
        pos = eol + 2;
        if (hline.empty())
            break;
        const std::size_t colon = hline.find(':');
        if (colon == std::string_view::npos)
            continue; // tolerate junk header lines
        std::string name = toLower(trim(hline.substr(0, colon)));
        std::string value(trim(hline.substr(colon + 1)));
        if (name == "content-length") {
            errno = 0;
            char* end = nullptr;
            const unsigned long long v =
                std::strtoull(value.c_str(), &end, 10);
            if (errno != 0 || end == value.c_str() || *end != '\0') {
                out.errorStatus = 400;
                out.errorMessage = "bad content-length";
                return out;
            }
            out.contentLength = static_cast<std::size_t>(v);
        } else if (name == "connection") {
            if (toLower(value).find("close") != std::string::npos)
                out.clientClose = true;
        }
        req.headers.emplace_back(std::move(name), std::move(value));
    }
    return out;
}

} // namespace

const std::string*
HttpRequest::header(std::string_view name) const
{
    for (const auto& [n, v] : headers) {
        if (n == name)
            return &v;
    }
    return nullptr;
}

const char*
statusReason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 201: return "Created";
      case 202: return "Accepted";
      case 204: return "No Content";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 409: return "Conflict";
      case 413: return "Payload Too Large";
      case 422: return "Unprocessable Entity";
      case 429: return "Too Many Requests";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default:  return "Unknown";
    }
}

HttpResponse
metricsResponse(obs::ProcessMetrics& metrics)
{
    metrics
        .counter("hcloud_exposition_scrapes_total",
                 "Scrapes served by the /metrics endpoint")
        .inc();
    HttpResponse response;
    response.contentType = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::renderPromText(metrics);
    return response;
}

HttpServer::HttpServer(HttpServerConfig config) : config_(std::move(config))
{
    if (config_.workers == 0)
        config_.workers = 1;
    if (config_.maxPendingConnections == 0)
        config_.maxPendingConnections = 1;
    observing_ = config_.spans != nullptr || config_.onRequest != nullptr;
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::route(std::string_view method, std::string_view pattern,
                  Handler handler)
{
    Route r;
    r.method = std::string(method);
    std::transform(r.method.begin(), r.method.end(), r.method.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::toupper(c));
                   });
    r.pattern = std::string(pattern);
    r.segments = splitSegments(pattern);
    r.handler = std::move(handler);
    routes_.push_back(std::move(r));
}

bool
HttpServer::start(std::uint16_t port, std::string* error)
{
    auto fail = [&](const char* what) {
        if (error)
            *error = std::string(what) + ": " + std::strerror(errno);
        closeQuietly(listenFd_);
        closeQuietly(wakeFd_[0]);
        closeQuietly(wakeFd_[1]);
        return false;
    };

    if (running_) {
        if (error)
            *error = "already running";
        return false;
    }

    if (::pipe(wakeFd_) != 0)
        return fail("pipe");
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("socket");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0)
        return fail("bind");
    if (::listen(listenFd_, 64) != 0)
        return fail("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0)
        return fail("getsockname");
    port_ = ntohs(addr.sin_port);

    running_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    workers_.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (acceptThread_.joinable()) {
        running_ = false;
        // Self-pipe wake-up: every poll (accept loop and per-connection
        // waits) has the read end in its set, so one byte wakes them all
        // — the byte is never drained, so POLLIN stays readable for every
        // poller. EINTR here just retries the write.
        const char byte = 0;
        while (::write(wakeFd_[1], &byte, 1) < 0 && errno == EINTR) {
        }
        acceptThread_.join();
        queueCv_.notify_all();
        for (std::thread& w : workers_)
            w.join();
        workers_.clear();
    }
    running_ = false;
    // Connections still queued when the workers exited get closed
    // unanswered; their clients see a reset, which is what a drained
    // server owes brand-new work.
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        for (const PendingConn& conn : pendingFds_)
            ::close(conn.fd);
        pendingFds_.clear();
    }
    closeQuietly(listenFd_);
    closeQuietly(wakeFd_[0]);
    closeQuietly(wakeFd_[1]);
    port_ = 0;
}

void
HttpServer::acceptLoop()
{
    while (running_) {
        pollfd fds[2];
        fds[0].fd = listenFd_;
        fds[0].events = POLLIN;
        fds[0].revents = 0;
        fds[1].fd = wakeFd_[0];
        fds[1].events = POLLIN;
        fds[1].revents = 0;
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds[1].revents != 0 || !running_)
            return; // stop() woke us
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        int client = -1;
        do {
            client = ::accept(listenFd_, nullptr, nullptr);
        } while (client < 0 && errno == EINTR);
        if (client < 0)
            continue;
        // Nagle + delayed ACK costs ~40 ms per request/response turn on
        // loopback; a request/response server always wants NODELAY.
        const int nodelay = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                     sizeof(nodelay));
        bool accepted = false;
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            if (pendingFds_.size() < config_.maxPendingConnections) {
                PendingConn conn;
                conn.fd = client;
                if (observing_)
                    conn.acceptNs = obs::SpanTracer::nowNs();
                pendingFds_.push_back(conn);
                accepted = true;
            }
        }
        if (accepted) {
            queueCv_.notify_one();
            continue;
        }
        // Bounded queue full: shed load here instead of queueing without
        // limit. The canned response is tiny, so this cannot block the
        // accept loop on a sane socket buffer.
        connectionsRejected_.fetch_add(1, std::memory_order_relaxed);
        const HttpResponse resp = errorFor(503, "server overloaded");
        sendResponse(client, nullptr, resp, /*keepAlive=*/false);
        ::close(client);
    }
}

void
HttpServer::workerLoop()
{
    for (;;) {
        PendingConn conn;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return !pendingFds_.empty() || !running_;
            });
            if (pendingFds_.empty())
                return; // stopping and drained
            conn = pendingFds_.front();
            pendingFds_.pop_front();
        }
        handleConnection(conn.fd, conn.acceptNs);
        ::close(conn.fd);
    }
}

int
HttpServer::waitReadable(int fd, int timeoutMs)
{
    pollfd fds[2];
    fds[0].fd = fd;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = wakeFd_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    for (;;) {
        const int ready = ::poll(fds, 2, timeoutMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (fds[1].revents != 0 || !running_)
            return -1; // stop() woke us
        if (ready == 0)
            return 0; // idle timeout
        if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
            return 1;
    }
}

void
HttpServer::handleConnection(int fd, std::uint64_t acceptNs)
{
    std::string buffer;
    while (running_) {
        if (!serveOne(fd, buffer, acceptNs))
            return;
        acceptNs = 0; // queue wait belongs to the first request only
    }
}

bool
HttpServer::serveOne(int fd, std::string& buffer, std::uint64_t acceptNs)
{
    // Stage clocks: t0 = first request byte available, t1 = head+body
    // read and parsed, t2 = routed, t3 = handler returned, t4 = response
    // sent. Contiguous by construction, so the stage durations sum to
    // the request's wall time. Every sample is gated on observing_ —
    // an unobserved server takes zero clock reads per request.
    std::uint64_t t0 = 0;
    if (observing_ && !buffer.empty())
        t0 = obs::SpanTracer::nowNs(); // pipelined request already here

    // ---- Read the request head (bounded, idle-timed) -------------------
    std::size_t head_end;
    while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
        if (buffer.size() > config_.maxRequestBytes) {
            sendResponse(fd, nullptr, errorFor(413, "request too large"),
                         false);
            return false;
        }
        const int readable = waitReadable(fd, config_.idleTimeoutMs);
        if (readable <= 0)
            return false; // idle timeout, stop, or error: just close
        char chunk[4096];
        ssize_t n;
        do {
            n = ::recv(fd, chunk, sizeof(chunk), 0);
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return false; // EOF or error
        if (observing_ && t0 == 0)
            t0 = obs::SpanTracer::nowNs();
        buffer.append(chunk, static_cast<std::size_t>(n));
    }

    ParsedHead head = parseHead(std::string_view(buffer).substr(0, head_end));
    if (head.errorStatus != 0) {
        requestsServed_.fetch_add(1, std::memory_order_relaxed);
        sendResponse(fd, nullptr,
                     errorFor(head.errorStatus, head.errorMessage), false);
        return false;
    }

    // ---- Read the body (Content-Length bytes past the head) ------------
    if (head.contentLength > config_.maxRequestBytes) {
        requestsServed_.fetch_add(1, std::memory_order_relaxed);
        sendResponse(fd, nullptr, errorFor(413, "request too large"),
                     false);
        return false;
    }
    const std::size_t body_start = head_end + 4;
    while (buffer.size() - body_start < head.contentLength) {
        const int readable = waitReadable(fd, config_.idleTimeoutMs);
        if (readable <= 0)
            return false;
        char chunk[4096];
        ssize_t n;
        do {
            n = ::recv(fd, chunk, sizeof(chunk), 0);
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return false;
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
    HttpRequest& req = head.request;
    req.body = buffer.substr(body_start, head.contentLength);
    // Keep pipelined bytes beyond this request for the next iteration.
    buffer.erase(0, body_start + head.contentLength);

    const std::uint64_t t1 = observing_ ? obs::SpanTracer::nowNs() : 0;

    // ---- Route ----------------------------------------------------------
    requestsServed_.fetch_add(1, std::memory_order_relaxed);
    const std::vector<std::string> segments = splitSegments(req.path);
    const Route* matched = nullptr;
    const Route* pathRoute = nullptr; ///< path matched, method did not
    for (const Route& route : routes_) {
        if (route.segments.size() != segments.size())
            continue;
        bool ok = true;
        for (std::size_t i = 0; ok && i < segments.size(); ++i) {
            if (route.segments[i] != "*" &&
                route.segments[i] != segments[i])
                ok = false;
        }
        if (!ok)
            continue;
        if (route.method == req.method) {
            matched = &route;
            break;
        }
        if (!pathRoute)
            pathRoute = &route;
    }

    const std::uint64_t t2 = observing_ ? obs::SpanTracer::nowNs() : 0;

    // Span setup: allocate ids before the handler so everything it does
    // (strand and engine calls) parents under this request's trace,
    // but emit no span lines until the response is on the wire — sink
    // serialization must not open gaps between the stage clocks.
    obs::SpanTracer* st =
        (config_.spans && config_.spans->enabled()) ? config_.spans
                                                    : nullptr;
    std::uint64_t traceId = 0;
    std::uint64_t rootId = 0;
    std::uint64_t handleId = 0;
    if (st) {
        traceId = st->newTraceId();
        rootId = st->newSpanId();
        handleId = st->newSpanId();
    }

    HttpResponse response;
    if (matched) {
        for (std::size_t i = 0; i < segments.size(); ++i) {
            if (matched->segments[i] == "*")
                req.params.push_back(segments[i]);
        }
        try {
            if (st) {
                // The handle span itself is emitted below with the t2/t3
                // stage clocks; here we only bind it as the thread-local
                // parent for the handler's strand and engine spans.
                obs::SpanBinding bind(
                    st, obs::SpanContext{traceId, handleId});
                response = matched->handler(req);
            } else {
                response = matched->handler(req);
            }
        } catch (const std::exception& e) {
            response = errorFor(500, e.what());
        } catch (...) {
            response = errorFor(500, "handler failed");
        }
    } else if (pathRoute) {
        response = errorFor(405, "method not allowed");
    } else {
        response = errorFor(404, "not found");
    }

    const std::uint64_t t3 = observing_ ? obs::SpanTracer::nowNs() : 0;

    const bool keep = config_.keepAlive && head.http11 &&
        !head.clientClose && !response.closeConnection && running_;
    const bool sent = sendResponse(fd, &req, response, keep);

    if (observing_) {
        const std::uint64_t t4 = obs::SpanTracer::nowNs();
        const Route* labeled = matched ? matched : pathRoute;
        if (st) {
            // All spans share the t0..t4 stage clocks, so the child
            // durations sum exactly to the root's wall time.
            if (acceptNs != 0 && acceptNs <= t0)
                st->span(traceId, st->newSpanId(), rootId,
                         "http.accept_wait", acceptNs, t0);
            st->span(traceId, st->newSpanId(), rootId, "http.read", t0,
                     t1);
            st->span(traceId, st->newSpanId(), rootId, "http.route", t1,
                     t2);
            st->span(traceId, handleId, rootId, "http.handle", t2, t3);
            st->span(traceId, st->newSpanId(), rootId, "http.write", t3,
                     t4);
            std::string detail = req.method;
            detail += ' ';
            detail += labeled ? labeled->pattern : req.path;
            detail += ' ';
            detail += std::to_string(response.status);
            st->span(traceId, rootId, 0, "http.request", t0, t4, detail);
        }
        if (config_.onRequest) {
            RequestSummary summary;
            summary.method = req.method;
            summary.route = labeled ? labeled->pattern : "unmatched";
            summary.status = response.status;
            summary.trace = traceId;
            summary.endNs = t4;
            summary.stages.readNs = t1 - t0;
            summary.stages.routeNs = t2 - t1;
            summary.stages.handleNs = t3 - t2;
            summary.stages.writeNs = t4 - t3;
            try {
                config_.onRequest(summary);
            } catch (...) {
                // Observation must never take the connection down.
            }
        }
    }

    if (!sent)
        return false;
    return keep;
}

HttpResponse
HttpServer::errorFor(int status, std::string_view message) const
{
    if (config_.errorResponse)
        return config_.errorResponse(status, message);
    std::string body;
    switch (status) {
      case 404: body = "not found\n"; break;
      case 405: body = "method not allowed\n"; break;
      default:
        body = std::string(message);
        if (body.empty())
            body = statusReason(status);
        body += '\n';
        break;
    }
    return HttpResponse::text(status, std::move(body));
}

bool
HttpServer::sendResponse(int fd, const HttpRequest*,
                         const HttpResponse& response, bool keepAlive)
{
    std::string head = "HTTP/1.1 ";
    head += std::to_string(response.status);
    head += ' ';
    head += statusReason(response.status);
    head += "\r\nContent-Type: ";
    head += response.contentType;
    head += "\r\nContent-Length: ";
    head += std::to_string(response.body.size());
    head += keepAlive ? "\r\nConnection: keep-alive\r\n\r\n"
                      : "\r\nConnection: close\r\n\r\n";
    // One write per response: a split head/body write would hand Nagle a
    // runt segment and stall the client behind a delayed ACK.
    head += response.body;
    return sendAll(fd, head);
}

} // namespace hcloud::srv
