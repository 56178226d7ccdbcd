/**
 * @file
 * Live metrics stack: ProcessMetrics registry semantics (labels, kinds,
 * sanitization, concurrent publishing), the Prometheus text renderer's
 * escaping and histogram encoding, and the bench metrics endpoint
 * (exp::ScopedMetricsServer) end to end over a real loopback socket
 * (routes, bounded reads, clean shutdown).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "exp/cli.hpp"
#include "obs/process_metrics.hpp"
#include "obs/prom_text.hpp"

namespace hcloud {
namespace {

// ---------------------------------------------------------------------------
// Registry

TEST(ProcessMetrics, CountersAndGaugesAreStableAcrossLookups)
{
    obs::ProcessMetrics pm;
    obs::ProcessCounter& c = pm.counter("requests_total", "help");
    c.inc();
    c.inc(2.5);
    EXPECT_EQ(&pm.counter("requests_total"), &c);
    EXPECT_DOUBLE_EQ(c.value(), 3.5);

    obs::ProcessGauge& g = pm.gauge("depth");
    g.set(4.0);
    g.add(-1.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    EXPECT_EQ(&pm.gauge("depth"), &g);
}

TEST(ProcessMetrics, LabelSetsSeparateSeriesAndOrderDoesNotMatter)
{
    obs::ProcessMetrics pm;
    obs::ProcessCounter& ab =
        pm.counter("rpc_total", "", {{"a", "1"}, {"b", "2"}});
    obs::ProcessCounter& ba =
        pm.counter("rpc_total", "", {{"b", "2"}, {"a", "1"}});
    EXPECT_EQ(&ab, &ba) << "label order must not split a series";
    obs::ProcessCounter& other =
        pm.counter("rpc_total", "", {{"a", "1"}, {"b", "3"}});
    EXPECT_NE(&ab, &other);
    EXPECT_EQ(pm.seriesCount(), 2u);
}

TEST(ProcessMetrics, NamesAreSanitizedOnLookup)
{
    obs::ProcessMetrics pm;
    // Dotted and illegal-charactered names collapse deterministically to
    // the same sanitized series.
    obs::ProcessCounter& dotted = pm.counter("queue.wait-sec");
    EXPECT_EQ(&pm.counter("queue_wait_sec"), &dotted);
    // Empty and digit-leading names become legal.
    pm.gauge("9lives").set(1.0);
    pm.gauge("").set(2.0);
    // Label names may not hold a colon, though metric names may.
    pm.gauge("labeled", "", {{"a:b", "v"}}).set(3.0);

    const auto families = pm.snapshot();
    ASSERT_EQ(families.size(), 4u);
    EXPECT_EQ(families[0].name, "_");
    EXPECT_EQ(families[1].name, "_9lives");
    EXPECT_EQ(families[2].name, "labeled");
    EXPECT_EQ(families[3].name, "queue_wait_sec");
    ASSERT_EQ(families[2].series.size(), 1u);
    const obs::MetricLabels expected = {{"a_b", "v"}};
    EXPECT_EQ(families[2].series[0].labels, expected);
    for (const auto& f : families)
        EXPECT_TRUE(obs::isValidMetricName(f.name)) << f.name;
}

TEST(ProcessMetrics, KindConflictRenamesDeterministically)
{
    obs::ProcessMetrics pm;
    pm.counter("x").inc();
    // Same name, different kind: renamed instead of corrupting the page
    // with two TYPE lines for one family.
    pm.gauge("x").set(7.0);
    const std::string page = obs::renderPromText(pm);
    EXPECT_NE(page.find("# TYPE x counter"), std::string::npos) << page;
    EXPECT_NE(page.find("# TYPE x_gauge gauge"), std::string::npos)
        << page;
}

TEST(ProcessMetrics, HistogramShardsMergeToExactTotals)
{
    obs::ProcessMetrics pm;
    obs::ProcessHistogram& h =
        pm.histogram("lat_seconds", "", {}, {0.1, 1.0, 10.0});
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h] {
            for (int i = 0; i < kPerThread; ++i)
                h.observe(0.5);
        });
    }
    for (std::thread& t : threads)
        t.join();
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) *
                              kPerThread);
    EXPECT_DOUBLE_EQ(snap.sum, 0.5 * kThreads * kPerThread);
    ASSERT_EQ(snap.bucketCounts.size(), 4u); // 3 bounds + overflow
    EXPECT_EQ(snap.bucketCounts[1], snap.count); // all land in le=1.0
}

TEST(ProcessMetrics, ConcurrentCounterIncrementsAreLossless)
{
    obs::ProcessMetrics pm;
    obs::ProcessCounter& c = pm.counter("n_total");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (std::thread& t : threads)
        t.join();
    EXPECT_DOUBLE_EQ(c.value(),
                     static_cast<double>(kThreads) * kPerThread);
}

// ProcessMetrics is the one metrics registry: it keeps references stable
// and snapshots every kind in sanitized-name order.
TEST(ObsMetricsRegistry, StableRefsAndSortedSnapshot)
{
    obs::ProcessMetrics registry;
    obs::ProcessCounter& c = registry.counter("b.count");
    c.inc();
    c.inc(3);
    EXPECT_EQ(&registry.counter("b.count"), &c);
    registry.gauge("a.gauge").set(0.5);
    obs::ProcessHistogram& h =
        registry.histogram("c.hist", "", {}, {1.0, 2.0, 4.0});
    EXPECT_EQ(&registry.histogram("c.hist"), &h);
    for (double v : {1.0, 2.0, 3.0, 4.0})
        h.observe(v);

    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.size(), 3u);
    for (const auto& family : snapshot)
        ASSERT_EQ(family.series.size(), 1u) << family.name;
    EXPECT_EQ(snapshot[0].name, "a_gauge");
    EXPECT_EQ(snapshot[0].kind, obs::MetricKind::Gauge);
    EXPECT_EQ(snapshot[0].series[0].value, 0.5);
    EXPECT_EQ(snapshot[1].name, "b_count");
    EXPECT_EQ(snapshot[1].kind, obs::MetricKind::Counter);
    EXPECT_EQ(snapshot[1].series[0].value, 4.0);
    EXPECT_EQ(snapshot[2].name, "c_hist");
    EXPECT_EQ(snapshot[2].kind, obs::MetricKind::Histogram);
    EXPECT_STREQ(obs::toString(snapshot[2].kind), "histogram");
    const obs::HistogramSnapshot& hist = snapshot[2].series[0].histogram;
    EXPECT_EQ(hist.count, 4u);
    EXPECT_EQ(hist.sum, 10.0);
    const std::vector<std::uint64_t> buckets = {1, 1, 2, 0};
    EXPECT_EQ(hist.bucketCounts, buckets);
}

// The sanitizers map every input, however malformed, to a legal name
// rather than dropping it.
TEST(ObsMetricsRegistry, SanitizesNamesAndRejectsNothingSilently)
{
    EXPECT_EQ(obs::sanitizeMetricName("queue.wait-sec"), "queue_wait_sec");
    EXPECT_EQ(obs::sanitizeMetricName(""), "_");
    EXPECT_EQ(obs::sanitizeMetricName("9lives"), "_9lives");
    // Valid names pass through; colons are legal only in metric names.
    EXPECT_EQ(obs::sanitizeMetricName("ns:a_b"), "ns:a_b");
    EXPECT_EQ(obs::sanitizeLabelName("a:b"), "a_b");
    EXPECT_EQ(obs::sanitizeLabelName("9lives"), "_9lives");

    for (const char* raw :
         {"", "9lives", "queue.wait-sec", "a b", "\xc3\xa9"}) {
        EXPECT_FALSE(obs::isValidMetricName(raw)) << raw;
        EXPECT_TRUE(obs::isValidMetricName(obs::sanitizeMetricName(raw)))
            << raw;
        EXPECT_TRUE(obs::isValidMetricName(obs::sanitizeLabelName(raw)))
            << raw;
    }
}

// ---------------------------------------------------------------------------
// Text exposition

TEST(PromText, EscapesLabelValues)
{
    EXPECT_EQ(obs::promEscapeLabelValue("plain"), "plain");
    EXPECT_EQ(obs::promEscapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::promEscapeLabelValue("say \"hi\""),
              "say \\\"hi\\\"");
    EXPECT_EQ(obs::promEscapeLabelValue("two\nlines"), "two\\nlines");
    // All three at once, in order.
    EXPECT_EQ(obs::promEscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PromText, EscapesHelpText)
{
    EXPECT_EQ(obs::promEscapeHelp("plain help"), "plain help");
    EXPECT_EQ(obs::promEscapeHelp("a\\b\nc"), "a\\\\b\\nc");
    // Quotes are legal in HELP and must pass through untouched.
    EXPECT_EQ(obs::promEscapeHelp("say \"hi\""), "say \"hi\"");
}

TEST(PromText, NonFiniteValuesUseExpositionLiterals)
{
    EXPECT_EQ(obs::promFormatValue(std::nan("")), "NaN");
    EXPECT_EQ(obs::promFormatValue(
                  std::numeric_limits<double>::infinity()),
              "+Inf");
    EXPECT_EQ(obs::promFormatValue(
                  -std::numeric_limits<double>::infinity()),
              "-Inf");
    EXPECT_EQ(obs::promFormatValue(2.5), "2.5");
}

TEST(PromText, RendersEscapedSeriesAndNonFiniteGauges)
{
    obs::ProcessMetrics pm;
    pm.gauge("weird", "line1\nline2",
             {{"path", "C:\\tmp"}, {"quote", "a\"b"}, {"nl", "x\ny"}})
        .set(std::nan(""));
    pm.gauge("inf_gauge").set(std::numeric_limits<double>::infinity());
    pm.gauge("ninf_gauge").set(
        -std::numeric_limits<double>::infinity());
    const std::string page = obs::renderPromText(pm);
    EXPECT_NE(page.find("# HELP weird line1\\nline2"), std::string::npos)
        << page;
    EXPECT_NE(page.find("weird{nl=\"x\\ny\",path=\"C:\\\\tmp\","
                        "quote=\"a\\\"b\"} NaN"),
              std::string::npos)
        << page;
    EXPECT_NE(page.find("inf_gauge +Inf\n"), std::string::npos) << page;
    EXPECT_NE(page.find("ninf_gauge -Inf\n"), std::string::npos) << page;
    // Every line is a comment or a `name{...} value` sample line.
    EXPECT_EQ(page.back(), '\n');
}

TEST(PromText, EmptyRegistryRendersEmptyValidPage)
{
    obs::ProcessMetrics pm;
    EXPECT_EQ(obs::renderPromText(pm), "");
}

TEST(PromText, HistogramRendersCumulativeBuckets)
{
    obs::ProcessMetrics pm;
    obs::ProcessHistogram& h =
        pm.histogram("lat_seconds", "latency", {}, {0.1, 1.0});
    h.observe(0.05); // le=0.1
    h.observe(0.5);  // le=1.0
    h.observe(5.0);  // overflow
    const std::string page = obs::renderPromText(pm);
    EXPECT_NE(page.find("# TYPE lat_seconds histogram"),
              std::string::npos)
        << page;
    EXPECT_NE(page.find("lat_seconds_bucket{le=\"0.1\"} 1\n"),
              std::string::npos)
        << page;
    EXPECT_NE(page.find("lat_seconds_bucket{le=\"1\"} 2\n"),
              std::string::npos)
        << page;
    EXPECT_NE(page.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos)
        << page;
    EXPECT_NE(page.find("lat_seconds_count 3\n"), std::string::npos)
        << page;
    EXPECT_NE(page.find("lat_seconds_sum 5.55\n"), std::string::npos)
        << page;
}

// ---------------------------------------------------------------------------
// HTTP endpoint

/** Blocking one-shot HTTP client against 127.0.0.1:@p port. */
std::string
httpRequest(std::uint16_t port, const std::string& request)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const char* data = request.data();
    std::size_t remaining = request.size();
    while (remaining > 0) {
        const ssize_t n = ::send(fd, data, remaining, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ADD_FAILURE() << "send failed: " << errno;
            break;
        }
        data += n;
        remaining -= static_cast<std::size_t>(n);
    }
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
}

/** Scrapes @p pm's endpoint has served so far. */
double
scrapeCount(obs::ProcessMetrics& pm)
{
    return pm.counter("hcloud_exposition_scrapes_total").value();
}

TEST(MetricsHttp, ServesMetricsAndHealthOnEphemeralPort)
{
    obs::ProcessMetrics pm;
    pm.counter("scraped_total", "a counter").inc(3.0);
    exp::ScopedMetricsServer scoped(0, pm);
    ASSERT_FALSE(scoped.failed());
    srv::HttpServer& server = scoped.server();
    ASSERT_TRUE(server.running());
    ASSERT_NE(server.boundPort(), 0);
    EXPECT_EQ(scoped.port(), server.boundPort());

    const std::string metrics = httpRequest(
        server.boundPort(), "GET /metrics HTTP/1.1\r\n"
                            "Host: localhost\r\nConnection: close\r\n"
                            "\r\n");
    EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find(
                  "text/plain; version=0.0.4; charset=utf-8"),
              std::string::npos);
    EXPECT_NE(metrics.find("scraped_total 3\n"), std::string::npos)
        << metrics;
    // The scrape itself is counted, into this server's registry.
    EXPECT_EQ(scrapeCount(pm), 1.0);
    EXPECT_NE(obs::renderPromText(pm).find(
                  "hcloud_exposition_scrapes_total 1"),
              std::string::npos);

    const std::string health = httpRequest(
        server.boundPort(), "GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok\n"), std::string::npos);

    server.stop();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.boundPort(), 0);
}

TEST(MetricsHttp, QueryStringsRouteLikeBarePaths)
{
    obs::ProcessMetrics pm;
    exp::ScopedMetricsServer server(0, pm);
    ASSERT_FALSE(server.failed());
    const std::string response = httpRequest(
        server.port(), "GET /metrics?format=text HTTP/1.1\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
}

TEST(MetricsHttp, UnknownPathsAndMethodsAreRejected)
{
    obs::ProcessMetrics pm;
    exp::ScopedMetricsServer server(0, pm);
    ASSERT_FALSE(server.failed());
    const std::string missing = httpRequest(
        server.port(), "GET /nope HTTP/1.1\r\n\r\n");
    EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
    const std::string post = httpRequest(
        server.port(), "POST /metrics HTTP/1.1\r\n"
                       "Content-Length: 0\r\n\r\n");
    EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);
    EXPECT_EQ(scrapeCount(pm), 0.0);
}

TEST(MetricsHttp, SurvivesMalformedRequests)
{
    obs::ProcessMetrics pm;
    exp::ScopedMetricsServer server(0, pm);
    ASSERT_FALSE(server.failed());
    httpRequest(server.port(), "garbage\r\n\r\n");
    httpRequest(server.port(), "\r\n\r\n");
    // The loop must still serve after junk connections.
    const std::string ok = httpRequest(
        server.port(), "GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_NE(ok.find("200 OK"), std::string::npos);
}

TEST(MetricsHttp, StartStopCyclesAreCleanAndIdempotent)
{
    obs::ProcessMetrics pm;
    exp::ScopedMetricsServer scoped(0, pm);
    ASSERT_FALSE(scoped.failed());
    srv::HttpServer& server = scoped.server();
    const std::uint16_t first = server.boundPort();
    server.stop();
    server.stop(); // idempotent
    ASSERT_TRUE(server.start(0));
    EXPECT_NE(server.boundPort(), 0);
    const std::string ok = httpRequest(
        server.boundPort(), "GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_NE(ok.find("200 OK"), std::string::npos);
    server.stop();
    (void)first;
}

TEST(MetricsHttp, ScrapesObserveConcurrentPublishing)
{
    obs::ProcessMetrics pm;
    obs::ProcessCounter& c = pm.counter("work_total");
    exp::ScopedMetricsServer server(0, pm);
    ASSERT_FALSE(server.failed());
    std::thread publisher([&c] {
        for (int i = 0; i < 5000; ++i)
            c.inc();
    });
    // Scrape while the publisher is running: must parse and must never
    // crash or tear (TSan validates the absence of data races).
    for (int i = 0; i < 3; ++i) {
        const std::string page = httpRequest(
            server.port(), "GET /metrics HTTP/1.1\r\n\r\n");
        EXPECT_NE(page.find("work_total"), std::string::npos);
    }
    publisher.join();
    const std::string page = httpRequest(
        server.port(), "GET /metrics HTTP/1.1\r\n\r\n");
    EXPECT_NE(page.find("work_total 5000\n"), std::string::npos) << page;
}

} // namespace
} // namespace hcloud
