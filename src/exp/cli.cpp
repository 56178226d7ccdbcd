#include "exp/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exp/report_json.hpp"
#include "obs/process_metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "runtime/thread_pool.hpp"

namespace hcloud::exp {

namespace {

void
printUsage(const char* prog, bool allowSweep)
{
    std::fprintf(stderr,
                 "usage: %s [loadScale] [seed] [threads] "
                 "[--json <path>] [--trace <path>] "
                 "[--timeline <path>] [--metrics-port <port>]%s\n",
                 prog,
                 allowSweep ? " [--seeds <n>] [--ci]" : "");
}

/**
 * Parse @p arg as a finite, strictly-positive double consuming the whole
 * token. Returns false (leaving @p out untouched) on any malformed or
 * out-of-range input — the callers treat that as a CLI error instead of
 * the old atof() behaviour of silently running with 0.0.
 */
bool
parsePositiveDouble(const char* arg, double& out)
{
    if (arg == nullptr || *arg == '\0')
        return false;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(arg, &end);
    if (end == arg || *end != '\0' || errno == ERANGE)
        return false;
    if (!std::isfinite(value) || value <= 0.0)
        return false;
    out = value;
    return true;
}

/**
 * Parse @p arg as a base-10 u64 consuming the whole token. Rejects empty
 * tokens, signs (strtoull silently wraps "-1" to 2^64-1), trailing junk,
 * and out-of-range values.
 */
bool
parseU64(const char* arg, std::uint64_t& out)
{
    if (arg == nullptr || *arg == '\0' || *arg == '-' || *arg == '+')
        return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(arg, &end, 10);
    if (end == arg || *end != '\0' || errno == ERANGE)
        return false;
    out = static_cast<std::uint64_t>(value);
    return true;
}

} // namespace

core::EngineConfig
BenchCli::engineConfig() const
{
    core::EngineConfig cfg;
    if (traceRequested)
        cfg.trace.mode = obs::TraceConfig::Mode::On;
    // When tracing will produce a file, stream each run through a TraceSink
    // part file derived from this stem so the on-disk trace is complete
    // even when a run records more events than the ring holds.
    const bool tracing = traceRequested || obs::envTraceEnabled();
    const std::string trace_path = effectiveTracePath();
    if (tracing && !trace_path.empty())
        cfg.trace.sinkStem = trace_path;
    // CI knob: shrink (or grow) the ring without recompiling. Consumed
    // here at the CLI edge only, so the library stays env-independent.
    if (const char* ring = std::getenv("HCLOUD_TRACE_RING")) {
        std::uint64_t capacity = 0;
        if (parseU64(ring, capacity) && capacity > 0)
            cfg.trace.ringCapacity = static_cast<std::size_t>(capacity);
    }
    // Timeline sampling mirrors the trace wiring: the flag forces it on,
    // a named path becomes the per-run sink stem, and the cadence/ring
    // env knobs are consumed here at the CLI edge only.
    if (timelineRequested)
        cfg.timeline.mode = obs::TimelineConfig::Mode::On;
    const bool sampling = timelineRequested || obs::envTimelineEnabled();
    const std::string timeline_path = effectiveTimelinePath();
    if (sampling && !timeline_path.empty())
        cfg.timeline.sinkStem = timeline_path;
    cfg.timeline.cadence = obs::envTimelineCadence(cfg.timeline.cadence);
    if (const char* ring = std::getenv("HCLOUD_TIMELINE_RING")) {
        std::uint64_t capacity = 0;
        if (parseU64(ring, capacity) && capacity > 0)
            cfg.timeline.ringCapacity = static_cast<std::size_t>(capacity);
    }
    return cfg;
}

bool
BenchCli::wantsArtifacts() const
{
    return !jsonPath.empty() || traceRequested || obs::envTraceEnabled() ||
        timelineRequested || obs::envTimelineEnabled();
}

std::string
BenchCli::effectiveTracePath() const
{
    if (!tracePath.empty())
        return tracePath;
    return obs::envTracePath();
}

std::string
BenchCli::effectiveTimelinePath() const
{
    if (!timelinePath.empty())
        return timelinePath;
    return obs::envTimelinePath();
}

std::optional<std::uint16_t>
BenchCli::effectiveMetricsPort() const
{
    if (metricsRequested)
        return metricsPort;
    if (const char* env = std::getenv("HCLOUD_METRICS_PORT")) {
        std::uint64_t port = 0;
        if (parseU64(env, port) && port <= 65535)
            return static_cast<std::uint16_t>(port);
    }
    return std::nullopt;
}

BenchCli
parseBenchCli(int argc, char** argv, bool allowSweep)
{
    BenchCli cli;
    // Every rejection records its reason and prints it with the usage.
    const auto fail = [&](const std::string& message) {
        cli.errorMessage = message;
        std::fprintf(stderr, "%s: %s\n", argv[0], message.c_str());
        printUsage(argv[0], allowSweep);
        cli.parseError = true;
        return cli;
    };
    const auto malformed = [&](const char* what, const char* value) {
        return fail(std::string(what) + ": '" + value + "'");
    };
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (allowSweep && std::strcmp(arg, "--ci") == 0) {
            cli.ciRequested = true;
            continue;
        }
        if (allowSweep && std::strcmp(arg, "--seeds") == 0) {
            if (i + 1 >= argc)
                return fail("--seeds requires a count");
            std::uint64_t seeds = 0;
            if (!parseU64(argv[i + 1], seeds) || seeds == 0)
                return malformed("--seeds must be a positive integer",
                                 argv[i + 1]);
            cli.seeds = static_cast<std::size_t>(seeds);
            ++i;
            continue;
        }
        if (std::strcmp(arg, "--json") == 0 ||
            std::strcmp(arg, "--trace") == 0 ||
            std::strcmp(arg, "--timeline") == 0) {
            if (i + 1 >= argc)
                return fail(std::string(arg) + " requires a path");
            if (arg[2] == 'j') {
                cli.jsonPath = argv[++i];
            } else if (std::strcmp(arg, "--trace") == 0) {
                cli.tracePath = argv[++i];
                cli.traceRequested = true;
            } else {
                cli.timelinePath = argv[++i];
                cli.timelineRequested = true;
            }
            continue;
        }
        if (std::strcmp(arg, "--metrics-port") == 0) {
            if (i + 1 >= argc)
                return fail("--metrics-port requires a port");
            std::uint64_t port = 0;
            if (!parseU64(argv[i + 1], port) || port > 65535)
                return malformed("--metrics-port must be 0..65535",
                                 argv[i + 1]);
            cli.metricsPort = static_cast<std::uint16_t>(port);
            cli.metricsRequested = true;
            ++i;
            continue;
        }
        if (arg[0] == '-' && arg[1] == '-')
            return fail(std::string("unknown flag ") + arg);
        std::uint64_t value = 0;
        switch (positional++) {
        case 0:
            if (!parsePositiveDouble(arg, cli.options.loadScale))
                return malformed("loadScale must be a finite number > 0",
                                 arg);
            break;
        case 1:
            if (!parseU64(arg, value))
                return malformed("seed must be an unsigned 64-bit integer",
                                 arg);
            cli.options.seed = value;
            break;
        case 2:
            if (!parseU64(arg, value))
                return malformed("threads must be an unsigned integer", arg);
            cli.options.threads = static_cast<std::size_t>(value);
            break;
        default:
            return fail("too many arguments");
        }
    }
    // Validate the HCLOUD_THREADS knob here at the edge: the bench is
    // about to hand options.threads == 0 to a ThreadPool, whose
    // defaultThreadCount() throws on a malformed value. Rejecting it as
    // a CLI error keeps the failure structured and before any work.
    if (cli.options.threads == 0) {
        if (const char* env = std::getenv("HCLOUD_THREADS")) {
            runtime::ThreadCountError error;
            if (!runtime::parseThreadCount(env, &error))
                return fail("HCLOUD_THREADS=\"" + error.value +
                            "\": " + error.reason);
        }
    }
    return cli;
}

bool
writeBenchArtifacts(const BenchCli& cli, const std::string& title,
                    const Runner& runner,
                    const std::vector<SweepResult>& sweeps)
{
    bool ok = true;
    if (!cli.jsonPath.empty()) {
        if (writeJsonReport(cli.jsonPath, title, runner, sweeps)) {
            std::printf("wrote JSON report: %s\n", cli.jsonPath.c_str());
        } else {
            std::fprintf(stderr, "failed to write JSON report: %s\n",
                         cli.jsonPath.c_str());
            ok = false;
        }
    }
    const std::string trace_path = cli.effectiveTracePath();
    const bool tracing = cli.traceRequested || obs::envTraceEnabled();
    if (tracing && !trace_path.empty()) {
        if (writeTraceJsonl(trace_path, runner, /*removeParts=*/true)) {
            std::printf("wrote trace JSONL: %s\n", trace_path.c_str());
        } else {
            std::fprintf(stderr, "failed to write trace JSONL: %s\n",
                         trace_path.c_str());
            ok = false;
        }
    }
    const std::string timeline_path = cli.effectiveTimelinePath();
    const bool sampling =
        cli.timelineRequested || obs::envTimelineEnabled();
    if (sampling && !timeline_path.empty()) {
        if (writeTimelineJsonl(timeline_path, runner,
                               /*removeParts=*/true)) {
            std::printf("wrote timeline JSONL: %s\n",
                        timeline_path.c_str());
        } else {
            std::fprintf(stderr, "failed to write timeline JSONL: %s\n",
                         timeline_path.c_str());
            ok = false;
        }
    }
    return ok;
}

int
benchMain(int argc, char** argv, const std::string& title,
          const std::function<void(Runner&)>& figure, SweepGridFn sweepGrid)
{
    const BenchCli cli =
        parseBenchCli(argc, argv, /*allowSweep=*/sweepGrid != nullptr);
    if (cli.parseError)
        return 2;
    ScopedMetricsServer metrics(cli);
    if (metrics.failed())
        return 1;
    Runner runner(cli.options, cli.engineConfig());
    std::vector<SweepResult> sweeps;
    if (cli.sweepRequested()) {
        SweepOptions options;
        options.title = title;
        options.seeds = cli.effectiveSeeds();
        options.baseSeed = cli.options.seed;
        options.loadScale = cli.options.loadScale;
        options.threads = cli.options.threads;
        sweeps.push_back(runSweep(sweepGrid(cli.engineConfig()), options));
        printSweepTable(sweeps.back());
    } else {
        runner.setRecordAdhoc(cli.wantsArtifacts());
        figure(runner);
    }
    return writeBenchArtifacts(cli, title, runner, sweeps) ? 0 : 1;
}

ScopedMetricsServer::ScopedMetricsServer(const BenchCli& cli)
{
    const std::optional<std::uint16_t> port = cli.effectiveMetricsPort();
    if (!port)
        return;
    // Scrapers poll this counter for progress; registering it up front
    // makes the very first scrape see it at 0 instead of a missing
    // series (publication only starts when the first run finishes).
    obs::ProcessMetrics::instance().counter("hcloud_run_completed_total",
                                            kRunCompletedHelp);
    std::string error;
    if (!server_.start(*port, &error)) {
        std::fprintf(stderr, "metrics server failed to start: %s\n",
                     error.c_str());
        failed_ = true;
        return;
    }
    std::printf("metrics: serving http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(server_.boundPort()));
    // The port line is how scripts discover an ephemeral port; flush past
    // stdio's block buffering so a pipe reader sees it before the sweep.
    std::fflush(stdout);
}

ScopedMetricsServer::~ScopedMetricsServer()
{
    server_.stop();
}

} // namespace hcloud::exp
