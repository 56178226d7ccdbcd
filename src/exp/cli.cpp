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

/**
 * Effective output path of one recorder: the flag's @p path, else the
 * one its environment switch @p env names; empty when the recorder is
 * off or writes no file.
 */
std::string
recorderPath(bool requested, const std::string& path, const char* env)
{
    const obs::EnvSwitch sw = obs::envSwitch(env);
    if (!requested && !sw.enabled)
        return "";
    return path.empty() ? sw.path : path;
}

/**
 * Wire one recorder's CLI surface into @p cfg: the flag forces it on, an
 * output path becomes the per-run sink stem (so the file is complete
 * even when a run outgrows the ring), and "<env>_RING" overrides the
 * ring size. The environment is read here at the CLI edge only, so the
 * library stays env-independent.
 */
void
wireRecorder(obs::RecorderConfig& cfg, bool requested,
             const std::string& path, const char* env)
{
    if (requested)
        cfg.mode = obs::RecorderConfig::Mode::On;
    cfg.sinkStem = recorderPath(requested, path, env);
    const std::string ringEnv = std::string(env) + "_RING";
    if (const char* ring = std::getenv(ringEnv.c_str())) {
        std::uint64_t capacity = 0;
        if (parseU64(ring, capacity) && capacity > 0)
            cfg.ringCapacity = static_cast<std::size_t>(capacity);
    }
}

} // namespace

core::EngineConfig
BenchCli::engineConfig() const
{
    core::EngineConfig cfg;
    wireRecorder(cfg.trace, traceRequested, tracePath,
                 obs::TraceConfig::kEnv);
    wireRecorder(cfg.timeline, timelineRequested, timelinePath,
                 obs::TimelineConfig::kEnv);
    cfg.timeline.cadence = obs::envTimelineCadence(cfg.timeline.cadence);
    return cfg;
}

bool
BenchCli::wantsArtifacts() const
{
    return !jsonPath.empty() || traceRequested || timelineRequested ||
        obs::envSwitch(obs::TraceConfig::kEnv).enabled ||
        obs::envSwitch(obs::TimelineConfig::kEnv).enabled;
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
    // about to hand options.threads == 0 to a fan-out, whose
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
    const struct
    {
        const char* what;
        std::string path;
        bool (*write)(const std::string&, const Runner&, bool);
    } streams[] = {
        {"trace",
         recorderPath(cli.traceRequested, cli.tracePath,
                      obs::TraceConfig::kEnv),
         writeTraceJsonl},
        {"timeline",
         recorderPath(cli.timelineRequested, cli.timelinePath,
                      obs::TimelineConfig::kEnv),
         writeTimelineJsonl},
    };
    for (const auto& stream : streams) {
        if (stream.path.empty())
            continue;
        if (stream.write(stream.path, runner, /*removeParts=*/true)) {
            std::printf("wrote %s JSONL: %s\n", stream.what,
                        stream.path.c_str());
        } else {
            std::fprintf(stderr, "failed to write %s JSONL: %s\n",
                         stream.what, stream.path.c_str());
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

ScopedMetricsServer::ScopedMetricsServer(
    std::optional<std::uint16_t> port, obs::ProcessMetrics& metrics)
    : server_([] {
          // Scrapes are rare (seconds apart) and tiny: one worker is
          // plenty, and closing after every response keeps read-to-EOF
          // scrape clients working.
          srv::HttpServerConfig config;
          config.workers = 1;
          config.keepAlive = false;
          config.maxRequestBytes = 8u * 1024;
          config.idleTimeoutMs = 2000;
          return config;
      }())
{
    server_.route("GET", "/metrics", [&metrics](const srv::HttpRequest&) {
        return srv::metricsResponse(metrics);
    });
    server_.route("GET", "/healthz", [](const srv::HttpRequest&) {
        return srv::HttpResponse::text(200, "ok\n");
    });
    if (!port)
        return;
    // Scrapers poll this counter for progress; registering it up front
    // makes the very first scrape see it at 0 instead of a missing
    // series (publication only starts when the first run finishes).
    metrics.counter("hcloud_run_completed_total", kRunCompletedHelp);
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

} // namespace hcloud::exp
