/**
 * @file
 * Shared command-line handling for the figure benches.
 *
 * Every bench accepts the same positional arguments plus the artifact
 * flags, so the drivers stay one-screen mains:
 *
 *   bench_figNN [loadScale] [seed] [threads] [--json <path>]
 *               [--trace <path>] [--timeline <path>]
 *               [--metrics-port <port>]
 *
 *  - `--json <path>` writes a machine-readable JSON report of every run
 *    the bench executed (exp::writeJsonReport);
 *  - `--trace <path>` forces tracing on (EngineConfig trace mode On,
 *    overriding HCLOUD_TRACE) and writes the per-run event streams as
 *    JSONL to the path. Tracing to a path streams through per-run
 *    TraceSink files ("<path>.<tag>.part", merged into <path> and
 *    removed at exit), so traces are complete regardless of
 *    ringCapacity;
 *  - with no `--trace` flag, tracing follows the HCLOUD_TRACE environment
 *    knob: unset/0/off disables it, 1/on enables it, and any other value
 *    enables it AND names the default JSONL output path;
 *  - HCLOUD_TRACE_RING overrides the tracer ring size in events (used by
 *    CI to force ring wraps far below the default 64Ki and prove sink
 *    completeness);
 *  - `--timeline <path>` forces cluster-state timeline sampling on
 *    (EngineConfig timeline mode On, overriding HCLOUD_TIMELINE) and
 *    writes the per-run sample streams as JSONL through the same
 *    "<path>.<tag>.part" sink machinery; without the flag, sampling
 *    follows HCLOUD_TIMELINE (same token semantics as HCLOUD_TRACE).
 *    HCLOUD_TIMELINE_CADENCE overrides the sampling period (virtual
 *    seconds) and HCLOUD_TIMELINE_RING the ring size in samples;
 *  - `--metrics-port <port>` serves the process metrics registry as
 *    Prometheus text on 127.0.0.1:<port> for the lifetime of the bench
 *    (port 0 binds an ephemeral port; the bound port is printed). The
 *    HCLOUD_METRICS_PORT environment variable supplies a default when
 *    the flag is absent. Off by default; serving never affects results;
 *  - sweep-capable benches (fig12/fig15/fig16) additionally accept
 *    `--seeds <n>` and `--ci`: either switches the bench from its
 *    single-seed figure to an exp::SweepScheduler multi-seed sweep
 *    reporting mean +/- 95% CI per cell (--ci alone defaults to 5
 *    seeds). The positional seed becomes the sweep's base seed.
 *
 * Positional values are validated strictly (full-token numeric parses
 * with range checks); a bad value sets BenchCli::parseError and
 * errorMessage instead of silently running with a zeroed option.
 */

#ifndef HCLOUD_EXP_CLI_HPP
#define HCLOUD_EXP_CLI_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "obs/process_metrics.hpp"
#include "srv/http_server.hpp"

namespace hcloud::exp {

/** Parsed bench command line. */
struct BenchCli
{
    ExperimentOptions options;
    /** JSON report output path (empty = no report). */
    std::string jsonPath;
    /** Trace JSONL output path (empty = HCLOUD_TRACE default, if any). */
    std::string tracePath;
    /** True when --trace was given (forces tracing on). */
    bool traceRequested = false;
    /** Timeline JSONL output path (empty = HCLOUD_TIMELINE default). */
    std::string timelinePath;
    /** True when --timeline was given (forces timeline sampling on). */
    bool timelineRequested = false;
    /** Seeds per cell from --seeds (0 = flag not given). */
    std::size_t seeds = 0;
    /** True when --ci was given (requests a multi-seed CI sweep even
     *  without an explicit --seeds). */
    bool ciRequested = false;
    /** True when --metrics-port was given. */
    bool metricsRequested = false;
    /** Port from --metrics-port (0 = bind an ephemeral port). Only
     *  meaningful when metricsRequested is set. */
    std::uint16_t metricsPort = 0;
    /** True when an unknown flag, missing value, or malformed positional
     *  was encountered. */
    bool parseError = false;
    /** Human-readable cause when parseError is set ("" otherwise). It is
     *  also printed to stderr by parseBenchCli. */
    std::string errorMessage;

    /** Engine config with the trace mode implied by the flags, the sink
     *  stem implied by the effective trace path, and the ring override
     *  from HCLOUD_TRACE_RING. */
    core::EngineConfig engineConfig() const;

    /** True when any artifact will be written — benches use this to turn
     *  on ad-hoc result recording (Runner::setRecordAdhoc) so uncached
     *  sweep runs show up in the report too. */
    bool wantsArtifacts() const;

    /**
     * Port to serve live metrics on, if any: the --metrics-port value
     * when the flag was given, else HCLOUD_METRICS_PORT when it parses
     * as a port (malformed values are ignored, mirroring the
     * HCLOUD_TRACE_RING convention). nullopt = do not serve.
     */
    std::optional<std::uint16_t> effectiveMetricsPort() const;

    /** True when the bench should run a multi-seed CI sweep
     *  (--seeds and/or --ci was given). */
    bool sweepRequested() const { return seeds > 0 || ciRequested; }

    /** Seeds per cell for a sweep: --seeds value, or 5 under a bare
     *  --ci. */
    std::size_t effectiveSeeds() const { return seeds > 0 ? seeds : 5; }
};

/**
 * Parse `[loadScale] [seed] [threads] [--json p] [--trace p]`.
 * On a malformed flag, prints usage to stderr and sets parseError.
 *
 * @param allowSweep accept `--seeds <n>` / `--ci` (the sweep-capable
 * figure benches); other benches keep rejecting them as unknown flags.
 *
 * The HCLOUD_THREADS environment knob is validated here, at the CLI
 * edge: a malformed value (which runtime::defaultThreadCount() would
 * reject by throwing mid-run) becomes a parseError with the structured
 * reason up front.
 */
BenchCli parseBenchCli(int argc, char** argv, bool allowSweep = false);

/**
 * Write the artifacts requested by @p cli from @p runner's memoized
 * matrix: the JSON report (--json, with @p sweeps serialized into the
 * schema-v4 `sweeps` array) and the trace JSONL (--trace or the
 * HCLOUD_TRACE named path). Prints one line per file written.
 * @return false when any requested artifact failed to write.
 */
bool writeBenchArtifacts(const BenchCli& cli, const std::string& title,
                         const Runner& runner,
                         const std::vector<SweepResult>& sweeps = {});

/** Builds a bench's multi-seed sweep grid from the CLI's engine config. */
using SweepGridFn = std::vector<SweepCell> (*)(const core::EngineConfig&);

/**
 * The whole main() of a figure bench: parse the command line (exit 2 on
 * a malformed one), serve live metrics when asked (exit 1 when the
 * server cannot start), run @p figure on a Runner built from the CLI,
 * and write the requested artifacts under @p title (exit 1 when one
 * fails to write).
 *
 * A bench that passes @p sweepGrid also accepts `--seeds <n>` / `--ci`:
 * they replace the figure with a multi-seed runSweep over the grid,
 * printed as a mean +/- 95% CI table and reported in `sweeps[]`.
 */
int benchMain(int argc, char** argv, const std::string& title,
              const std::function<void(Runner&)>& figure,
              SweepGridFn sweepGrid = nullptr);

/**
 * RAII metrics endpoint a bench main drops on its stack: when given a
 * port, serves the registry on 127.0.0.1:<port> (0 binds an ephemeral
 * port) and prints the scrape URL; the server stops on destruction.
 * With no port this is a no-op, so benches need no conditional.
 *
 * Routes: `GET /metrics` (srv::metricsResponse) and `GET /healthz`
 * (`ok`); unknown paths are 404 and wrong methods 405. One worker, no
 * keep-alive (read-to-EOF scrapers rely on the close), requests bounded
 * at 8 KiB with a 2 s idle timeout. The server only snapshots the
 * thread-safe registry, so scraping mid-sweep cannot perturb results.
 *
 * Startup pre-registers `hcloud_run_completed_total` so scrapers polling
 * for progress see the counter at 0 before the first run lands instead
 * of a missing series. A bind failure is reported on stderr and exposed
 * via failed(); benches treat it as a CLI-level error.
 */
class ScopedMetricsServer
{
  public:
    explicit ScopedMetricsServer(
        std::optional<std::uint16_t> port,
        obs::ProcessMetrics& metrics = obs::ProcessMetrics::instance());
    /** Serves on the CLI's effectiveMetricsPort(), if any. */
    explicit ScopedMetricsServer(const BenchCli& cli)
        : ScopedMetricsServer(cli.effectiveMetricsPort())
    {
    }

    /** True when a server was requested but could not start. */
    bool failed() const { return failed_; }

    /** Bound port while serving, 0 otherwise. */
    std::uint16_t port() const { return server_.boundPort(); }

    /** The underlying server (running(), stop(), restart). */
    srv::HttpServer& server() { return server_; }

  private:
    srv::HttpServer server_;
    bool failed_ = false;
};

} // namespace hcloud::exp

#endif // HCLOUD_EXP_CLI_HPP
