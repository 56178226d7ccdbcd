/**
 * @file
 * hcloud_serve: the provisioning-as-a-service daemon binary.
 *
 * Thin shell around srv::ServeApp: parse flags, start the app, block
 * until SIGTERM/SIGINT, drain gracefully. The signal path uses the
 * self-pipe trick (a signal handler may only write to a pipe; the main
 * thread blocks reading it) so shutdown is async-signal-safe.
 *
 * Usage:
 *   hcloud_serve [--port N] [--shards N] [--http-workers N]
 *                [--span-trace PATH] [--slow-ms N]
 *                [--data-dir DIR] [--fsync POLICY]
 *                [--fsync-interval-ms N] [--max-journal-mb N]
 *                [--max-sessions N] [--idle-evict-s N]
 *                [--max-advance N] [--timeline-cadence N]
 */

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "srv/serve_app.hpp"

namespace {

int gSignalPipe[2] = {-1, -1};

extern "C" void
onSignal(int)
{
    const char byte = 0;
    // Best-effort: a full pipe means a wake byte is already pending.
    [[maybe_unused]] ssize_t n = ::write(gSignalPipe[1], &byte, 1);
}

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--port N] [--shards N] [--http-workers N]\n"
        "          [--span-trace PATH] [--slow-ms N]\n"
        "          [--data-dir DIR] [--fsync always|interval|never]\n"
        "          [--fsync-interval-ms N] [--max-journal-mb N]\n"
        "          [--max-sessions N] [--idle-evict-s N] "
        "[--max-advance N]\n"
        "          [--timeline-cadence N]\n"
        "\n"
        "  --port N          listen port (default 8080, 0 = ephemeral)\n"
        "  --shards N        tenant session strands (default 8)\n"
        "  --http-workers N  HTTP connection workers (default 8)\n"
        "  --span-trace P    write request spans as JSONL to P\n"
        "                    (default: HCLOUD_SPANS, unset = off)\n"
        "  --slow-ms N       warn-log requests slower than N ms\n"
        "                    (default: HCLOUD_SLOW_MS, unset = off)\n"
        "  --data-dir D      journal sessions to D/<tenant>.journal and\n"
        "                    restore them on startup (default: off —\n"
        "                    sessions are lost on restart)\n"
        "  --fsync P         journal fsync policy: always, interval\n"
        "                    (default) or never\n"
        "  --fsync-interval-ms N  background flusher period under the\n"
        "                    interval policy (default 50)\n"
        "  --max-journal-mb N  per-tenant journal cap in MiB; writes\n"
        "                    past it shed 429 (default 64, 0 = "
        "unbounded)\n"
        "  --max-sessions N  live-session admission cap; creates past\n"
        "                    it shed 429 (default 0 = unlimited)\n"
        "  --idle-evict-s N  evict sessions idle N seconds to their\n"
        "                    journal, reviving lazily (default 0 = "
        "never;\n"
        "                    requires --data-dir)\n"
        "  --max-advance N   max virtual seconds one advance may cover\n"
        "                    (default 10000000, 0 = unbounded)\n"
        "  --timeline-cadence N  default cluster-state sampling period\n"
        "                    in virtual seconds for new sessions, served\n"
        "                    at GET /v1/tenants/{id}/timeline (default\n"
        "                    30, 0 = off by default)\n",
        argv0);
}

/** Largest --max-journal-mb whose byte count fits in 64 bits. */
constexpr long kMaxJournalMb = (1L << 44) - 1;

bool
parseCount(const char* value, long* out)
{
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || parsed < 0 || errno == ERANGE)
        return false;
    *out = parsed;
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    long port = 8080;
    hcloud::srv::ServeConfig config;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        auto next = [&](long* out) {
            if (i + 1 >= argc || !parseCount(argv[++i], out)) {
                std::fprintf(stderr,
                             "serve: %s requires a non-negative integer "
                             "in range\n",
                             arg);
                return false;
            }
            return true;
        };
        long value = 0;
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else if (std::strcmp(arg, "--port") == 0) {
            if (!next(&value) || value > 65535)
                return 2;
            port = value;
        } else if (std::strcmp(arg, "--shards") == 0) {
            if (!next(&value))
                return 2;
            config.shards = static_cast<std::size_t>(value);
        } else if (std::strcmp(arg, "--http-workers") == 0) {
            if (!next(&value) || value == 0)
                return 2;
            config.httpWorkers = static_cast<std::size_t>(value);
        } else if (std::strcmp(arg, "--span-trace") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "serve: --span-trace requires a path\n");
                return 2;
            }
            config.spanPath = argv[++i];
        } else if (std::strcmp(arg, "--slow-ms") == 0) {
            if (!next(&value))
                return 2;
            config.slowMs = static_cast<double>(value);
        } else if (std::strcmp(arg, "--data-dir") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "serve: --data-dir requires a path\n");
                return 2;
            }
            config.journal.dataDir = argv[++i];
        } else if (std::strcmp(arg, "--fsync") == 0) {
            if (i + 1 >= argc ||
                !hcloud::srv::parseFsyncPolicy(argv[++i],
                                               &config.journal.fsync)) {
                std::fprintf(stderr,
                             "serve: --fsync requires always, interval "
                             "or never\n");
                return 2;
            }
        } else if (std::strcmp(arg, "--fsync-interval-ms") == 0) {
            if (!next(&value))
                return 2;
            config.journal.fsyncIntervalMs = static_cast<double>(value);
        } else if (std::strcmp(arg, "--max-journal-mb") == 0) {
            if (!next(&value))
                return 2;
            if (value > kMaxJournalMb) {
                std::fprintf(stderr,
                             "serve: --max-journal-mb must be at most "
                             "%ld\n",
                             kMaxJournalMb);
                return 2;
            }
            config.journal.maxBytesPerTenant =
                static_cast<std::uint64_t>(value) << 20;
        } else if (std::strcmp(arg, "--max-sessions") == 0) {
            if (!next(&value))
                return 2;
            config.limits.maxSessions = static_cast<std::size_t>(value);
        } else if (std::strcmp(arg, "--idle-evict-s") == 0) {
            if (!next(&value))
                return 2;
            config.limits.idleEvictSeconds = static_cast<double>(value);
        } else if (std::strcmp(arg, "--max-advance") == 0) {
            if (!next(&value))
                return 2;
            config.maxAdvance = static_cast<double>(value);
        } else if (std::strcmp(arg, "--timeline-cadence") == 0) {
            if (!next(&value))
                return 2;
            config.timelineCadence = static_cast<double>(value);
        } else {
            std::fprintf(stderr, "serve: unknown option %s\n", arg);
            usage(argv[0]);
            return 2;
        }
    }

    if (::pipe(gSignalPipe) != 0) {
        std::perror("serve: pipe");
        return 1;
    }
    struct sigaction action{};
    action.sa_handler = onSignal;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    hcloud::srv::ServeApp app(config);
    std::string error;
    if (!app.start(static_cast<std::uint16_t>(port), &error)) {
        std::fprintf(stderr, "serve: start failed: %s\n",
                     error.c_str());
        return 1;
    }
    std::printf("serve: listening http://127.0.0.1:%u/ "
                "(shards=%zu, http-workers=%zu)\n",
                app.boundPort(), config.shards, config.httpWorkers);
    if (!config.journal.dataDir.empty()) {
        const auto stats = app.sessions().lifecycleStats();
        std::printf("serve: journaling to %s (fsync=%s, restored %llu "
                    "session%s)\n",
                    config.journal.dataDir.c_str(),
                    hcloud::srv::toString(config.journal.fsync),
                    static_cast<unsigned long long>(stats.restored),
                    stats.restored == 1 ? "" : "s");
    }
    if (app.spans().enabled())
        std::printf("serve: span trace -> %s\n",
                    app.spans().sinkPath().c_str());
    if (app.slowMs() > 0.0)
        std::printf("serve: slow-request log at >= %.1f ms\n",
                    app.slowMs());
    if (config.timelineCadence > 0.0)
        std::printf("serve: timeline sampling every %.1f virtual "
                    "seconds (default)\n",
                    config.timelineCadence);
    else
        std::printf("serve: timeline sampling off by default\n");
    std::fflush(stdout);

    char byte;
    while (::read(gSignalPipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::printf("serve: draining...\n");
    std::fflush(stdout);
    app.stop();
    std::printf("serve: stopped\n");
    return 0;
}
