/**
 * @file
 * SessionManager: the daemon's tenant registry + shard serialization +
 * session lifecycle (durability, eviction, deletion, admission).
 *
 * Each tenant session is pinned at creation to one strand of a
 * runtime::ShardedExecutor (shard = creation sequence % shards), and
 * every touch of the session — construction, job submission, advancing,
 * reporting — runs through with() on that strand, on the calling HTTP
 * worker's own thread. One tenant's engine is therefore strictly
 * serialized (no locks inside the simulation) while different tenants
 * on different shards run concurrently; N HTTP workers hammering one
 * tenant serialize cleanly (asserted under TSan in
 * tests/test_srv_session.cpp).
 *
 * Lifecycle (all journal-backed behavior is off when JournalConfig is
 * disabled, i.e. no --data-dir):
 *
 *  - create: claims the id (validated as a safe filename/label), checks
 *    the session-count admission cap (sweeping idle sessions first),
 *    builds the engine, opens a fresh journal and writes the "create"
 *    record before the session is reachable;
 *  - restoreAll: at startup, replays every journal in the data dir
 *    through the ordinary EngineSession path — deterministic replay
 *    makes the restored session byte-identical to the pre-crash one;
 *  - erase: removes the session, its journal file and its per-tenant
 *    metric series (a strand barrier drains in-flight work first; the
 *    id stays claimed until all three are gone);
 *  - sweepIdle + lazy revival: sessions idle past the threshold drop
 *    their in-memory engine (journal synced first); the next touch
 *    rebuilds them from the journal on their own strand.
 *
 * Per-tenant observability lands in an obs::ProcessMetrics registry as
 * labeled families:
 *   - hcloud_serve_sessions             (gauge, process-wide)
 *   - hcloud_serve_jobs_submitted_total {tenant=...}
 *   - hcloud_serve_decisions_total      {tenant=...}
 *   - hcloud_sim_*                      {tenant=...} live simulation
 *     gauges (utilization, quality p50, queue length, spot price,
 *     accumulated cost, ...) refreshed from the newest timeline sample
 * so a /metrics scrape shows every tenant as its own series; deletion
 * and idle eviction retire the tenant's series so the page does not
 * leak labels. The series are resolved once into a TenantMetrics owned
 * by the tenant's entry and updated from the tenant's strand only.
 */

#ifndef HCLOUD_SRV_SESSION_MANAGER_HPP
#define HCLOUD_SRV_SESSION_MANAGER_HPP

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/process_metrics.hpp"
#include "runtime/sharded_executor.hpp"
#include "srv/engine_session.hpp"
#include "srv/session_journal.hpp"

namespace hcloud::srv {

/** Admission + eviction knobs (0 = unlimited / never). Lives at
 *  namespace scope so it is a complete type when used as a default
 *  argument inside SessionManager (GCC rejects `= {}` for a nested
 *  aggregate of a still-incomplete class). */
struct SessionLimits
{
    /** Max live (in-memory) sessions; past it creates shed 429. */
    std::size_t maxSessions = 0;
    /** Evict sessions idle this long (requires journaling, which
     *  revival depends on). */
    double idleEvictSeconds = 0.0;
};

/**
 * One tenant's labelled series, owned by its SessionManager entry. The
 * job and decision counters are resolved when the entry is created or
 * restored, the hcloud_sim_* gauges on the first timeline sample after
 * create or revival. Updates happen only inside the tenant's strand
 * tasks (SessionManager::with), so a steady-state request pays one
 * atomic per update and no registry lookup, and erase()'s strand barrier
 * orders every update before the series retire.
 */
class TenantMetrics
{
  public:
    TenantMetrics(obs::ProcessMetrics& metrics, std::string tenant);

    /** One accepted submit and the @p decisions it produced. */
    void countJob(std::uint64_t decisions);
    /** @p n decisions observed (no-op for 0). */
    void countDecisions(std::uint64_t n);
    /** Refresh the hcloud_sim_* gauges from the newest timeline sample. */
    void recordSim(const obs::TimelineSample& sample);

    /** Retire the hcloud_sim_* series; the next sample re-creates them. */
    void retireSim();
    /** Retire every series of the tenant. */
    void retire();

    /** Number of hcloud_sim_* gauge families. */
    static constexpr std::size_t kSimGauges = 9;

  private:
    obs::ProcessMetrics& metrics_;
    std::string tenant_;
    obs::ProcessCounter* jobs_;
    obs::ProcessCounter* decisions_;
    /** Null until the first sample after create or revival. */
    std::array<obs::ProcessGauge*, kSimGauges> sim_{};
};

/** Owns every tenant session and serializes access per shard. */
class SessionManager
{
  public:
    using Limits = SessionLimits;

    explicit SessionManager(std::size_t shards, JournalConfig journal = {},
                            Limits limits = {},
                            obs::ProcessMetrics& metrics =
                                obs::ProcessMetrics::instance());

    /** Waits for all in-flight session work before returning. */
    ~SessionManager();

    SessionManager(const SessionManager&) = delete;
    SessionManager& operator=(const SessionManager&) = delete;

    /**
     * Create a session; empty config.id gets "t-<seq>" assigned. The
     * (heavy) engine construction runs on the calling thread — the
     * session is only published (and thus reachable by other threads)
     * once fully built, so no half-initialized engine is ever visible.
     * With journaling on, the journal is opened fresh and the "create"
     * record is durable before the tenant answers its first request.
     * @return the tenant id.
     * @throws ApiError 409 duplicate, 422 invalid id, 429 at the
     * session cap, 503 when the journal cannot be opened.
     */
    std::string create(SessionConfig config);

    /**
     * Delete tenant @p id: unpublish it, drain its strand, unlink its
     * journal and retire its per-tenant metric series. In-flight
     * requests that already resolved the session finish against it
     * (shared_ptr); later ones get 404.
     * @throws ApiError 404 for unknown tenants.
     */
    void erase(const std::string& id);

    /**
     * Rebuild every journaled session found in the data dir by replay.
     * Call once at startup, before the HTTP server is reachable. A
     * journal whose tail is truncated/corrupt is truncated back to its
     * last valid record (structured warn); one that cannot be replayed
     * at all is skipped with a structured warn, never a crash.
     * @return the number of sessions restored.
     */
    std::size_t restoreAll();

    /**
     * Evict sessions idle past Limits::idleEvictSeconds: sync + drop
     * the in-memory engine, keep the journal for lazy revival on next
     * touch. No-op unless journaling and eviction are both enabled.
     * @return the number of sessions evicted.
     */
    std::size_t sweepIdle();

    /**
     * Run @p fn(session, metrics) against tenant @p id on its shard,
     * blocking for the result. @p fn updates the tenant's series through
     * @p metrics. Whatever @p fn throws propagates to the caller. An
     * evicted session is revived from its journal first (on the strand,
     * so revival serializes with everything else).
     * @throws ApiError 404 for unknown tenants.
     */
    template <typename Fn>
    auto with(const std::string& id, Fn&& fn)
        -> decltype(fn(std::declval<EngineSession&>(),
                       std::declval<TenantMetrics&>()))
    {
        const std::size_t shard = shardOf(id); // 404 when absent
        return executor_.call(shard, [this, &id, shard, &fn] {
            const Resolved tenant = resolve(id, shard);
            return fn(*tenant.session, *tenant.metrics);
        });
    }

    std::size_t sessionCount() const;
    /** Sessions currently resident in memory (not evicted). */
    std::size_t liveCount() const;
    /** All tenant ids, in creation order. */
    std::vector<std::string> tenantIds() const;
    std::size_t shards() const { return executor_.shards(); }

    const JournalConfig& journalConfig() const { return journal_; }
    const Limits& limits() const { return limits_; }

    /** One /statusz row per tenant, from lock-free LiveStats reads. */
    struct SessionStatus
    {
        std::string id;
        std::size_t shard = 0;
        bool ready = false; ///< false while still constructing
        bool evicted = false;
        double now = 0.0;
        std::uint64_t jobs = 0;
        std::uint64_t finished = 0;
        std::uint64_t decisions = 0;
        std::uint64_t timelineSamples = 0;
        std::uint64_t journalBytes = 0;
    };

    /**
     * Snapshot of every session, in creation order. Never hops onto a
     * strand — reads EngineSession::LiveStats atomics under the map
     * lock, so the status page works even with every shard busy.
     */
    std::vector<SessionStatus> status() const;

    /** Durability/lifecycle counters for the /statusz panel. */
    struct LifecycleStats
    {
        std::uint64_t restored = 0;
        std::uint64_t evictions = 0;
        std::uint64_t revivals = 0;
        std::uint64_t deletes = 0;
        std::uint64_t admissionRejects = 0;
        std::uint64_t truncatedLines = 0;
    };

    LifecycleStats lifecycleStats() const;

    /** Waiting + running calls per strand (see ShardedExecutor). */
    std::vector<std::size_t> queueDepths() const
    {
        return executor_.queueDepths();
    }

    /** Strand tasks completed since startup. */
    std::uint64_t tasksExecuted() const
    {
        return executor_.tasksExecuted();
    }

    /**
     * Rate-limited idle-eviction trigger: runs sweepIdle() at most once
     * per idleEvictSeconds. The daemon calls this from its request
     * observer, so eviction needs no dedicated timer thread.
     */
    void maybeSweep();

  private:
    struct Entry
    {
        std::shared_ptr<EngineSession> session;
        /** Set when the session is published (create/restore). */
        std::unique_ptr<TenantMetrics> metrics;
        std::size_t shard = 0;
        bool evicted = false;
        /** erase() in progress: lookups answer 404, but the id stays
         *  claimed until its journal and series are gone. */
        bool deleting = false;
        /** Last with()/create/revive touch (SpanTracer::nowNs). */
        std::uint64_t lastTouchNs = 0;
    };

    /** What a strand task works on. */
    struct Resolved
    {
        std::shared_ptr<EngineSession> session;
        /** Owned by the entry, which outlives every strand task. */
        TenantMetrics* metrics = nullptr;
    };

    /** @throws ApiError 404; the shard of a (possibly evicted) id. */
    std::size_t shardOf(const std::string& id);

    /**
     * Strand-side session lookup on @p shard: touches the idle clock,
     * revives an evicted session from its journal. @throws ApiError 404
     * (deleted between routing and execution, or deleted and created
     * again on another shard) or 409 (still initializing).
     */
    Resolved resolve(const std::string& id, std::size_t shard);

    /** Replay one journal into a fresh session (no journal attached);
     *  throws ApiError on an unreplayable journal. */
    std::shared_ptr<EngineSession>
    replayJournal(const std::string& id, bool truncateCorruptTail);

    /** One flusher pass: fdatasync every live dirty journal. Pins each
     *  session via shared_ptr so fds cannot close underneath it. */
    void flushJournals();

    runtime::ShardedExecutor executor_;
    JournalConfig journal_;
    Limits limits_;
    obs::ProcessMetrics& metrics_;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> sessions_;
    std::vector<std::string> order_; ///< creation order for listing
    std::uint64_t nextSeq_ = 0;
    std::size_t liveCount_ = 0; ///< non-evicted published sessions

    std::atomic<std::uint64_t> restored_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> revivals_{0};
    std::atomic<std::uint64_t> deletes_{0};
    std::atomic<std::uint64_t> admissionRejects_{0};
    std::atomic<std::uint64_t> truncatedLines_{0};
    std::atomic<std::uint64_t> lastSweepNs_{0};

    // Interval fsync policy runs on this thread (started only when
    // journaling is on with FsyncPolicy::Interval) so request strands
    // never pay a disk sync; see SessionJournal's write-discipline doc.
    std::thread flusher_;
    std::mutex flusherMutex_;
    std::condition_variable flusherCv_;
    bool stopFlusher_ = false;
};

} // namespace hcloud::srv

#endif // HCLOUD_SRV_SESSION_MANAGER_HPP
