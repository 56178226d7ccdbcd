#include "srv/session_manager.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include <unistd.h>

#include "obs/log.hpp"
#include "obs/span.hpp"

namespace hcloud::srv {

namespace {

/**
 * The hcloud_sim_* gauge families TenantMetrics::recordSim maintains.
 * One table shared with retireSim so a series added here can never be
 * forgotten by the retirement path (the label-leak tests would catch
 * it regardless).
 */
struct SimGaugeDef
{
    const char* name;
    const char* help;
};

constexpr SimGaugeDef kSimGaugeDefs[] = {
    {"hcloud_sim_now", "Tenant virtual clock at the last timeline sample"},
    {"hcloud_sim_instances",
     "Provisioned instances (reserved + on-demand + spot)"},
    {"hcloud_sim_utilization", "Reserved-pool core utilization [0,1]"},
    {"hcloud_sim_quality_p50",
     "Median effective instance quality across the cluster"},
    {"hcloud_sim_queue_length", "Jobs queued for reserved capacity"},
    {"hcloud_sim_running_jobs", "Jobs running at the last sample"},
    {"hcloud_sim_spot_price",
     "Spot price as a fraction of the on-demand rate"},
    {"hcloud_sim_qos_violations",
     "LC jobs in an active QoS-violation streak"},
    {"hcloud_sim_cost_total", "Accumulated provisioning cost (USD)"},
};
static_assert(std::size(kSimGaugeDefs) == TenantMetrics::kSimGauges);

constexpr const char* kJobsName = "hcloud_serve_jobs_submitted_total";
constexpr const char* kDecisionsName = "hcloud_serve_decisions_total";

/** nextSeq_ floor implied by a server-assigned id "t-<n>" (0 if not). */
std::uint64_t
assignedSeq(const std::string& id)
{
    if (id.size() < 3 || id.compare(0, 2, "t-") != 0)
        return 0;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(id.c_str() + 2, &end, 10);
    return (end && *end == '\0') ? n : 0;
}

} // namespace

TenantMetrics::TenantMetrics(obs::ProcessMetrics& metrics,
                             std::string tenant)
    : metrics_(metrics), tenant_(std::move(tenant)),
      jobs_(&metrics_.counter(kJobsName, "Jobs submitted per tenant",
                              {{"tenant", tenant_}})),
      decisions_(&metrics_.counter(
          kDecisionsName, "Provisioning decisions observed per tenant",
          {{"tenant", tenant_}}))
{
}

void
TenantMetrics::countJob(std::uint64_t decisions)
{
    jobs_->inc();
    countDecisions(decisions);
}

void
TenantMetrics::countDecisions(std::uint64_t n)
{
    if (n != 0)
        decisions_->inc(static_cast<double>(n));
}

void
TenantMetrics::recordSim(const obs::TimelineSample& sample)
{
    if (!sim_[0]) {
        for (std::size_t i = 0; i < kSimGauges; ++i)
            sim_[i] = &metrics_.gauge(kSimGaugeDefs[i].name,
                                      kSimGaugeDefs[i].help,
                                      {{"tenant", tenant_}});
    }
    const double values[] = {
        sample.t,
        static_cast<double>(sample.reservedInstances +
                            sample.onDemandInstances +
                            sample.spotInstances),
        sample.utilization,
        sample.qualityP50,
        static_cast<double>(sample.queueLength),
        static_cast<double>(sample.runningJobs),
        sample.spotPrice,
        static_cast<double>(sample.qosTracked),
        sample.costTotal,
    };
    static_assert(std::size(values) == kSimGauges,
                  "one value per hcloud_sim_* gauge family");
    for (std::size_t i = 0; i < kSimGauges; ++i)
        sim_[i]->set(values[i]);
}

void
TenantMetrics::retireSim()
{
    for (const SimGaugeDef& def : kSimGaugeDefs)
        metrics_.remove(def.name, {{"tenant", tenant_}});
    sim_.fill(nullptr);
}

void
TenantMetrics::retire()
{
    metrics_.remove(kJobsName, {{"tenant", tenant_}});
    metrics_.remove(kDecisionsName, {{"tenant", tenant_}});
    retireSim();
}

SessionManager::SessionManager(std::size_t shards, JournalConfig journal,
                               Limits limits,
                               obs::ProcessMetrics& metrics)
    : executor_(shards), journal_(std::move(journal)),
      limits_(limits), metrics_(metrics)
{
    if (journal_.enabled() && !ensureDataDir(journal_.dataDir)) {
        const std::string error = std::strerror(errno);
        obs::Log::instance().warn(
            "journal_dir_unavailable", [&](obs::JsonWriter& w) {
                w.field("dir", journal_.dataDir);
                w.field("error", error);
            });
    }
    if (journal_.enabled() && journal_.fsync == FsyncPolicy::Interval) {
        flusher_ = std::thread([this] {
            const auto interval = std::chrono::duration<double, std::milli>(
                journal_.fsyncIntervalMs > 0.0 ? journal_.fsyncIntervalMs
                                               : 1.0);
            std::unique_lock<std::mutex> lock(flusherMutex_);
            while (!stopFlusher_) {
                flusherCv_.wait_for(lock, interval,
                                    [this] { return stopFlusher_; });
                if (stopFlusher_)
                    break;
                lock.unlock();
                flushJournals();
                lock.lock();
            }
        });
    }
}

SessionManager::~SessionManager()
{
    if (flusher_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(flusherMutex_);
            stopFlusher_ = true;
        }
        flusherCv_.notify_all();
        flusher_.join();
    }
    executor_.drain();
}

void
SessionManager::flushJournals()
{
    // Snapshot under the lock, sync outside it: the disk sync can take
    // milliseconds and must not block create/erase/status. The
    // shared_ptr copies keep every journal's fd alive even if a tenant
    // is deleted or evicted mid-pass; syncBatch group-commits every
    // dirty journal with one syscall.
    std::vector<std::shared_ptr<EngineSession>> live;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        live.reserve(sessions_.size());
        for (const auto& [id, entry] : sessions_)
            if (entry.session)
                live.push_back(entry.session);
    }
    std::vector<SessionJournal*> journals;
    journals.reserve(live.size());
    for (const auto& session : live)
        if (SessionJournal* journal = session->journal())
            journals.push_back(journal);
    SessionJournal::syncBatch(journals);
}

std::string
SessionManager::create(SessionConfig config)
{
    if (!config.id.empty() && !validTenantId(config.id))
        throw ApiError{422, "invalid_tenant_id",
                       "tenant id must be 1..64 chars of [A-Za-z0-9_.-] "
                       "and not start with '.' or '-'"};

    // Claim the identity (and a live-count slot) under the lock; retry
    // once after an idle sweep when the admission cap is hit.
    auto claim = [this](SessionConfig& c, std::size_t* shard) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (limits_.maxSessions != 0 && liveCount_ >= limits_.maxSessions)
            return false;
        if (c.id.empty())
            c.id = "t-" + std::to_string(nextSeq_ + 1);
        if (sessions_.count(c.id) != 0)
            throw ApiError{409, "duplicate_tenant",
                           "tenant \"" + c.id + "\" already exists"};
        *shard = static_cast<std::size_t>(nextSeq_) % executor_.shards();
        ++nextSeq_;
        // Claim the id with an empty entry; with() treats a session
        // still under construction as not ready.
        Entry entry;
        entry.shard = *shard;
        entry.lastTouchNs = obs::SpanTracer::nowNs();
        sessions_.emplace(c.id, std::move(entry));
        order_.push_back(c.id);
        ++liveCount_;
        return true;
    };

    std::size_t shard = 0;
    if (!claim(config, &shard)) {
        sweepIdle();
        if (!claim(config, &shard)) {
            admissionRejects_.fetch_add(1, std::memory_order_relaxed);
            metrics_
                .counter("hcloud_serve_admission_rejects_total",
                         "Requests shed by admission control",
                         {{"reason", "too_many_sessions"}})
                .inc();
            throw ApiError{
                429, "too_many_sessions",
                "session cap reached (" +
                    std::to_string(limits_.maxSessions) +
                    " live sessions); delete or let idle tenants "
                    "evict, or raise --max-sessions"};
        }
    }
    const std::string id = config.id;

    auto rollback = [this, &id] {
        std::lock_guard<std::mutex> lock(mutex_);
        sessions_.erase(id);
        order_.erase(std::find(order_.begin(), order_.end(), id));
        --liveCount_;
    };

    std::shared_ptr<EngineSession> session;
    std::unique_ptr<TenantMetrics> metrics;
    try {
        session = std::make_shared<EngineSession>(std::move(config));
        if (journal_.enabled()) {
            auto journal = std::make_unique<SessionJournal>(
                journal_, id, /*truncate=*/true, metrics_);
            if (!journal->ok())
                throw ApiError{503, "journal_unavailable",
                               "cannot open journal: " +
                                   journal->error()};
            journal->appendCreate(session->config());
            session->attachJournal(std::move(journal));
        }
        // Resolving the per-tenant families here also makes a scrape
        // show the tenant before its first job.
        metrics = std::make_unique<TenantMetrics>(metrics_, id);
    } catch (...) {
        rollback();
        throw;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry& entry = sessions_[id];
        entry.session = std::move(session);
        entry.metrics = std::move(metrics);
    }

    metrics_.gauge("hcloud_serve_sessions", "Live tenant sessions")
        .add(1.0);
    metrics_
        .counter("hcloud_serve_tenants_created_total",
                 "Tenant sessions created since startup")
        .inc();
    return id;
}

void
SessionManager::erase(const std::string& id)
{
    std::shared_ptr<EngineSession> session;
    TenantMetrics* metrics = nullptr;
    std::size_t shard = 0;
    bool evicted = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = sessions_.find(id);
        if (it == sessions_.end() || it->second.deleting)
            throw ApiError{404, "unknown_tenant",
                           "no tenant \"" + id + "\""};
        Entry& entry = it->second;
        if (!entry.session && !entry.evicted)
            throw ApiError{409, "tenant_initializing",
                           "tenant \"" + id + "\" is still initializing"};
        // From here lookups answer 404, while the entry keeps the id
        // claimed: a create of the same id cannot reuse the journal file
        // or the series this call is about to remove.
        entry.deleting = true;
        session = std::move(entry.session);
        metrics = entry.metrics.get();
        shard = entry.shard;
        evicted = entry.evicted;
        order_.erase(std::find(order_.begin(), order_.end(), id));
        if (!evicted)
            --liveCount_;
    }

    // Strand barrier: work that resolved the session before it was
    // marked, metric updates included, finishes before anything is torn
    // down; later work answers 404.
    executor_.call(shard, [] {});
    session.reset(); // closes (and syncs) the journal fd

    if (journal_.enabled())
        SessionJournal::removeFile(journal_.dataDir, id);
    metrics->retire();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sessions_.erase(id);
    }

    if (!evicted)
        metrics_.gauge("hcloud_serve_sessions", "Live tenant sessions")
            .add(-1.0);
    deletes_.fetch_add(1, std::memory_order_relaxed);
    metrics_
        .counter("hcloud_serve_deletes_total",
                 "Tenant sessions deleted since startup")
        .inc();
    obs::Log::instance().info("tenant_deleted", [&](obs::JsonWriter& w) {
        w.field("tenant", id);
    });
}

std::shared_ptr<EngineSession>
SessionManager::replayJournal(const std::string& id,
                              bool truncateCorruptTail)
{
    obs::SpanScope span("journal.replay");
    const std::string path = SessionJournal::pathFor(journal_.dataDir, id);
    JournalLoad load = loadJournal(path);
    if (!load.ok)
        throw ApiError{503, "journal_unavailable",
                       "cannot read journal: " + load.error};
    if (load.droppedLines != 0) {
        truncatedLines_.fetch_add(load.droppedLines,
                                  std::memory_order_relaxed);
        metrics_
            .counter("hcloud_journal_truncated_lines_total",
                     "Corrupt/truncated journal lines dropped on replay")
            .inc(static_cast<double>(load.droppedLines));
        obs::Log::instance().warn(
            "journal_truncated", [&](obs::JsonWriter& w) {
                w.field("tenant", id);
                w.field("dropped_lines",
                        static_cast<std::uint64_t>(load.droppedLines));
                w.field("valid_bytes", load.validBytes);
            });
        if (truncateCorruptTail)
            (void)::truncate(path.c_str(),
                             static_cast<off_t>(load.validBytes));
    }
    if (load.records.empty() ||
        load.records.front().op != JournalRecord::Op::Create ||
        load.records.front().config.id != id)
        throw ApiError{503, "journal_invalid",
                       "journal for \"" + id +
                           "\" does not start with a matching create "
                           "record"};

    auto session = std::make_shared<EngineSession>(
        std::move(load.records.front().config));
    for (std::size_t i = 1; i < load.records.size(); ++i) {
        JournalRecord& r = load.records[i];
        if (r.op == JournalRecord::Op::Submit) {
            const SubmitOutcome outcome = session->submitJob(r.job);
            if (outcome.status !=
                core::EngineRun::SubmitStatus::Accepted)
                throw ApiError{503, "journal_invalid",
                               "journaled submit was rejected on "
                               "replay (tenant \"" +
                                   id + "\", record " +
                                   std::to_string(i) + ")"};
        } else if (r.op == JournalRecord::Op::Advance) {
            session->advanceTo(r.to);
        }
    }
    metrics_
        .counter("hcloud_journal_replayed_records_total",
                 "Journal records replayed into sessions")
        .inc(static_cast<double>(load.records.size()));
    return session;
}

std::size_t
SessionManager::restoreAll()
{
    if (!journal_.enabled())
        return 0;
    std::size_t restored = 0;
    for (const std::string& id : listJournals(journal_.dataDir)) {
        if (!validTenantId(id)) {
            obs::Log::instance().warn(
                "journal_skipped", [&](obs::JsonWriter& w) {
                    w.field("tenant", id);
                    w.field("reason", "invalid tenant id");
                });
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (sessions_.count(id) != 0)
                continue;
        }
        std::shared_ptr<EngineSession> session;
        try {
            session = replayJournal(id, /*truncateCorruptTail=*/true);
        } catch (const ApiError& e) {
            obs::Log::instance().warn(
                "journal_skipped", [&](obs::JsonWriter& w) {
                    w.field("tenant", id);
                    w.field("reason", e.message);
                });
            continue;
        }
        // Reopen for appending; a failed reopen still publishes the
        // session (reports stay readable) but its writes shed 503.
        auto journal = std::make_unique<SessionJournal>(
            journal_, id, /*truncate=*/false, metrics_);
        session->attachJournal(std::move(journal));
        auto metrics = std::make_unique<TenantMetrics>(metrics_, id);

        {
            std::lock_guard<std::mutex> lock(mutex_);
            Entry entry;
            entry.shard =
                static_cast<std::size_t>(nextSeq_) % executor_.shards();
            entry.lastTouchNs = obs::SpanTracer::nowNs();
            entry.session = std::move(session);
            entry.metrics = std::move(metrics);
            ++nextSeq_;
            // Keep server-assigned ids collision-free after restart.
            nextSeq_ = std::max(nextSeq_, assignedSeq(id));
            sessions_.emplace(id, std::move(entry));
            order_.push_back(id);
            ++liveCount_;
        }
        metrics_.gauge("hcloud_serve_sessions", "Live tenant sessions")
            .add(1.0);
        restored_.fetch_add(1, std::memory_order_relaxed);
        metrics_
            .counter("hcloud_serve_restored_total",
                     "Tenant sessions restored from journals at startup")
            .inc();
        obs::Log::instance().info(
            "session_restored", [&](obs::JsonWriter& w) {
                w.field("tenant", id);
            });
        ++restored;
    }
    return restored;
}

std::size_t
SessionManager::shardOf(const std::string& id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end() || it->second.deleting)
        throw ApiError{404, "unknown_tenant", "no tenant \"" + id + "\""};
    return it->second.shard;
}

SessionManager::Resolved
SessionManager::resolve(const std::string& id, std::size_t shard)
{
    TenantMetrics* metrics = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = sessions_.find(id);
        // A same-named tenant created after this call was routed may
        // live on another strand, which must stay the only one to run it.
        if (it == sessions_.end() || it->second.deleting ||
            it->second.shard != shard)
            throw ApiError{404, "unknown_tenant",
                           "no tenant \"" + id + "\""};
        if (it->second.session) {
            it->second.lastTouchNs = obs::SpanTracer::nowNs();
            return {it->second.session, it->second.metrics.get()};
        }
        if (!it->second.evicted)
            throw ApiError{409, "tenant_initializing",
                           "tenant \"" + id + "\" is still initializing"};
        metrics = it->second.metrics.get();
    }

    // Lazy revival: rebuild from the journal. Only this id's strand
    // runs resolve(id), so nobody else can be reviving it; the replay
    // runs unlocked to keep the registry responsive.
    std::shared_ptr<EngineSession> session =
        replayJournal(id, /*truncateCorruptTail=*/true);
    auto journal = std::make_unique<SessionJournal>(
        journal_, id, /*truncate=*/false, metrics_);
    session->attachJournal(std::move(journal));

    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = sessions_.find(id);
        // Deleted while reviving.
        if (it == sessions_.end() || it->second.deleting)
            throw ApiError{404, "unknown_tenant",
                           "no tenant \"" + id + "\""};
        it->second.session = session;
        it->second.evicted = false;
        it->second.lastTouchNs = obs::SpanTracer::nowNs();
        ++liveCount_;
    }
    metrics_.gauge("hcloud_serve_sessions", "Live tenant sessions")
        .add(1.0);
    revivals_.fetch_add(1, std::memory_order_relaxed);
    metrics_
        .counter("hcloud_serve_revivals_total",
                 "Evicted sessions revived from journals")
        .inc();
    obs::Log::instance().info("session_revived",
                              [&](obs::JsonWriter& w) {
                                  w.field("tenant", id);
                              });
    return {std::move(session), metrics};
}

std::size_t
SessionManager::sweepIdle()
{
    if (!journal_.enabled() || limits_.idleEvictSeconds <= 0.0)
        return 0;
    const std::uint64_t now = obs::SpanTracer::nowNs();
    const double thresholdNs = limits_.idleEvictSeconds * 1e9;

    struct Candidate
    {
        std::string id;
        std::size_t shard;
    };
    std::vector<Candidate> candidates;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const std::string& id : order_) {
            auto it = sessions_.find(id);
            if (it == sessions_.end() || !it->second.session ||
                it->second.evicted)
                continue;
            if (static_cast<double>(now - it->second.lastTouchNs) >=
                thresholdNs)
                candidates.push_back({id, it->second.shard});
        }
    }

    std::size_t evicted = 0;
    for (const Candidate& c : candidates) {
        const bool did = executor_.call(c.shard, [this, &c, now,
                                                  thresholdNs] {
            std::shared_ptr<EngineSession> session;
            TenantMetrics* metrics = nullptr;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto it = sessions_.find(c.id);
                // Re-check on the strand: the session may have been
                // touched, deleted (and created again, maybe on another
                // strand) or already evicted since the scan.
                if (it == sessions_.end() || !it->second.session ||
                    it->second.evicted || it->second.shard != c.shard ||
                    it->second.lastTouchNs > now ||
                    static_cast<double>(now - it->second.lastTouchNs) <
                        thresholdNs)
                    return false;
                session = std::move(it->second.session);
                metrics = it->second.metrics.get();
                it->second.evicted = true;
                --liveCount_;
            }
            session.reset(); // syncs + closes the journal
            // An evicted tenant is no longer simulating; stale gauges
            // would misread as live state, so its hcloud_sim_* series
            // retire here, on the strand, and reappear with the first
            // sample after revival.
            metrics->retireSim();
            return true;
        });
        if (!did)
            continue;
        ++evicted;
        metrics_.gauge("hcloud_serve_sessions", "Live tenant sessions")
            .add(-1.0);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        metrics_
            .counter("hcloud_serve_evictions_total",
                     "Idle sessions evicted to their journals")
            .inc();
        obs::Log::instance().info("session_evicted",
                                  [&](obs::JsonWriter& w) {
                                      w.field("tenant", c.id);
                                  });
    }
    return evicted;
}

void
SessionManager::maybeSweep()
{
    if (!journal_.enabled() || limits_.idleEvictSeconds <= 0.0)
        return;
    const std::uint64_t now = obs::SpanTracer::nowNs();
    const std::uint64_t intervalNs =
        static_cast<std::uint64_t>(limits_.idleEvictSeconds * 1e9);
    std::uint64_t last = lastSweepNs_.load(std::memory_order_relaxed);
    if (now - last < intervalNs)
        return;
    if (!lastSweepNs_.compare_exchange_strong(last, now,
                                              std::memory_order_relaxed))
        return; // another thread claimed this sweep
    sweepIdle();
}

std::size_t
SessionManager::sessionCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return order_.size(); // entries being erased are no longer listed
}

std::size_t
SessionManager::liveCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return liveCount_;
}

std::vector<std::string>
SessionManager::tenantIds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return order_;
}

std::vector<SessionManager::SessionStatus>
SessionManager::status() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SessionStatus> out;
    out.reserve(order_.size());
    for (const std::string& id : order_) {
        const auto it = sessions_.find(id);
        if (it == sessions_.end())
            continue;
        SessionStatus row;
        row.id = id;
        row.shard = it->second.shard;
        row.evicted = it->second.evicted;
        if (const EngineSession* session = it->second.session.get()) {
            const EngineSession::LiveStats& live = session->liveStats();
            row.ready = true;
            row.now = live.now.load(std::memory_order_relaxed);
            row.jobs = live.jobs.load(std::memory_order_relaxed);
            row.finished = live.finished.load(std::memory_order_relaxed);
            row.decisions =
                live.decisions.load(std::memory_order_relaxed);
            row.timelineSamples =
                live.timelineSamples.load(std::memory_order_relaxed);
            if (const SessionJournal* journal = session->journal())
                row.journalBytes = journal->bytes();
        }
        out.push_back(std::move(row));
    }
    return out;
}

SessionManager::LifecycleStats
SessionManager::lifecycleStats() const
{
    LifecycleStats stats;
    stats.restored = restored_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.revivals = revivals_.load(std::memory_order_relaxed);
    stats.deletes = deletes_.load(std::memory_order_relaxed);
    stats.admissionRejects =
        admissionRejects_.load(std::memory_order_relaxed);
    stats.truncatedLines =
        truncatedLines_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace hcloud::srv
