/**
 * @file
 * EngineSession: one tenant's live provisioning simulation.
 *
 * Wraps core::EngineRun in session mode behind the vocabulary the daemon
 * speaks: jobs are submitted one at a time (each submission advances
 * virtual time to its arrival so the provisioning decision happens
 * before the HTTP response is written), reports are schema-versioned
 * JSON snapshots, and every Decision trace event with a subject job is
 * harvested into an append-only decision log via obs::Tracer's onRecord
 * observer (lossless — the ring buffer is kept tiny because the log,
 * not the ring, is the session's source of truth).
 *
 * Determinism contract: a session created with the same strategy,
 * scenario config and engine seed as a batch run (exp::runSweep),
 * fed the jobs of the generated scenario trace in arrival order, emits a
 * decision log identical to the Decision events of the batch run's trace
 * — same times, jobs, reasons, values and details, bit for bit
 * (tests/test_srv_session.cpp). The engine-level argument for why the
 * different event-installation order cannot flip tie-breaks lives in
 * core/engine_run.hpp.
 *
 * Not thread-safe: the owning SessionManager serializes all access
 * through the session's shard strand.
 */

#ifndef HCLOUD_SRV_ENGINE_SESSION_HPP
#define HCLOUD_SRV_ENGINE_SESSION_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_run.hpp"
#include "obs/timeline.hpp"
#include "srv/json_api.hpp"
#include "srv/session_journal.hpp"
#include "workload/trace.hpp"

namespace hcloud::srv {

/** One provisioning decision, as harvested from the trace stream. */
struct DecisionRecord
{
    sim::Time time = 0.0;
    sim::JobId job = 0;
    obs::DecisionReason reason = obs::DecisionReason::None;
    double value = 0.0;
    std::string detail;
};

/** Result of one job submission, after advancing to its arrival. */
struct SubmitOutcome
{
    core::EngineRun::SubmitStatus status =
        core::EngineRun::SubmitStatus::Accepted;
    /** The (possibly server-assigned) job id. */
    sim::JobId id = 0;
    /** Job state after the arrival fired ("pending", "running", ...). */
    std::string state;
    /** Decisions about this job that fired during the submission. */
    std::vector<DecisionRecord> decisions;
};

/** Lower-case JobState name for API responses. */
const char* jobStateName(workload::JobState state);

/** One tenant's live engine, steppable in virtual time. */
class EngineSession
{
  public:
    /**
     * Generates the scenario trace (reserved-pool sizing + workload
     * identity), wires the engine and enters session mode. Heavy — the
     * manager runs construction on the session's shard.
     */
    explicit EngineSession(SessionConfig config);

    const SessionConfig& config() const { return config_; }
    const std::string& id() const { return config_.id; }

    /** The generated scenario trace the strategy was sized from. */
    const workload::ArrivalTrace& trace() const { return trace_; }

    sim::Time now() const { return engine_.now(); }
    std::size_t jobCount() const { return engine_.jobCount(); }
    std::size_t finishedCount() const { return engine_.finishedCount(); }

    /**
     * Submit one job and advance virtual time to its arrival, so the
     * mapping decision (profiling off) or profiling kickoff happens
     * before returning. spec.id 0 = assign the next free id; explicit
     * ids must not repeat and arrivals must be >= now().
     *
     * When a journal is attached, the accepted spec (with its resolved
     * id) is appended after the engine accepts it; the internal advance
     * to spec.arrival is NOT separately journaled because replaying the
     * submit reproduces it.
     */
    SubmitOutcome submitJob(workload::JobSpec spec);

    /**
     * Run the session forward to virtual time @p t and journal the
     * explicit advance. @return false (nothing happens, nothing is
     * journaled) when t < now().
     */
    bool advanceTo(sim::Time t);

    /**
     * Adopt @p journal as this session's write-ahead log. The manager
     * attaches it after construction (fresh create) or after replay
     * (restore/revival), so replayed commands are never re-journaled.
     * Strand thread only, like every other mutation.
     */
    void attachJournal(std::unique_ptr<SessionJournal> journal)
    {
        journal_ = std::move(journal);
    }

    /** The attached journal, or nullptr (journaling off / replaying). */
    SessionJournal* journal() const { return journal_.get(); }

    /** Every job!=0 decision so far, in emission order. */
    const std::vector<DecisionRecord>& decisions() const
    {
        return decisions_;
    }

    /** The engine's cluster-state timeline (ring of samples). */
    const obs::Timeline& timeline() const { return engine_.timeline(); }

    /**
     * Ring-retained timeline samples with seq >= @p sinceSeq, keeping
     * every stride-th sample by absolute seq (so downsampling is stable
     * across cursors), capped at @p maxSamples. Chronological order.
     * Delegates to obs::Timeline::since — strand thread only.
     */
    std::vector<obs::TimelineSample>
    timelineSince(std::uint64_t sinceSeq, std::uint64_t stride,
                  std::size_t maxSamples) const
    {
        return engine_.timeline().since(sinceSeq, stride, maxSamples);
    }

    /** Most recent timeline sample; false when none recorded yet. */
    bool latestTimelineSample(obs::TimelineSample* out) const
    {
        return engine_.timeline().latest(out);
    }

    /**
     * Schema-versioned report: tenant identity, clock, job counts, the
     * full exp::runResultJson summary of a live (non-destructive) result
     * snapshot, and the decision log. Wall-clock telemetry fields
     * (setup/sim-loop seconds, events/sec) are zeroed so the report is a
     * pure function of the command stream — the byte-identity anchor for
     * journal replay (events_processed is deterministic and kept).
     */
    std::string reportJson();

    /**
     * Lock-free snapshot of the session's headline numbers, refreshed
     * after every strand operation. /statusz reads these atomics
     * directly instead of hopping onto the session's strand, so a
     * wedged or busy shard cannot wedge the status page.
     */
    struct LiveStats
    {
        std::atomic<double> now{0.0};
        std::atomic<std::uint64_t> jobs{0};
        std::atomic<std::uint64_t> finished{0};
        std::atomic<std::uint64_t> decisions{0};
        std::atomic<std::uint64_t> timelineSamples{0};
    };

    const LiveStats& liveStats() const { return live_; }

  private:
    /** Refresh live_ from the engine (strand thread only). */
    void updateLive();

    /** Advance without journaling (submitJob's internal step). */
    void step(sim::Time t);

    /** 429 journal_quota_exceeded when the journal is at its cap —
     *  checked BEFORE the engine op so engine and journal never
     *  diverge on a shed command. */
    void checkQuota() const;

    SessionConfig config_;
    workload::ArrivalTrace trace_;
    core::EngineRun engine_; ///< after trace_: beginSession needs it
    std::vector<DecisionRecord> decisions_;
    sim::JobId nextId_ = 1;
    std::unique_ptr<SessionJournal> journal_;
    LiveStats live_;
};

} // namespace hcloud::srv

#endif // HCLOUD_SRV_ENGINE_SESSION_HPP
