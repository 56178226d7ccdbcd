#include "core/engine_run.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <map>

#include "cloud/pricing.hpp"
#include "core/hybrid.hpp"
#include "sim/stats.hpp"
#include "workload/batch_model.hpp"
#include "workload/latency_model.hpp"

namespace hcloud::core {

namespace {

/** Figure 21 application groups, indexable for per-group accumulators. */
enum AppGroup : int
{
    kGroupHadoop = 0,
    kGroupSpark = 1,
    kGroupMemcached = 2,
    kGroupCount = 3,
};

constexpr const char* kGroupNames[kGroupCount] = {"hadoop", "spark",
                                                  "memcached"};

/** Figure 21 grouping of application kinds. */
constexpr AppGroup
groupOf(workload::AppKind kind)
{
    switch (kind) {
      case workload::AppKind::HadoopRecommender:
      case workload::AppKind::HadoopSvm:
      case workload::AppKind::HadoopMatFac:
        return kGroupHadoop;
      case workload::AppKind::SparkAnalytics:
      case workload::AppKind::SparkRealtime:
        return kGroupSpark;
      case workload::AppKind::Memcached:
        return kGroupMemcached;
    }
    return kGroupHadoop;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

profiling::QuasarConfig
makeQuasarConfig(const EngineConfig& config, const sim::Rng& root)
{
    profiling::QuasarConfig quasar_config;
    quasar_config.observationNoise = config.observationNoise;
    quasar_config.seed = root.child("quasar").seed();
    return quasar_config;
}

} // namespace

EngineRun::EngineRun(const EngineConfig& config,
                     const cloud::ProviderProfile& profile,
                     const StrategyFactory& factory)
    : config_(config),
      profile_(profile),
      setupStart_(Clock::now()),
      root_(config_.seed),
      tracer_(config_.trace),
      timeline_(config_.timeline)
{
    wire(factory);
}

EngineRun::~EngineRun() = default;

void
EngineRun::wire(const StrategyFactory& factory)
{
    // Construction order is load-bearing twice over: the RNG child
    // streams ("provider" before "quasar") must derive in the same order
    // as always, and the context must only be built once everything it
    // references exists.
    provider_.emplace(simulator_, profile_, config_.externalLoad,
                      root_.child("provider"));
    // Reuse a live Quasar across resets: reset() re-seeds the RNG and
    // clears the signature cache but keeps the bootstrapped classifier
    // (bit-identical to a fresh bootstrap — see Quasar::reset).
    const profiling::QuasarConfig quasarConfig =
        makeQuasarConfig(config_, root_);
    if (quasar_)
        quasar_->reset(quasarConfig);
    else
        quasar_.emplace(quasarConfig);
    metrics_.emplace();
    ctx_.emplace(EngineContext{simulator_,
                               *provider_,
                               cloud::InstanceTypeCatalog::defaultCatalog(),
                               *quasar_,
                               *metrics_,
                               tracer_,
                               config_,
                               /*onJobStarted=*/nullptr});
    provider_->setTracer(&tracer_);
    provider_->spinUp().setScale(config_.spinUpScale);
    if (config_.spinUpFixed)
        provider_->spinUp().setFixedOverride(config_.spinUpFixed);

    strategy_ = factory(*ctx_);
    // Profiling on shared small instances is noisier (Section 3.3).
    if (strategy_->usesSmallOnDemand()) {
        quasar_->setObservationNoise(config_.observationNoise * 2.2);
    }
    ctx_->onJobStarted = [this](workload::Job& job) { onJobStarted(job); };

    // Bootstrap the classifier library eagerly so its training cost lands
    // in the "setup" phase instead of the first classification's sim-loop
    // slice. Bootstrap never touches the run RNG, so decisions are
    // byte-identical either way — and a reset engine that kept its warm
    // classifier skips the cost entirely, which is the reuse win the
    // sweep scheduler's setup-ratio gate measures.
    if (config_.useProfiling)
        quasar_->warmUp();
}

void
EngineRun::reset(const EngineConfig& config,
                 const cloud::ProviderProfile& profile,
                 const StrategyFactory& factory)
{
    // Tear down in reverse dependency order: the strategy holds the
    // context by reference, and the context references provider, Quasar
    // and metrics. Nothing below touches the torn-down pieces until
    // wire() rebuilds them.
    strategy_.reset();
    ctx_.reset();
    metrics_.reset();
    // quasar_ deliberately survives: wire() re-arms it in place so the
    // bootstrapped classifier library is reused (see Quasar::reset).
    provider_.reset();

    config_ = config;
    profile_ = profile;

    // Fresh phase seconds, with setup restarted so the reset-to-runBatch
    // span counts as setup exactly like construction.
    telemetry_ = RunTelemetry{};
    setupStart_ = Clock::now();

    simulator_.reset(); // keeps the event-queue slab + callback storage
    root_ = sim::Rng(config_.seed);
    tracer_.reset(config_.trace);
    timeline_.reset(config_.timeline);

    // clear() keeps every container's grown capacity — jobs vector,
    // id index buckets, active/LC scratch — which is the point of
    // reusing the engine at all.
    jobs_.clear();
    jobIndex_.clear();
    active_.clear();
    lcJobs_.clear();
    finished_ = 0;
    nextSample_ = 0.0;
    nextTimelineSample_ = 0.0;
    compactedAtFinished_ = 0;
    sessionMode_ = false;

    wire(factory);
}

void
EngineRun::finishJob(workload::Job& job, sim::Time when, bool failed)
{
    assert(job.state != workload::JobState::Completed);
    job.completedAt = when;
    job.state = failed ? workload::JobState::Failed
                       : workload::JobState::Completed;
    ++finished_;
    tracer_.job(failed ? obs::EventKind::JobFail : obs::EventKind::JobFinish,
                when, job.id(), job.perfNormalized(), {},
                failed ? obs::Severity::Warn : obs::Severity::Info);
    strategy_->jobCompleted(job);
}

void
EngineRun::onJobStarted(workload::Job& job)
{
    const sim::Time now = simulator_.now();
    job.lastProgressAt = now;
    if (!job.engineTracked) {
        job.engineTracked = true;
        active_.push_back(&job);
    }
    const workload::JobSpec& spec = job.spec();
    workload::Job* jp = &job;
    if (job.instance->faulty()) {
        // The platform terminates the VM partway through (EC2 micro
        // behaviour in Figure 1).
        const sim::Duration life = 0.5 *
            (spec.jobClass() == workload::JobClass::Batch
                 ? spec.idealDuration
                 : spec.lcLifetime);
        simulator_.after(life, [this, jp]() {
            if (jp->state == workload::JobState::Running)
                finishJob(*jp, simulator_.now(), /*failed=*/true);
        });
    } else if (spec.jobClass() == workload::JobClass::LatencyCritical) {
        simulator_.after(spec.lcLifetime, [this, jp]() {
            // A stale timer from before a reschedule fires early;
            // only complete once the current lifetime has elapsed.
            if (jp->state == workload::JobState::Running &&
                simulator_.now() + 1e-9 >=
                    jp->startedAt + jp->spec().lcLifetime) {
                finishJob(*jp, simulator_.now(), /*failed=*/false);
            }
        });
    }
}

void
EngineRun::scheduleArrival(std::size_t i)
{
    const sim::Time arrival = jobs_[i]->spec().arrival;
    simulator_.at(arrival, [this, i]() { arrivalFired(i); });
}

void
EngineRun::arrivalFired(std::size_t i)
{
    workload::Job& job = *jobs_[i];
    if (job.spec().jobClass() == workload::JobClass::LatencyCritical) {
        lcJobs_.push_back(&job);
    }
    // Profiling (when enabled and uncached) delays the submission by the
    // profiling run length.
    const sim::Duration delay =
        config_.useProfiling ? quasar_->profilingDelay(job.spec()) : 0.0;
    tracer_.job(obs::EventKind::JobSubmit, simulator_.now(), job.id(),
                delay, workload::toString(job.spec().kind));
    if (delay > 0.0) {
        workload::Job* jp = &job;
        simulator_.after(delay, [this, jp]() { strategy_->submit(*jp); });
    } else {
        strategy_->submit(job);
    }
}

void
EngineRun::advanceJob(workload::Job& job, sim::Time t)
{
    if (job.state != workload::JobState::Running)
        return;
    const sim::Duration dt = t - job.lastProgressAt;
    if (dt <= 0.0)
        return;
    const workload::JobSpec& spec = job.spec();
    cloud::Instance* inst = job.instance;
    const double sens = job.sensitivityScalar();
    const double pressure = inst->interferencePressure(t, job.id());
    const double q = inst->qualityUnderPressure(t, sens, pressure);
    // Without profiling, jobs run with user-default framework
    // parameters (Section 3.4: 64KB block size, 1GB heaps, default
    // thread counts), which roughly halves delivered efficiency.
    const double config_eff = config_.useProfiling ? 1.0 : 0.5;
    bool violating = false;
    if (spec.jobClass() == workload::JobClass::Batch) {
        const double eff = config_eff *
            workload::batch_model::parallelEfficiency(job.cores,
                                                      spec.coresIdeal);
        const double rate = job.cores * q * eff;
        const double done = job.workDone +
            workload::batch_model::workDone(job.cores * eff, q, dt);
        if (done >= spec.workTotal()) {
            const sim::Time tc = job.lastProgressAt +
                (spec.workTotal() - job.workDone) / rate;
            job.workDone = spec.workTotal();
            job.lastProgressAt = t;
            finishJob(job, std::min(tc, t), /*failed=*/false);
            return;
        }
        job.workDone = done;
        violating = rate / spec.coresIdeal < 0.33;
    } else {
        // Interference bites serving *capacity* less than batch
        // throughput (the tail term below carries the rest):
        // neighbours inflate latency well before they truly halve
        // throughput.
        const double q_cap = (0.65 * q + 0.35) * config_eff;
        const double p99 = workload::latency_model::p99Us(
            spec.lcLoadRps, job.cores, q_cap, sens * pressure);
        job.latencyUs.add(p99);
        violating = p99 > 2.0 * spec.lcQosUs;
    }
    job.lastProgressAt = t;
    strategy_->qosCheck(job, violating);
}

void
EngineRun::sample(sim::Time t)
{
    const ClusterState& cluster = strategy_->cluster();
    metrics_->recordAllocation(t, cluster.reservedCapacity(),
                              cluster.onDemandCapacity(),
                              cluster.onDemandUsed());
    metrics_->recordReservedUtilization(t, cluster.reservedUtilization());
    auto record_instance = [&](cloud::Instance* inst) {
        metrics_->recordInstanceUtilization(
            inst->id(), inst->type().name, inst->reserved(),
            inst->acquiredAt(), t, inst->coresUsed() / inst->coresTotal());
    };
    for (cloud::Instance* inst : cluster.reservedPool())
        record_instance(inst);
    for (cloud::Instance* inst : cluster.onDemand())
        record_instance(inst);
    // Figure 21 breakdown: allocated cores by app group and side.
    double cores[kGroupCount][2] = {{0, 0}, {0, 0}, {0, 0}};
    for (const workload::Job* job : active_) {
        if (job->state != workload::JobState::Running &&
            job->state != workload::JobState::Waiting) {
            continue;
        }
        cores[groupOf(job->spec().kind)][job->onReserved ? 0 : 1] +=
            job->cores;
    }
    for (int gi = 0; gi < kGroupCount; ++gi) {
        metrics_->recordBreakdown(t, kGroupNames[gi], true, cores[gi][0]);
        metrics_->recordBreakdown(t, kGroupNames[gi], false, cores[gi][1]);
    }
}

void
EngineRun::sampleTimeline(sim::Time t)
{
    const ClusterState& cluster = strategy_->cluster();
    obs::TimelineSample s;
    s.t = t;

    // One pass over the cluster: market counts, per-type counts, the
    // observed-quality distribution and the distinct backing hosts.
    // Every accessor here is read-only over memoized per-tick state —
    // nothing below may advance an OU process or draw from an RNG.
    sim::SampleSet quality;
    std::map<std::string, std::uint32_t> typeCounts;
    std::vector<const cloud::Machine*> hosts;
    auto scan = [&](const cloud::Instance* inst) {
        if (inst->reserved())
            ++s.reservedInstances;
        else if (inst->spot())
            ++s.spotInstances;
        else
            ++s.onDemandInstances;
        ++typeCounts[inst->type().name];
        quality.add(inst->observedQuality());
        const cloud::Machine* host = inst->host();
        if (std::find(hosts.begin(), hosts.end(), host) == hosts.end())
            hosts.push_back(host);
    };
    for (const cloud::Instance* inst : cluster.reservedPool())
        scan(inst);
    for (const cloud::Instance* inst : cluster.onDemand())
        scan(inst);
    s.typeCounts.assign(typeCounts.begin(), typeCounts.end());

    s.reservedCores = cluster.reservedCapacity();
    s.reservedUsed = cluster.reservedUsed();
    s.onDemandCores = cluster.onDemandCapacity();
    s.onDemandUsed = cluster.onDemandUsed();
    s.utilization = cluster.reservedUtilization();

    s.qualityMean = quality.mean();
    s.qualityP5 = quality.quantile(0.05);
    s.qualityP50 = quality.quantile(0.50);
    s.qualityP95 = quality.quantile(0.95);

    s.queueLength =
        static_cast<std::uint32_t>(strategy_->reservedQueueLength());
    s.activeJobs = static_cast<std::uint32_t>(active_.size());
    std::uint32_t running = 0;
    for (const workload::Job* job : active_) {
        if (job->state == workload::JobState::Running)
            ++running;
    }
    s.runningJobs = running;
    s.finishedJobs = finished_;

    double ext = 0.0;
    for (const cloud::Machine* host : hosts)
        ext += host->lastExternalUtilization();
    s.externalLoad =
        hosts.empty() ? 0.0 : ext / static_cast<double>(hosts.size());

    const cloud::InstanceType& fullServer = ctx_->catalog.types().back();
    if (const cloud::SpotMarket* market = provider_->spotMarketIfCreated())
        s.spotPrice = market->lastPriceFraction(fullServer);
    else
        s.spotPrice = cloud::SpotMarketConfig{}.meanDiscount;

    s.qosTracked =
        static_cast<std::uint32_t>(strategy_->qosMonitor().tracked());

    // amortized() is a pure function over closed usage records — the
    // paper's normalized-cost view, evaluated at the sample time.
    static const cloud::AwsStylePricing pricing;
    s.costTotal = provider_->billing().amortized(pricing, t).total();

    timeline_.record(std::move(s));
}

bool
EngineRun::onTick()
{
    const sim::Time t = simulator_.now();
    for (std::size_t i = 0; i < active_.size(); ++i)
        advanceJob(*active_[i], t);
    // Services without serving capacity record unserved latency once
    // the client-ramp grace period is exhausted. Completed/failed
    // services are compacted away in the same pass.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < lcJobs_.size(); ++i) {
        workload::Job* job = lcJobs_[i];
        if (job->state == workload::JobState::Completed ||
            job->state == workload::JobState::Failed) {
            continue;
        }
        if (job->state == workload::JobState::Pending ||
            job->state == workload::JobState::Queued ||
            job->state == workload::JobState::Waiting) {
            const sim::Time waiting_since =
                job->startedAt == sim::kTimeNever ? job->spec().arrival
                                                  : job->lastProgressAt;
            if (t - waiting_since >
                workload::latency_model::kUnservedGraceSec) {
                job->latencyUs.add(
                    workload::latency_model::kUnservedP99Us);
            }
        }
        lcJobs_[keep++] = job;
    }
    lcJobs_.resize(keep);
    // Jobs only leave `active` by finishing, so skip the compaction
    // scan on the (common) ticks where nothing finished.
    if (finished_ != compactedAtFinished_) {
        std::erase_if(active_, [](const workload::Job* j) {
            return j->state == workload::JobState::Completed ||
                   j->state == workload::JobState::Failed;
        });
        compactedAtFinished_ = finished_;
    }
    strategy_->tick();
    if (t >= nextSample_) {
        sample(t);
        nextSample_ += config_.utilizationSample;
    }
    // Same cadence scheme as sample(): fire on the first tick at or
    // after each boundary, so sample times depend only on the tick grid
    // and are identical in batch and session driving. Disabled runs pay
    // exactly this one predicted branch.
    if (timeline_.enabled() && t >= nextTimelineSample_) {
        sampleTimeline(t);
        nextTimelineSample_ += config_.timeline.cadence;
    }
    // A batch run ends its tick chain once the fixed job set completes; a
    // session never does — more jobs may arrive on the next request.
    if (!sessionMode_ && finished_ == jobs_.size())
        return false;
    if (t > config_.maxRuntime) {
        // Safety: fail whatever is still outstanding.
        for (auto& job : jobs_) {
            if (job->state != workload::JobState::Completed &&
                job->state != workload::JobState::Failed) {
                if (!job->instance) {
                    job->completedAt = t;
                    job->state = workload::JobState::Failed;
                    ++finished_;
                    tracer_.job(obs::EventKind::JobFail, t, job->id(), 0.0,
                                "max_runtime", obs::Severity::Warn);
                    metrics_->recordOutcome(*job);
                } else {
                    finishJob(*job, t, /*failed=*/true);
                }
            }
        }
        return false;
    }
    return true;
}

void
EngineRun::installTick()
{
    simulator_.every(config_.tick, [this]() -> bool { return onTick(); });
}

RunResult
EngineRun::runBatch(const workload::ArrivalTrace& trace,
                    const std::string& scenarioName)
{
    jobs_.reserve(trace.jobs().size());
    for (const auto& spec : trace.jobs())
        jobs_.push_back(std::make_unique<workload::Job>(spec));
    active_.reserve(jobs_.size());
    lcJobs_.reserve(jobs_.size());

    strategy_->start(trace);
    // Event scheduling order is load-bearing: arrivals in trace order
    // first, the tick chain last, exactly as the historical monolithic
    // Engine::run() — (time, seq) tie-breaks in the event queue must not
    // move under the refactor.
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        scheduleArrival(i);
    installTick();

    telemetry_.setupSec += secondsSince(setupStart_);
    const auto loopStart = Clock::now();
    simulator_.run();
    telemetry_.simLoopSec += secondsSince(loopStart);
    return finalize(scenarioName);
}

void
EngineRun::beginSession(const workload::ArrivalTrace& trace)
{
    sessionMode_ = true;
    strategy_->start(trace);
    installTick();
    telemetry_.setupSec += secondsSince(setupStart_);
}

EngineRun::SubmitStatus
EngineRun::submit(const workload::JobSpec& spec)
{
    if (spec.arrival < simulator_.now())
        return SubmitStatus::ArrivalInPast;
    if (jobIndex_.count(spec.id) != 0)
        return SubmitStatus::DuplicateId;
    jobs_.push_back(std::make_unique<workload::Job>(spec));
    jobIndex_.emplace(spec.id, jobs_.size() - 1);
    scheduleArrival(jobs_.size() - 1);
    return SubmitStatus::Accepted;
}

bool
EngineRun::advanceTo(sim::Time t)
{
    if (t < simulator_.now())
        return false;
    const auto loopStart = Clock::now();
    simulator_.runUntil(t);
    telemetry_.simLoopSec += secondsSince(loopStart);
    return true;
}

const workload::Job*
EngineRun::job(sim::JobId id) const
{
    const auto it = jobIndex_.find(id);
    return it == jobIndex_.end() ? nullptr : jobs_[it->second].get();
}

void
EngineRun::buildResult(RunResult& result, const std::string& scenarioName)
{
    result.strategy = strategy_->name();
    result.scenario = scenarioName;
    result.profiling = config_.useProfiling;
    result.timelineCadence = config_.timeline.cadence;
    sim::Time makespan = 0.0;
    for (const auto& job : jobs_)
        makespan = std::max(makespan, job->completedAt);
    result.makespan = makespan > 0.0 ? makespan : simulator_.now();

    result.outcomes = metrics_->outcomes();
    for (const JobOutcome& o : metrics_->outcomes()) {
        ++result.jobCount;
        if (o.failed)
            ++result.failedJobs;
        if (o.jobClass == workload::JobClass::Batch) {
            result.batchTurnaroundMin.add(o.turnaroundMin);
            result.batchPerfNorm.add(o.perfNorm);
        } else {
            result.lcLatencyUs.add(o.latencyP99Us);
            result.lcPerfNorm.add(o.perfNorm);
        }
        (o.onReserved ? result.perfReserved : result.perfOnDemand)
            .add(o.perfNorm);
    }

    if (!strategy_->cluster().reservedPool().empty()) {
        result.reservedUtilizationAvg =
            metrics_->reservedUtilization().average(0.0, result.makespan);
    }
    result.billing = provider_->billing();
    result.reservedAllocated = metrics_->reservedAllocated();
    result.onDemandAllocated = metrics_->onDemandAllocated();
    result.onDemandUsed = metrics_->onDemandUsed();
    result.reservedUtilization = metrics_->reservedUtilization();
    if (auto* hybrid = dynamic_cast<HybridStrategy*>(strategy_.get()))
        result.softLimitHistory = hybrid->softLimitHistory();
    result.instanceTimelines = metrics_->timelines();
    result.breakdown = metrics_->breakdown();
    result.acquisitions = metrics_->acquisitions();
    result.immediateReleases = metrics_->immediateReleases();
    result.reschedules = metrics_->reschedules();
    result.spotInterruptions = metrics_->spotInterruptions();
    result.queuedJobs = metrics_->queuedJobs();
    result.spinUpWaits = metrics_->spinUpWaits();
    result.queueWaits = metrics_->queueWaits();
}

RunResult
EngineRun::liveResult(const std::string& scenarioName)
{
    RunResult result;
    buildResult(result, scenarioName);
    result.timeline = timeline_.snapshot();
    result.telemetry = telemetry_;
    result.telemetry.eventsProcessed = simulator_.eventsRun();
    result.telemetry.callbackHeapAllocs = simulator_.callbackHeapAllocs();
    return result;
}

RunResult
EngineRun::finalize(const std::string& scenarioName)
{
    const auto finalizeStart = Clock::now();
    RunResult result;
    buildResult(result, scenarioName);

    // ---- Observability artifacts ---------------------------------------
    result.trace = tracer_.take();
    result.timeline = timeline_.take();
    telemetry_.finalizeSec += secondsSince(finalizeStart);
    result.telemetry = telemetry_;
    result.telemetry.eventsProcessed = simulator_.eventsRun();
    result.telemetry.callbackHeapAllocs = simulator_.callbackHeapAllocs();
    result.telemetry.eventsPerSec = result.telemetry.simLoopSec > 0.0
        ? static_cast<double>(result.telemetry.eventsProcessed) /
            result.telemetry.simLoopSec
        : 0.0;
    return result;
}

} // namespace hcloud::core
