#include "core/strategy.hpp"

#include <algorithm>
#include <cassert>

#include "core/hybrid.hpp"
#include "core/on_demand.hpp"
#include "core/static_reserved.hpp"
#include "workload/latency_model.hpp"

namespace hcloud::core {

const char*
toString(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::SR:
        return "SR";
      case StrategyKind::OdF:
        return "OdF";
      case StrategyKind::OdM:
        return "OdM";
      case StrategyKind::HF:
        return "HF";
      case StrategyKind::HM:
        return "HM";
    }
    return "?";
}

Strategy::Strategy(EngineContext& ctx)
    : ctx_(ctx),
      retention_(ctx.config.retentionMultiple,
                 ctx.config.qualityRetentionThreshold),
      qualityTracker_(ctx.provider.profile(),
                      sim::Rng(ctx.config.seed).child("quality-tracker")),
      rng_(sim::Rng(ctx.config.seed).child("strategy")),
      large_(&ctx.catalog.byName("st16"))
{
    qosMonitor_.setTracer(&ctx.tracer);
}

JobSizing
Strategy::sizeJob(const workload::Job& job)
{
    auto it = sizings_.find(job.id());
    if (it != sizings_.end())
        return it->second;

    JobSizing s;
    const workload::JobSpec& spec = job.spec();
    if (ctx_.config.useProfiling) {
        const profiling::Estimate& e = ctx_.quasar.estimate(spec);
        s.cores = e.cores;
        s.memoryPerCore = e.memoryPerCore;
        s.quality = e.quality;
        s.sensitivity = e.sensitivityScalar;
        s.pressure = e.pressure;
    } else {
        // User-specified reservations (Section 3.4): batch jobs run with
        // default framework parameters; latency-critical services are
        // provisioned for peak input load.
        s.cores = spec.jobClass() == workload::JobClass::Batch ? 4.0 : 16.0;
        s.memoryPerCore = spec.memoryPerCore;
        s.quality = 0.5;
        s.sensitivity = 0.5;
        s.pressure = 0.5;
    }
    sizings_.emplace(job.id(), s);
    return s;
}

const JobSizing&
Strategy::sizingOf(const workload::Job& job) const
{
    static const JobSizing kDefault;
    auto it = sizings_.find(job.id());
    return it == sizings_.end() ? kDefault : it->second;
}

bool
Strategy::tryPlaceReserved(workload::Job& job, const JobSizing& s)
{
    const sim::Time now = ctx_.simulator.now();
    cloud::Instance* inst = ctx_.config.useProfiling
        ? qualityAwareFit(cluster_.reservedPool(), s.cores, s.sensitivity,
                          requiredQuality(s.quality), now)
        : leastLoaded(cluster_.reservedPool(), s.cores);
    if (!inst)
        return false;
    assignToInstance(job, inst, s, /*reserved=*/true);
    return true;
}

void
Strategy::queueReserved(workload::Job& job)
{
    job.state = workload::JobState::Queued;
    if (job.queuedAt == sim::kTimeNever)
        job.queuedAt = ctx_.simulator.now();
    reservedQueue_.push_back(&job);
    ctx_.metrics.countQueued();
    ctx_.tracer.job(obs::EventKind::JobQueue, ctx_.simulator.now(),
                    job.id(),
                    static_cast<double>(reservedQueue_.size()));
}

void
Strategy::drainReservedQueue()
{
    if (reservedQueue_.empty())
        return;
    std::deque<workload::Job*> still_waiting;
    for (workload::Job* job : reservedQueue_) {
        const JobSizing s = sizeJob(*job);
        if (!tryPlaceReserved(*job, s))
            still_waiting.push_back(job);
    }
    reservedQueue_.swap(still_waiting);
}

cloud::Instance*
Strategy::findOnDemandRoom(const JobSizing& s,
                           const cloud::InstanceType* type,
                           bool requireIdle, bool anyShape)
{
    const sim::Time now = ctx_.simulator.now();
    cloud::Instance* best = nullptr;
    for (cloud::Instance* inst : cluster_.onDemand()) {
        if (inst->state() == cloud::InstanceState::Released ||
            inst->faulty()) {
            continue;
        }
        if (requireIdle) {
            // Retained-instance reuse: accept a moderately larger idle
            // shape rather than spinning up an exact match.
            if (!inst->idle())
                continue;
            if (type &&
                (inst->type().vcpus < type->vcpus ||
                 inst->type().vcpus > 2 * type->vcpus ||
                 inst->type().memoryGb + 1e-9 < type->memoryGb)) {
                continue;
            }
        } else {
            if (type && inst->type().name != type->name)
                continue;
            if (!type && !anyShape && !inst->type().fullServer())
                continue;
        }
        if (inst->coresFree() + 1e-9 < s.cores)
            continue;
        if (ctx_.config.useProfiling) {
            // Running instances expose their observed quality; for ones
            // still spinning up fall back to the type's track record.
            const double q =
                inst->state() == cloud::InstanceState::Running
                    ? inst->effectiveQuality(now, s.sensitivity,
                                             std::nullopt)
                    : qualityTracker_.qualityAtConfidence(inst->type());
            if (q + 1e-9 < requiredQuality(s.quality) - 0.1)
                continue;
        }
        if (!best || (requireIdle
                          ? inst->type().vcpus < best->type().vcpus
                          : inst->coresFree() < best->coresFree())) {
            best = inst;
        }
    }
    return best;
}

void
Strategy::assignToInstance(workload::Job& job, cloud::Instance* instance,
                           const JobSizing& s, bool reserved)
{
    const sim::Time now = ctx_.simulator.now();
    job.instance = instance;
    job.cores = s.cores;
    job.onReserved = reserved;
    jobIndex_[job.id()] = &job;
    const bool ok = instance->addResident(
        job.id(), cloud::Resident{s.cores, s.pressure}, now);
    assert(ok && "placement must fit");
    (void)ok;
    if (instance->state() == cloud::InstanceState::Running) {
        startJob(job);
    } else {
        job.state = workload::JobState::Waiting;
        pending_[instance->id()].push_back(&job);
    }
}

void
Strategy::acquireFor(workload::Job& job, const cloud::InstanceType& type,
                     const JobSizing& s)
{
    cloud::Instance* inst = ctx_.provider.acquire(
        type, [this](cloud::Instance* ready) { onInstanceReady(ready); });
    cluster_.addOnDemand(inst);
    ctx_.metrics.countAcquisition();
    assignToInstance(job, inst, s, /*reserved=*/false);
}

const cloud::InstanceType&
Strategy::pickSmallestType(const JobSizing& s) const
{
    const cloud::InstanceType* type = ctx_.catalog.smallestFitting(
        s.cores, s.cores * s.memoryPerCore);
    return type ? *type : largeType();
}

void
Strategy::releaseInstance(cloud::Instance* instance)
{
    assert(!instance->reserved());
    cluster_.removeOnDemand(instance);
    ctx_.provider.release(instance);
    ctx_.metrics.recordInstanceReleased(instance->id(),
                                        ctx_.simulator.now());
    pending_.erase(instance->id());
}

void
Strategy::startJob(workload::Job& job)
{
    const sim::Time now = ctx_.simulator.now();
    job.state = workload::JobState::Running;
    job.startedAt = now;
    job.waitTime = now - job.spec().arrival;
    if (job.queuedAt != sim::kTimeNever) {
        const sim::Duration wait = now - job.queuedAt;
        ctx_.metrics.recordQueueWait(wait);
        queueEstimator_.recordMeasuredWait(job.instance->type(), wait);
        job.queuedAt = sim::kTimeNever;
    }
    if (ctx_.tracer.enabled()) {
        ctx_.tracer.record({now, obs::EventKind::JobStart,
                            obs::Severity::Info,
                            obs::DecisionReason::None, job.id(),
                            job.instance->id(), job.cores,
                            job.instance->type().name});
    }
    if (ctx_.onJobStarted)
        ctx_.onJobStarted(job);
}

void
Strategy::onInstanceReady(cloud::Instance* instance)
{
    const sim::Time now = ctx_.simulator.now();
    qualityTracker_.record(instance->type(), instance->baseQuality(now));
    auto it = pending_.find(instance->id());
    if (it == pending_.end())
        return;
    std::vector<workload::Job*> jobs = std::move(it->second);
    pending_.erase(it);
    for (workload::Job* job : jobs) {
        if (job->state != workload::JobState::Waiting ||
            job->instance != instance) {
            continue; // rescheduled away while spinning up
        }
        ctx_.metrics.recordSpinUpWait(now - instance->acquiredAt());
        startJob(*job);
    }
}

void
Strategy::jobCompleted(workload::Job& job)
{
    const sim::Time now = ctx_.simulator.now();
    cloud::Instance* inst = job.instance;
    assert(inst);
    inst->removeResident(job.id(), now);
    job.instance = nullptr;
    qosMonitor_.forget(job.id());
    jobIndex_.erase(job.id());
    ctx_.metrics.recordOutcome(job);
    queueEstimator_.recordRelease(inst->type(), now);
    if (!inst->reserved())
        qualityTracker_.record(inst->type(), inst->baseQuality(now));
    if (!inst->reserved() && inst->idle() &&
        inst->state() == cloud::InstanceState::Running &&
        !retention_.retainWorthy(*inst, now)) {
        // Poorly-behaved instances are not worth retaining (Section 5.4).
        ctx_.metrics.countImmediateRelease();
        ctx_.tracer.decision(now, obs::DecisionReason::LowQualityRelease,
                             /*job=*/0, inst->id(),
                             inst->baseQuality(now), inst->type().name);
        releaseInstance(inst);
    }
    drainReservedQueue();
}

void
Strategy::handleRetention()
{
    const sim::Time now = ctx_.simulator.now();
    std::vector<cloud::Instance*> to_release;
    for (cloud::Instance* inst : cluster_.onDemand()) {
        if (retention_.shouldRelease(*inst, ctx_.provider.spinUp(), now))
            to_release.push_back(inst);
    }
    for (cloud::Instance* inst : to_release) {
        ctx_.tracer.decision(now, obs::DecisionReason::RetentionExpired,
                             /*job=*/0, inst->id(), /*value=*/0.0,
                             inst->type().name);
        releaseInstance(inst);
    }
}

void
Strategy::tick()
{
    ++tickCount_;
    handleRetention();
    drainReservedQueue();
    // Periodically refresh the per-type quality distribution from live
    // on-demand instances.
    if (tickCount_ % 8 == 0) {
        const sim::Time now = ctx_.simulator.now();
        for (cloud::Instance* inst : cluster_.onDemand()) {
            if (inst->state() == cloud::InstanceState::Running) {
                qualityTracker_.record(inst->type(),
                                       inst->baseQuality(now));
            }
        }
    }
}

void
Strategy::qosCheck(workload::Job& job, bool violating)
{
    if (!ctx_.config.qosMonitoring ||
        job.state != workload::JobState::Running) {
        return;
    }
    cloud::Instance* inst = job.instance;
    // The monitor reads can_boost only on a violating check.
    const bool can_boost = violating && inst->coresFree() >= 1.0 &&
        job.cores < 2.0 * sizingOf(job).cores;
    const sim::Time now = ctx_.simulator.now();
    const QosAction action = qosMonitor_.check(
        job.id(), violating, can_boost, job.reschedules, now);
    switch (action) {
      case QosAction::None:
        break;
      case QosAction::Boost:
        inst->resizeResident(job.id(), job.cores + 1.0);
        job.cores += 1.0;
        ctx_.tracer.decision(now, obs::DecisionReason::QosViolationBoost,
                             job.id(), inst->id(), job.cores);
        break;
      case QosAction::Reschedule: {
        ++job.reschedules;
        ctx_.metrics.countReschedule();
        ctx_.tracer.decision(
            now, obs::DecisionReason::QosViolationReschedule, job.id(),
            inst->id(), static_cast<double>(job.reschedules), {},
            obs::Severity::Warn);
        inst->removeResident(job.id(), ctx_.simulator.now());
        job.instance = nullptr;
        job.state = workload::JobState::Pending;
        // Revisit the allocation decision (Section 3.3): the job missed
        // QoS at its current size, so grant it more resources.
        auto sit = sizings_.find(job.id());
        if (sit != sizings_.end()) {
            sit->second.cores = std::min(16.0, sit->second.cores + 2.0);
            sit->second.quality =
                std::min(1.0, sit->second.quality + 0.1);
        }
        submit(job);
        break;
      }
    }
}

std::unique_ptr<Strategy>
makeStrategy(StrategyKind kind, EngineContext& ctx)
{
    switch (kind) {
      case StrategyKind::SR:
        return std::make_unique<StaticReservedStrategy>(ctx);
      case StrategyKind::OdF:
        return std::make_unique<OnDemandStrategy>(ctx, /*mixed=*/false);
      case StrategyKind::OdM:
        return std::make_unique<OnDemandStrategy>(ctx, /*mixed=*/true);
      case StrategyKind::HF:
        return std::make_unique<HybridStrategy>(ctx, /*mixed=*/false);
      case StrategyKind::HM:
        return std::make_unique<HybridStrategy>(ctx, /*mixed=*/true);
    }
    return nullptr;
}

} // namespace hcloud::core
