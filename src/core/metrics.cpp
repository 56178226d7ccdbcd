#include "core/metrics.hpp"

namespace hcloud::core {

void
MetricsCollector::recordOutcome(const workload::Job& job)
{
    JobOutcome o;
    o.id = job.id();
    o.kind = job.spec().kind;
    o.jobClass = job.spec().jobClass();
    o.onReserved = job.onReserved;
    o.failed = job.state == workload::JobState::Failed;
    o.perfNorm = job.perfNormalized();
    if (o.jobClass == workload::JobClass::Batch) {
        o.turnaroundMin = job.turnaround() / 60.0;
    } else {
        o.latencyP99Us = job.achievedLatencyUs();
    }
    o.waitSec = job.waitTime;
    o.reschedules = job.reschedules;
    outcomes_.push_back(o);
}

void
MetricsCollector::recordAllocation(sim::Time t, double reservedCores,
                                   double onDemandCores,
                                   double onDemandUsed)
{
    reservedAllocated_.record(t, reservedCores);
    onDemandAllocated_.record(t, onDemandCores);
    onDemandUsed_.record(t, onDemandUsed);
}

void
MetricsCollector::recordReservedUtilization(sim::Time t, double utilization)
{
    reservedUtilSeries_.record(t, utilization);
}

void
MetricsCollector::recordInstanceUtilization(sim::InstanceId id,
                                            const std::string& type,
                                            bool reserved,
                                            sim::Time acquiredAt,
                                            sim::Time t, double utilization)
{
    auto it = timelines_.find(id);
    if (it == timelines_.end()) {
        InstanceTimeline tl;
        tl.id = id;
        tl.type = type;
        tl.reserved = reserved;
        tl.acquiredAt = acquiredAt;
        it = timelines_.emplace(id, std::move(tl)).first;
    }
    it->second.utilization.push_back({t, utilization});
}

void
MetricsCollector::recordInstanceReleased(sim::InstanceId id, sim::Time t)
{
    auto it = timelines_.find(id);
    if (it != timelines_.end())
        it->second.releasedAt = t;
}

void
MetricsCollector::recordBreakdown(sim::Time t, const std::string& group,
                                  bool reserved, double cores)
{
    const std::string key =
        group + (reserved ? "/reserved" : "/on-demand");
    breakdown_[key].record(t, cores);
}

double
RunResult::meanPerfNorm() const
{
    sim::OnlineStats s;
    for (double x : batchPerfNorm.raw())
        s.add(x);
    for (double x : lcPerfNorm.raw())
        s.add(x);
    return s.mean();
}

cloud::CostBreakdown
RunResult::cost(const cloud::PricingModel& pricing) const
{
    return billing.amortized(pricing, makespan);
}

cloud::CostBreakdown
RunResult::costOverHorizon(const cloud::PricingModel& pricing,
                           sim::Duration horizon) const
{
    return billing.committed(pricing, makespan, horizon);
}

} // namespace hcloud::core
