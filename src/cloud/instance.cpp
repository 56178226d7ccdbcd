#include "cloud/instance.hpp"

#include <algorithm>
#include <cassert>

namespace hcloud::cloud {

namespace {

/** Quality floor: even badly interfered instances make some progress. */
constexpr double kQualityFloor = 0.02;

/**
 * Impact of external-tenant pressure on delivered quality. Calibrated so
 * small shared instances reproduce the ~2x batch slowdown of Figure 1
 * under the paper's 25% external load.
 */
constexpr double kExternalImpact = 1.8;

/**
 * Impact of co-resident (our own) jobs' pressure: much milder, since the
 * scheduler controls and accounts for these placements.
 */
constexpr double kInternalImpact = 0.45;

/** First entry of the id-sorted @p residents whose job is not below @p job. */
template <typename Residents>
auto
findResident(Residents& residents, sim::JobId job)
{
    return std::lower_bound(
        residents.begin(), residents.end(), job,
        [](const auto& entry, sim::JobId id) { return entry.first < id; });
}

} // namespace

Instance::Instance(sim::InstanceId id, const InstanceType& type,
                   const ProviderProfile& profile, Machine* host,
                   bool reserved, sim::Rng rng, sim::Time now)
    : id_(id),
      type_(&type),
      host_(host),
      reserved_(reserved),
      acquiredAt_(now),
      idleSince_(now),
      exposure_(profile.externalExposure.at(type.vcpus)),
      networkExposure_(profile.networkExposure),
      temporal_(0.0, profile.temporalRelaxation,
                profile.temporalStddev.at(type.vcpus), rng.child("temporal"))
{
    // Spatial quality: Beta(mean * kappa, (1-mean) * kappa).
    const double mean = profile.spatialMean.at(type.vcpus);
    const double kappa = profile.spatialConcentration.at(type.vcpus);
    sim::Rng spatial_rng = rng.child("spatial");
    spatialQuality_ = spatial_rng.beta(mean * kappa, (1.0 - mean) * kappa);
    if (type.family == Family::Micro &&
        spatial_rng.bernoulli(profile.microKillProbability)) {
        faulty_ = true;
    }
}

double
Instance::baseQuality(sim::Time t)
{
    if (t == baseQualityT_)
        return baseQualityCached_;
    const double q = spatialQuality_ + temporal_.advanceTo(t);
    baseQualityT_ = t;
    baseQualityCached_ = std::clamp(q, kQualityFloor, 1.0);
    return baseQualityCached_;
}

double
Instance::interferencePressure(sim::Time t, std::optional<sim::JobId> self)
{
    double external = 0.0;
    if (host_) {
        const double u = host_->externalUtilization(t);
        external = (exposure_ + networkExposure_) * u;
    }
    double internal = allPressure_;
    if (self) {
        const auto it = findResident(residents_, *self);
        if (it != residents_.end() && it->first == *self)
            internal = othersPressure_[it - residents_.begin()];
    }
    return std::clamp(kExternalImpact * external + kInternalImpact * internal,
                      0.0, 1.0);
}

double
Instance::effectiveQuality(sim::Time t, double sensitivity,
                           std::optional<sim::JobId> self)
{
    return qualityUnderPressure(t, sensitivity,
                                interferencePressure(t, self));
}

double
Instance::qualityUnderPressure(sim::Time t, double sensitivity,
                               double pressure)
{
    const double base = baseQuality(t);
    // Even interference-tolerant jobs lose raw capacity to neighbours
    // (CPU stealing); sensitivity scales the part beyond that.
    const double factor = 0.25 + 0.75 * std::clamp(sensitivity, 0.0, 1.0);
    const double loss = std::min(1.0, factor * pressure);
    effQualityT_ = t;
    effQualityLast_ = std::clamp(base * (1.0 - loss), kQualityFloor, 1.0);
    return effQualityLast_;
}

void
Instance::recomputeCoResidentPressure()
{
    // othersPressure_[i] continues the prefix fold over residents [0, i)
    // with residents (i, n), so every sum adds the same terms in the same
    // order as one left-to-right pass that skips resident i. O(n^2) per
    // change, against one lookup per query: a resident set changes a few
    // times per job while every running job queries it every tick.
    const std::size_t n = residents_.size();
    othersPressure_.resize(n);
    const auto term = [this](std::size_t i) {
        const Resident& r = residents_[i].second;
        return r.pressure * (r.cores / coresTotal());
    };
    double prefix = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double others = prefix;
        for (std::size_t j = i + 1; j < n; ++j)
            others += term(j);
        othersPressure_[i] = others;
        prefix += term(i);
    }
    allPressure_ = prefix;
}

bool
Instance::addResident(sim::JobId job, const Resident& r, sim::Time now)
{
    const auto it = findResident(residents_, job);
    assert(it == residents_.end() || it->first != job);
    if (r.cores > coresFree() + 1e-9)
        return false;
    residents_.emplace(it, job, r);
    recomputeCoResidentPressure();
    coresUsed_ += r.cores;
    idleSince_ = sim::kTimeNever;
    (void)now;
    return true;
}

void
Instance::resizeResident(sim::JobId job, double cores)
{
    const auto it = findResident(residents_, job);
    assert(it != residents_.end() && it->first == job);
    coresUsed_ += cores - it->second.cores;
    it->second.cores = cores;
    recomputeCoResidentPressure();
}

void
Instance::removeResident(sim::JobId job, sim::Time now)
{
    const auto it = findResident(residents_, job);
    if (it == residents_.end() || it->first != job)
        return;
    coresUsed_ -= it->second.cores;
    residents_.erase(it);
    recomputeCoResidentPressure();
    if (residents_.empty()) {
        coresUsed_ = 0.0; // kill accumulated floating-point drift
        idleSince_ = now;
    }
}

} // namespace hcloud::cloud
