/**
 * @file
 * Instance: an acquired VM and its quality model.
 *
 * Every instance carries the two variability components of Figures 1-2:
 *  - a *spatial* base quality drawn once at creation (which physical
 *    server / neighbourhood you landed on), and
 *  - a *temporal* Ornstein–Uhlenbeck noise component.
 *
 * Delivered capacity for a job is
 *     cores * effectiveQuality(t, sensitivity)
 * where effective quality discounts the base quality by the job's
 * sensitivity-weighted interference pressure (external tenants plus
 * co-resident jobs of our own).
 */

#ifndef HCLOUD_CLOUD_INSTANCE_HPP
#define HCLOUD_CLOUD_INSTANCE_HPP

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cloud/instance_type.hpp"
#include "cloud/machine.hpp"
#include "cloud/provider_profile.hpp"
#include "sim/ou_process.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace hcloud::cloud {

/** Lifecycle of an instance. */
enum class InstanceState
{
    SpinningUp, ///< acquire() issued; not yet usable.
    Running,    ///< usable (may be idle or hosting jobs).
    Released,   ///< given back to the provider.
};

/**
 * A job resident on an instance, as the cloud layer sees it: an id, a core
 * allocation, and a scalar pressure it exerts on shared resources.
 */
struct Resident
{
    double cores = 0.0;
    /** Average pressure this job puts on shared resources, in [0, 1]. */
    double pressure = 0.0;
};

/**
 * An acquired VM.
 */
class Instance
{
  public:
    /** Residents in ascending job-id order. */
    using Residents = std::vector<std::pair<sim::JobId, Resident>>;

    /**
     * Construct; called by CloudProvider only.
     *
     * @param id Unique id.
     * @param type Shape.
     * @param profile Provider variability profile.
     * @param host Backing physical machine (owns external load).
     * @param reserved True for reserved-pool members.
     * @param rng Stream for quality draws.
     * @param now Acquisition time.
     */
    Instance(sim::InstanceId id, const InstanceType& type,
             const ProviderProfile& profile, Machine* host, bool reserved,
             sim::Rng rng, sim::Time now);

    sim::InstanceId id() const { return id_; }
    const InstanceType& type() const { return *type_; }
    bool reserved() const { return reserved_; }
    Machine* host() const { return host_; }

    InstanceState state() const { return state_; }
    void setState(InstanceState s) { state_ = s; }

    sim::Time acquiredAt() const { return acquiredAt_; }
    sim::Time availableAt() const { return availableAt_; }
    void setAvailableAt(sim::Time t) { availableAt_ = t; }
    sim::Time releasedAt() const { return releasedAt_; }
    void setReleasedAt(sim::Time t) { releasedAt_ = t; }

    /** True for instances whose platform kills workloads (EC2 micro). */
    bool faulty() const { return faulty_; }
    void markFaulty() { faulty_ = true; }

    /** True for spot instances (interruptible, market-priced). */
    bool spot() const { return spot_; }
    void markSpot(double bidHourly)
    {
        spot_ = true;
        spotBid_ = bidHourly;
    }
    /** The bid this spot instance was acquired at ($/hour). */
    double spotBid() const { return spotBid_; }

    /** Spatial base quality in [0, 1], fixed for the instance lifetime. */
    double spatialQuality() const { return spatialQuality_; }

    /**
     * Base quality at time @p t: spatial component plus temporal noise,
     * clamped to [0.02, 1].
     *
     * Tick-coherent: memoized per exact @p t. The temporal OU process is
     * idempotent at fixed t (the RNG draw happens only when the clock
     * advances), so repeated same-tick callers get the cached value with
     * identical bits and identical RNG state.
     */
    double baseQuality(sim::Time t);

    /**
     * Sensitivity-weighted interference pressure a job would feel here at
     * time @p t: external-tenant pressure plus pressure from co-resident
     * jobs other than @p self. The co-resident part is the sum, in
     * ascending job-id order, of pressure * (cores / coresTotal()) over
     * every other resident; a @p self that is not resident, or nullopt,
     * sees every resident. Every add/resize/remove recomputes those sums
     * and the external part is the host's per-tick memo, so a query does
     * no per-resident work.
     */
    double interferencePressure(sim::Time t,
                                std::optional<sim::JobId> self);

    /**
     * Capacity multiplier for a job with the given interference
     * sensitivity, in [0.02, 1]: qualityUnderPressure() at the
     * interferencePressure(t, self) the job feels.
     */
    double effectiveQuality(sim::Time t, double sensitivity,
                            std::optional<sim::JobId> self);

    /**
     * effectiveQuality() for a caller that already holds the job's
     * interferencePressure(t, self) as @p pressure.
     */
    double qualityUnderPressure(sim::Time t, double sensitivity,
                                double pressure);

    /**
     * Last materialized quality without advancing anything: the last
     * effective quality computed, else the memoized base quality, else
     * the spatial component alone. Read-only — safe for samplers
     * (obs::Timeline) that must not move an RNG draw.
     */
    double observedQuality() const
    {
        if (effQualityT_ >= 0.0)
            return effQualityLast_;
        if (baseQualityT_ >= 0.0)
            return baseQualityCached_;
        return spatialQuality_;
    }

    // --- Occupancy -------------------------------------------------------

    double coresTotal() const { return type_->vcpus; }
    double coresUsed() const { return coresUsed_; }
    double coresFree() const { return coresTotal() - coresUsed_; }
    bool idle() const { return residents_.empty(); }
    std::size_t residentCount() const { return residents_.size(); }

    /** Time the instance last became idle (kTimeNever if occupied). */
    sim::Time idleSince() const { return idleSince_; }

    /** Place a job. @return false if the cores do not fit. */
    bool addResident(sim::JobId job, const Resident& r, sim::Time now);

    /** Update a resident's core allocation in place. */
    void resizeResident(sim::JobId job, double cores);

    /** Remove a job (no-op if absent). */
    void removeResident(sim::JobId job, sim::Time now);

    const Residents& residents() const { return residents_; }

  private:
    /** Refill allPressure_ and othersPressure_ from residents_. */
    void recomputeCoResidentPressure();

    sim::InstanceId id_;
    const InstanceType* type_;
    Machine* host_;
    bool reserved_;
    bool faulty_ = false;
    bool spot_ = false;
    double spotBid_ = 0.0;
    InstanceState state_ = InstanceState::SpinningUp;

    sim::Time acquiredAt_;
    sim::Time availableAt_ = sim::kTimeNever;
    sim::Time releasedAt_ = sim::kTimeNever;
    sim::Time idleSince_;

    double spatialQuality_;
    double exposure_;
    double networkExposure_;
    sim::OuProcess temporal_;

    double coresUsed_ = 0.0;
    Residents residents_;

    // --- Memoization, split by what each input depends on ---------------
    // Invariant: every stored value is a pure function of its key, and a
    // new model input joins the key of what it depends on.
    //  - Resident set: the co-resident sums below, rebuilt by every
    //    add/resize/remove (recomputeCoResidentPressure).
    //  - Query time t: baseQuality here and Machine::externalUtilization,
    //    keyed on the exact t. They only skip *repeat* evaluations within
    //    one tick and never change which tick first advances an OU
    //    process.
    // Pressure and effective quality combine these with a few flops and
    // have no cache of their own.

    // Each sum folds the residents left to right from 0.0, skipping the
    // excluded job, so a lookup returns the same bits as summing over the
    // resident set at query time would.
    /** Sum over every resident. */
    double allPressure_ = 0.0;
    /** othersPressure_[i]: sum over every resident except residents_[i]. */
    std::vector<double> othersPressure_;

    sim::Time baseQualityT_ = -1.0;
    double baseQualityCached_ = 0.0;
    /** Time and value of the last effectiveQuality() (observedQuality). */
    sim::Time effQualityT_ = -1.0;
    double effQualityLast_ = 0.0;
};

} // namespace hcloud::cloud

#endif // HCLOUD_CLOUD_INSTANCE_HPP
