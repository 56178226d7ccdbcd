/**
 * @file
 * Per-instance-type quality tracker.
 *
 * The dynamic policy compares the quality an on-demand instance type
 * delivers with 90% confidence ("Q90", monitored over time) against the
 * target quality QT a job needs (Section 4.2 / Figure 8). This tracker
 * accumulates observed base-quality samples per type, seeded with prior
 * draws from the provider profile so early decisions are sensible.
 */

#ifndef HCLOUD_CORE_QUALITY_TRACKER_HPP
#define HCLOUD_CORE_QUALITY_TRACKER_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cloud/instance_type.hpp"
#include "cloud/provider_profile.hpp"
#include "sim/rng.hpp"

namespace hcloud::core {

/**
 * Rolling per-type distribution of observed instance quality.
 */
class QualityTracker
{
  public:
    /** Number of prior pseudo-samples per type. */
    static constexpr std::size_t kPriorSamples = 40;
    /** Rolling-window capacity per type. */
    static constexpr std::size_t kMaxSamples = 512;

    /**
     * @param profile Provider profile used to draw priors.
     * @param rng Stream for prior draws.
     */
    QualityTracker(const cloud::ProviderProfile& profile, sim::Rng rng);

    /** Record an observed base-quality sample for @p type. */
    void record(const cloud::InstanceType& type, double quality);

    /**
     * Quality delivered by @p type with the given confidence, i.e. the
     * (1 - confidence) quantile of the observed distribution. The paper's
     * Q90 is qualityAtConfidence(type, 0.90); tightening the confidence
     * lowers the reported quality, steering more jobs to reserved.
     */
    double qualityAtConfidence(const cloud::InstanceType& type,
                               double confidence = 0.90) const;

    /** Number of recorded samples (including priors). */
    std::size_t samples(const cloud::InstanceType& type) const;

  private:
    /**
     * One type's window and its sorted copy. record() only appends,
     * evicts and counts; qualityAtConfidence() brings @c sorted up to
     * date by dropping the evicted entries, sorting the values recorded
     * since the last query and merging them in. Equal values in the
     * window are identical doubles (clamped qualities and beta priors:
     * no NaN, no -0.0), so the merged copy holds the same doubles in
     * the same order as a fresh sort of @c window would.
     */
    struct TypeState
    {
        /** Values in arrival order, at most kMaxSamples. */
        std::deque<double> window;
        /**
         * Values ever recorded for the type, priors included: window[i]
         * has sequence number recorded - window.size() + i.
         */
        std::uint64_t recorded = 0;
        /** @c window as (value, sequence number), ascending by value. */
        std::vector<std::pair<double, std::uint64_t>> sorted;
        /** @c recorded when @c sorted was last brought up to date. */
        std::uint64_t sortedUpTo = 0;
    };

    TypeState& stateFor(const cloud::InstanceType& type) const;

    const cloud::ProviderProfile& profile_;
    mutable sim::Rng rng_;
    mutable std::map<std::string, TypeState> types_;
};

} // namespace hcloud::core

#endif // HCLOUD_CORE_QUALITY_TRACKER_HPP
