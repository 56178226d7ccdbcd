#include "core/quality_tracker.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace hcloud::core {

QualityTracker::QualityTracker(const cloud::ProviderProfile& profile,
                               sim::Rng rng)
    : profile_(profile), rng_(rng)
{
}

QualityTracker::TypeState&
QualityTracker::stateFor(const cloud::InstanceType& type) const
{
    auto it = types_.find(type.name);
    if (it != types_.end())
        return it->second;
    // Seed with prior draws from the profile's spatial distribution so
    // decisions made before any observation are reasonable.
    TypeState state;
    const double mean = profile_.spatialMean.at(type.vcpus);
    const double kappa = profile_.spatialConcentration.at(type.vcpus);
    for (std::size_t i = 0; i < kPriorSamples; ++i) {
        state.window.push_back(
            rng_.beta(mean * kappa, (1.0 - mean) * kappa));
    }
    state.recorded = kPriorSamples;
    return types_.emplace(type.name, std::move(state)).first->second;
}

void
QualityTracker::record(const cloud::InstanceType& type, double quality)
{
    TypeState& s = stateFor(type);
    s.window.push_back(std::clamp(quality, 0.0, 1.0));
    if (s.window.size() > kMaxSamples)
        s.window.pop_front();
    ++s.recorded;
}

double
QualityTracker::qualityAtConfidence(const cloud::InstanceType& type,
                                    double confidence) const
{
    TypeState& s = stateFor(type);
    if (s.sortedUpTo != s.recorded) {
        const std::uint64_t first = s.recorded - s.window.size();
        std::erase_if(s.sorted,
                      [first](const auto& e) { return e.second < first; });
        // The values recorded since the last query are the window's
        // tail, or all of it if the window turned over in between.
        const auto kept = static_cast<std::ptrdiff_t>(s.sorted.size());
        for (std::uint64_t seq = std::max(s.sortedUpTo, first);
             seq < s.recorded; ++seq) {
            s.sorted.emplace_back(s.window[seq - first], seq);
        }
        const auto by_value = [](const auto& a, const auto& b) {
            return a.first < b.first;
        };
        std::sort(s.sorted.begin() + kept, s.sorted.end(), by_value);
        std::inplace_merge(s.sorted.begin(), s.sorted.begin() + kept,
                           s.sorted.end(), by_value);
        s.sortedUpTo = s.recorded;
    }
    const auto& sorted = s.sorted;
    const double q = std::clamp(1.0 - confidence, 0.0, 1.0);
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo].first * (1.0 - frac) + sorted[hi].first * frac;
}

std::size_t
QualityTracker::samples(const cloud::InstanceType& type) const
{
    return stateFor(type).window.size();
}

} // namespace hcloud::core
