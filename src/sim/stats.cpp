#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace hcloud::sim {

void
OnlineStats::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
OnlineStats::merge(const OnlineStats& other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = n1 + n2;
    mean_ += delta * n2 / n;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
}

double
OnlineStats::variance() const
{
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

double
OnlineStats::min() const
{
    return count_ ? min_ : 0.0;
}

double
OnlineStats::max() const
{
    return count_ ? max_ : 0.0;
}

void
SampleSet::add(double x)
{
    samples_.push_back(x);
    sortedValid_ = false;
    selected_ = false;
}

void
SampleSet::addAll(const std::vector<double>& xs)
{
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    sortedValid_ = false;
    selected_ = false;
}

void
SampleSet::merge(const SampleSet& other)
{
    addAll(other.samples_);
}

double
SampleSet::mean() const
{
    if (samples_.empty())
        return 0.0;
    const double sum =
        std::accumulate(samples_.begin(), samples_.end(), 0.0);
    return sum / static_cast<double>(samples_.size());
}

double
SampleSet::min() const
{
    ensureSorted();
    return sorted_.empty() ? 0.0 : sorted_.front();
}

double
SampleSet::max() const
{
    ensureSorted();
    return sorted_.empty() ? 0.0 : sorted_.back();
}

void
SampleSet::ensureSorted() const
{
    if (sortedValid_)
        return;
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sortedValid_ = true;
}

double
SampleSet::quantile(double q) const
{
    // Empty sets return 0.0 like min()/max(): the old assert-only guard
    // compiled out under NDEBUG and indexed sorted_[-0u] on release
    // builds fed an all-failed cell.
    if (samples_.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    if (!sortedValid_) {
        if (selected_ && q == selectedQ_)
            return selectedValue_;
        if (!selected_) {
            // Select rank lo, then rank hi as the least value above it.
            sorted_ = samples_;
            const auto at_lo =
                sorted_.begin() + static_cast<std::ptrdiff_t>(lo);
            std::nth_element(sorted_.begin(), at_lo, sorted_.end());
            selected_ = true;
            selectedQ_ = q;
            selectedValue_ = lo == hi
                ? *at_lo
                : *at_lo * (1.0 - frac) +
                      *std::min_element(at_lo + 1, sorted_.end()) * frac;
            return selectedValue_;
        }
    }
    ensureSorted();
    if (lo == hi)
        return sorted_[lo];
    return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

BoxplotSummary
SampleSet::boxplot() const
{
    BoxplotSummary b;
    if (samples_.empty())
        return b;
    b.p5 = quantile(0.05);
    b.p25 = quantile(0.25);
    b.mean = mean();
    b.p75 = quantile(0.75);
    b.p95 = quantile(0.95);
    b.count = samples_.size();
    return b;
}

double
SampleSet::cdf(double x) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) /
           static_cast<double>(sorted_.size());
}

const std::vector<double>&
SampleSet::sorted() const
{
    ensureSorted();
    return sorted_;
}

void
SampleSet::clear()
{
    samples_.clear();
    sorted_.clear();
    sortedValid_ = true;
    selected_ = false;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo),
      width_((hi - lo) / static_cast<double>(bins == 0 ? 1 : bins)),
      counts_(bins == 0 ? 1 : bins, 0.0)
{
    assert(hi > lo && "histogram range must be non-empty");
}

void
Histogram::add(double x, double weight)
{
    const double pos = (x - lo_) / width_;
    std::size_t i;
    if (pos < 0.0) {
        i = 0;
    } else if (pos >= static_cast<double>(counts_.size())) {
        i = counts_.size() - 1;
    } else {
        i = static_cast<std::size_t>(pos);
    }
    counts_[i] += weight;
    total_ += weight;
}

double
Histogram::fraction(std::size_t i) const
{
    return total_ > 0.0 ? counts_[i] / total_ : 0.0;
}

} // namespace hcloud::sim
