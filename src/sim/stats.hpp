/**
 * @file
 * Statistics containers used by the metrics and reporting layers.
 *
 *  - OnlineStats: streaming count/mean/variance/min/max (Welford).
 *  - SampleSet: stores samples, answers arbitrary quantiles, boxplot
 *    summaries (p5/p25/mean/p75/p95 as drawn in the paper's figures) and
 *    empirical CDFs.
 *  - Histogram: fixed-width binning for utilization heatmaps.
 */

#ifndef HCLOUD_SIM_STATS_HPP
#define HCLOUD_SIM_STATS_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace hcloud::sim {

/**
 * Streaming moments via Welford's algorithm: O(1) memory.
 */
class OnlineStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const OnlineStats& other);

    std::size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Population variance. */
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return mean_ * static_cast<double>(count_); }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Five-number summary matching the paper's boxplots: whiskers at p5/p95,
 * box at p25/p75, horizontal line at the mean.
 */
struct BoxplotSummary
{
    double p5 = 0.0;
    double p25 = 0.0;
    double mean = 0.0;
    double p75 = 0.0;
    double p95 = 0.0;
    std::size_t count = 0;
};

/**
 * Sample container with quantile queries.
 *
 * Samples are stored verbatim; quantiles use linear interpolation between
 * order statistics (type-7, the numpy default). A sorted copy is built
 * on demand and kept until the next insertion. The first quantile()
 * after an insertion does not sort: it selects the two order statistics
 * it interpolates and keeps that one answer, since many sets (a
 * service's per-tick p99s) are asked for a single quantile, a few
 * times, after their last insertion. A second, different quantile sorts,
 * as do min(), max(), cdf(), sorted() and boxplot(). A selected order
 * statistic is the double a sort puts at that rank whenever samples that
 * compare equal are identical doubles, i.e. the set does not mix -0.0
 * with 0.0 (and holds no NaN, which neither way orders).
 */
class SampleSet
{
  public:
    SampleSet() = default;

    /** Add one sample. */
    void add(double x);

    /** Add many samples. */
    void addAll(const std::vector<double>& xs);

    /** Merge another sample set into this one. */
    void merge(const SampleSet& other);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double mean() const;
    double min() const;
    double max() const;

    /**
     * Quantile in [0, 1] with linear interpolation.
     * Returns 0.0 on an empty set, matching min()/max().
     */
    double quantile(double q) const;

    /** Shorthand percentile accessor, p in [0, 100]. */
    double percentile(double p) const { return quantile(p / 100.0); }

    /** Five-number boxplot summary. */
    BoxplotSummary boxplot() const;

    /** Fraction of samples <= x (empirical CDF). */
    double cdf(double x) const;

    /** Sorted copy of the samples. */
    const std::vector<double>& sorted() const;

    /** Raw samples in insertion order. */
    const std::vector<double>& raw() const { return samples_; }

    /** Remove all samples. */
    void clear();

  private:
    void ensureSorted() const;

    std::vector<double> samples_;
    /** Sorted copy when sortedValid_; else scratch for the selection. */
    mutable std::vector<double> sorted_;
    mutable bool sortedValid_ = false;
    /** The one quantile selected since the last insertion, if any. */
    mutable bool selected_ = false;
    mutable double selectedQ_ = 0.0;
    mutable double selectedValue_ = 0.0;
};

/**
 * Fixed-width histogram over [lo, hi); out-of-range values clamp into the
 * first/last bin.
 */
class Histogram
{
  public:
    /**
     * @param lo Inclusive lower bound of the range.
     * @param hi Exclusive upper bound of the range.
     * @param bins Number of equal-width bins (>= 1).
     */
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x, double weight = 1.0);

    std::size_t bins() const { return counts_.size(); }
    double binWidth() const { return width_; }
    double binLow(std::size_t i) const { return lo_ + width_ * i; }
    double count(std::size_t i) const { return counts_[i]; }
    double total() const { return total_; }

    /** Fraction of mass in bin i (0 when empty). */
    double fraction(std::size_t i) const;

  private:
    double lo_;
    double width_;
    double total_ = 0.0;
    std::vector<double> counts_;
};

} // namespace hcloud::sim

#endif // HCLOUD_SIM_STATS_HPP
