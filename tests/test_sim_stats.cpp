/**
 * @file
 * Unit tests for the statistics containers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace hcloud::sim {
namespace {

TEST(OnlineStats, BasicMoments)
{
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeEquivalentToCombinedStream)
{
    Rng rng(3);
    OnlineStats all;
    OnlineStats left;
    OnlineStats right;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(5.0, 3.0);
        all.add(x);
        (i % 2 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(SampleSet, QuantilesInterpolateLikeNumpy)
{
    SampleSet s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.5);
    EXPECT_DOUBLE_EQ(s.quantile(0.25), 1.75);
    EXPECT_DOUBLE_EQ(s.percentile(75.0), 3.25);
}

TEST(SampleSet, EmptyQuantileReturnsZeroLikeMinMax)
{
    // Regression: this used to be an assert-only guard, so NDEBUG builds
    // indexed past the end of an empty sorted vector (fig01-style cells
    // where every job was killed hit it via boxplot()).
    const SampleSet s;
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(95.0), 0.0);
    const BoxplotSummary b = s.boxplot();
    EXPECT_EQ(b.count, 0u);
    EXPECT_DOUBLE_EQ(b.p95, 0.0);
}

TEST(SampleSet, SingleSampleQuantiles)
{
    SampleSet s;
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.0);
}

TEST(SampleSet, QuantileAfterLateInsertInvalidatesCache)
{
    SampleSet s;
    s.add(1.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

TEST(SampleSet, BoxplotSummary)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    const BoxplotSummary b = s.boxplot();
    EXPECT_EQ(b.count, 100u);
    EXPECT_NEAR(b.p5, 5.95, 1e-9);
    EXPECT_NEAR(b.p25, 25.75, 1e-9);
    EXPECT_DOUBLE_EQ(b.mean, 50.5);
    EXPECT_NEAR(b.p75, 75.25, 1e-9);
    EXPECT_NEAR(b.p95, 95.05, 1e-9);
}

TEST(SampleSet, EmpiricalCdf)
{
    SampleSet s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.cdf(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.cdf(2.0), 0.5);
    EXPECT_DOUBLE_EQ(s.cdf(2.5), 0.5);
    EXPECT_DOUBLE_EQ(s.cdf(10.0), 1.0);
}

/** Type-7 quantile of @p xs by a full sort, as SampleSet defines it. */
double
referenceQuantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
    if (lo == hi)
        return xs[lo];
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/** Every sorted-copy query of @p s against a full sort of @p xs. */
void
expectSortedQueriesMatch(const SampleSet& s, std::vector<double> xs)
{
    const BoxplotSummary b = s.boxplot();
    EXPECT_EQ(b.p5, referenceQuantile(xs, 0.05));
    EXPECT_EQ(b.p25, referenceQuantile(xs, 0.25));
    EXPECT_EQ(b.p75, referenceQuantile(xs, 0.75));
    EXPECT_EQ(b.p95, referenceQuantile(xs, 0.95));
    EXPECT_EQ(b.count, xs.size());
    std::sort(xs.begin(), xs.end());
    EXPECT_EQ(s.sorted(), xs);
    EXPECT_EQ(s.min(), xs.front());
    EXPECT_EQ(s.max(), xs.back());
    const double mid = xs[xs.size() / 2];
    const auto at_or_below = std::upper_bound(xs.begin(), xs.end(), mid);
    EXPECT_EQ(s.cdf(mid), static_cast<double>(at_or_below - xs.begin()) /
                              static_cast<double>(xs.size()));
}

/**
 * The first quantile after an insertion is selected, not sorted; it and
 * everything after it must give the doubles a full sort gives. Values
 * are rounded to 1/16 so ties are common.
 */
TEST(SampleSet, SelectedQuantileMatchesSortedReference)
{
    const double kQs[] = {0.0, 0.05, 0.123, 0.5, 0.95, 0.99, 1.0};
    Rng rng(19);
    auto draw = [&rng] { return std::round(rng.uniform() * 16.0) / 16.0; };
    for (std::size_t n : {1u, 2u, 3u, 10u, 229u, 1000u}) {
        for (double q : kQs) {
            SCOPED_TRACE(::testing::Message() << "n=" << n << " q=" << q);
            std::vector<double> xs(n);
            for (double& x : xs)
                x = draw();
            SampleSet s;
            s.addAll(xs);
            // Selected, then the stored answer, then sorted for a new q.
            EXPECT_EQ(s.quantile(q), referenceQuantile(xs, q));
            EXPECT_EQ(s.quantile(q), referenceQuantile(xs, q));
            const double other = q == 0.5 ? 0.123 : 0.5;
            EXPECT_EQ(s.quantile(other), referenceQuantile(xs, other));
            EXPECT_EQ(s.quantile(q), referenceQuantile(xs, q));
            expectSortedQueriesMatch(s, xs);

            // Each insertion drops the stored answer. A value below every
            // other sample moves the low quantiles.
            s.add(-1.0);
            xs.push_back(-1.0);
            EXPECT_EQ(s.quantile(q), referenceQuantile(xs, q));
            expectSortedQueriesMatch(s, xs);
            EXPECT_EQ(s.quantile(q), referenceQuantile(xs, q));

            const std::vector<double> more = {draw(), 2.0, draw()};
            s.addAll(more);
            xs.insert(xs.end(), more.begin(), more.end());
            EXPECT_EQ(s.quantile(q), referenceQuantile(xs, q));
            expectSortedQueriesMatch(s, xs);

            SampleSet tail;
            tail.add(-2.0);
            tail.add(draw());
            s.merge(tail);
            xs.insert(xs.end(), tail.raw().begin(), tail.raw().end());
            EXPECT_EQ(s.quantile(q), referenceQuantile(xs, q));
            expectSortedQueriesMatch(s, xs);

            s.clear();
            EXPECT_EQ(s.quantile(q), 0.0);
            const double last = draw();
            s.add(last);
            EXPECT_EQ(s.quantile(q), last);
            expectSortedQueriesMatch(s, {last});
        }
    }
}

TEST(SampleSet, MergeAndClear)
{
    SampleSet a;
    SampleSet b;
    a.add(1.0);
    b.add(2.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    a.clear();
    EXPECT_TRUE(a.empty());
}

TEST(Histogram, BinsAndClamping)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.bins(), 5u);
    EXPECT_DOUBLE_EQ(h.binWidth(), 2.0);
    h.add(1.0);   // bin 0
    h.add(3.0);   // bin 1
    h.add(-5.0);  // clamps to bin 0
    h.add(99.0);  // clamps to bin 4
    EXPECT_DOUBLE_EQ(h.count(0), 2.0);
    EXPECT_DOUBLE_EQ(h.count(1), 1.0);
    EXPECT_DOUBLE_EQ(h.count(4), 1.0);
    EXPECT_DOUBLE_EQ(h.total(), 4.0);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
}

TEST(Histogram, WeightedMass)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.25, 3.0);
    h.add(0.75, 1.0);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

/** Quantiles must be order statistics: bounded and monotone in q. */
class QuantileMonotonicity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(QuantileMonotonicity, Holds)
{
    Rng rng(GetParam());
    SampleSet s;
    for (int i = 0; i < 500; ++i)
        s.add(rng.lognormal(0.0, 1.5));
    double prev = s.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double v = s.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
    EXPECT_DOUBLE_EQ(s.quantile(0.0), s.min());
    EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotonicity,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull));

} // namespace
} // namespace hcloud::sim
