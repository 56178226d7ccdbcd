/**
 * @file
 * Unit and property tests for the deterministic RNG and its child
 * streams, and reference tests that hold its engine and draws to
 * std::mt19937_64 and libstdc++'s distributions bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace hcloud::sim {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.uniform() == b.uniform();
    EXPECT_LT(equal, 5);
}

TEST(Rng, ChildStreamsAreStableByLabel)
{
    Rng root(42);
    Rng a = root.child("spin_up");
    Rng b = root.child("spin_up");
    EXPECT_EQ(a.seed(), b.seed());
    EXPECT_NE(root.child("spin_up").seed(), root.child("quality").seed());
}

TEST(Rng, ChildDerivationDoesNotConsumeParentState)
{
    Rng a(7);
    Rng b(7);
    (void)a.child("x");
    (void)a.child("y");
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, IntegerChildKeysProduceDistinctStreams)
{
    Rng root(42);
    EXPECT_NE(root.child(std::uint64_t{1}).seed(),
              root.child(std::uint64_t{2}).seed());
}

TEST(Rng, UniformStaysInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(2.0, 3.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng rng(5);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMatchesMoments)
{
    Rng rng(9);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, LognormalQuantileCalibration)
{
    // lognormalFromQuantiles(median, p95) must reproduce those quantiles.
    Rng rng(11);
    SampleSet samples;
    for (int i = 0; i < 40000; ++i)
        samples.add(rng.lognormalFromQuantiles(15.0, 120.0));
    EXPECT_NEAR(samples.quantile(0.5), 15.0, 1.0);
    EXPECT_NEAR(samples.quantile(0.95), 120.0, 12.0);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(13);
    OnlineStats stats;
    for (int i = 0; i < 30000; ++i)
        stats.add(rng.exponential(4.0));
    EXPECT_NEAR(stats.mean(), 4.0, 0.15);
}

TEST(Rng, BernoulliFrequencyAndEdgeCases)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, BetaBoundedWithCorrectMean)
{
    Rng rng(19);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i) {
        const double x = rng.beta(8.0, 2.0);
        EXPECT_GE(x, 0.0);
        EXPECT_LE(x, 1.0);
        stats.add(x);
    }
    EXPECT_NEAR(stats.mean(), 0.8, 0.02);
}

TEST(Rng, ParetoRespectsScale)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.pareto(3.0, 2.0), 3.0);
}

TEST(Rng, WeightedIndexFollowsWeights)
{
    Rng rng(29);
    const std::vector<double> weights = {1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 30000; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
    EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
    EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.02);
}

/** Determinism must hold across every seed, not just one. */
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngSeedSweep, ChildStreamsDeterministicAndDecorrelated)
{
    const std::uint64_t seed = GetParam();
    Rng a = Rng(seed).child("alpha");
    Rng b = Rng(seed).child("alpha");
    Rng c = Rng(seed).child("beta");
    double max_abs_diff = 0.0;
    int identical_to_c = 0;
    for (int i = 0; i < 200; ++i) {
        const double va = a.uniform();
        const double vb = b.uniform();
        const double vc = c.uniform();
        max_abs_diff = std::max(max_abs_diff, std::abs(va - vb));
        identical_to_c += va == vc;
    }
    EXPECT_EQ(max_abs_diff, 0.0);
    EXPECT_LT(identical_to_c, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 1337ull,
                                           0xffffffffffffffffull));

// Reference tests: std::mt19937_64 and the std:: distributions that Rng's
// draws replace are the oracle. Doubles are compared with memcmp, so a
// difference in the last bit or in the sign of a zero fails.

/** Rng's engine seed: the SplitMix64 finalizer of the stream's seed. */
std::uint64_t
engineSeed(std::uint64_t seed)
{
    seed += 0x9e3779b97f4a7c15ULL;
    seed = (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9ULL;
    seed = (seed ^ (seed >> 27)) * 0x94d049bb133111ebULL;
    return seed ^ (seed >> 31);
}

constexpr int kReferenceDraws = 1'000'000;

/** Expect @p n words of @p engine to equal @p oracle's, in order. */
void
expectSameWords(Mt19937_64& engine, std::mt19937_64& oracle, int n)
{
    for (int i = 0; i < n; ++i) {
        const std::uint64_t got = engine();
        const std::uint64_t want = oracle();
        if (got != want) {
            ADD_FAILURE() << "word " << i << ": " << got << " != " << want;
            return;
        }
    }
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Expect @p draw on Rng(seed) to return, bit for bit, what @p oracle
 * returns over std::mt19937_64 seeded as Rng seeds its engine, for
 * @p n draws, and both to consume the same number of words.
 */
template <class Draw, class Oracle>
void
expectSameDraws(std::uint64_t seed, Draw draw, Oracle oracle,
                int n = kReferenceDraws)
{
    Rng rng(seed);
    std::mt19937_64 ref(engineSeed(seed));
    for (int i = 0; i < n; ++i) {
        const double got = draw(rng);
        const double want = oracle(ref);
        if (!sameBits(got, want)) {
            ADD_FAILURE() << "draw " << i << ": " << got << " != " << want;
            return;
        }
    }
    EXPECT_EQ(rng.engine()(), ref());
}

class RngReference : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngReference, EngineMatchesStdWordForWord)
{
    const std::uint64_t seed = GetParam();
    Mt19937_64 engine(seed);
    const Mt19937_64 undrawn = engine;
    std::mt19937_64 oracle(seed);
    expectSameWords(engine, oracle, kReferenceDraws / 2 + 7);

    // A copy taken mid-stream continues where its source stands, and so
    // does the source.
    Mt19937_64 mid = engine;
    std::mt19937_64 midOracle = oracle;
    expectSameWords(engine, oracle, kReferenceDraws / 2);
    expectSameWords(mid, midOracle, kReferenceDraws / 2);

    // A copy taken before the first draw seeds itself from the seed.
    Mt19937_64 fromUndrawn = undrawn;
    std::mt19937_64 fresh(seed);
    expectSameWords(fromUndrawn, fresh, kReferenceDraws);

    // Assignment either way between seeded and unseeded engines.
    Mt19937_64 assigned(seed ^ 1);
    (void)assigned();
    assigned = undrawn;
    std::mt19937_64 again(seed);
    expectSameWords(assigned, again, 1000);
    assigned = mid;
    expectSameWords(assigned, midOracle, 1000);
}

TEST_P(RngReference, RngEngineIsMt19937OfSplitMixSeed)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    std::mt19937_64 oracle(engineSeed(seed));
    expectSameWords(rng.engine(), oracle, 10'000);
}

TEST_P(RngReference, ShufflePermutesAsWithStdEngine)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    std::mt19937_64 oracle(engineSeed(seed));
    for (std::size_t n : {1u, 2u, 7u, 1000u, 5000u}) {
        std::vector<int> a(n);
        std::iota(a.begin(), a.end(), 0);
        std::vector<int> b = a;
        std::shuffle(a.begin(), a.end(), rng.engine());
        std::shuffle(b.begin(), b.end(), oracle);
        EXPECT_EQ(a, b) << "n=" << n;
    }
    EXPECT_EQ(rng.engine()(), oracle());
}

TEST_P(RngReference, ChildSeedDoesNotDependOnParentDraws)
{
    const std::uint64_t seed = GetParam();
    Rng drawn(seed);
    const Rng undrawn(seed);
    for (int i = 0; i < 1000; ++i)
        (void)drawn.normal(0.0, 1.0);
    EXPECT_EQ(drawn.child("instance").seed(), undrawn.child("instance").seed());
    EXPECT_EQ(drawn.child(std::uint64_t{17}).seed(),
              undrawn.child(std::uint64_t{17}).seed());
    Rng a = drawn.child("machine").child(std::uint64_t{3});
    Rng b = undrawn.child("machine").child(std::uint64_t{3});
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(sameBits(a.uniform(), b.uniform()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngReference,
                         ::testing::Values(0ull, 1ull, 42ull,
                                           0xffffffffffffffffull));

TEST(RngReference, UniformMatchesUniformRealDistribution)
{
    for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
             {0.0, 1.0}, {2.0, 3.0}, {DBL_MIN, 1.0}, {-1e6, 1e-3}}) {
        SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi << ")");
        expectSameDraws(
            101, [&](Rng& r) { return r.uniform(lo, hi); },
            [&](std::mt19937_64& g) {
                return std::uniform_real_distribution<double>(lo, hi)(g);
            });
    }
}

TEST(RngReference, NormalMatchesFreshNormalDistribution)
{
    for (const auto& [mean, stddev] : std::vector<std::pair<double, double>>{
             {0.0, 1.0}, {10.0, 2.0}, {0.5, 1e-9}, {-3.0, 1e-3},
             {0.9, 0.02}}) {
        SCOPED_TRACE(testing::Message() << "N(" << mean << ", " << stddev
                                        << ")");
        expectSameDraws(
            202, [&](Rng& r) { return r.normal(mean, stddev); },
            [&](std::mt19937_64& g) {
                return std::normal_distribution<double>(mean, stddev)(g);
            });
    }
}

TEST(RngReference, LognormalMatchesLognormalDistribution)
{
    for (const auto& [mu, sigma] : std::vector<std::pair<double, double>>{
             {0.0, 1.0}, {std::log(240.0), 0.4}, {2.0, 1e-9}}) {
        SCOPED_TRACE(testing::Message() << "LN(" << mu << ", " << sigma
                                        << ")");
        expectSameDraws(
            303, [&](Rng& r) { return r.lognormal(mu, sigma); },
            [&](std::mt19937_64& g) {
                return std::lognormal_distribution<double>(mu, sigma)(g);
            });
    }
}

TEST(RngReference, ExponentialMatchesExponentialDistribution)
{
    for (double mean : {1.0, 4.0, 1e-3, 3600.0}) {
        SCOPED_TRACE(testing::Message() << "mean " << mean);
        expectSameDraws(
            404, [&](Rng& r) { return r.exponential(mean); },
            [&](std::mt19937_64& g) {
                return std::exponential_distribution<double>(1.0 / mean)(g);
            });
    }
}

TEST(RngReference, BernoulliMatchesBernoulliDistribution)
{
    for (double p : {0.3, 0.5, 1e-6, 0.999999}) {
        SCOPED_TRACE(testing::Message() << "p " << p);
        expectSameDraws(
            505, [&](Rng& r) { return r.bernoulli(p) ? 1.0 : 0.0; },
            [&](std::mt19937_64& g) {
                return std::bernoulli_distribution(p)(g) ? 1.0 : 0.0;
            });
    }
}

TEST(RngReference, ParetoDrawsUniformFromDblMin)
{
    expectSameDraws(
        606, [](Rng& r) { return r.pareto(3.0, 2.0); },
        [](std::mt19937_64& g) {
            const double u =
                std::uniform_real_distribution<double>(DBL_MIN, 1.0)(g);
            return 3.0 / std::pow(u, 1.0 / 2.0);
        });
}

TEST(RngReference, StdDistributionsOverEngineMatchStdEngine)
{
    // uniformInt and beta keep their std:: distributions; over the
    // hand-written engine they must draw what they draw over the std one.
    expectSameDraws(
        707, [](Rng& r) { return double(r.uniformInt(0, 4)); },
        [](std::mt19937_64& g) {
            return double(std::uniform_int_distribution<std::int64_t>(0, 4)(g));
        });
    expectSameDraws(
        708, [](Rng& r) { return r.beta(8.0, 2.0); },
        [](std::mt19937_64& g) {
            const double x = std::gamma_distribution<double>(8.0, 1.0)(g);
            const double y = std::gamma_distribution<double>(2.0, 1.0)(g);
            const double s = x + y;
            return s > 0.0 ? x / s : 0.5;
        },
        kReferenceDraws / 4);
}

TEST(RngReference, InterleavedDrawsShareOneStream)
{
    // Every draw kind on one stream, so each starts wherever the previous
    // kind left the engine (mid-block and across twists).
    int step = 0;
    expectSameDraws(
        809,
        [&step](Rng& r) {
            switch (step++ % 5) {
            case 0: return r.normal(1.0, 0.1);
            case 1: return r.uniform(-2.0, 5.0);
            case 2: return r.exponential(30.0);
            case 3: return r.bernoulli(0.12) ? 1.0 : 0.0;
            default: return double(r.uniformInt(-3, 1000));
            }
        },
        [step = 0](std::mt19937_64& g) mutable {
            switch (step++ % 5) {
            case 0: return std::normal_distribution<double>(1.0, 0.1)(g);
            case 1:
                return std::uniform_real_distribution<double>(-2.0, 5.0)(g);
            case 2: return std::exponential_distribution<double>(1.0 / 30.0)(g);
            case 3: return std::bernoulli_distribution(0.12)(g) ? 1.0 : 0.0;
            default:
                return double(
                    std::uniform_int_distribution<std::int64_t>(-3, 1000)(g));
            }
        });
}

} // namespace
} // namespace hcloud::sim
