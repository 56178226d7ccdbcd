/**
 * @file
 * Deterministic random-number generation with named child streams.
 *
 * Reproducibility is a hard requirement: a full scenario run must be
 * bit-identical across invocations given the same root seed. To keep
 * independent subsystems statistically independent *and* insensitive to
 * the order in which other subsystems draw numbers, every subsystem derives
 * its own child stream by hashing the parent seed with a label
 * (e.g. rng.child("spin_up")). Adding draws in one subsystem then never
 * perturbs another subsystem's sequence.
 *
 * The engine is a hand-written MT19937-64 that emits, word for word, what
 * std::mt19937_64 emits for the same seed, and each draw below returns
 * bit for bit what the matching libstdc++ 12 distribution returns over
 * that engine, so every output is the same as with the std:: types. Two
 * things make it cheaper: the 312-word state is seeded on the first draw,
 * so a stream that never draws costs a hash to build and a few words to
 * copy, and uniform, normal, lognormal, exponential and bernoulli draws are
 * computed here with a branch-free uint64 -> double conversion instead of
 * through std:: distribution objects. uniformInt and beta still use
 * std::uniform_int_distribution and std::gamma_distribution over the same
 * engine. std::mt19937_64 and the std:: distributions these draws match
 * appear only in tests/test_sim_rng.cpp, as the oracle.
 */

#ifndef HCLOUD_SIM_RNG_HPP
#define HCLOUD_SIM_RNG_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hcloud::sim {

/**
 * MT19937-64 with std::mt19937_64's seeding recurrence, twist and
 * tempering; a UniformRandomBitGenerator, so std:: algorithms and
 * distributions take it as they take std::mt19937_64.
 *
 * The state is seeded from the seed on the first draw, and a copy copies
 * the state only once it exists.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    explicit Mt19937_64(result_type seed) noexcept : seed_(seed) {}
    Mt19937_64(const Mt19937_64& other) noexcept;
    Mt19937_64& operator=(const Mt19937_64& other) noexcept;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Next tempered 64-bit word. */
    result_type operator()() noexcept
    {
        if (next_ >= kStateWords) [[unlikely]]
            refill();
        result_type z = state_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    static constexpr std::size_t kStateWords = 312;
    /** next_ of a stream whose state has not been seeded yet. */
    static constexpr std::size_t kUnseeded = kStateWords + 1;

    /** Seed the state if it is not seeded yet, then twist it. */
    void refill() noexcept;

    result_type seed_;
    std::size_t next_ = kUnseeded;
    /** Written by refill() before any read; left uninitialized so that a
     *  stream that never draws does not pay for it. */
    result_type state_[kStateWords];
};

/**
 * Seeded random stream with convenience distributions used throughout
 * the simulator.
 */
class Rng
{
  public:
    /** Construct a stream from an explicit 64-bit seed. */
    explicit Rng(std::uint64_t seed);

    /**
     * Derive an independent child stream.
     *
     * The child's seed is a SplitMix64-style mix of this stream's seed and
     * a FNV-1a hash of @p label. Deriving a child does not consume any
     * state from the parent.
     *
     * @param label Stable name of the consumer subsystem.
     */
    Rng child(std::string_view label) const;

    /** Derive an independent child stream keyed by an integer (e.g. id). */
    Rng child(std::uint64_t key) const;

    /** Seed this stream was constructed with. */
    std::uint64_t seed() const { return seed_; }

    /** Uniform real in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Normal draw with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Lognormal draw parameterized by the underlying normal (mu, sigma). */
    double lognormal(double mu, double sigma);

    /**
     * Lognormal draw parameterized by target median and p95 quantile,
     * a convenient calibration interface for latency-like quantities.
     */
    double lognormalFromQuantiles(double median, double p95);

    /** Exponential draw with the given mean (not rate). */
    double exponential(double mean);

    /** Bernoulli draw: true with probability p. */
    bool bernoulli(double p);

    /**
     * Beta(a, b) draw via two gamma draws. Used for bounded quality
     * distributions in [0, 1].
     */
    double beta(double a, double b);

    /** Pareto draw with scale x_m and shape alpha (heavy-tailed). */
    double pareto(double scale, double shape);

    /** Pick an index in [0, weights.size()) proportionally to weights. */
    std::size_t weightedIndex(const std::vector<double>& weights);

    /** Access the raw engine for std:: algorithm and distribution interop. */
    Mt19937_64& engine() { return engine_; }

  private:
    /**
     * Uniform in [0, 1): std::generate_canonical<double, 53> over one
     * word, i.e. double(word) * 2^-64 clamped below 1. The conversion
     * rounds like the compiler's but does not branch on the word's top
     * bit: 2^84 + hi * 2^32 and 2^52 + lo are exact doubles, subtracting
     * 2^84 + 2^52 from the first is exact, and the final add rounds once.
     */
    double canonical()
    {
        const std::uint64_t x = engine_();
        const double hi =
            std::bit_cast<double>(0x4530000000000000ULL | (x >> 32)) -
            0x1.00000001p+84;
        const double lo =
            std::bit_cast<double>(0x4330000000000000ULL | (x & 0xffffffffULL));
        return std::min((hi + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
    }

    std::uint64_t seed_;
    Mt19937_64 engine_;
};

} // namespace hcloud::sim

#endif // HCLOUD_SIM_RNG_HPP
