#include "sim/rng.hpp"

#include <cmath>
#include <limits>
#include <random>
#include <vector>

namespace hcloud::sim {

namespace {

/** SplitMix64 finalizer: good avalanche, cheap, stable across platforms. */
std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a over a string label. */
std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** MT19937-64's new x[k] from x[k], x[k+1] and x[k+m] (indices mod n). */
constexpr std::uint64_t
twistWord(std::uint64_t xk, std::uint64_t xk1, std::uint64_t xkm)
{
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
    const std::uint64_t y = (xk & kUpper) | (xk1 & ~kUpper);
    return xkm ^ (y >> 1) ^ (-(y & 1) & 0xb5026f5aa96619e9ULL);
}

} // namespace

Mt19937_64::Mt19937_64(const Mt19937_64& other) noexcept
    : seed_(other.seed_), next_(other.next_)
{
    if (next_ != kUnseeded)
        std::copy(other.state_, other.state_ + kStateWords, state_);
}

Mt19937_64&
Mt19937_64::operator=(const Mt19937_64& other) noexcept
{
    seed_ = other.seed_;
    next_ = other.next_;
    if (next_ != kUnseeded && this != &other)
        std::copy(other.state_, other.state_ + kStateWords, state_);
    return *this;
}

void
Mt19937_64::refill() noexcept
{
    constexpr std::size_t n = kStateWords;
    constexpr std::size_t m = 156;
    if (next_ == kUnseeded) {
        state_[0] = seed_;
        for (std::size_t i = 1; i < n; ++i) {
            const std::uint64_t x = state_[i - 1];
            state_[i] = (x ^ (x >> 62)) * 6364136223846793005ULL + i;
        }
    }
    for (std::size_t k = 0; k < n - m; ++k)
        state_[k] = twistWord(state_[k], state_[k + 1], state_[k + m]);
    for (std::size_t k = n - m; k < n - 1; ++k)
        state_[k] = twistWord(state_[k], state_[k + 1], state_[k + m - n]);
    state_[n - 1] = twistWord(state_[n - 1], state_[0], state_[m - 1]);
    next_ = 0;
}

Rng::Rng(std::uint64_t seed)
    : seed_(seed), engine_(splitMix64(seed))
{
}

Rng
Rng::child(std::string_view label) const
{
    return Rng(splitMix64(seed_ ^ fnv1a(label)));
}

Rng
Rng::child(std::uint64_t key) const
{
    return Rng(splitMix64(seed_ ^ splitMix64(key ^ 0xa5a5a5a5a5a5a5a5ULL)));
}

// The draws below repeat libstdc++ 12's arithmetic operation for
// operation: the std:: distribution each one names returns the same bits
// over std::mt19937_64 (tests/test_sim_rng.cpp checks every one).

double
Rng::uniform(double lo, double hi)
{
    // std::uniform_real_distribution<double>(lo, hi).
    return canonical() * (hi - lo) + lo;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    // A fresh std::normal_distribution<double>(mean, stddev): the polar
    // method, whose spare deviate x * mult is discarded with the object.
    for (;;) {
        const double x = 2.0 * canonical() - 1.0;
        const double y = 2.0 * canonical() - 1.0;
        const double r2 = x * x + y * y;
        if (r2 <= 1.0 && r2 != 0.0)
            return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
    }
}

double
Rng::lognormal(double mu, double sigma)
{
    // std::lognormal_distribution<double>(mu, sigma), whose inner
    // normal is N(0, 1) scaled as (z * 1 + 0).
    return std::exp(sigma * normal(0.0, 1.0) + mu);
}

double
Rng::lognormalFromQuantiles(double median, double p95)
{
    // For X ~ LogNormal(mu, sigma): median = e^mu, p95 = e^(mu+1.6449*sigma).
    const double mu = std::log(median);
    const double sigma = (std::log(p95) - mu) / 1.6448536269514722;
    return lognormal(mu, std::max(sigma, 1e-9));
}

double
Rng::exponential(double mean)
{
    // std::exponential_distribution<double>(1 / mean).
    return -std::log(1.0 - canonical()) / (1.0 / mean);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    // std::bernoulli_distribution(p).
    return canonical() < p;
}

double
Rng::beta(double a, double b)
{
    std::gamma_distribution<double> ga(a, 1.0);
    std::gamma_distribution<double> gb(b, 1.0);
    const double x = ga(engine_);
    const double y = gb(engine_);
    const double s = x + y;
    return s > 0.0 ? x / s : 0.5;
}

double
Rng::pareto(double scale, double shape)
{
    const double u = uniform(std::numeric_limits<double>::min(), 1.0);
    return scale / std::pow(u, 1.0 / shape);
}

std::size_t
Rng::weightedIndex(const std::vector<double>& weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    double r = uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r <= 0.0)
            return i;
    }
    return weights.empty() ? 0 : weights.size() - 1;
}

} // namespace hcloud::sim
