/**
 * @file
 * Tests for the core support components: cluster state, placement,
 * retention, queue estimator, quality tracker, soft limit, QoS monitor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "core/cluster.hpp"
#include "core/placement.hpp"
#include "core/qos_monitor.hpp"
#include "core/quality_tracker.hpp"
#include "core/queue_estimator.hpp"
#include "core/retention.hpp"
#include "core/soft_limit.hpp"
#include "sim/simulator.hpp"

namespace hcloud::core {
namespace {

const cloud::InstanceType&
typeNamed(const char* name)
{
    return cloud::InstanceTypeCatalog::defaultCatalog().byName(name);
}

class CoreComponents : public ::testing::Test
{
  protected:
    sim::Simulator simulator;
    cloud::CloudProvider provider{simulator,
                                  cloud::ProviderProfile::gce(), {},
                                  sim::Rng(42)};
};

TEST_F(CoreComponents, ClusterStateAccounting)
{
    ClusterState cluster;
    auto pool = provider.reserveDedicated(typeNamed("st16"), 2);
    cluster.setReservedPool(pool);
    EXPECT_DOUBLE_EQ(cluster.reservedCapacity(), 32.0);
    EXPECT_DOUBLE_EQ(cluster.reservedUtilization(), 0.0);
    pool[0]->addResident(1, {8.0, 0.4}, 0.0);
    EXPECT_DOUBLE_EQ(cluster.reservedUsed(), 8.0);
    EXPECT_DOUBLE_EQ(cluster.reservedUtilization(), 0.25);

    cloud::Instance* od = provider.acquire(typeNamed("st4"), nullptr);
    cluster.addOnDemand(od);
    EXPECT_DOUBLE_EQ(cluster.onDemandCapacity(), 4.0);
    od->addResident(2, {2.0, 0.3}, 0.0);
    EXPECT_DOUBLE_EQ(cluster.onDemandUsed(), 2.0);
    cluster.removeOnDemand(od);
    EXPECT_DOUBLE_EQ(cluster.onDemandCapacity(), 0.0);
}

TEST_F(CoreComponents, LeastLoadedPicksEmptiest)
{
    auto pool = provider.reserveDedicated(typeNamed("st16"), 3);
    pool[0]->addResident(1, {10.0, 0.3}, 0.0);
    pool[1]->addResident(2, {4.0, 0.3}, 0.0);
    EXPECT_EQ(leastLoaded(pool, 4.0), pool[2]);
    // Demand larger than any free slot: nullptr.
    pool[2]->addResident(3, {14.0, 0.3}, 0.0);
    EXPECT_EQ(leastLoaded(pool, 13.0), nullptr);
}

TEST_F(CoreComponents, QualityAwareFitPrefersTightQualifying)
{
    auto pool = provider.reserveDedicated(typeNamed("st16"), 3);
    pool[0]->addResident(1, {10.0, 0.2}, 0.0); // tight: 6 free
    pool[1]->addResident(2, {2.0, 0.2}, 0.0);  // loose: 14 free
    cloud::Instance* pick =
        qualityAwareFit(pool, 4.0, 0.5, 0.5, simulator.now());
    EXPECT_EQ(pick, pool[0]) << "tightest qualifying instance wins";
    // Impossible quality: falls back to best-quality with room.
    cloud::Instance* fallback =
        qualityAwareFit(pool, 4.0, 0.5, 0.999, simulator.now());
    EXPECT_NE(fallback, nullptr);
}

TEST(RequiredQuality, InterpolatesWithJobQuality)
{
    EXPECT_DOUBLE_EQ(requiredQuality(0.0), 0.55);
    EXPECT_DOUBLE_EQ(requiredQuality(1.0), 0.95);
    EXPECT_LT(requiredQuality(0.3), requiredQuality(0.8));
}

TEST_F(CoreComponents, RetentionTimeoutAndQualityGate)
{
    RetentionPolicy policy(10.0, 0.7);
    const sim::Duration retention =
        policy.retention(typeNamed("st16"), provider.spinUp());
    EXPECT_NEAR(retention, 10.0 * provider.spinUp().median(
                                      typeNamed("st16")), 1e-9);

    cloud::Instance* inst = provider.acquire(typeNamed("st16"), nullptr);
    simulator.run(); // finish spin-up
    inst->addResident(1, {4.0, 0.3}, simulator.now());
    EXPECT_FALSE(policy.shouldRelease(*inst, provider.spinUp(),
                                      simulator.now()))
        << "occupied instances are never released";
    inst->removeResident(1, simulator.now());
    const bool worthy = policy.retainWorthy(*inst, simulator.now());
    if (worthy) {
        EXPECT_FALSE(policy.shouldRelease(*inst, provider.spinUp(),
                                          simulator.now()));
        EXPECT_TRUE(policy.shouldRelease(
            *inst, provider.spinUp(),
            simulator.now() + retention + 1.0));
    } else {
        EXPECT_TRUE(policy.shouldRelease(*inst, provider.spinUp(),
                                         simulator.now()));
    }
}

TEST_F(CoreComponents, RetentionNeverReleasesSpinningUp)
{
    RetentionPolicy policy(0.0, 0.99); // maximally eager
    cloud::Instance* inst = provider.acquire(typeNamed("st16"), nullptr);
    EXPECT_FALSE(policy.shouldRelease(*inst, provider.spinUp(), 1.0));
}

TEST(QueueEstimator, PoissonRateAndQuantiles)
{
    QueueEstimator estimator;
    const auto& st8 = typeNamed("st8");
    for (int i = 1; i <= 100; ++i)
        estimator.recordRelease(st8, i * 2.0); // 0.5 releases/sec
    const sim::Time now = 200.0;
    EXPECT_NEAR(estimator.releaseRate(st8, now), 0.5, 0.1);
    // Quantiles are monotone in p.
    EXPECT_LT(estimator.waitQuantile(st8, 0.5, now),
              estimator.waitQuantile(st8, 0.99, now));
    // Availability CDF is monotone and sane.
    EXPECT_LT(estimator.probAvailableWithin(st8, 0.5, now),
              estimator.probAvailableWithin(st8, 5.0, now));
    EXPECT_NEAR(estimator.probAvailableWithin(st8, 1.4, now), 0.5, 0.15);
}

TEST(QueueEstimator, NoDataMeansUnknown)
{
    QueueEstimator estimator;
    EXPECT_EQ(estimator.waitQuantile(typeNamed("st4"), 0.99, 10.0),
              sim::kTimeNever);
    EXPECT_DOUBLE_EQ(
        estimator.probAvailableWithin(typeNamed("st4"), 10.0, 10.0), 0.0);
}

TEST(QueueEstimator, OldReleasesAgeOut)
{
    QueueEstimator estimator;
    const auto& st4 = typeNamed("st4");
    for (int i = 1; i <= 20; ++i)
        estimator.recordRelease(st4, i * 1.0);
    EXPECT_GT(estimator.releaseRate(st4, 30.0), 0.0);
    // Far beyond the window, the rate decays to zero.
    EXPECT_DOUBLE_EQ(estimator.releaseRate(st4, 5000.0), 0.0);
}

TEST(QueueEstimator, MeasuredWaitsRecorded)
{
    QueueEstimator estimator;
    estimator.recordMeasuredWait(typeNamed("st16"), 3.0);
    estimator.recordMeasuredWait(typeNamed("st16"), 5.0);
    EXPECT_EQ(estimator.measuredWaits(typeNamed("st16")).count(), 2u);
    EXPECT_TRUE(estimator.measuredWaits(typeNamed("st4")).empty());
}

TEST(QualityTracker, PriorsThenObservations)
{
    // The tracker keeps a reference to its profile.
    const cloud::ProviderProfile gce = cloud::ProviderProfile::gce();
    QualityTracker tracker(gce, sim::Rng(3));
    // Priors alone give a sensible per-size ordering.
    const double small = tracker.qualityAtConfidence(typeNamed("st1"));
    const double large = tracker.qualityAtConfidence(typeNamed("st16"));
    EXPECT_LT(small, large);
    EXPECT_EQ(tracker.samples(typeNamed("st1")),
              QualityTracker::kPriorSamples);
    // Feeding terrible observations drags the estimate down.
    for (int i = 0; i < 400; ++i)
        tracker.record(typeNamed("st16"), 0.2);
    EXPECT_LT(tracker.qualityAtConfidence(typeNamed("st16")), 0.25);
}

TEST(QualityTracker, TighterConfidenceReportsLowerQuality)
{
    // The tracker keeps a reference to its profile.
    const cloud::ProviderProfile gce = cloud::ProviderProfile::gce();
    QualityTracker tracker(gce, sim::Rng(3));
    const auto& st4 = typeNamed("st4");
    EXPECT_LE(tracker.qualityAtConfidence(st4, 0.99),
              tracker.qualityAtConfidence(st4, 0.90));
    EXPECT_LE(tracker.qualityAtConfidence(st4, 0.90),
              tracker.qualityAtConfidence(st4, 0.50));
}

/**
 * The tracker's merged window against a reference that keeps the plain
 * deque and copies, sorts and interpolates it on every query. Values are
 * rounded to 1/64 so ties are common; bursts of 600-1,500 records turn a
 * window over between two queries; st16 is queried before its first
 * record. Both sides draw priors from the same stream in first-touch
 * order.
 */
TEST(QualityTracker, MergedWindowMatchesFreshSort)
{
    const cloud::ProviderProfile gce = cloud::ProviderProfile::gce();
    QualityTracker tracker(gce, sim::Rng(5));
    sim::Rng priors(5);
    const cloud::InstanceType* types[] = {
        &typeNamed("st1"), &typeNamed("st4"), &typeNamed("st16")};
    std::map<std::string, std::deque<double>> windows;
    auto window = [&](const cloud::InstanceType& type)
        -> std::deque<double>& {
        auto [it, fresh] = windows.try_emplace(type.name);
        if (fresh) {
            const double mean = gce.spatialMean.at(type.vcpus);
            const double kappa = gce.spatialConcentration.at(type.vcpus);
            for (std::size_t i = 0; i < QualityTracker::kPriorSamples; ++i)
                it->second.push_back(
                    priors.beta(mean * kappa, (1.0 - mean) * kappa));
        }
        return it->second;
    };
    auto record = [&](const cloud::InstanceType& type, double value) {
        tracker.record(type, value);
        std::deque<double>& w = window(type);
        w.push_back(value);
        if (w.size() > QualityTracker::kMaxSamples)
            w.pop_front();
    };
    auto reference = [&](const cloud::InstanceType& type, double confidence) {
        const std::deque<double>& w = window(type);
        std::vector<double> sorted(w.begin(), w.end());
        std::sort(sorted.begin(), sorted.end());
        const double q = std::clamp(1.0 - confidence, 0.0, 1.0);
        const double pos = q * static_cast<double>(sorted.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    };

    const double kConfidences[] = {0.0, 0.1, 0.5, 0.9, 0.99, 1.0};
    sim::Rng rng(77);
    auto value = [&rng] { return std::round(rng.uniform() * 64.0) / 64.0; };
    auto query = [&](const cloud::InstanceType& type) {
        const double c = kConfidences[rng.uniformInt(0, 5)];
        const double expected = reference(type, c);
        ASSERT_EQ(tracker.qualityAtConfidence(type, c), expected)
            << type.name << " confidence " << c;
        ASSERT_EQ(tracker.samples(type), window(type).size());
    };
    query(*types[2]);
    for (int step = 0; step < 20000; ++step) {
        const cloud::InstanceType& type = *types[rng.uniformInt(0, 2)];
        const double roll = rng.uniform();
        if (roll < 0.002) {
            const int burst = static_cast<int>(rng.uniformInt(600, 1500));
            for (int i = 0; i < burst; ++i)
                record(type, value());
        } else if (roll < 0.6) {
            record(type, value());
        } else {
            query(type);
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    for (const cloud::InstanceType* type : types)
        query(*type);
}

TEST(SoftLimit, DropsUnderQueueingRecoversWhenCalm)
{
    SoftLimitController controller;
    const double initial = controller.softLimit();
    for (int i = 0; i < 20; ++i)
        controller.update(50, i * 2.0);
    EXPECT_LT(controller.softLimit(), initial);
    EXPECT_GE(controller.softLimit(), SoftLimitController::kMin);
    const double low = controller.softLimit();
    for (int i = 20; i < 600; ++i)
        controller.update(0, i * 2.0);
    EXPECT_GT(controller.softLimit(), low);
    EXPECT_LE(controller.softLimit(), SoftLimitController::kMax);
    EXPECT_FALSE(controller.history().empty());
}

TEST(QosMonitorTest, EscalatesAfterSustainedViolations)
{
    QosMonitor monitor(3, 1);
    // Two violations: still watching.
    EXPECT_EQ(monitor.check(1, true, true, 0), QosAction::None);
    EXPECT_EQ(monitor.check(1, true, true, 0), QosAction::None);
    // Third: boost (capacity available).
    EXPECT_EQ(monitor.check(1, true, true, 0), QosAction::Boost);
    // A healthy check resets the streak.
    EXPECT_EQ(monitor.check(1, false, true, 0), QosAction::None);
    EXPECT_EQ(monitor.check(1, true, true, 0), QosAction::None);
}

TEST(QosMonitorTest, ReschedulesWhenBoostImpossible)
{
    QosMonitor monitor(2, 1);
    EXPECT_EQ(monitor.check(5, true, false, 0), QosAction::None);
    EXPECT_EQ(monitor.check(5, true, false, 0), QosAction::Reschedule);
    // Budget exhausted: no further reschedules.
    EXPECT_EQ(monitor.check(5, true, false, 1), QosAction::None);
    EXPECT_EQ(monitor.check(5, true, false, 1), QosAction::None);
}

TEST(QosMonitorTest, ForgetDropsState)
{
    QosMonitor monitor(2, 1);
    monitor.check(9, true, true, 0);
    EXPECT_EQ(monitor.tracked(), 1u);
    monitor.forget(9);
    EXPECT_EQ(monitor.tracked(), 0u);
}

} // namespace
} // namespace hcloud::core
