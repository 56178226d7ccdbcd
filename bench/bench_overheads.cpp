/**
 * @file
 * Section 5.2: provisioning overheads, measured as real microbenchmarks.
 *
 * The paper reports: profiling 5-10 s of job runtime (simulated time,
 * charged once per application signature), classification ~20 ms, and
 * provisioning/mapping decisions under 20 ms — three orders of magnitude
 * below instance spin-up. These benchmarks measure our implementation's
 * actual wall-clock costs for the same operations.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "core/engine.hpp"
#include "core/mapping_policy.hpp"
#include "core/placement.hpp"
#include "core/quality_tracker.hpp"
#include "core/queue_estimator.hpp"
#include "obs/process_metrics.hpp"
#include "obs/prom_text.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "profiling/quasar.hpp"
#include "runtime/sharded_executor.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workload/archetypes.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace hcloud;

/** Classification of a fresh job (cache miss): the paper's ~20 ms. */
void
BM_QuasarClassification(benchmark::State& state)
{
    profiling::QuasarConfig config;
    profiling::Quasar quasar(config);
    quasar.warmUp();
    sim::Rng rng(7);
    std::uint64_t salt = 0;
    for (auto _ : state) {
        workload::JobSpec spec;
        spec.kind = workload::AppKind::Memcached;
        spec.sensitivity =
            workload::generateSensitivity(spec.kind, rng);
        spec.coresIdeal = 4.0 + static_cast<double>(salt % 13);
        spec.memoryPerCore = 1.0 + 0.13 * static_cast<double>(salt % 37);
        ++salt;
        benchmark::DoNotOptimize(quasar.estimate(spec));
    }
}
BENCHMARK(BM_QuasarClassification)->Unit(benchmark::kMillisecond);

/** Classifier bootstrap (library build + factorization training). */
void
BM_ClassifierBootstrap(benchmark::State& state)
{
    for (auto _ : state) {
        profiling::QuasarConfig config;
        profiling::Quasar quasar(config);
        quasar.warmUp();
        benchmark::DoNotOptimize(quasar.cacheSize());
    }
}
BENCHMARK(BM_ClassifierBootstrap)->Unit(benchmark::kMillisecond);

/** One mapping decision under the dynamic policy: must be << 20 ms. */
void
BM_DynamicMappingDecision(benchmark::State& state)
{
    sim::Rng rng(11);
    core::MappingInputs in;
    in.rng = &rng;
    double util = 0.0;
    for (auto _ : state) {
        util = util > 1.0 ? 0.0 : util + 0.001;
        in.reservedUtilization = util;
        in.jobQuality = 0.5 + 0.4 * util;
        in.onDemandQ90 = 0.9 - 0.3 * util;
        benchmark::DoNotOptimize(
            core::decideMapping(core::PolicyKind::P8Dynamic, in));
    }
}
BENCHMARK(BM_DynamicMappingDecision);

/** Greedy quality-aware placement over pools of varying size. */
void
BM_GreedyPlacement(benchmark::State& state)
{
    const auto pool_size = static_cast<std::size_t>(state.range(0));
    sim::Simulator simulator;
    cloud::CloudProvider provider(simulator,
                                  cloud::ProviderProfile::gce(), {},
                                  sim::Rng(3));
    const auto& st16 =
        cloud::InstanceTypeCatalog::defaultCatalog().byName("st16");
    auto pool = provider.reserveDedicated(
        st16, static_cast<int>(pool_size));
    // Pre-load the pool so the search has real occupancy to reason about.
    sim::Rng rng(5);
    sim::JobId job = 1;
    for (auto* inst : pool) {
        const double cores = rng.uniform(0.0, 12.0);
        inst->addResident(job++, {cores, 0.4}, 0.0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::qualityAwareFit(
            pool, 4.0, 0.6, 0.8, simulator.now()));
    }
}
BENCHMARK(BM_GreedyPlacement)->Arg(16)->Arg(64)->Arg(256);

/** Queue-estimator update + quantile query. */
void
BM_QueueEstimator(benchmark::State& state)
{
    core::QueueEstimator estimator;
    const auto& st16 =
        cloud::InstanceTypeCatalog::defaultCatalog().byName("st16");
    sim::Time t = 0.0;
    for (auto _ : state) {
        t += 1.0;
        estimator.recordRelease(st16, t);
        benchmark::DoNotOptimize(estimator.waitQuantile(st16, 0.99, t));
    }
}
BENCHMARK(BM_QueueEstimator);

/**
 * Q90 of one type after 57 new records into its full 512-value window:
 * the ratio of records to stale-window queries in a sim-fig12 pass
 * (3,020,280 records, 53,016 such queries over 4 passes).
 */
void
BM_QualityTrackerQuery(benchmark::State& state)
{
    const cloud::ProviderProfile gce = cloud::ProviderProfile::gce();
    core::QualityTracker tracker(gce, sim::Rng(3));
    const auto& st4 =
        cloud::InstanceTypeCatalog::defaultCatalog().byName("st4");
    sim::Rng rng(7);
    std::vector<double> values(4096);
    for (double& v : values)
        v = rng.uniform(0.02, 1.0);
    std::size_t next = 0;
    auto record = [&] {
        tracker.record(st4, values[next]);
        next = (next + 1) % values.size();
    };
    for (std::size_t i = 0; i < core::QualityTracker::kMaxSamples; ++i)
        record();
    benchmark::DoNotOptimize(tracker.qualityAtConfidence(st4, 0.90));
    for (auto _ : state) {
        for (int i = 0; i < 57; ++i)
            record();
        benchmark::DoNotOptimize(tracker.qualityAtConfidence(st4, 0.90));
    }
}
BENCHMARK(BM_QualityTrackerQuery);

/**
 * A service's p99 set at completion: 229 per-tick samples, asked for the
 * 0.95 quantile three times (tracer argument, perfNormalized,
 * achievedLatencyUs). Refilling the set is a copy into kept capacity.
 */
void
BM_SampleSetQuantileOnce(benchmark::State& state)
{
    sim::Rng rng(11);
    std::vector<double> values(229);
    for (double& v : values)
        v = rng.lognormal(7.0, 0.5);
    sim::SampleSet set;
    for (auto _ : state) {
        set.clear();
        set.addAll(values);
        for (int i = 0; i < 3; ++i)
            benchmark::DoNotOptimize(set.quantile(0.95));
    }
}
BENCHMARK(BM_SampleSetQuantileOnce);

/**
 * Full engine run with the tracer off (Arg 0), ring-only (Arg 1), or
 * streaming to a TraceSink file (Arg 2).
 *
 * The disabled row is the observability tax every run pays: the tracer's
 * emit helpers early-return on a single bool, so the two off/on rows
 * should differ well under 2% when Arg(0) is compared against the
 * pre-obs baseline and by the event-construction cost when Arg(1) is.
 * Arg(2) adds the serialize+write cost of a complete on-disk trace; it
 * is the price of never truncating a long run to ringCapacity events.
 */
void
BM_EngineRunTrace(benchmark::State& state)
{
    workload::ScenarioConfig scenario_cfg;
    scenario_cfg.kind = workload::ScenarioKind::Static;
    scenario_cfg.seed = 42;
    scenario_cfg.loadScale = 0.05;
    const workload::ArrivalTrace trace =
        workload::generateScenario(scenario_cfg);
    core::EngineConfig cfg;
    cfg.seed = 42;
    cfg.trace.mode = state.range(0) != 0
        ? obs::TraceConfig::Mode::On
        : obs::TraceConfig::Mode::Off;
    if (state.range(0) == 2)
        cfg.trace.sinkPath = "/tmp/hcloud_bench_overheads.trace.part";
    for (auto _ : state) {
        core::Engine engine(cfg);
        core::RunResult result =
            engine.run(trace, core::StrategyKind::HM, "static");
        benchmark::DoNotOptimize(result.trace.recorded);
    }
    if (state.range(0) == 2)
        std::remove(cfg.trace.sinkPath.c_str());
}
BENCHMARK(BM_EngineRunTrace)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/** Cost of one emit-helper call on a disabled tracer (the hot guard). */
void
BM_TracerDisabledEmit(benchmark::State& state)
{
    obs::TraceConfig cfg;
    cfg.mode = obs::TraceConfig::Mode::Off;
    obs::Tracer tracer(cfg);
    sim::Time t = 0.0;
    for (auto _ : state) {
        t += 1.0;
        tracer.decision(t, obs::DecisionReason::SoftLimitExceeded, 1, 2,
                        0.5, "st16");
        benchmark::DoNotOptimize(tracer.recordedCount());
    }
}
BENCHMARK(BM_TracerDisabledEmit);

/** Cost of recording one event into the ring (tracer enabled). */
void
BM_TracerRecord(benchmark::State& state)
{
    obs::TraceConfig cfg;
    cfg.mode = obs::TraceConfig::Mode::On;
    obs::Tracer tracer(cfg);
    sim::Time t = 0.0;
    for (auto _ : state) {
        t += 1.0;
        tracer.decision(t, obs::DecisionReason::SoftLimitExceeded, 1, 2,
                        0.5, "st16");
        benchmark::DoNotOptimize(tracer.recordedCount());
    }
}
BENCHMARK(BM_TracerRecord);

/**
 * Cost of recording with a sink attached, amortizing serialize+write.
 * The tiny ring forces a flush every 64 events, so the per-record cost
 * here is the steady-state streaming cost, not ring-buffered recording.
 */
void
BM_TracerRecordSink(benchmark::State& state)
{
    obs::TraceConfig cfg;
    cfg.mode = obs::TraceConfig::Mode::On;
    cfg.ringCapacity = 64;
    cfg.sinkPath = "/tmp/hcloud_bench_overheads.sink.part";
    obs::Tracer tracer(cfg);
    sim::Time t = 0.0;
    for (auto _ : state) {
        t += 1.0;
        tracer.decision(t, obs::DecisionReason::SoftLimitExceeded, 1, 2,
                        0.5, "st16");
        benchmark::DoNotOptimize(tracer.recordedCount());
    }
    std::remove(cfg.sinkPath.c_str());
}
// Fixed iteration count bounds the on-disk file the loop streams out
// (adaptive timing could write GBs into /tmp before converging).
BENCHMARK(BM_TracerRecordSink)->Iterations(1 << 18);

/**
 * Cost of the disabled-timeline guard the engine tick loop pays: one
 * bool load plus a time comparison. This is the whole observability tax
 * of state sampling when it's off, and CI asserts it stays within noise
 * of free (the tick loop runs millions of times per sweep).
 */
void
BM_TimelineDisabledTick(benchmark::State& state)
{
    obs::TimelineConfig cfg;
    cfg.mode = obs::TimelineConfig::Mode::Off;
    obs::Timeline timeline(cfg);
    sim::Time t = 0.0;
    sim::Time next = 1e18;
    for (auto _ : state) {
        t += 1.0;
        if (timeline.enabled() && t >= next)
            next += 1.0;
        benchmark::DoNotOptimize(timeline.recordedCount());
    }
}
BENCHMARK(BM_TimelineDisabledTick);

namespace {

/** A cluster snapshot shaped like a mid-sweep sample (two live types). */
obs::TimelineSample
benchSample(sim::Time t, std::uint64_t seq)
{
    obs::TimelineSample s;
    s.t = t;
    s.seq = seq;
    s.reservedInstances = 12;
    s.onDemandInstances = 3;
    s.spotInstances = 2;
    s.typeCounts = {{"st16", 14u}, {"st4", 3u}};
    s.reservedCores = 192.0;
    s.reservedUsed = 140.5;
    s.onDemandCores = 48.0;
    s.onDemandUsed = 31.0;
    s.utilization = 0.73;
    s.qualityMean = 0.81;
    s.qualityP5 = 0.55;
    s.qualityP50 = 0.84;
    s.qualityP95 = 0.97;
    s.queueLength = 4;
    s.activeJobs = 57;
    s.runningJobs = 53;
    s.finishedJobs = seq * 3;
    s.externalLoad = 0.42;
    s.spotPrice = 0.31;
    return s;
}

} // namespace

/** Cost of recording one sample into the ring (timeline enabled). */
void
BM_TimelineRecord(benchmark::State& state)
{
    obs::TimelineConfig cfg;
    cfg.mode = obs::TimelineConfig::Mode::On;
    obs::Timeline timeline(cfg);
    sim::Time t = 0.0;
    std::uint64_t seq = 0;
    for (auto _ : state) {
        t += 30.0;
        timeline.record(benchSample(t, seq++));
        benchmark::DoNotOptimize(timeline.recordedCount());
    }
}
BENCHMARK(BM_TimelineRecord);

/**
 * Cost of recording with a sink attached, amortizing serialize+write.
 * The tiny ring forces a flush every 64 samples, so the per-record cost
 * here is the steady-state streaming cost of a full on-disk timeline.
 */
void
BM_TimelineRecordSink(benchmark::State& state)
{
    obs::TimelineConfig cfg;
    cfg.mode = obs::TimelineConfig::Mode::On;
    cfg.ringCapacity = 64;
    cfg.sinkPath = "/tmp/hcloud_bench_overheads.timeline.part";
    obs::Timeline timeline(cfg);
    sim::Time t = 0.0;
    std::uint64_t seq = 0;
    for (auto _ : state) {
        t += 30.0;
        timeline.record(benchSample(t, seq++));
        benchmark::DoNotOptimize(timeline.recordedCount());
    }
    std::remove(cfg.sinkPath.c_str());
}
// Same rationale as BM_TracerRecordSink: bound the streamed file.
BENCHMARK(BM_TimelineRecordSink)->Iterations(1 << 16);

/**
 * Full engine run with the timeline off (Arg 0) or sampling every 30
 * virtual seconds into the ring (Arg 1). The Arg(0) row is what every
 * existing caller pays after this feature landed — CI gates it against
 * the tracer-off row of BM_EngineRunTrace, which runs the identical
 * scenario, so any disabled-path regression is a direct diff.
 */
void
BM_EngineRunTimeline(benchmark::State& state)
{
    workload::ScenarioConfig scenario_cfg;
    scenario_cfg.kind = workload::ScenarioKind::Static;
    scenario_cfg.seed = 42;
    scenario_cfg.loadScale = 0.05;
    const workload::ArrivalTrace trace =
        workload::generateScenario(scenario_cfg);
    core::EngineConfig cfg;
    cfg.seed = 42;
    cfg.timeline.mode = state.range(0) != 0
        ? obs::TimelineConfig::Mode::On
        : obs::TimelineConfig::Mode::Off;
    cfg.timeline.cadence = 30.0;
    for (auto _ : state) {
        core::Engine engine(cfg);
        core::RunResult result =
            engine.run(trace, core::StrategyKind::HM, "static");
        benchmark::DoNotOptimize(result.timeline.recorded);
    }
}
BENCHMARK(BM_EngineRunTimeline)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Cost of an armed-but-inert SpanScope: no tracer bound on this thread,
 * so the scope must collapse to a TLS load and a branch. This is the
 * price every routed request pays when span tracing is off, and CI
 * asserts it stays within noise of free.
 */
void
BM_SpanScopeDisabled(benchmark::State& state)
{
    for (auto _ : state) {
        obs::SpanScope scope("bench.noop");
        benchmark::DoNotOptimize(scope.active());
    }
}
BENCHMARK(BM_SpanScopeDisabled);

/** Cost of one recorded span (enabled tracer, streaming JSONL sink). */
void
BM_SpanRecord(benchmark::State& state)
{
    obs::SpanTracerConfig cfg;
    cfg.sinkPath = "/tmp/hcloud_bench_overheads.spans.part";
    obs::SpanTracer tracer(cfg);
    const obs::SpanContext root{tracer.newTraceId(),
                                tracer.newSpanId()};
    obs::SpanBinding bind(&tracer, root);
    for (auto _ : state) {
        obs::SpanScope scope("bench.span");
        benchmark::DoNotOptimize(scope.active());
    }
    state.counters["recorded"] =
        static_cast<double>(tracer.recorded());
    std::remove(cfg.sinkPath.c_str());
}
// Same rationale as BM_TracerRecordSink: bound the streamed file.
BENCHMARK(BM_SpanRecord)->Iterations(1 << 18);

/**
 * Prometheus text rendering of a ~200-series registry — the cost of one
 * /metrics scrape. It runs on the server's accept thread, so it must be
 * cheap enough that a 1 s scrape interval is invisible next to a sweep.
 */
void
BM_PromTextRender(benchmark::State& state)
{
    obs::ProcessMetrics pm;
    for (int i = 0; i < 80; ++i) {
        pm.counter("bench_counter_total", "counter fleet",
                   {{"idx", std::to_string(i)}})
            .inc(static_cast<double>(i) * 1.5);
        pm.gauge("bench_gauge", "gauge fleet",
                 {{"idx", std::to_string(i)}})
            .set(static_cast<double>(i) * 0.25);
    }
    // 40 histogram series; each default ladder renders ~16 bucket lines.
    for (int i = 0; i < 40; ++i) {
        obs::ProcessHistogram& h =
            pm.histogram("bench_latency_seconds", "histogram fleet",
                         {{"idx", std::to_string(i)}});
        for (int j = 0; j < 8; ++j)
            h.observe(0.001 * static_cast<double>(1 << j));
    }
    for (auto _ : state) {
        std::string page = obs::renderPromText(pm);
        benchmark::DoNotOptimize(page.data());
    }
}
BENCHMARK(BM_PromTextRender)->Unit(benchmark::kMicrosecond);

/**
 * A labelled series looked up by name and labels, then set: what a
 * per-request gauge update costs without a cached handle (one registry
 * mutex, label sort, family and series map walks). The registry holds
 * 100 tenants' worth of series, as a serve daemon would.
 */
void
BM_ProcessMetricsLabeledLookup(benchmark::State& state)
{
    obs::ProcessMetrics pm;
    for (int i = 0; i < 100; ++i)
        pm.gauge("hcloud_sim_now", "clock", {{"tenant", std::to_string(i)}});
    const std::string tenant = "42";
    double v = 0.0;
    for (auto _ : state) {
        pm.gauge("hcloud_sim_now", "clock", {{"tenant", tenant}}).set(v);
        v += 1.0;
    }
}
BENCHMARK(BM_ProcessMetricsLabeledLookup);

/** The same update through a handle resolved once: one atomic store. */
void
BM_ProcessGaugeCachedSet(benchmark::State& state)
{
    obs::ProcessMetrics pm;
    obs::ProcessGauge& gauge =
        pm.gauge("hcloud_sim_now", "clock", {{"tenant", "42"}});
    double v = 0.0;
    for (auto _ : state) {
        gauge.set(v);
        benchmark::DoNotOptimize(v += 1.0);
    }
}
BENCHMARK(BM_ProcessGaugeCachedSet);

/**
 * One ShardedExecutor::call() from a single caller onto idle shards of
 * an 8-shard executor: the strand every serve request takes, an
 * uncontended mutex with the task run on the caller.
 */
void
BM_StrandCallIdleShard(benchmark::State& state)
{
    runtime::ShardedExecutor executor(8);
    std::size_t shard = 0;
    for (auto _ : state) {
        const int v = executor.call(shard++ % 8, [] { return 1; });
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_StrandCallIdleShard);

/**
 * DES kernel hot path: schedule + fire one event with an engine-sized
 * capture (56 bytes — inside kEventCallbackCapacity, so the allocation-
 * free slab/inline path). Before the InlineFunction/slab kernel this
 * cycle cost two heap allocations (std::function spill + shared handle
 * state); now it is a slab-slot reuse plus a heap push/pop.
 */
void
BM_EventQueuePushPop(benchmark::State& state)
{
    sim::EventQueue q;
    struct
    {
        double a[6] = {1, 2, 3, 4, 5, 6};
        std::uint64_t n = 0;
    } payload;
    sim::Time t = 0.0;
    for (auto _ : state) {
        t += 1.0;
        q.push(t, [payload]() mutable { ++payload.n; });
        q.pop().second();
    }
    if (q.heapCallbacks() != 0)
        state.SkipWithError("capture unexpectedly spilled to the heap");
}
BENCHMARK(BM_EventQueuePushPop);

/**
 * Quality-path cost per effectiveQuality() call on a loaded instance.
 * Arg(0): one job repeats its query at one tick. Arg(1): each query
 * advances the clock, adding the OU advance and the host's load draw.
 * Arg(2): the engine tick's pattern — the clock moves by the 2 s tick
 * period, each of the six residents asks as itself with its own
 * sensitivity, then one placement probe asks with no self. Consecutive
 * queries there never share a (self, sensitivity) pair.
 */
void
BM_EffectiveQuality(benchmark::State& state)
{
    const std::int64_t pattern = state.range(0);
    const cloud::ProviderProfile gce = cloud::ProviderProfile::gce();
    cloud::Machine host(1, true, {}, sim::Rng(3));
    host.allocate(16);
    const auto& st16 =
        cloud::InstanceTypeCatalog::defaultCatalog().byName("st16");
    cloud::Instance inst(1, st16, gce, &host, false, sim::Rng(9), 0.0);
    for (sim::JobId job = 1; job <= 6; ++job)
        inst.addResident(job, {2.0, 0.1 * static_cast<double>(job)}, 0.0);
    sim::Time t = 1.0;
    int query = 0;
    for (auto _ : state) {
        std::optional<sim::JobId> self = 1;
        double sensitivity = 0.6;
        if (pattern == 1) {
            t += 1.0;
        } else if (pattern == 2) {
            const int q = query++ % 7;
            if (q == 0)
                t += 2.0;
            self = q < 6 ? std::optional<sim::JobId>(q + 1) : std::nullopt;
            sensitivity = 0.1 * (q + 2);
        }
        benchmark::DoNotOptimize(inst.effectiveQuality(t, sensitivity, self));
    }
}
BENCHMARK(BM_EffectiveQuality)->Arg(0)->Arg(1)->Arg(2);

/**
 * One normal draw, as each OU quality process makes when the engine
 * queries it. Arg(1): one stream. Arg(1024): 1,024 streams drawn
 * round-robin, as the instances and hosts of a large cluster are, so a
 * draw rarely finds its stream's state in cache. Every stream draws once
 * before timing, so no seeding is timed.
 */
void
BM_RngNormal(benchmark::State& state)
{
    const sim::Rng root(42);
    std::vector<sim::Rng> streams;
    for (std::int64_t i = 0; i < state.range(0); ++i)
        streams.push_back(root.child(static_cast<std::uint64_t>(i)));
    for (sim::Rng& stream : streams)
        benchmark::DoNotOptimize(stream.normal(0.5, 0.05));
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(streams[next].normal(0.5, 0.05));
        if (++next == streams.size())
            next = 0;
    }
}
BENCHMARK(BM_RngNormal)->Arg(1)->Arg(1024);

/**
 * Derive a per-id stream through a labelled intermediate and copy it
 * without drawing, as the provider builds each instance's and host's
 * streams, many of which never draw.
 */
void
BM_RngChildUndrawn(benchmark::State& state)
{
    const sim::Rng root(42);
    std::uint64_t id = 0;
    for (auto _ : state) {
        const sim::Rng child = root.child("instance").child(id++);
        sim::Rng copy = child;
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_RngChildUndrawn);

/** Scenario generation (trace synthesis) at paper scale. */
void
BM_ScenarioGeneration(benchmark::State& state)
{
    for (auto _ : state) {
        workload::ScenarioConfig config;
        config.kind = workload::ScenarioKind::HighVariability;
        config.seed = 42;
        benchmark::DoNotOptimize(workload::generateScenario(config));
    }
}
BENCHMARK(BM_ScenarioGeneration)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
