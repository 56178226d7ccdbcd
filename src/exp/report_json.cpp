#include "exp/report_json.hpp"

#include <cstdio>
#include <fstream>
#include <string_view>

#include "obs/timeline.hpp"
#include "obs/tracer.hpp"

namespace hcloud::exp {

namespace {

/** Five-number summary of a sample set (omitted when empty). */
void
sampleSetJson(obs::JsonWriter& w, std::string_view name,
              const sim::SampleSet& samples)
{
    if (samples.empty())
        return;
    const sim::BoxplotSummary b = samples.boxplot();
    w.key(name);
    w.beginObject();
    w.field("count", static_cast<std::uint64_t>(b.count));
    w.field("mean", b.mean);
    w.field("p5", b.p5);
    w.field("p25", b.p25);
    w.field("p75", b.p75);
    w.field("p95", b.p95);
    w.field("min", samples.min());
    w.field("max", samples.max());
    w.endObject();
}

/** A `metrics[]` gauge row: the last point of @p series. Omitted until
 *  the run has sampled it. */
void
gaugeRow(obs::JsonWriter& w, std::string_view name,
         const sim::StepSeries& series)
{
    if (series.empty())
        return;
    w.beginObject();
    w.field("name", name);
    w.field("kind", "gauge");
    w.field("value", series.points().back().v);
    w.endObject();
}

void
counterRow(obs::JsonWriter& w, std::string_view name, std::size_t count)
{
    w.beginObject();
    w.field("name", name);
    w.field("kind", "counter");
    w.field("value", static_cast<double>(count));
    w.endObject();
}

/** A `metrics[]` histogram row: mean and quantiles, all 0 when empty. */
void
histogramRow(obs::JsonWriter& w, std::string_view name,
             const sim::SampleSet& samples)
{
    w.beginObject();
    w.field("name", name);
    w.field("kind", "histogram");
    w.field("value", samples.mean());
    w.field("count", static_cast<std::uint64_t>(samples.count()));
    w.field("p50", samples.quantile(0.50));
    w.field("p95", samples.quantile(0.95));
    w.field("p99", samples.quantile(0.99));
    w.field("max", samples.quantile(1.0));
    w.endObject();
}

/**
 * Append one run's stream to @p out: spliced from its sink part file
 * when the run streamed to disk (the file is deleted after a successful
 * splice when @p removeParts), serialized from memory otherwise.
 * @return false for a run whose sink failed: its stream is incomplete.
 */
template <class Record>
bool
appendRun(std::ostream& out, const obs::RecordBuffer<Record>& buffer,
          bool removeParts)
{
    if (!buffer.sinkOk)
        return false;
    if (buffer.sinkPath.empty()) {
        obs::writeJsonl(out, buffer);
        return static_cast<bool>(out);
    }
    std::ifstream in(buffer.sinkPath, std::ios::binary);
    if (!in)
        return false;
    // Chunked copy (out << in.rdbuf() sets failbit on empty part files).
    char chunk[1u << 16];
    while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0)
        out.write(chunk, in.gcount());
    if (!out)
        return false;
    in.close();
    if (removeParts)
        std::remove(buffer.sinkPath.c_str());
    return true;
}

/**
 * Write the @p stream member of every memoized cell as JSONL, in result
 * order: a deterministic `{"run":{...}}` header line per cell, whose
 * @p countKey ("events" or "samples") holds the recorded count, then
 * the cell's records.
 */
template <class Record>
bool
writeRunsJsonl(const std::string& path, const Runner& runner,
               bool removeParts, const char* countKey,
               obs::RecordBuffer<Record> core::RunResult::*stream)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    bool ok = true;
    const auto write = [&](const core::RunResult& result) {
        const obs::RecordBuffer<Record>& buffer = result.*stream;
        obs::JsonWriter w;
        w.beginObject();
        w.key("run");
        w.beginObject();
        w.field("strategy", result.strategy);
        w.field("scenario", result.scenario);
        w.field("profiling", result.profiling);
        w.field(countKey, buffer.recorded);
        w.field("dropped", buffer.dropped);
        w.endObject();
        w.endObject();
        out << w.str() << '\n';
        ok = appendRun(out, buffer, removeParts) && ok;
    };
    for (const auto& [key, result] : runner.results()) {
        (void)key;
        write(result);
    }
    for (const core::RunResult& result : runner.adhocResults())
        write(result);
    return ok && static_cast<bool>(out);
}

} // namespace

void
runResultJson(obs::JsonWriter& w, const core::RunResult& result)
{
    w.beginObject();
    w.field("strategy", result.strategy);
    w.field("scenario", result.scenario);
    w.field("profiling", result.profiling);
    w.field("makespan_sec", result.makespan);
    w.field("mean_perf_norm", result.meanPerfNorm());
    w.field("reserved_utilization_avg", result.reservedUtilizationAvg);

    w.key("counters");
    w.beginObject();
    w.field("jobs", static_cast<std::uint64_t>(result.jobCount));
    w.field("failed_jobs", static_cast<std::uint64_t>(result.failedJobs));
    w.field("acquisitions",
            static_cast<std::uint64_t>(result.acquisitions));
    w.field("immediate_releases",
            static_cast<std::uint64_t>(result.immediateReleases));
    w.field("reschedules", static_cast<std::uint64_t>(result.reschedules));
    w.field("spot_interruptions",
            static_cast<std::uint64_t>(result.spotInterruptions));
    w.field("queued_jobs", static_cast<std::uint64_t>(result.queuedJobs));
    w.endObject();

    sampleSetJson(w, "batch_turnaround_min", result.batchTurnaroundMin);
    sampleSetJson(w, "batch_perf_norm", result.batchPerfNorm);
    sampleSetJson(w, "lc_latency_us", result.lcLatencyUs);
    sampleSetJson(w, "lc_perf_norm", result.lcPerfNorm);
    sampleSetJson(w, "perf_reserved", result.perfReserved);
    sampleSetJson(w, "perf_on_demand", result.perfOnDemand);
    sampleSetJson(w, "spin_up_waits_sec", result.spinUpWaits);
    sampleSetJson(w, "queue_waits_sec", result.queueWaits);

    w.key("trace");
    w.beginObject();
    w.field("recorded", result.trace.recorded);
    w.field("dropped", result.trace.dropped);
    w.field("retained",
            static_cast<std::uint64_t>(result.trace.records.size()));
    w.endObject();

    w.key("timeline");
    w.beginObject();
    w.field("cadence_sec", result.timelineCadence);
    w.field("recorded", result.timeline.recorded);
    w.field("dropped", result.timeline.dropped);
    w.field("retained",
            static_cast<std::uint64_t>(result.timeline.records.size()));
    w.key("samples");
    w.beginArray();
    for (const obs::TimelineSample& s : result.timeline.records) {
        w.beginObject();
        obs::timelineSampleJson(w, s);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    // Sorted by name. The counter rows repeat counters{}; schema v4
    // keeps them.
    w.key("metrics");
    w.beginArray();
    gaugeRow(w, "cluster_on_demand_cores", result.onDemandAllocated);
    gaugeRow(w, "cluster_on_demand_cores_used", result.onDemandUsed);
    gaugeRow(w, "cluster_reserved_cores", result.reservedAllocated);
    gaugeRow(w, "cluster_reserved_utilization", result.reservedUtilization);
    counterRow(w, "strategy_acquisitions", result.acquisitions);
    counterRow(w, "strategy_immediate_releases", result.immediateReleases);
    histogramRow(w, "strategy_queue_wait_sec", result.queueWaits);
    counterRow(w, "strategy_queued_jobs", result.queuedJobs);
    counterRow(w, "strategy_reschedules", result.reschedules);
    histogramRow(w, "strategy_spin_up_wait_sec", result.spinUpWaits);
    counterRow(w, "strategy_spot_interruptions", result.spotInterruptions);
    w.endArray();

    w.key("telemetry");
    w.beginObject();
    w.field("trace_gen_sec", result.telemetry.traceGenSec);
    w.field("setup_sec", result.telemetry.setupSec);
    w.field("sim_loop_sec", result.telemetry.simLoopSec);
    w.field("finalize_sec", result.telemetry.finalizeSec);
    w.field("events_processed", result.telemetry.eventsProcessed);
    w.field("events_per_sec", result.telemetry.eventsPerSec);
    w.field("threads",
            static_cast<std::uint64_t>(result.telemetry.threads));
    w.endObject();

    w.endObject();
}

bool
writeJsonReport(const std::string& path, const std::string& title,
                const Runner& runner,
                const std::vector<SweepResult>& sweeps)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    obs::JsonWriter w;
    w.beginObject();
    w.field("schemaVersion", kReportSchemaVersion);
    w.field("title", title);
    w.field("load_scale", runner.options().loadScale);
    w.field("seed", static_cast<std::uint64_t>(runner.options().seed));
    w.key("runs");
    w.beginArray();
    for (const auto& [key, result] : runner.results()) {
        (void)key;
        runResultJson(w, result);
    }
    for (const core::RunResult& result : runner.adhocResults())
        runResultJson(w, result);
    w.endArray();
    w.key("sweeps");
    w.beginArray();
    for (const SweepResult& sweep : sweeps)
        sweepJson(w, sweep);
    w.endArray();
    w.endObject();
    out << w.str() << '\n';
    return static_cast<bool>(out);
}

bool
writeTraceJsonl(const std::string& path, const Runner& runner,
                bool removeParts)
{
    return writeRunsJsonl(path, runner, removeParts, "events",
                          &core::RunResult::trace);
}

bool
writeTimelineJsonl(const std::string& path, const Runner& runner,
                   bool removeParts)
{
    return writeRunsJsonl(path, runner, removeParts, "samples",
                          &core::RunResult::timeline);
}

} // namespace hcloud::exp
