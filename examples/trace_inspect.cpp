/**
 * @file
 * Inspect a trace JSONL file produced by the benches (--trace flag or
 * the HCLOUD_TRACE environment knob): per-run event counts, per-job and
 * per-instance timelines, and a decision-reason summary.
 *
 * The file is streamed line by line: per-run state is bounded aggregates
 * (kind/reason histograms, distinct-id sets, and complete timelines for
 * only the N smallest job/instance ids), never the full event vector, so
 * sink-backed traces far larger than memory inspect fine.
 *
 * Usage: trace_inspect <trace.jsonl> [--jobs N] [--instances N]
 *   --jobs / --instances bound how many per-entity timelines are printed
 *   (default 5 each; 0 suppresses the section).
 *
 * Cross-run diff mode: trace_inspect --diff <a.jsonl> <b.jsonl>
 *   Streams both files in lockstep and reports the first divergent event
 *   (index, time, kind, ids, reason on each side) plus per-reason
 *   histogram deltas over the complete files. Exit status: 0 when the
 *   event streams are identical, 1 when they diverge, 2 on usage or I/O
 *   errors. Intended for pinpointing where two supposedly-deterministic
 *   runs (different thread counts, before/after a kernel change) first
 *   disagree.
 *
 * Timeline mode (for files written by --timeline / HCLOUD_TIMELINE):
 *   trace_inspect --timeline <timeline.jsonl> [--timeline-csv <out.csv>]
 *     Renders each run's cluster-state series — utilization, median
 *     quality, queue length, external load, spot price, accumulated
 *     cost — as fixed-width ASCII sparklines with their observed
 *     [min, max] ranges, and optionally exports every sample of every
 *     run as one flat CSV for plotting.
 *
 * Request-span modes (for files written by --span-trace / HCLOUD_SPANS):
 *   trace_inspect --spans <spans.jsonl> [--traces N]
 *     Renders per-request span timelines: one indented tree per trace id
 *     (the N smallest, default 5) with start offsets and durations in
 *     milliseconds, engine decision events joined in at their parent
 *     span, plus an aggregate per-span-name duration table.
 *   trace_inspect --chrome <spans.jsonl> <out.json>
 *     Converts the span JSONL into chrome://tracing / Perfetto trace
 *     event JSON (one row per request).
 *
 * Sweep-aggregate mode (for schema-v4 reports from --seeds/--ci runs):
 *   trace_inspect --agg <report.json>
 *     Renders each sweep in the report's `sweeps` array as a per-cell
 *     table of mean +/- 95% CI (cost, utilization, quality p95, QoS
 *     violations) plus the sweep's cache/reset telemetry line.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <algorithm>

#include "obs/json.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace hcloud;

/**
 * Complete timelines for the N smallest entity ids seen so far.
 *
 * An id is admitted at its FIRST event (when it is not yet in the seen
 * set) and only if it is among the N smallest; admitting it may evict
 * the current largest id. Eviction only ever shrinks the map's maximum,
 * so an evicted id can never re-qualify — every timeline still in the
 * map at end of stream is exact, identical to what a full in-memory
 * grouping would print for the N smallest ids.
 */
template <typename Id>
struct BoundedTimelines
{
    std::size_t capacity = 0;
    std::set<Id> seen;
    std::map<Id, std::vector<obs::TraceEvent>> timelines;

    void add(Id id, const obs::TraceEvent& event)
    {
        auto it = timelines.find(id);
        if (it != timelines.end()) {
            it->second.push_back(event);
            return;
        }
        if (!seen.insert(id).second || capacity == 0)
            return; // already evicted (partial) or timelines suppressed
        if (timelines.size() >= capacity) {
            auto largest = std::prev(timelines.end());
            if (id >= largest->first)
                return;
            timelines.erase(largest);
        }
        timelines[id].push_back(event);
    }
};

struct RunSummary
{
    std::string label;
    std::size_t events = 0;
    std::map<obs::EventKind, std::size_t> kinds;
    std::map<obs::DecisionReason, std::size_t> reasons;
    BoundedTimelines<sim::JobId> jobs;
    BoundedTimelines<sim::InstanceId> instances;

    explicit RunSummary(std::string runLabel, std::size_t maxJobs,
                        std::size_t maxInstances)
        : label(std::move(runLabel))
    {
        jobs.capacity = maxJobs;
        instances.capacity = maxInstances;
    }

    void add(const obs::TraceEvent& event)
    {
        ++events;
        ++kinds[event.kind];
        if (event.reason != obs::DecisionReason::None)
            ++reasons[event.reason];
        if (event.job != 0)
            jobs.add(event.job, event);
        if (event.instance != 0)
            instances.add(event.instance, event);
    }
};

/** "strategy/scenario[, unprofiled]" from a {"run":{...}} header line. */
std::string
runLabel(const obs::JsonValue& header)
{
    const obs::JsonValue* run = header.find("run");
    if (!run)
        return "(unlabeled run)";
    std::string label = run->find("strategy")
        ? run->find("strategy")->stringOr("?")
        : "?";
    label += " / ";
    label += run->find("scenario") ? run->find("scenario")->stringOr("?")
                                   : "?";
    if (run->find("profiling") && !run->find("profiling")->boolOr(true))
        label += " (unprofiled)";
    return label;
}

void
printTimeline(const char* kind, std::uint64_t id,
              const std::vector<obs::TraceEvent>& events)
{
    std::printf("  %s %llu:\n", kind,
                static_cast<unsigned long long>(id));
    for (const obs::TraceEvent& e : events) {
        std::printf("    t=%10.2f  %-22s", e.time, toString(e.kind));
        if (e.reason != obs::DecisionReason::None)
            std::printf("  reason=%s", toString(e.reason));
        if (e.value != 0.0)
            std::printf("  value=%g", e.value);
        if (!e.detail.empty())
            std::printf("  (%s)", e.detail.c_str());
        std::printf("\n");
    }
}

void
summarizeRun(const RunSummary& run)
{
    std::printf("\n== %s: %zu events ==\n", run.label.c_str(),
                run.events);
    if (run.events == 0)
        return;

    std::printf(" event kinds:\n");
    for (const auto& [kind, count] : run.kinds)
        std::printf("  %-22s %zu\n", toString(kind), count);

    if (!run.reasons.empty()) {
        std::printf(" decision reasons:\n");
        for (const auto& [reason, count] : run.reasons)
            std::printf("  %-26s %zu\n", toString(reason), count);
    }

    if (run.jobs.capacity > 0 && !run.jobs.seen.empty()) {
        std::printf(" job timelines (%zu of %zu):\n",
                    run.jobs.timelines.size(), run.jobs.seen.size());
        for (const auto& [id, events] : run.jobs.timelines)
            printTimeline("job", id, events);
    }

    if (run.instances.capacity > 0 && !run.instances.seen.empty()) {
        std::printf(" instance timelines (%zu of %zu):\n",
                    run.instances.timelines.size(),
                    run.instances.seen.size());
        for (const auto& [id, events] : run.instances.timelines)
            printTimeline("instance", id, events);
    }
}

// --- Cross-run diff -----------------------------------------------------

/**
 * Streams trace events from one JSONL file, skipping run headers and
 * unrecognized lines (counted, like the summary path).
 */
struct EventReader
{
    std::ifstream in;
    std::string path;
    std::size_t lineNo = 0;
    std::size_t badLines = 0;

    explicit EventReader(const std::string& file)
        : in(file, std::ios::binary), path(file)
    {
    }

    bool ok() const { return static_cast<bool>(in); }

    /** Next event, or false at end of file. */
    bool next(obs::TraceEvent* out)
    {
        std::string line;
        while (std::getline(in, line)) {
            ++lineNo;
            if (line.empty())
                continue;
            if (obs::eventFromJsonLine(line, out))
                return true;
            try {
                const obs::JsonValue header = obs::parseJson(line);
                if (header.find("run"))
                    continue; // section header, not an event
            } catch (const std::exception&) {
            }
            ++badLines;
        }
        return false;
    }
};

bool
sameEvent(const obs::TraceEvent& a, const obs::TraceEvent& b)
{
    return a.time == b.time && a.kind == b.kind &&
           a.severity == b.severity && a.reason == b.reason &&
           a.job == b.job && a.instance == b.instance &&
           a.value == b.value && a.detail == b.detail;
}

void
printDiffEvent(const char* side, const obs::TraceEvent& e)
{
    std::printf("  %s: t=%.6f  %-22s job=%llu instance=%llu", side, e.time,
                toString(e.kind), static_cast<unsigned long long>(e.job),
                static_cast<unsigned long long>(e.instance));
    if (e.reason != obs::DecisionReason::None)
        std::printf("  reason=%s", toString(e.reason));
    if (e.value != 0.0)
        std::printf("  value=%g", e.value);
    if (!e.detail.empty())
        std::printf("  (%s)", e.detail.c_str());
    std::printf("\n");
}

/** @return the diff-mode process exit status (0 / 1 / 2). */
int
diffTraces(const std::string& pathA, const std::string& pathB)
{
    EventReader a(pathA);
    EventReader b(pathB);
    if (!a.ok() || !b.ok()) {
        std::fprintf(stderr, "cannot open %s\n",
                     (!a.ok() ? pathA : pathB).c_str());
        return 2;
    }

    std::map<obs::DecisionReason, std::size_t> reasonsA;
    std::map<obs::DecisionReason, std::size_t> reasonsB;
    std::size_t index = 0;
    bool diverged = false;
    std::size_t divergedAt = 0;
    obs::TraceEvent firstA, firstB;
    bool haveA = false, haveB = false;

    for (;;) {
        obs::TraceEvent ea, eb;
        const bool gotA = a.next(&ea);
        const bool gotB = b.next(&eb);
        if (gotA && ea.reason != obs::DecisionReason::None)
            ++reasonsA[ea.reason];
        if (gotB && eb.reason != obs::DecisionReason::None)
            ++reasonsB[eb.reason];
        if (!gotA && !gotB)
            break;
        if (!diverged && (!gotA || !gotB || !sameEvent(ea, eb))) {
            diverged = true;
            divergedAt = index;
            haveA = gotA;
            haveB = gotB;
            if (gotA)
                firstA = ea;
            if (gotB)
                firstB = eb;
            // Keep draining both files so the histogram deltas below
            // cover the complete runs, not just the shared prefix.
        }
        ++index;
    }

    if (!diverged) {
        std::printf("identical: %zu events\n", index);
        return 0;
    }

    std::printf("diverged at event %zu:\n", divergedAt);
    if (haveA)
        printDiffEvent("a", firstA);
    else
        std::printf("  a: <end of %s>\n", pathA.c_str());
    if (haveB)
        printDiffEvent("b", firstB);
    else
        std::printf("  b: <end of %s>\n", pathB.c_str());

    // Per-reason histogram deltas over the full files.
    std::set<obs::DecisionReason> all_reasons;
    for (const auto& [reason, count] : reasonsA)
        all_reasons.insert(reason);
    for (const auto& [reason, count] : reasonsB)
        all_reasons.insert(reason);
    bool any_delta = false;
    for (obs::DecisionReason reason : all_reasons) {
        const std::size_t ca = reasonsA.count(reason) ? reasonsA[reason]
                                                      : 0;
        const std::size_t cb = reasonsB.count(reason) ? reasonsB[reason]
                                                      : 0;
        if (ca == cb)
            continue;
        if (!any_delta) {
            std::printf(" decision-reason deltas (a -> b):\n");
            any_delta = true;
        }
        std::printf("  %-26s %zu -> %zu (%+lld)\n", toString(reason), ca,
                    cb,
                    static_cast<long long>(cb) - static_cast<long long>(ca));
    }
    if (!any_delta)
        std::printf(" decision-reason histograms match\n");
    if (a.badLines + b.badLines > 0) {
        std::printf(" %zu unrecognized line(s) skipped\n",
                    a.badLines + b.badLines);
    }
    return 1;
}

// --- Cluster-state timelines --------------------------------------------

/** One run section of a timeline JSONL file. */
struct TimelineRun
{
    std::string label;
    std::vector<obs::TimelineSample> samples;
};

/**
 * Render @p values as a fixed-width ASCII sparkline: values are bucketed
 * to @p width columns (bucket mean) and each column maps linearly from
 * the observed [min, max] onto a 9-level character ramp. A flat series
 * renders as all-bottom, which is exactly the visual meaning wanted.
 */
std::string
sparkline(const std::vector<double>& values, std::size_t width)
{
    static constexpr char kRamp[] = " .:-=+*#@";
    constexpr std::size_t kLevels = sizeof(kRamp) - 2;
    if (values.empty())
        return "";
    double lo = values[0], hi = values[0];
    for (double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const std::size_t cols = std::min(width, values.size());
    std::string out;
    out.reserve(cols);
    for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t begin = c * values.size() / cols;
        const std::size_t end =
            std::max(begin + 1, (c + 1) * values.size() / cols);
        double sum = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            sum += values[i];
        const double mean = sum / static_cast<double>(end - begin);
        const double norm = hi > lo ? (mean - lo) / (hi - lo) : 0.0;
        out += kRamp[static_cast<std::size_t>(
            norm * static_cast<double>(kLevels) + 0.5)];
    }
    return out;
}

void
printSeries(const char* name, const std::vector<double>& values)
{
    if (values.empty())
        return;
    double lo = values[0], hi = values[0];
    for (double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    std::printf("  %-12s [%11.4g, %11.4g]  %s\n", name, lo, hi,
                sparkline(values, 64).c_str());
}

/** Flat CSV of every sample in every run, one row per sample. */
bool
writeTimelineCsv(const std::string& path,
                 const std::vector<TimelineRun>& runs)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << "run,t,seq,reserved,on_demand,spot,util,q_mean,q5,q50,q95,"
           "queue,active,running,done,ext_load,spot_price,qos,cost\n";
    char row[512];
    for (const TimelineRun& run : runs) {
        for (const obs::TimelineSample& s : run.samples) {
            std::snprintf(
                row, sizeof(row),
                "\"%s\",%g,%llu,%u,%u,%u,%g,%g,%g,%g,%g,%u,%u,%u,%llu,"
                "%g,%g,%u,%g\n",
                run.label.c_str(), s.t,
                static_cast<unsigned long long>(s.seq),
                s.reservedInstances, s.onDemandInstances, s.spotInstances,
                s.utilization, s.qualityMean, s.qualityP5, s.qualityP50,
                s.qualityP95, s.queueLength, s.activeJobs, s.runningJobs,
                static_cast<unsigned long long>(s.finishedJobs),
                s.externalLoad, s.spotPrice, s.qosTracked, s.costTotal);
            out << row;
        }
    }
    return static_cast<bool>(out);
}

/** @return the --timeline mode process exit status (0 / 1 / 2). */
int
inspectTimeline(const std::string& path, const std::string& csvPath)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 2;
    }

    std::vector<TimelineRun> runs;
    std::string line;
    std::size_t badLines = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        obs::TimelineSample sample;
        if (obs::sampleFromJsonLine(line, &sample)) {
            if (runs.empty())
                runs.push_back({"(unlabeled run)", {}});
            runs.back().samples.push_back(std::move(sample));
            continue;
        }
        try {
            const obs::JsonValue header = obs::parseJson(line);
            if (header.find("run")) {
                runs.push_back({runLabel(header), {}});
                continue;
            }
        } catch (const std::exception&) {
        }
        ++badLines;
    }

    std::printf("%s: %zu run(s)\n", path.c_str(), runs.size());
    for (const TimelineRun& run : runs) {
        std::printf("\n== %s: %zu sample(s)", run.label.c_str(),
                    run.samples.size());
        if (!run.samples.empty())
            std::printf(", t %.0f..%.0f", run.samples.front().t,
                        run.samples.back().t);
        std::printf(" ==\n");
        if (run.samples.empty())
            continue;
        auto series = [&run](auto member) {
            std::vector<double> values;
            values.reserve(run.samples.size());
            for (const obs::TimelineSample& s : run.samples)
                values.push_back(static_cast<double>(member(s)));
            return values;
        };
        printSeries("instances", series([](const obs::TimelineSample& s) {
                        return s.reservedInstances + s.onDemandInstances +
                            s.spotInstances;
                    }));
        printSeries("utilization",
                    series([](const obs::TimelineSample& s) {
                        return s.utilization;
                    }));
        printSeries("quality p50",
                    series([](const obs::TimelineSample& s) {
                        return s.qualityP50;
                    }));
        printSeries("queue", series([](const obs::TimelineSample& s) {
                        return s.queueLength;
                    }));
        printSeries("running", series([](const obs::TimelineSample& s) {
                        return s.runningJobs;
                    }));
        printSeries("ext load", series([](const obs::TimelineSample& s) {
                        return s.externalLoad;
                    }));
        printSeries("spot price",
                    series([](const obs::TimelineSample& s) {
                        return s.spotPrice;
                    }));
        printSeries("cost", series([](const obs::TimelineSample& s) {
                        return s.costTotal;
                    }));
    }
    if (badLines > 0)
        std::printf("\n%zu unrecognized line(s) skipped\n", badLines);

    if (!csvPath.empty()) {
        if (!writeTimelineCsv(csvPath, runs)) {
            std::fprintf(stderr, "cannot write %s\n", csvPath.c_str());
            return 2;
        }
        std::printf("\nwrote CSV: %s\n", csvPath.c_str());
    }
    return runs.empty() ? 1 : 0;
}

// --- Request-span timelines ---------------------------------------------

/** One span or instantaneous event from a request-span JSONL file. */
struct SpanRecord
{
    bool isEvent = false;
    std::string name;
    std::uint64_t id = 0;     ///< 0 for events
    std::uint64_t parent = 0; ///< parent span id (0 = root)
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    double simTime = 0.0; ///< events only
    std::string detail;
};

bool
spanFromJsonLine(const std::string& line, std::uint64_t* trace,
                 SpanRecord* out)
{
    obs::JsonValue v;
    try {
        v = obs::parseJson(line);
    } catch (const std::exception&) {
        return false;
    }
    const obs::JsonValue* span = v.find("span");
    const obs::JsonValue* event = v.find("event");
    const obs::JsonValue* traceField = v.find("trace");
    if ((!span && !event) || !traceField)
        return false;
    *trace = static_cast<std::uint64_t>(traceField->numberOr(0.0));
    out->isEvent = event != nullptr;
    out->name = span ? span->stringOr("?") : event->stringOr("?");
    auto u64 = [&v](const char* key) -> std::uint64_t {
        const obs::JsonValue* f = v.find(key);
        return static_cast<std::uint64_t>(f ? f->numberOr(0.0) : 0.0);
    };
    out->id = u64("id");
    out->parent = u64("parent");
    out->startNs = out->isEvent ? u64("ns") : u64("startNs");
    out->durNs = u64("durNs");
    if (const obs::JsonValue* t = v.find("t"))
        out->simTime = t->numberOr(0.0);
    if (const obs::JsonValue* detail = v.find("detail"))
        out->detail = detail->stringOr("");
    return true;
}

/** Prints @p record and its children, indented by @p depth. */
void
printSpanTree(const std::map<std::uint64_t, std::vector<SpanRecord>>&
                  children,
              const SpanRecord& record, std::uint64_t baseNs, int depth)
{
    // Signed: http.accept_wait starts before the root's first byte.
    const double offsetMs =
        static_cast<double>(static_cast<std::int64_t>(record.startNs) -
                            static_cast<std::int64_t>(baseNs)) /
        1e6;
    if (record.isEvent) {
        std::printf("  %8.3f ms %*s* %s", offsetMs, 2 * depth, "",
                    record.name.c_str());
        std::printf("  t=%.2f", record.simTime);
    } else {
        std::printf("  %8.3f ms %*s%-14s %8.3f ms", offsetMs, 2 * depth,
                    "", record.name.c_str(),
                    static_cast<double>(record.durNs) / 1e6);
    }
    if (!record.detail.empty())
        std::printf("  (%s)", record.detail.c_str());
    std::printf("\n");
    const auto it = children.find(record.id);
    if (record.isEvent || it == children.end())
        return;
    for (const SpanRecord& child : it->second)
        printSpanTree(children, child, baseNs, depth + 1);
}

/** @return the --spans mode process exit status (0 / 1 / 2). */
int
inspectSpans(const std::string& path, std::size_t maxTraces)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 2;
    }

    // Admission mirrors BoundedTimelines: full record sets for the N
    // smallest trace ids only, aggregates over everything.
    std::set<std::uint64_t> seen;
    std::map<std::uint64_t, std::vector<SpanRecord>> traces;
    struct NameAgg
    {
        std::size_t count = 0;
        double totalMs = 0.0;
        double maxMs = 0.0;
    };
    std::map<std::string, NameAgg> byName;
    std::size_t spanCount = 0;
    std::size_t eventCount = 0;
    std::size_t badLines = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::uint64_t trace = 0;
        SpanRecord record;
        if (!spanFromJsonLine(line, &trace, &record)) {
            ++badLines;
            continue;
        }
        if (record.isEvent) {
            ++eventCount;
        } else {
            ++spanCount;
            NameAgg& agg = byName[record.name];
            ++agg.count;
            const double ms = static_cast<double>(record.durNs) / 1e6;
            agg.totalMs += ms;
            agg.maxMs = std::max(agg.maxMs, ms);
        }
        auto it = traces.find(trace);
        if (it != traces.end()) {
            it->second.push_back(std::move(record));
            continue;
        }
        if (!seen.insert(trace).second || maxTraces == 0)
            continue;
        if (traces.size() >= maxTraces) {
            auto largest = std::prev(traces.end());
            if (trace >= largest->first)
                continue;
            traces.erase(largest);
        }
        traces[trace].push_back(std::move(record));
    }

    std::printf("%s: %zu trace(s), %zu span(s), %zu event(s)\n",
                path.c_str(), seen.size(), spanCount, eventCount);
    if (badLines > 0)
        std::printf("%zu unrecognized line(s) skipped\n", badLines);
    if (spanCount + eventCount == 0)
        return 1;

    if (!byName.empty()) {
        std::printf("\n span durations by name:\n");
        std::printf("  %-16s %8s %12s %12s %12s\n", "span", "count",
                    "mean ms", "max ms", "total ms");
        for (const auto& [name, agg] : byName) {
            std::printf("  %-16s %8zu %12.3f %12.3f %12.3f\n",
                        name.c_str(), agg.count,
                        agg.totalMs / static_cast<double>(agg.count),
                        agg.maxMs, agg.totalMs);
        }
    }

    for (const auto& [trace, records] : traces) {
        // Index records by parent span id; roots have parent 0. Spans
        // are written at close (depth-first post-order), so re-sort
        // every sibling list by start time.
        std::map<std::uint64_t, std::vector<SpanRecord>> children;
        for (const SpanRecord& record : records)
            children[record.parent].push_back(record);
        for (auto& [parent, siblings] : children) {
            std::sort(siblings.begin(), siblings.end(),
                      [](const SpanRecord& a, const SpanRecord& b) {
                          return a.startNs < b.startNs;
                      });
        }
        const auto roots = children.find(0);
        if (roots == children.end())
            continue;
        std::printf("\n== trace %llu ==\n",
                    static_cast<unsigned long long>(trace));
        for (const SpanRecord& root : roots->second)
            printSpanTree(children, root, roots->second.front().startNs,
                          0);
    }
    if (seen.size() > traces.size())
        std::printf("\n(%zu further trace(s) not rendered; raise "
                    "--traces)\n",
                    seen.size() - traces.size());
    return 0;
}

/** @return the --chrome mode process exit status (0 / 2). */
int
convertChrome(const std::string& inPath, const std::string& outPath)
{
    std::ifstream in(inPath, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", inPath.c_str());
        return 2;
    }
    std::ofstream out(outPath, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 2;
    }
    std::string error;
    if (!obs::writeChromeTrace(in, out, &error)) {
        std::fprintf(stderr, "%s: %s\n", inPath.c_str(), error.c_str());
        return 2;
    }
    if (!error.empty())
        std::fprintf(stderr, "%s\n", error.c_str());
    std::printf("wrote %s (open chrome://tracing or ui.perfetto.dev "
                "and load it)\n",
                outPath.c_str());
    return 0;
}

/** "mean +/- ci95" cell text for one reduced metric object. */
std::string
aggCellText(const obs::JsonValue& cell, const char* metric)
{
    const obs::JsonValue* m = cell.find(metric);
    if (!m)
        return "-";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4g +/- %.3g",
                  m->find("mean") ? m->find("mean")->numberOr(0.0) : 0.0,
                  m->find("ci95") ? m->find("ci95")->numberOr(0.0) : 0.0);
    return buf;
}

/** @return the --agg mode process exit status (0 / 1 / 2). */
int
inspectAggregates(const std::string& reportPath)
{
    std::ifstream in(reportPath, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", reportPath.c_str());
        return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    obs::JsonValue doc;
    try {
        doc = obs::parseJson(buffer.str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: malformed JSON: %s\n",
                     reportPath.c_str(), e.what());
        return 2;
    }
    const obs::JsonValue* schema = doc.find("schemaVersion");
    const obs::JsonValue* sweeps = doc.find("sweeps");
    if (!sweeps || sweeps->type != obs::JsonValue::Type::Array) {
        std::fprintf(stderr,
                     "%s: no `sweeps` array (schemaVersion %.0f; "
                     "sweep aggregates need a v4+ report from a bench "
                     "run with --seeds/--ci)\n",
                     reportPath.c_str(),
                     schema ? schema->numberOr(0.0) : 0.0);
        return 1;
    }
    if (sweeps->array.empty()) {
        std::printf("%s: report has an empty `sweeps` array (bench ran "
                    "without --seeds/--ci)\n",
                    reportPath.c_str());
        return 0;
    }
    for (const obs::JsonValue& sweep : sweeps->array) {
        const obs::JsonValue* seedList = sweep.find("seed_list");
        std::printf("== sweep %s: %.0f seed(s) from base %.0f ==\n",
                    sweep.find("title")
                        ? sweep.find("title")->stringOr("?").c_str()
                        : "?",
                    sweep.find("seeds")
                        ? sweep.find("seeds")->numberOr(0.0)
                        : 0.0,
                    sweep.find("base_seed")
                        ? sweep.find("base_seed")->numberOr(0.0)
                        : 0.0);
        if (seedList &&
            seedList->type == obs::JsonValue::Type::Array) {
            std::printf("   seeds:");
            for (const obs::JsonValue& s : seedList->array)
                std::printf(" %.0f", s.numberOr(0.0));
            std::printf("\n");
        }
        const obs::JsonValue* cells = sweep.find("cells");
        if (!cells || cells->type != obs::JsonValue::Type::Array) {
            std::fprintf(stderr, "  (sweep has no cells array)\n");
            return 1;
        }
        std::printf("   %-28s %-22s %-22s %-22s %-20s\n", "cell",
                    "cost_$", "util", "quality_p95", "qos_viol");
        for (const obs::JsonValue& cell : cells->array) {
            const obs::JsonValue* label = cell.find("label");
            std::printf("   %-28s %-22s %-22s %-22s %-20s\n",
                        label ? label->stringOr("?").c_str() : "?",
                        aggCellText(cell, "cost").c_str(),
                        aggCellText(cell, "utilization").c_str(),
                        aggCellText(cell, "quality_p95").c_str(),
                        aggCellText(cell, "qos_violations").c_str());
        }
        const obs::JsonValue* tel = sweep.find("telemetry");
        if (tel) {
            const auto num = [&](const char* name) {
                const obs::JsonValue* v = tel->find(name);
                return v ? v->numberOr(0.0) : 0.0;
            };
            std::printf("   telemetry: %.0f runs, %.2fs wall, "
                        "%.2f Mev/s, trace cache %.0f/%.0f hits, "
                        "%.0f resets / %.0f engines\n",
                        num("runs"), num("wall_sec"),
                        num("events_per_sec") / 1e6,
                        num("trace_cache_hits"),
                        num("trace_cache_hits") +
                            num("trace_cache_misses"),
                        num("engine_resets"), num("engines_created"));
        }
        std::printf("\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--agg") == 0) {
        if (argc != 3) {
            std::fprintf(stderr, "usage: %s --agg <report.json>\n",
                         argv[0]);
            return 2;
        }
        return inspectAggregates(argv[2]);
    }
    if (argc >= 2 && std::strcmp(argv[1], "--diff") == 0) {
        if (argc != 4) {
            std::fprintf(stderr, "usage: %s --diff <a.jsonl> <b.jsonl>\n",
                         argv[0]);
            return 2;
        }
        return diffTraces(argv[2], argv[3]);
    }
    if (argc >= 2 && std::strcmp(argv[1], "--timeline") == 0) {
        std::string timelinePath;
        std::string csvPath;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--timeline-csv") == 0 &&
                i + 1 < argc) {
                csvPath = argv[++i];
            } else if (timelinePath.empty()) {
                timelinePath = argv[i];
            } else {
                timelinePath.clear();
                break;
            }
        }
        if (timelinePath.empty()) {
            // Fall back to the HCLOUD_TIMELINE-named default.
            timelinePath =
                hcloud::obs::envSwitch(hcloud::obs::TimelineConfig::kEnv)
                    .path;
        }
        if (timelinePath.empty()) {
            std::fprintf(stderr,
                         "usage: %s --timeline <timeline.jsonl> "
                         "[--timeline-csv <out.csv>]\n",
                         argv[0]);
            return 2;
        }
        return inspectTimeline(timelinePath, csvPath);
    }
    if (argc >= 2 && std::strcmp(argv[1], "--spans") == 0) {
        std::string spansPath;
        std::size_t maxTraces = 5;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--traces") == 0 && i + 1 < argc) {
                maxTraces = static_cast<std::size_t>(
                    std::strtoull(argv[++i], nullptr, 10));
            } else if (spansPath.empty()) {
                spansPath = argv[i];
            } else {
                spansPath.clear();
                break;
            }
        }
        if (spansPath.empty()) {
            std::fprintf(stderr,
                         "usage: %s --spans <spans.jsonl> [--traces N]\n",
                         argv[0]);
            return 2;
        }
        return inspectSpans(spansPath, maxTraces);
    }
    if (argc >= 2 && std::strcmp(argv[1], "--chrome") == 0) {
        if (argc != 4) {
            std::fprintf(stderr,
                         "usage: %s --chrome <spans.jsonl> <out.json>\n",
                         argv[0]);
            return 2;
        }
        return convertChrome(argv[2], argv[3]);
    }
    std::string path;
    std::size_t max_jobs = 5;
    std::size_t max_instances = 5;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            max_jobs = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--instances") == 0 &&
                   i + 1 < argc) {
            max_instances = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (path.empty()) {
            path = argv[i];
        } else {
            std::fprintf(stderr,
                         "usage: %s <trace.jsonl> [--jobs N] "
                         "[--instances N]\n",
                         argv[0]);
            return 2;
        }
    }
    if (path.empty()) {
        // Fall back to the HCLOUD_TRACE-named default, matching benches.
        path = hcloud::obs::envSwitch(hcloud::obs::TraceConfig::kEnv).path;
        if (path.empty()) {
            std::fprintf(stderr,
                         "usage: %s <trace.jsonl> [--jobs N] "
                         "[--instances N]\n",
                         argv[0]);
            return 2;
        }
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
    }

    std::vector<RunSummary> runs;
    std::string line;
    std::size_t line_no = 0;
    std::size_t bad_lines = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        obs::TraceEvent event;
        if (obs::eventFromJsonLine(line, &event)) {
            if (runs.empty())
                runs.emplace_back("(unlabeled run)", max_jobs,
                                  max_instances);
            runs.back().add(event);
            continue;
        }
        // Not an event: a {"run":...} header starts a new section.
        try {
            const obs::JsonValue header = obs::parseJson(line);
            if (header.find("run")) {
                runs.emplace_back(runLabel(header), max_jobs,
                                  max_instances);
                continue;
            }
        } catch (const std::exception&) {
        }
        std::fprintf(stderr, "line %zu: unrecognized, skipped\n",
                     line_no);
        ++bad_lines;
    }

    std::printf("%s: %zu run(s)\n", path.c_str(), runs.size());
    for (const RunSummary& run : runs)
        summarizeRun(run);
    if (bad_lines > 0)
        std::printf("\n%zu unrecognized line(s) skipped\n", bad_lines);
    return 0;
}
