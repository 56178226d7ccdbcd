/**
 * @file
 * Request-scoped span tracing: causal, per-request wall-clock timing
 * from the HTTP edge through the strand executor into the engine.
 *
 * The decision tracer (obs::Tracer) answers "what did the simulation
 * decide and why" in *virtual* time; spans answer "where did this
 * request's wall-clock go" — accept/read, parse, route, strand wait,
 * engine execute, response write — and join the two worlds by stamping
 * every decision TraceEvent with the active trace id.
 *
 * Model (deliberately small — not OpenTelemetry):
 *  - a *trace* is one request; ids are process-unique uint64 counters;
 *  - a *span* is one named [start,end) wall-clock interval inside a
 *    trace, with a parent span id (0 = root);
 *  - an *event* is an instantaneous annotation attached to a span
 *    (e.g. one provisioning decision, which also carries its virtual
 *    timestamp so span JSONL joins the decision-trace JSONL).
 *
 * Propagation is thread-local: SpanBinding installs (tracer, context)
 * on the current thread; SpanScope opens a child span of whatever is
 * current and re-parents the context for its lifetime. A
 * runtime::ShardedExecutor strand runs its task on the caller's thread,
 * so the binding carries through, and records the time spent waiting
 * for the strand as its own span.
 *
 * Cost contract: with no tracer bound (the default everywhere outside
 * `hcloud serve --span-trace`), SpanScope construction is one
 * thread-local load and one branch — measured by
 * BM_SpanScopeDisabled in bench_overheads and gated in CI, so the
 * PR 5 hot-path wins survive. With a tracer bound, each span is one
 * clock sample at open, one at close, and one formatted JSONL line
 * buffered into a TraceSink under a mutex.
 *
 * Export: JSONL (one object per line, {"span":...} or {"event":...})
 * through the same TraceSink machinery the decision tracer streams
 * through, plus writeChromeTrace() which converts a span JSONL stream
 * into a chrome://tracing-compatible trace-event JSON document.
 */

#ifndef HCLOUD_OBS_SPAN_HPP
#define HCLOUD_OBS_SPAN_HPP

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace hcloud::obs {

class TraceSink;

/** The (trace, span) pair a new child span attaches under. */
struct SpanContext
{
    std::uint64_t trace = 0; ///< request identity (0 = none)
    std::uint64_t span = 0;  ///< parent span id (0 = root)

    bool valid() const { return trace != 0; }
};

/** Span tracing knobs. */
struct SpanTracerConfig
{
    /** JSONL output path; empty = tracing disabled. */
    std::string sinkPath;
};

/**
 * Thread-safe collector of span/event records, streaming JSONL to a
 * TraceSink. One instance per process surface (the daemon owns one);
 * tests and benches construct private instances.
 */
class SpanTracer
{
  public:
    explicit SpanTracer(SpanTracerConfig config = {});
    ~SpanTracer();

    SpanTracer(const SpanTracer&) = delete;
    SpanTracer& operator=(const SpanTracer&) = delete;

    /** True when a sink is open and healthy; all record calls are
     *  no-ops otherwise. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    const std::string& sinkPath() const { return config_.sinkPath; }

    /** Process-unique id for a new request. */
    std::uint64_t newTraceId()
    {
        return nextTrace_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Process-unique id for a new span. */
    std::uint64_t newSpanId()
    {
        return nextSpan_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Record one completed span. @p startNs/@p endNs are nowNs()
     * samples; @p name must outlive the call (string literals).
     */
    void span(std::uint64_t trace, std::uint64_t id, std::uint64_t parent,
              const char* name, std::uint64_t startNs,
              std::uint64_t endNs, std::string_view detail = {});

    /**
     * Record one instantaneous annotation under span @p parent at the
     * current wall clock; @p simTime carries the virtual timestamp of
     * the underlying decision event (NaN-free by construction).
     */
    void event(std::uint64_t trace, std::uint64_t parent,
               const char* name, double simTime,
               std::string_view detail = {});

    /** Spans + events successfully handed to the sink. */
    std::uint64_t recorded() const
    {
        return recorded_.load(std::memory_order_relaxed);
    }

    /** Push buffered lines to disk. */
    void flush();

    /** Monotonic wall clock, nanoseconds (steady_clock). */
    static std::uint64_t nowNs();

  private:
    void append(std::string&& line);

    SpanTracerConfig config_;
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> nextTrace_{1};
    std::atomic<std::uint64_t> nextSpan_{1};
    std::atomic<std::uint64_t> recorded_{0};
    std::mutex mutex_;
    std::unique_ptr<TraceSink> sink_;
};

/** The span context bound to this thread ({0,0} when none). */
SpanContext currentSpanContext();

/** The tracer bound to this thread (nullptr when none). */
SpanTracer* currentSpanTracer();

/**
 * RAII: bind (@p tracer, @p context) to this thread, restoring the
 * previous binding on destruction. The HTTP layer binds the root
 * context around handler invocation.
 */
class SpanBinding
{
  public:
    SpanBinding(SpanTracer* tracer, SpanContext context);
    ~SpanBinding();

    SpanBinding(const SpanBinding&) = delete;
    SpanBinding& operator=(const SpanBinding&) = delete;

  private:
    SpanTracer* prevTracer_;
    SpanContext prevContext_;
};

/**
 * RAII child span of the current thread-local context. Inert (one TLS
 * load, one branch) when no tracer is bound or tracing is disabled.
 * While alive, the current context points at this span, so nested
 * scopes parent correctly.
 */
class SpanScope
{
  public:
    explicit SpanScope(const char* name, std::string_view detail = {});
    ~SpanScope();

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    /** False when this scope is a no-op. */
    bool active() const { return tracer_ != nullptr; }

  private:
    SpanTracer* tracer_ = nullptr;
    const char* name_ = nullptr;
    SpanContext prev_;
    std::uint64_t id_ = 0;
    std::uint64_t startNs_ = 0;
    std::string detail_;
};

/**
 * Convert a span JSONL stream (as written by SpanTracer) into a
 * chrome://tracing / Perfetto-compatible trace-event JSON document:
 * complete ("ph":"X") events for spans, instant ("ph":"i") events for
 * annotations, one tid per trace so each request renders as its own
 * row. Unrecognized lines are skipped and counted.
 * @return false (with @p error filled when non-null) when @p in held
 * no span records at all.
 */
bool writeChromeTrace(std::istream& in, std::ostream& out,
                      std::string* error = nullptr);

} // namespace hcloud::obs

#endif // HCLOUD_OBS_SPAN_HPP
