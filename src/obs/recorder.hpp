/**
 * @file
 * Recorder: the bounded ring-plus-sink store behind obs::Tracer (the
 * decision trace) and obs::Timeline (cluster-state samples).
 *
 * Contracts (DESIGN.md §6):
 *  - near-zero cost when disabled: callers test enabled(), one inline
 *    bool load, before building a record;
 *  - bounded memory: a ring of `ringCapacity` records; once full, the
 *    oldest record is evicted and counted in `dropped` — unless a
 *    TraceSink is attached (RecorderConfig::sinkPath), in which case the
 *    ring drains to the sink whenever it would wrap (and at take()), so
 *    the on-disk stream is complete and `dropped` stays 0;
 *  - sink failure: when a drain fails the recorder drops the sink, keeps
 *    the undrained records in the ring and continues with ring eviction.
 *    The lines of the failed drain count as dropped, so every take()
 *    satisfies recorded == flushed + dropped + records.size();
 *  - deterministic: one engine run owns the recorder and records from
 *    its single-threaded loop; records serialize through the obs::toJson
 *    overload for their type, so sink files are byte-identical across
 *    runner thread counts for a fixed seed.
 *
 * Serialization is resolved at compile time (toJson(const Record&)), so
 * recording involves no virtual call.
 */

#ifndef HCLOUD_OBS_RECORDER_HPP
#define HCLOUD_OBS_RECORDER_HPP

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace_sink.hpp"

namespace hcloud::obs {

/** Knobs every recorder shares; TraceConfig and TimelineConfig extend
 *  it. */
struct RecorderConfig
{
    enum class Mode
    {
        Auto, ///< follow the recorder's environment switch
        Off,
        On,
    };

    Mode mode = Mode::Auto;
    /** Ring size in records; the oldest record is dropped when full. */
    std::size_t ringCapacity = 1;
    /**
     * When non-empty, records stream to a JSONL TraceSink at exactly this
     * path: the ring becomes a flush buffer and `dropped` stays 0, so the
     * stream is bounded only by disk. One run must own the path
     * exclusively — for exp::runSweep runs use sinkStem instead.
     */
    std::string sinkPath;
    /**
     * Per-run sink derivation stem for exp::runSweep: each run derives
     * its own sinkPath ("<stem>.<sweep>-<cell>-<seed>.part"), and the
     * exp report writers merge the parts in deterministic result order.
     * Ignored by the recorder itself.
     */
    std::string sinkStem;

    /** Resolve mode, consulting environment switch @p env under Auto. */
    bool resolveEnabled(const char* env) const;
};

/** A parsed HCLOUD_TRACE-style environment switch. */
struct EnvSwitch
{
    bool enabled = false;
    /** Default JSONL output path the value names ("" for none). */
    std::string path;
};

/**
 * Read switch @p name: unset, "", "0", "off" and "false" disable it;
 * "1", "on" and "true" enable it; any other value enables it and names
 * a default JSONL output path.
 */
EnvSwitch envSwitch(const char* name);

/** One ProcessMetrics series: name plus help text. */
struct MetricSeries
{
    const char* name;
    const char* help;
};

/** The series a recorder publishes each time it is harvested. */
struct RecorderMetrics
{
    MetricSeries recorded; ///< counter
    MetricSeries dropped;  ///< counter
    MetricSeries occupancy; ///< gauge: records retained in memory
    MetricSeries sinkOk;   ///< gauge: 1 when the sink stayed healthy
};

/** Fold one harvest into ProcessMetrics under @p metrics. */
void publishHarvest(const RecorderMetrics& metrics, std::uint64_t recorded,
                    std::uint64_t dropped, std::size_t retained,
                    bool sinkOk);

/** The recorded stream plus bookkeeping, as stored in a RunResult. */
template <class Record>
struct RecordBuffer
{
    /** Retained in-memory records, oldest first (empty when the full
     *  stream went to a sink file instead). */
    std::vector<Record> records;
    /** Records accepted; always flushed + dropped + records.size(). */
    std::uint64_t recorded = 0;
    /** Records lost: evicted by the ring bound, or carried by a sink
     *  drain that failed (0 whenever the sink stayed healthy). */
    std::uint64_t dropped = 0;
    /** Sink file holding the complete stream ("" = ring-only run). */
    std::string sinkPath;
    /** Records written to the sink by drains that succeeded. */
    std::uint64_t flushed = 0;
    /** False when a sink was requested but opening or writing it failed;
     *  the records above then hold the ring-bounded fallback. */
    bool sinkOk = true;
};

/** Write one record per line. */
template <class Record>
void
writeJsonl(std::ostream& out, const RecordBuffer<Record>& buffer)
{
    for (const Record& record : buffer.records)
        out << toJson(record) << '\n';
}

/**
 * Ring-plus-sink store for one engine run's Records. Not thread-safe;
 * each run owns its recorders (which keeps parallel sweeps TSan-clean).
 * Tracer and Timeline derive from it and add their own stamping.
 */
template <class Record>
class Recorder
{
  public:
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    bool enabled() const { return enabled_; }

    /** The attached sink, or nullptr (disabled, none configured, or the
     *  sink broke and the recorder fell back to ring eviction). */
    const TraceSink* sink() const { return sink_.get(); }

    std::uint64_t recordedCount() const { return recorded_; }
    std::uint64_t droppedCount() const { return dropped_; }

    /** Retained records, indexed oldest first. */
    std::size_t size() const { return ring_.size(); }
    bool empty() const { return ring_.empty(); }
    const Record& operator[](std::size_t i) const
    {
        return ring_[(head_ + i) % ring_.size()];
    }

    /**
     * Move the collected stream out; the recorder is then empty. With a
     * sink attached, the ring is drained and the sink flushed and closed
     * first; the buffer then names the sink file instead of holding
     * records.
     */
    RecordBuffer<Record> take();

  protected:
    explicit Recorder(const RecorderMetrics& metrics) : metrics_(metrics)
    {
    }
    ~Recorder() = default;

    /**
     * Start a new run: counters reset, any open sink is closed and, when
     * @p enabled and config.sinkPath is set, a new one opened. The ring
     * keeps its grown capacity (core::EngineRun::reset reuses it);
     * records still held are discarded.
     */
    void rearm(const RecorderConfig& config, bool enabled);

    /** Append one record (the caller has checked enabled()). */
    void push(Record&& record);

    /** The counters of a buffer, without its records. */
    RecordBuffer<Record> counts() const;

  private:
    /** Drain the ring into the sink, oldest first. */
    void drain();
    /** Account for a failed sink write and fall back to the ring. */
    void dropSink();

    const RecorderMetrics& metrics_;
    bool enabled_ = false;
    std::size_t capacity_ = 1;
    std::vector<Record> ring_;
    /** Index of the oldest record once the ring wrapped. A sink-backed
     *  ring drains instead of wrapping, so head_ is 0 while sink_ is
     *  set. */
    std::size_t head_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    /** Records a failed sink had written before it broke. */
    std::uint64_t flushed_ = 0;
    std::unique_ptr<TraceSink> sink_;
    bool sinkOk_ = true;
};

template <class Record>
void
Recorder<Record>::rearm(const RecorderConfig& config, bool enabled)
{
    sink_.reset(); // closes any previous sink file
    enabled_ = enabled;
    capacity_ = config.ringCapacity == 0 ? 1 : config.ringCapacity;
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
    flushed_ = 0;
    sinkOk_ = true;
    if (enabled_ && !config.sinkPath.empty()) {
        sink_ = std::make_unique<TraceSink>(config.sinkPath);
        if (!sink_->ok()) {
            // Unopenable sink: the run still records into the ring and
            // take() reports the failure.
            sink_.reset();
            sinkOk_ = false;
        }
    }
}

template <class Record>
void
Recorder<Record>::push(Record&& record)
{
    ++recorded_;
    if (sink_ && ring_.size() == capacity_)
        drain(); // empties the ring unless the sink just broke
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(record));
        return;
    }
    ring_[head_] = std::move(record);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

template <class Record>
void
Recorder<Record>::drain()
{
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        if (!sink_->appendLine(toJson(ring_[i]))) {
            // Record i went down with the failed drain; keep the rest.
            ring_.erase(ring_.begin(),
                        ring_.begin() + static_cast<std::ptrdiff_t>(i + 1));
            dropSink();
            return;
        }
    }
    ring_.clear();
}

template <class Record>
void
Recorder<Record>::dropSink()
{
    flushed_ = sink_->drained();
    dropped_ += sink_->written() - flushed_;
    sink_.reset();
    sinkOk_ = false;
}

template <class Record>
RecordBuffer<Record>
Recorder<Record>::counts() const
{
    RecordBuffer<Record> buffer;
    buffer.recorded = recorded_;
    buffer.dropped = dropped_;
    buffer.sinkOk = sinkOk_;
    buffer.flushed = sink_ ? sink_->drained() : flushed_;
    if (sink_)
        buffer.sinkPath = sink_->path();
    return buffer;
}

template <class Record>
RecordBuffer<Record>
Recorder<Record>::take()
{
    if (sink_) {
        // Final drain: the file must hold every record before the buffer
        // names it.
        drain();
        if (sink_ && !sink_->flush())
            dropSink();
    }
    RecordBuffer<Record> buffer = counts();
    sink_.reset();
    if (head_ == 0) {
        buffer.records = std::move(ring_);
    } else {
        buffer.records.reserve(ring_.size());
        for (std::size_t i = 0; i < ring_.size(); ++i)
            buffer.records.push_back(
                std::move(ring_[(head_ + i) % ring_.size()]));
    }
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
    flushed_ = 0;
    if (enabled_)
        publishHarvest(metrics_, buffer.recorded, buffer.dropped,
                       buffer.records.size(), buffer.sinkOk);
    return buffer;
}

} // namespace hcloud::obs

#endif // HCLOUD_OBS_RECORDER_HPP
