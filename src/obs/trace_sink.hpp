/**
 * @file
 * TraceSink: incremental, fd-backed JSONL persistence for recorders.
 *
 * The sink exists so streams of long runs are bounded only by disk,
 * never by a ring's capacity: the owning obs::Recorder drains its ring
 * into the sink whenever the ring would wrap (and once more at take()),
 * so `dropped` stays 0 for the whole run while in-memory cost stays at
 * ringCapacity records. The span tracer streams through it as well.
 *
 * Contracts:
 *  - one sink file per owner (a recorder is single-threaded and the span
 *    tracer locks around it, so the sink needs no locking);
 *  - lines arrive pre-serialized, so the caller's deterministic number
 *    formatting keeps sink files byte-identical across thread counts;
 *  - writes are buffered in memory and pushed through the file
 *    descriptor in large chunks; any short write or I/O error latches
 *    ok() to false. The lines of the failed drain are lost: written()
 *    minus drained() counts them.
 */

#ifndef HCLOUD_OBS_TRACE_SINK_HPP
#define HCLOUD_OBS_TRACE_SINK_HPP

#include <cstdint>
#include <string>
#include <string_view>

namespace hcloud::obs {

/** Streams JSONL lines to a file. */
class TraceSink
{
  public:
    /** Opens (creates/truncates) @p path; check ok() afterwards. */
    explicit TraceSink(std::string path);
    ~TraceSink();

    TraceSink(const TraceSink&) = delete;
    TraceSink& operator=(const TraceSink&) = delete;

    /** False once the file failed to open or a write failed. */
    bool ok() const { return fd_ >= 0 && !failed_; }
    const std::string& path() const { return path_; }

    /** Buffer one pre-serialized JSONL line (no trailing newline —
     *  the sink adds it).
     *  @return false when the sink is (or just became) broken. */
    bool appendLine(std::string_view line);

    /** Drain the in-memory buffer through the descriptor. */
    bool flush();

    /** Lines successfully handed to appendLine(). */
    std::uint64_t written() const { return written_; }

    /** Lines whose drain through the descriptor succeeded. */
    std::uint64_t drained() const { return drained_; }

  private:
    bool drain();

    std::string path_;
    int fd_ = -1;
    std::string buffer_;
    std::uint64_t written_ = 0;
    std::uint64_t drained_ = 0;
    bool failed_ = false;
};

} // namespace hcloud::obs

#endif // HCLOUD_OBS_TRACE_SINK_HPP
