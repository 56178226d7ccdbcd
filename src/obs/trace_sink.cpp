#include "obs/trace_sink.hpp"

#include <cerrno>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "obs/process_metrics.hpp"

namespace hcloud::obs {

namespace {

/** Buffered bytes before an automatic drain through the descriptor. */
constexpr std::size_t kDrainThreshold = 1u << 16;

} // namespace

TraceSink::TraceSink(std::string path) : path_(std::move(path))
{
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    buffer_.reserve(kDrainThreshold);
}

TraceSink::~TraceSink()
{
    flush();
    if (fd_ >= 0)
        ::close(fd_);
}

bool
TraceSink::appendLine(std::string_view line)
{
    if (!ok())
        return false;
    buffer_ += line;
    buffer_ += '\n';
    ++written_;
    if (buffer_.size() >= kDrainThreshold)
        return drain();
    return true;
}

bool
TraceSink::flush()
{
    if (!ok())
        return false;
    return drain();
}

bool
TraceSink::drain()
{
    const char* data = buffer_.data();
    std::size_t remaining = buffer_.size();
    while (remaining > 0) {
        const ssize_t n = ::write(fd_, data, remaining);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            failed_ = true;
            ProcessMetrics::instance()
                .counter("hcloud_trace_sink_failures_total",
                         "Trace sink drains aborted by a write error")
                .inc();
            return false;
        }
        data += n;
        remaining -= static_cast<std::size_t>(n);
    }
    if (!buffer_.empty())
        ProcessMetrics::instance()
            .counter("hcloud_trace_flushed_bytes_total",
                     "Bytes of trace JSONL written to streaming sinks")
            .inc(static_cast<double>(buffer_.size()));
    buffer_.clear();
    drained_ = written_;
    return true;
}

} // namespace hcloud::obs
