#include "obs/prom_text.hpp"

#include <cmath>
#include <cstdint>

#include "obs/json.hpp"

namespace hcloud::obs {

namespace {

/**
 * Append one series line: `name{labels} value`. @p extraLabel carries the
 * histogram `le` pair (rendered last, pre-escaped by the caller).
 */
void
appendSeries(std::string& out, std::string_view name,
             const MetricLabels& labels, std::string_view extraLabel,
             std::string_view value)
{
    out += name;
    if (!labels.empty() || !extraLabel.empty()) {
        out += '{';
        bool first = true;
        for (const auto& [label_name, label_value] : labels) {
            if (!first)
                out += ',';
            first = false;
            out += label_name;
            out += "=\"";
            out += promEscapeLabelValue(label_value);
            out += '"';
        }
        if (!extraLabel.empty()) {
            if (!first)
                out += ',';
            out += extraLabel;
        }
        out += '}';
    }
    out += ' ';
    out += value;
    out += '\n';
}

void
appendHistogram(std::string& out,
                const ProcessMetrics::FamilySample& family,
                const ProcessMetrics::SeriesSample& series)
{
    std::uint64_t cumulative = 0;
    const HistogramSnapshot& hist = series.histogram;
    for (std::size_t i = 0; i < family.bounds.size(); ++i) {
        if (i < hist.bucketCounts.size())
            cumulative += hist.bucketCounts[i];
        appendSeries(out, family.name + "_bucket", series.labels,
                     "le=\"" + promFormatValue(family.bounds[i]) + "\"",
                     std::to_string(cumulative));
    }
    appendSeries(out, family.name + "_bucket", series.labels,
                 "le=\"+Inf\"", std::to_string(hist.count));
    appendSeries(out, family.name + "_sum", series.labels, {},
                 promFormatValue(hist.sum));
    appendSeries(out, family.name + "_count", series.labels, {},
                 std::to_string(hist.count));
}

} // namespace

std::string
promEscapeLabelValue(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
promEscapeHelp(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
promFormatValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0.0 ? "+Inf" : "-Inf";
    // Integral values render as plain integers: the shortest-precision
    // formatter would pick "5e+03" over "5000", which round-trips but
    // reads badly on a counter page.
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15)
        return std::to_string(static_cast<long long>(v));
    return formatDouble(v);
}

std::string
renderPromText(const std::vector<ProcessMetrics::FamilySample>& families)
{
    std::string out;
    for (const ProcessMetrics::FamilySample& family : families) {
        if (!family.help.empty()) {
            out += "# HELP ";
            out += family.name;
            out += ' ';
            out += promEscapeHelp(family.help);
            out += '\n';
        }
        out += "# TYPE ";
        out += family.name;
        out += ' ';
        out += toString(family.kind);
        out += '\n';
        for (const ProcessMetrics::SeriesSample& series : family.series) {
            if (family.kind == MetricKind::Histogram)
                appendHistogram(out, family, series);
            else
                appendSeries(out, family.name, series.labels, {},
                             promFormatValue(series.value));
        }
    }
    return out;
}

std::string
renderPromText(const ProcessMetrics& metrics)
{
    return renderPromText(metrics.snapshot());
}

} // namespace hcloud::obs
