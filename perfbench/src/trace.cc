#include "trace.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Client: return "client";
    case Layer::Os: return "os";
    case Layer::Core: return "core";
    case Layer::Sim: return "sim";
    }
    return "?";
}

std::uint32_t
Tracer::open(const char *name, Layer layer)
{
    Span span;
    span.name = name;
    span.layer = layer;
    span.parent = stack_.empty() ? kNoParent : stack_.back();
    span.request = request_;
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(span);
    stack_.push_back(index);
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    spans_.back().startNs = hostNowNs();
    return index;
}

void
Tracer::close(std::uint32_t index)
{
    spans_[index].endNs = hostNowNs();
    stack_.pop_back();
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (name == span.name)
            out.push_back(static_cast<double>(span.endNs -
                                              span.startNs) /
                          1e3);
    }
    return out;
}

std::vector<std::int64_t>
Tracer::selfTimeNs() const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &span : spans_) {
        if (span.parent != kNoParent)
            childNs[span.parent] += span.endNs - span.startNs;
    }
    std::vector<std::int64_t> self(kLayers, 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        self[static_cast<int>(span.layer)] +=
            span.endNs - span.startNs - childNs[i];
    }
    return self;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const std::int64_t origin =
        spans_.empty() ? 0 : spans_.front().startNs;
    const std::size_t written = std::min(spans_.size(), kMaxWrittenSpans);
    std::fprintf(out,
                 "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
                 "\"spans_recorded\":%zu,\"spans_written\":%zu},"
                 "\"traceEvents\":[\n",
                 spans_.size(), written);
    for (std::size_t i = 0; i < written; ++i) {
        const Span &span = spans_[i];
        std::fprintf(
            out,
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
            "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu}}\n",
            i == 0 ? "" : ",", span.name, layerName(span.layer),
            static_cast<double>(span.startNs - origin) / 1e3,
            static_cast<double>(span.endNs - span.startNs) / 1e3, i,
            span.parent == kNoParent
                ? -1LL
                : static_cast<long long>(span.parent),
            static_cast<unsigned long long>(span.request));
    }
    std::fputs("]}\n", out);
    return std::fclose(out) == 0;
}

} // namespace perfbench
