#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace kspdg::bench {

uint32_t SpanBuffer::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? Span::kNoParent : open_.back();
  span.request = request;
  span.start = Clock::now();
  spans_.push_back(span);
  const uint32_t index = static_cast<uint32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanBuffer::End(uint32_t index) {
  spans_[index].end = Clock::now();
  // Spans close in LIFO order (ScopedSpan), so `index` is the innermost.
  open_.pop_back();
}

void SpanBuffer::Add(const char* name, uint64_t request,
                     Clock::time_point start, Clock::time_point end) {
  Span span;
  span.name = name;
  span.parent = Span::kNoParent;
  span.request = request;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
}

std::map<std::string, LayerTime> AggregateSpans(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<std::string, LayerTime> layers;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent != Span::kNoParent) {
        child_ms[span.parent] += MillisBetween(span.start, span.end);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double duration = MillisBetween(spans[i].start, spans[i].end);
      LayerTime& layer = layers[spans[i].name];
      ++layer.count;
      layer.total_ms += duration;
      layer.self_ms += duration - child_ms[i];
    }
  }
  return layers;
}

bool WriteTraceJson(const std::string& path,
                    const std::vector<const SpanBuffer*>& buffers,
                    const std::string& extra_json) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& span : buffer->spans()) {
      origin = std::min(origin, span.start);
    }
  }
  std::fprintf(out, "{%s,\n\"spans\": [", extra_json.c_str());
  const char* separator = "\n";
  for (size_t thread = 0; thread < buffers.size(); ++thread) {
    for (const Span& span : buffers[thread]->spans()) {
      const long long parent =
          span.parent == Span::kNoParent ? -1 : static_cast<long long>(span.parent);
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"thread\":%zu,\"parent\":%lld,"
                   "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}",
                   separator, span.name, thread, parent,
                   static_cast<unsigned long long>(span.request),
                   MillisBetween(origin, span.start) * 1e3,
                   MillisBetween(origin, span.end) * 1e3);
      separator = ",\n";
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace kspdg::bench
