// Span recording for the traced benchmark run (--trace 1).
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a layer's public functions; nothing inside the program is
// instrumented. Every thread records into its own SpanBuffer, so the hot
// path takes no lock; buffers are merged after the threads join and written
// out as JSON when the run ends.
//
// A span's self time is its duration minus the durations of its direct
// children. Children of one span are recorded by the same thread and never
// overlap, so their summed durations are exactly the covered part.
#ifndef KSPDG_BENCH_TRACE_H_
#define KSPDG_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace kspdg::bench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Span {
  /// A string literal naming the layer call, e.g. "kspdg.join".
  const char* name = nullptr;
  /// Index of the enclosing span in the same buffer, or kNoParent.
  uint32_t parent = 0;
  /// Shared by every span of one request (0 = not request-scoped).
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;

  static constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();
};

/// One thread's spans, in begin order. Not thread-safe.
class SpanBuffer {
 public:
  /// Opens a span nested in the innermost open one; returns its index.
  uint32_t Begin(const char* name, uint64_t request);
  void End(uint32_t index);
  /// Records an already-finished root span (for work whose start and end
  /// are observed on different threads, such as an async ticket).
  void Add(const char* name, uint64_t request, Clock::time_point start,
           Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span. A null buffer records nothing, which is how the untraced run
/// shares code with the traced one.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t request = 0)
      : buffer_(buffer),
        index_(buffer != nullptr ? buffer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  uint32_t index_;
};

struct LayerTime {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Per-name span count, total time and self time over all buffers.
std::map<std::string, LayerTime> AggregateSpans(
    const std::vector<const SpanBuffer*>& buffers);

/// Writes every span plus `extra_json` (a JSON object's members, without
/// braces) to `path` as one JSON document. Returns false on I/O failure.
bool WriteTraceJson(const std::string& path,
                    const std::vector<const SpanBuffer*>& buffers,
                    const std::string& extra_json);

}  // namespace kspdg::bench

#endif  // KSPDG_BENCH_TRACE_H_
