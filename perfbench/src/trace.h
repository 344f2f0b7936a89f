// In-memory spans for the benchmark's traced run.
//
// Each client thread owns one SpanBuffer, so recording takes no lock. A
// span holds its name, start, end, the span that caused it (its parent on
// the same thread) and the request it belongs to. Spans nest strictly on
// a thread, so a span's self time is its duration minus the durations of
// its direct children; per-name totals are kept as spans close, which
// lets a long run keep exact totals while storing only the first
// `max_spans` spans for export. A disabled buffer costs one branch per
// span, which is how the untraced run uses the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the causing span in the same buffer; -1 for a root span.
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// Per-name totals over every span that closed, stored or not.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class SpanBuffer {
 public:
  SpanBuffer(bool enabled, int thread_id, std::size_t max_spans = 50'000);

  bool enabled() const { return enabled_; }
  int thread_id() const { return thread_id_; }

  /// Open a span on this thread; spans close in reverse order of opening.
  /// Returns false (recording nothing) when the buffer is disabled.
  bool open(const char* name, std::uint64_t request);
  void close();

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, SpanTotals, std::less<>>& totals() const {
    return totals_;
  }

 private:
  struct Frame {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t stored;  // index in spans_, or -1 when not stored
    std::uint64_t request;
  };

  bool enabled_;
  int thread_id_;
  std::size_t max_spans_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::map<std::string, SpanTotals, std::less<>> totals_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buffer, const char* name, std::uint64_t request)
      : buffer_(buffer), open_(buffer.open(name, request)) {}
  ~ScopedSpan() {
    if (open_) buffer_.close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer& buffer_;
  bool open_;
};

/// Sum the per-name totals of several buffers.
std::map<std::string, SpanTotals> merge_totals(
    const std::vector<const SpanBuffer*>& buffers);

/// Write the stored spans as Chrome trace-event JSON ("X" complete
/// events, microseconds since `origin_ns`), which chrome://tracing and
/// Perfetto load. Span ids are unique across buffers; each event carries
/// its id, its parent's id (-1 for a root) and its request id as args.
void write_chrome_trace(std::ostream& out,
                        const std::vector<const SpanBuffer*>& buffers,
                        std::int64_t origin_ns);

}  // namespace perfbench
