#include "trace.h"

#include <cstdio>
#include <string_view>

namespace perfbench {

SpanBuffer::SpanBuffer(bool enabled, int thread_id, std::size_t max_spans)
    : enabled_(enabled), thread_id_(thread_id), max_spans_(max_spans) {}

bool SpanBuffer::open(const char* name, std::uint64_t request) {
  if (!enabled_) return false;
  // A span is stored when its root is: a capped buffer keeps whole
  // request trees rather than children without their parents.
  const bool parent_stored = stack_.empty() || stack_.back().stored >= 0;
  std::int32_t stored = -1;
  if (parent_stored && spans_.size() < max_spans_) {
    stored = static_cast<std::int32_t>(spans_.size());
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back().stored;
    span.request = request;
    spans_.push_back(span);
  }
  stack_.push_back({name, 0, 0, stored, request});
  // Take the clock last, so the bookkeeping above is not inside the span.
  stack_.back().start_ns = now_ns();
  return true;
}

void SpanBuffer::close() {
  const std::int64_t end = now_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - frame.start_ns;
  auto it = totals_.find(std::string_view(frame.name));
  if (it == totals_.end()) it = totals_.emplace(frame.name, SpanTotals{}).first;
  SpanTotals& totals = it->second;
  totals.calls += 1;
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.stored >= 0) {
    spans_[static_cast<std::size_t>(frame.stored)].start_ns = frame.start_ns;
    spans_[static_cast<std::size_t>(frame.stored)].end_ns = end;
  }
}

std::map<std::string, SpanTotals> merge_totals(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<std::string, SpanTotals> merged;
  for (const SpanBuffer* buffer : buffers) {
    for (const auto& [name, t] : buffer->totals()) {
      SpanTotals& m = merged[name];
      m.calls += t.calls;
      m.total_ns += t.total_ns;
      m.self_ns += t.self_ns;
    }
  }
  return merged;
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<const SpanBuffer*>& buffers,
                        std::int64_t origin_ns) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  long long id_base = 0;
  char line[512];
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const long long parent = s.parent < 0 ? -1 : id_base + s.parent;
      std::snprintf(
          line, sizeof line,
          "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
          "\"id\":%lld,\"parent\":%lld,\"request\":%llu}}",
          first ? "" : ",", s.name,
          static_cast<double>(s.start_ns - origin_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3,
          buffer->thread_id(), id_base + static_cast<long long>(i), parent,
          static_cast<unsigned long long>(s.request));
      out << line;
      first = false;
    }
    id_base += static_cast<long long>(spans.size());
  }
  out << "\n]}\n";
}

}  // namespace perfbench
