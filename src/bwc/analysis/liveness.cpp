#include "bwc/analysis/liveness.h"

#include <algorithm>

#include "bwc/analysis/access_summary.h"
#include "bwc/support/error.h"

namespace bwc::analysis {

namespace {
int back_or(const std::vector<int>& v, int fallback) {
  return v.empty() ? fallback : v.back();
}
}  // namespace

int ArrayLiveness::first_access() const {
  int first = -1;
  if (!reading_stmts.empty()) first = reading_stmts.front();
  if (!writing_stmts.empty()) {
    first = first < 0 ? writing_stmts.front()
                      : std::min(first, writing_stmts.front());
  }
  return first;
}

int ArrayLiveness::last_access() const {
  return std::max(back_or(reading_stmts, -1), back_or(writing_stmts, -1));
}

int ArrayLiveness::last_read() const { return back_or(reading_stmts, -1); }
int ArrayLiveness::last_write() const { return back_or(writing_stmts, -1); }

bool ArrayLiveness::dead_after(int top_index) const {
  return !is_output && last_access() <= top_index;
}

bool ArrayLiveness::stores_unobserved() const {
  if (is_output || writing_stmts.empty()) return false;
  // Statement-granular: no read in any statement *after* the last write,
  // and the last write's own statement may still read (same-iteration use).
  return last_read() <= last_write();
}

std::vector<ArrayLiveness> analyze_liveness(
    const ir::Program& program,
    const std::vector<LoopSummary>* statement_summaries) {
  BWC_CHECK(statement_summaries == nullptr ||
                statement_summaries->size() == program.top().size(),
            "statement summaries must cover every top-level statement");
  std::vector<ArrayLiveness> result(
      static_cast<std::size_t>(program.array_count()));
  for (int a = 0; a < program.array_count(); ++a) {
    result[static_cast<std::size_t>(a)].array = a;
    result[static_cast<std::size_t>(a)].is_output = program.is_output_array(a);
  }
  for (int i = 0; i < static_cast<int>(program.top().size()); ++i) {
    LoopSummary computed;
    if (statement_summaries == nullptr)
      computed = summarize_statement(program, i);
    const LoopSummary& summary =
        statement_summaries != nullptr
            ? (*statement_summaries)[static_cast<std::size_t>(i)]
            : computed;
    for (const auto& [array, access] : summary.arrays) {
      auto& live = result[static_cast<std::size_t>(array)];
      if (access.read) live.reading_stmts.push_back(i);
      if (access.written) live.writing_stmts.push_back(i);
    }
  }
  return result;
}

}  // namespace bwc::analysis
