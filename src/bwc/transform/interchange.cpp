#include "bwc/transform/interchange.h"

#include <set>

#include "bwc/analysis/access_summary.h"
#include "bwc/analysis/dependence.h"
#include "bwc/support/error.h"

namespace bwc::transform {

namespace {

using ir::Program;
using ir::Stmt;
using ir::StmtKind;

/// The statement holding the inner loop of a 2-deep simple nest, or null.
Stmt* inner_of(Stmt& outer) {
  if (outer.kind != StmtKind::kLoop) return nullptr;
  if (outer.loop->body.size() != 1) return nullptr;
  Stmt* inner = outer.loop->body.front().get();
  if (inner->kind != StmtKind::kLoop) return nullptr;
  for (const auto& s : inner->loop->body) {
    if (s->kind == StmtKind::kLoop) return nullptr;  // deeper than 2
  }
  return inner;
}

}  // namespace

bool can_interchange(const ir::Program& program, int top_index) {
  if (top_index < 0 ||
      top_index >= static_cast<int>(program.top().size()))
    return false;
  const Stmt& stmt = *program.top()[static_cast<std::size_t>(top_index)];
  if (stmt.kind != StmtKind::kLoop) return false;
  // Must be a 2-deep simple rectangular nest.
  Stmt& mutable_stmt = const_cast<Stmt&>(stmt);
  if (inner_of(mutable_stmt) == nullptr) return false;
  const analysis::LoopSummary s =
      analysis::summarize_loop(program, top_index);
  if (s.depth() != 2) return false;
  // Guard conditions referencing loop variables stay valid under a swap
  // (conditions are per-iteration, not per-level), but the dependence test
  // is the binding constraint.
  return analysis::interchange_legal(s);
}

void interchange(ir::Program& program, int top_index) {
  BWC_CHECK(can_interchange(program, top_index),
            "loop interchange is not legal for this nest");
  Stmt& outer = *program.top()[static_cast<std::size_t>(top_index)];
  Stmt* inner = inner_of(outer);
  BWC_ASSERT(inner != nullptr, "checked by can_interchange");
  std::swap(outer.loop->var, inner->loop->var);
  std::swap(outer.loop->lower, inner->loop->lower);
  std::swap(outer.loop->upper, inner->loop->upper);
}

InterchangeResult auto_interchange(
    const ir::Program& program,
    const std::vector<analysis::LoopSummary>* statement_summaries) {
  BWC_CHECK(statement_summaries == nullptr ||
                statement_summaries->size() == program.top().size(),
            "statement summaries must cover every top-level statement");
  InterchangeResult result;
  result.program = program.clone();

  for (int idx : result.program.top_loop_indices()) {
    const Stmt& stmt =
        *result.program.top()[static_cast<std::size_t>(idx)];
    if (inner_of(const_cast<Stmt&>(stmt)) == nullptr) continue;
    // Earlier swaps touch other nests only, so the cached summary of this
    // nest is still the summary of the cloned nest.
    analysis::LoopSummary computed;
    if (statement_summaries == nullptr)
      computed = analysis::summarize_loop(result.program, idx);
    const analysis::LoopSummary& s =
        statement_summaries != nullptr
            ? (*statement_summaries)[static_cast<std::size_t>(idx)]
            : computed;
    if (s.depth() != 2) continue;

    // Profitability: the stride-1 dimension (first subscript) of the
    // nest's references should use the *inner* variable. Count references
    // whose first subscript uses only the outer variable: those stride by
    // a whole column per inner step.
    const std::string& outer_var = s.loop_vars[0];
    const std::string& inner_var = s.loop_vars[1];
    int bad = 0, good = 0;
    for (const verify::AffineRef& r : s.refs->refs) {
      if (r.subscripts.empty()) continue;
      if (r.subscripts[0].uses(inner_var)) {
        ++good;
      } else if (r.subscripts[0].uses(outer_var)) {
        ++bad;
      }
    }
    if (bad <= good) continue;  // already (mostly) stride-1
    if (!analysis::interchange_legal(s)) continue;
    interchange(result.program, idx);
    result.interchanged.push_back(idx);
  }
  if (!result.interchanged.empty())
    result.program.set_name(program.name() + " (interchanged)");
  return result;
}

}  // namespace bwc::transform
