#include "bwc/transform/store_elimination.h"

#include "bwc/support/error.h"
#include "bwc/transform/rewrite.h"

namespace bwc::transform {

namespace {

using ir::Program;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtList;
using verify::AffineRef;

/// The innermost body of a simple nest, or nullptr when the nest branches.
StmtList* innermost_body(Stmt& loop_stmt) {
  BWC_ASSERT(loop_stmt.kind == StmtKind::kLoop, "expects a loop");
  Stmt* cursor = &loop_stmt;
  while (true) {
    StmtList& body = cursor->loop->body;
    if (body.size() == 1 && body.front()->kind == StmtKind::kLoop) {
      cursor = body.front().get();
      continue;
    }
    for (const auto& s : body) {
      if (s->kind == StmtKind::kLoop) return nullptr;  // not a simple nest
    }
    return &body;
  }
}

/// Do the references to `array` in `nest` all run at every iteration and
/// use one identical tuple, injective with unit coefficients over the
/// nest's loops?
bool forwardable(const analysis::LoopSummary& nest, const std::string& array) {
  const std::vector<ir::Affine>* tuple = nullptr;
  for (const AffineRef& r : nest.refs->refs) {
    if (r.array != array) continue;
    if (!analysis::spans_nest(nest, r)) return false;
    if (tuple == nullptr) tuple = &r.subscripts;
    if (r.subscripts != *tuple) return false;
  }
  return tuple != nullptr && analysis::injective_over(*tuple, nest.loop_vars);
}

}  // namespace

StoreEliminationResult eliminate_stores(
    const Program& program,
    const std::vector<analysis::LoopSummary>* statement_summaries) {
  StoreEliminationResult result;
  result.program = program.clone();
  Program& p = result.program;

  std::vector<analysis::LoopSummary> computed;
  if (statement_summaries == nullptr) {
    computed = analysis::summarize_statements(p);
    statement_summaries = &computed;
  }
  const std::vector<analysis::LoopSummary>& statements = *statement_summaries;
  BWC_CHECK(statements.size() == p.top().size(),
            "statement summaries must cover every top-level statement");
  std::vector<std::string> scalar_names(p.scalars());

  for (int a = 0; a < p.array_count(); ++a) {
    if (p.is_output_array(a)) continue;
    // One statement writes the array, and no later statement reads it.
    std::vector<std::size_t> writers;
    std::size_t last_read = 0;
    for (std::size_t t = 0; t < statements.size(); ++t) {
      const auto it = statements[t].arrays.find(a);
      if (it == statements[t].arrays.end()) continue;
      if (it->second.written) writers.push_back(t);
      if (it->second.read) last_read = t;
    }
    if (writers.size() != 1 || last_read > writers.front()) continue;
    const analysis::LoopSummary& nest = statements[writers.front()];
    Stmt& stmt = *p.top()[writers.front()];
    if (stmt.kind != StmtKind::kLoop || nest.refs->has_unreachable_code())
      continue;
    StmtList* body = innermost_body(stmt);
    if (body == nullptr || !forwardable(nest, p.array(a).name)) continue;

    const std::string temp =
        fresh_name(p.array(a).name + "_t", scalar_names);
    forward_through_scalar(*body, a, temp);
    p.add_scalar(temp);
    scalar_names.push_back(temp);
    result.eliminated.push_back(a);
  }

  if (!result.eliminated.empty()) {
    p.set_name(program.name() + " (store-eliminated)");
  }
  return result;
}

}  // namespace bwc::transform
