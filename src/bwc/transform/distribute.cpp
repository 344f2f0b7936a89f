#include "bwc/transform/distribute.h"

#include <set>
#include <string>
#include <vector>

#include "bwc/analysis/access_summary.h"
#include "bwc/analysis/dependence.h"
#include "bwc/support/error.h"

namespace bwc::transform {

namespace {

using ir::Program;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtList;

/// Depth of the simple spine of a loop statement; the innermost body.
StmtList* innermost(Stmt& loop_stmt, int* depth,
                    std::vector<const ir::Loop*>* shells) {
  Stmt* cursor = &loop_stmt;
  *depth = 0;
  while (true) {
    ++*depth;
    shells->push_back(cursor->loop.get());
    StmtList& body = cursor->loop->body;
    if (body.size() == 1 && body.front()->kind == StmtKind::kLoop) {
      cursor = body.front().get();
      continue;
    }
    for (const auto& s : body) {
      if (s->kind == StmtKind::kLoop) return nullptr;  // non-simple
    }
    return &body;
  }
}

/// Can statement groups split between positions a (earlier stmt) and b
/// (later stmt)? Uses analyze_pair on two synthetic single-statement loops
/// that share the program's declarations; `ordered` are the program's
/// order-sensitive scalars (analysis::order_sensitive_scalars).
bool may_sequence(const Program& program, const Stmt& loop_stmt, int a, int b,
                  const std::set<std::string>& ordered) {
  // Build a scratch program containing the loop twice, each copy holding a
  // single statement of the pair.
  Program scratch = program.clone();
  scratch.top().clear();
  for (int which : {a, b}) {
    ir::StmtPtr copy = loop_stmt.clone();
    // Walk to the innermost body of the copy and keep only `which`.
    Stmt* cursor = copy.get();
    while (cursor->loop->body.size() == 1 &&
           cursor->loop->body.front()->kind == StmtKind::kLoop) {
      cursor = cursor->loop->body.front().get();
    }
    StmtList kept;
    kept.push_back(std::move(cursor->loop->body[static_cast<std::size_t>(
        which)]));
    cursor->loop->body = std::move(kept);
    scratch.append(std::move(copy));
  }
  auto summaries = analysis::summarize_program(scratch);
  for (analysis::LoopSummary& s : summaries)
    analysis::clear_reductions(s, ordered);
  const analysis::PairAnalysis pa =
      analysis::analyze_pair(summaries[0], summaries[1]);
  return !pa.fusion_preventing;
}

/// Distribute one top-level loop in place; returns the replacement loops.
std::vector<ir::StmtPtr> distribute_one(const Program& program,
                                        const Stmt& loop_stmt,
                                        const std::set<std::string>& ordered) {
  std::vector<ir::StmtPtr> out;
  // Work on a clone so the shells can be replicated per group.
  ir::StmtPtr base = loop_stmt.clone();
  int depth = 0;
  std::vector<const ir::Loop*> shells;
  StmtList* body = innermost(*base, &depth, &shells);
  if (body == nullptr || body->size() < 2) {
    out.push_back(loop_stmt.clone());
    return out;
  }
  const int k = static_cast<int>(body->size());

  // Boundaries that may be split: between s and s+1 iff every earlier
  // statement may be fully sequenced before every later one across that
  // boundary.
  std::vector<bool> splittable(static_cast<std::size_t>(k - 1), true);
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (!may_sequence(program, loop_stmt, i, j, ordered)) {
        for (int boundary = i; boundary < j; ++boundary)
          splittable[static_cast<std::size_t>(boundary)] = false;
      }
    }
  }

  // Emit one loop nest per contiguous group.
  int group_start = 0;
  for (int boundary = 0; boundary <= k - 1; ++boundary) {
    const bool split_here =
        boundary == k - 1 || splittable[static_cast<std::size_t>(boundary)];
    if (!split_here) continue;
    const int group_end = boundary;  // inclusive statement index
    StmtList group;
    for (int s = group_start; s <= group_end; ++s)
      group.push_back((*body)[static_cast<std::size_t>(s)]->clone());
    // Rebuild the shells innermost-out.
    ir::StmtPtr nest;
    for (int d = depth - 1; d >= 0; --d) {
      StmtList inner;
      if (nest) {
        inner.push_back(std::move(nest));
      } else {
        inner = std::move(group);
      }
      nest = ir::make_loop(shells[static_cast<std::size_t>(d)]->var,
                           shells[static_cast<std::size_t>(d)]->lower,
                           shells[static_cast<std::size_t>(d)]->upper,
                           std::move(inner));
    }
    out.push_back(std::move(nest));
    group_start = group_end + 1;
  }
  return out;
}

}  // namespace

DistributionResult distribute_loops(const Program& program) {
  DistributionResult result;
  result.loops_before =
      static_cast<int>(program.top_loop_indices().size());

  const std::vector<analysis::LoopSummary> statements =
      analysis::summarize_statements(program);
  const std::set<std::string> ordered =
      analysis::order_sensitive_scalars(statements);

  Program out = program.clone();
  out.set_name(program.name() + " (distributed)");
  out.top().clear();

  for (const auto& stmt : program.top()) {
    if (stmt->kind != StmtKind::kLoop) {
      out.append(stmt->clone());
      continue;
    }
    for (auto& piece : distribute_one(program, *stmt, ordered))
      out.append(std::move(piece));
  }
  result.loops_after = static_cast<int>(out.top_loop_indices().size());
  result.program = std::move(out);
  return result;
}

}  // namespace bwc::transform
