#include "bwc/analysis/access_summary.h"

#include "bwc/support/error.h"

namespace bwc::analysis {

namespace {

using ir::Expr;
using ir::ExprKind;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtList;

class Collector {
 public:
  explicit Collector(LoopSummary& summary) : summary_(summary) {}

  void collect_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kArrayRef:
        summary_.arrays[e.array].array = e.array;
        summary_.arrays[e.array].reads.push_back(e.subscripts);
        break;
      case ExprKind::kScalarRef: {
        auto& sc = summary_.scalars[e.scalar];
        sc.read = true;
        break;
      }
      default:
        break;
    }
    for (const auto& child : e.operands) collect_expr(*child);
  }

  void collect_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kArrayAssign:
        collect_expr(*s.rhs);
        summary_.arrays[s.lhs_array].array = s.lhs_array;
        summary_.arrays[s.lhs_array].writes.push_back(s.lhs_subscripts);
        break;
      case StmtKind::kScalarAssign: {
        ir::BinOp op = ir::BinOp::kAdd;
        const bool reduction = ir::reduction_shape(s, &op);
        if (reduction) {
          // Collect only the contributed operand; the self-reference of a
          // reduction is not an order-sensitive read.
          const Expr& rhs = *s.rhs;
          const Expr& left = *rhs.operands[0];
          const bool self_on_left =
              left.kind == ExprKind::kScalarRef && left.scalar == s.lhs_scalar;
          collect_expr(self_on_left ? *rhs.operands[1] : *rhs.operands[0]);
        } else {
          collect_expr(*s.rhs);
        }
        auto& sc = summary_.scalars[s.lhs_scalar];
        if (reduction) {
          if (sc.written && sc.reduction_only && sc.reduction_op != op) {
            sc.reduction_only = false;  // mixed reduction operators
          } else if (!sc.written) {
            sc.reduction_op = op;
          }
        } else {
          sc.reduction_only = false;
        }
        sc.written = true;
        break;
      }
      case StmtKind::kIf:
        summary_.has_guards = true;
        collect_body(s.then_body);
        collect_body(s.else_body);
        break;
      case StmtKind::kLoop:
        // Nested (non-spine) loop inside a body: still collect accesses.
        collect_body(s.loop->body);
        break;
    }
  }

  void collect_body(const StmtList& body) {
    for (const auto& s : body) collect_stmt(*s);
  }

 private:
  LoopSummary& summary_;
};

std::shared_ptr<const std::vector<verify::AffineRef>> shared_refs(
    const ir::Program& program, const ir::Stmt& stmt) {
  return std::make_shared<const std::vector<verify::AffineRef>>(
      verify::collect_refs(program, stmt).refs);
}

}  // namespace

std::int64_t LoopSummary::trip_count() const {
  std::int64_t n = 1;
  for (std::size_t d = 0; d < loop_vars.size(); ++d) {
    const std::int64_t t = uppers[d] >= lowers[d] ? uppers[d] - lowers[d] + 1 : 0;
    n *= t;
  }
  return n;
}

std::vector<ir::ArrayId> LoopSummary::touched_arrays() const {
  std::vector<ir::ArrayId> out;
  out.reserve(arrays.size());
  for (const auto& [id, access] : arrays) out.push_back(id);
  return out;
}

bool touch_conflict(const LoopSummary& x, const LoopSummary& y) {
  for (const auto& [array, a] : x.arrays) {
    const auto it = y.arrays.find(array);
    if (it == y.arrays.end()) continue;
    if (a.has_writes() || it->second.has_writes()) return true;
  }
  for (const auto& [name, a] : x.scalars) {
    const auto it = y.scalars.find(name);
    if (it == y.scalars.end()) continue;
    if (a.written || it->second.written) return true;
  }
  return false;
}

LoopSummary summarize_loop(const ir::Program& program, int top_index) {
  BWC_CHECK(top_index >= 0 &&
                top_index < static_cast<int>(program.top().size()),
            "top-level statement index out of range");
  const ir::Stmt& stmt = *program.top()[static_cast<std::size_t>(top_index)];
  BWC_CHECK(stmt.kind == ir::StmtKind::kLoop,
            "statement is not a loop");

  LoopSummary summary;
  summary.top_index = top_index;

  // Walk the leftmost spine of nested loops to record the nest structure.
  const ir::Stmt* cursor = &stmt;
  while (true) {
    const ir::Loop& loop = *cursor->loop;
    summary.loop_vars.push_back(loop.var);
    summary.lowers.push_back(loop.lower);
    summary.uppers.push_back(loop.upper);
    // Descend when the body is exactly one nested loop.
    if (loop.body.size() == 1 &&
        loop.body.front()->kind == ir::StmtKind::kLoop) {
      cursor = loop.body.front().get();
      continue;
    }
    // A body mixing loops and statements is not a simple nest.
    for (const auto& s : loop.body) {
      if (s->kind == ir::StmtKind::kLoop) summary.simple_nest = false;
    }
    Collector collector(summary);
    collector.collect_body(loop.body);
    break;
  }
  summary.refs = shared_refs(program, stmt);
  return summary;
}

LoopSummary summarize_statement(const ir::Program& program, int top_index) {
  BWC_CHECK(top_index >= 0 &&
                top_index < static_cast<int>(program.top().size()),
            "top-level statement index out of range");
  const ir::Stmt& stmt = *program.top()[static_cast<std::size_t>(top_index)];
  if (stmt.kind == ir::StmtKind::kLoop)
    return summarize_loop(program, top_index);
  LoopSummary summary;
  summary.top_index = top_index;
  Collector collector(summary);
  collector.collect_stmt(stmt);
  summary.refs = shared_refs(program, stmt);
  return summary;
}

std::vector<LoopSummary> summarize_program(const ir::Program& program) {
  std::vector<LoopSummary> result;
  for (int idx : program.top_loop_indices())
    result.push_back(summarize_loop(program, idx));
  return result;
}

std::set<std::string> order_sensitive_scalars(
    const std::vector<LoopSummary>& statements) {
  std::set<std::string> out;
  std::map<std::string, ir::BinOp> op;
  for (const LoopSummary& s : statements) {
    for (const auto& [name, access] : s.scalars) {
      if (!access.written) continue;
      const auto it = op.emplace(name, access.reduction_op).first;
      if (!access.reduction_only || it->second != access.reduction_op)
        out.insert(name);
    }
  }
  return out;
}

void clear_reductions(LoopSummary& summary,
                      const std::set<std::string>& scalars) {
  for (auto& [name, access] : summary.scalars)
    if (scalars.count(name) > 0) access.reduction_only = false;
}

}  // namespace bwc::analysis
