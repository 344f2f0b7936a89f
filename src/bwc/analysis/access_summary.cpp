#include "bwc/analysis/access_summary.h"

#include "bwc/support/error.h"

namespace bwc::analysis {

namespace {

/// Collect the statement's references and tally the read/write maps from
/// them. collect_refs lists each assignment's reads before its write, so a
/// write closes the reads since the previous one. A reduction's self-read
/// (`s` in `s = s + e`; e cannot use s) is not an order-sensitive read.
void summarize_refs(const ir::Program& program, const ir::Stmt& stmt,
                    LoopSummary& summary) {
  summary.refs = std::make_shared<const verify::RefSet>(
      verify::collect_refs(program, stmt));
  const std::vector<verify::AffineRef>& refs = summary.refs->refs;
  const auto array_access = [&](const verify::AffineRef& r) -> ArrayAccess& {
    const ir::ArrayId id = program.array_id(r.array);
    ArrayAccess& access = summary.arrays[id];
    access.array = id;
    return access;
  };
  std::size_t first_read = 0;
  for (std::size_t k = 0; k < refs.size(); ++k) {
    const verify::AffineRef& w = refs[k];
    if (!w.write) continue;
    for (std::size_t q = first_read; q < k; ++q) {
      const verify::AffineRef& r = refs[q];
      if (!r.array.empty())
        array_access(r).read = true;
      else if (!w.reduction || r.scalar != w.scalar)
        summary.scalars[r.scalar].read = true;
    }
    first_read = k + 1;
    if (!w.array.empty()) {
      array_access(w).written = true;
      continue;
    }
    ScalarAccess& sc = summary.scalars[w.scalar];
    if (!w.reduction) {
      sc.reduction_only = false;
    } else if (!sc.written) {
      sc.reduction_op = w.reduction_op;
    } else if (sc.reduction_only && sc.reduction_op != w.reduction_op) {
      sc.reduction_only = false;  // mixed reduction operators
    }
    sc.written = true;
  }
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
    if (a.written || it->second.written) return true;
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

  // Walk the leftmost spine of nested loops to record the nest structure:
  // descend while a body is exactly one nested loop.
  const ir::Stmt* cursor = &stmt;
  while (true) {
    const ir::Loop& loop = *cursor->loop;
    summary.loop_vars.push_back(loop.var);
    summary.lowers.push_back(loop.lower);
    summary.uppers.push_back(loop.upper);
    if (loop.body.size() != 1 ||
        loop.body.front()->kind != ir::StmtKind::kLoop)
      break;
    cursor = loop.body.front().get();
  }
  summarize_refs(program, stmt, summary);
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
  summarize_refs(program, stmt, summary);
  return summary;
}

std::vector<LoopSummary> summarize_statements(const ir::Program& program) {
  std::vector<LoopSummary> result;
  result.reserve(program.top().size());
  for (int k = 0; k < static_cast<int>(program.top().size()); ++k)
    result.push_back(summarize_statement(program, k));
  return result;
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

bool spans_nest(const LoopSummary& nest, const verify::AffineRef& ref) {
  if (!ref.exact_domain || ref.loop_vars != nest.loop_vars) return false;
  for (std::size_t l = 0; l < ref.domains.size(); ++l) {
    const std::vector<verify::Interval>& ranges = ref.domains[l].ranges;
    if (ranges.size() != 1 || ranges.front().lo != nest.lowers[l] ||
        ranges.front().hi != nest.uppers[l])
      return false;
  }
  return true;
}

bool injective_over(const std::vector<ir::Affine>& tuple,
                    const std::vector<std::string>& spine) {
  std::set<std::string> used;
  for (const auto& sub : tuple) {
    const auto var = sub.single_var();
    if (!var.has_value() || sub.coeff(*var) != 1) return false;
    if (!used.insert(*var).second) return false;
  }
  return used == std::set<std::string>(spine.begin(), spine.end());
}

void clear_reductions(LoopSummary& summary,
                      const std::set<std::string>& scalars) {
  for (auto& [name, access] : summary.scalars)
    if (scalars.count(name) > 0) access.reduction_only = false;
}

}  // namespace bwc::analysis
