#include "bwc/transform/scalar_replacement.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "bwc/analysis/access_summary.h"
#include "bwc/support/error.h"
#include "bwc/transform/rewrite.h"

namespace bwc::transform {

namespace {

using ir::Affine;
using ir::ArrayId;
using ir::Expr;
using ir::ExprKind;
using ir::Program;
using ir::StmtKind;
using ir::StmtList;
using verify::AffineRef;

/// The plan for one array in one loop: the sorted distinct offsets of its
/// reads (a[i + offset]).
struct ArrayPlan {
  ArrayId array = ir::kInvalidArray;
  std::vector<std::int64_t> offsets;  // sorted ascending
  std::vector<std::string> temps;     // one per offset
};

/// The sorted distinct offsets c of one array's references a[var + c] in
/// a depth-1 loop, or nullopt when some reference disqualifies the array:
/// a write, another subscript shape, or one that does not run at every
/// iteration (a guard must keep protecting its subscript).
std::optional<std::vector<std::int64_t>> stencil_offsets(
    const analysis::LoopSummary& loop,
    const std::vector<const AffineRef*>& refs) {
  const std::string& var = loop.loop_vars.front();
  std::set<std::int64_t> offsets;
  for (const AffineRef* r : refs) {
    if (r->write || r->subscripts.size() != 1 ||
        !analysis::spans_nest(loop, *r))
      return std::nullopt;
    const Affine& sub = r->subscripts[0];
    if (sub.coeff(var) != 1 || sub.terms().size() != 1) return std::nullopt;
    offsets.insert(sub.constant_term());
  }
  return std::vector<std::int64_t>(offsets.begin(), offsets.end());
}

}  // namespace

ScalarReplacementResult replace_scalars(
    const Program& program,
    const std::vector<analysis::LoopSummary>* statement_summaries) {
  ScalarReplacementResult result;
  result.program = program.clone();
  Program& p = result.program;

  std::vector<analysis::LoopSummary> computed;
  if (statement_summaries == nullptr) {
    computed = analysis::summarize_statements(p);
    statement_summaries = &computed;
  }
  BWC_CHECK(statement_summaries->size() == p.top().size(),
            "statement summaries must cover every top-level statement");
  std::vector<std::string> scalar_names(p.scalars());
  std::vector<ir::StmtPtr> new_top;

  for (std::size_t top = 0; top < p.top().size(); ++top) {
    ir::StmtPtr& stmt = p.top()[top];
    const analysis::LoopSummary& summary = (*statement_summaries)[top];
    if (stmt->kind != StmtKind::kLoop || !stmt->loop ||
        stmt->loop->trip_count() <= 1 || summary.refs->has_unreachable_code()) {
      new_top.push_back(std::move(stmt));
      continue;
    }
    // Depth-1 only: a flat body with no nested loops.
    bool flat = true;
    for (const auto& s : stmt->loop->body) {
      if (s->kind == StmtKind::kLoop) flat = false;
    }
    if (!flat) {
      new_top.push_back(std::move(stmt));
      continue;
    }
    const std::string var = stmt->loop->var;
    const std::int64_t lo = stmt->loop->lower;

    // Candidate arrays: read-only in this body with >= 2 distinct offsets
    // (or a duplicated single offset would also profit, but the win there
    // is marginal; require a real stencil).
    std::map<ArrayId, std::vector<const AffineRef*>> touched;
    for (const AffineRef& r : summary.refs->refs)
      if (!r.array.empty()) touched[p.array_id(r.array)].push_back(&r);

    std::vector<ArrayPlan> plans;
    for (const auto& [a, refs] : touched) {
      const auto reads = stencil_offsets(summary, refs);
      if (!reads.has_value() || reads->size() < 2) continue;
      // The rotation shifts each temp by exactly one iteration, so the
      // plan carries *every* offset in the read span (gaps become
      // pass-through temps -- register moves, no memory traffic).
      const std::int64_t lo_off = reads->front();
      const std::int64_t hi_off = reads->back();
      if (hi_off - lo_off > 8) continue;  // unreasonable register pressure
      ArrayPlan plan;
      plan.array = a;
      for (std::int64_t o = lo_off; o <= hi_off; ++o)
        plan.offsets.push_back(o);
      for (std::size_t m = 0; m < plan.offsets.size(); ++m) {
        const std::string temp = fresh_name(
            p.array(a).name + "_r" + std::to_string(m), scalar_names);
        plan.temps.push_back(temp);
        scalar_names.push_back(temp);
      }
      result.loads_removed += static_cast<int>(reads->size()) - 1;
      plans.push_back(std::move(plan));
    }
    if (plans.empty()) {
      new_top.push_back(std::move(stmt));
      continue;
    }

    for (const auto& plan : plans) {
      for (const auto& t : plan.temps) p.add_scalar(t);
      const std::size_t k = plan.offsets.size();

      // Prologue: load all but the newest offset at the first iteration.
      for (std::size_t m = 0; m + 1 < k; ++m) {
        new_top.push_back(ir::make_scalar_assign(
            plan.temps[m],
            ir::make_array_ref(plan.array,
                               {Affine::constant(lo + plan.offsets[m])})));
      }

      StmtList& body = stmt->loop->body;
      // In-body: replace reads with temps...
      replace_exprs(
          body,
          [&](const Expr& e) {
            return e.kind == ExprKind::kArrayRef && e.array == plan.array;
          },
          [&](const Expr& e) {
            const std::int64_t off = e.subscripts[0].constant_term();
            const auto it = std::lower_bound(plan.offsets.begin(),
                                             plan.offsets.end(), off);
            BWC_ASSERT(it != plan.offsets.end() && *it == off,
                       "offset vanished between planning and rewrite");
            return ir::make_scalar(plan.temps[static_cast<std::size_t>(
                it - plan.offsets.begin())]);
          });
      // ...load the newest element first...
      body.insert(body.begin(),
                  ir::make_scalar_assign(
                      plan.temps[k - 1],
                      ir::make_array_ref(
                          plan.array,
                          {Affine::var(var) + plan.offsets[k - 1]})));
      // ...and rotate at the end of the iteration.
      for (std::size_t m = 0; m + 1 < k; ++m) {
        body.push_back(ir::make_scalar_assign(
            plan.temps[m], ir::make_scalar(plan.temps[m + 1])));
      }

      result.actions.push_back(
          "kept " + std::to_string(k) + " elements of " +
          p.array(plan.array).name + " in rotating scalars");
    }
    new_top.push_back(std::move(stmt));
  }

  p.top() = std::move(new_top);
  if (!result.actions.empty())
    p.set_name(program.name() + " (scalar-replaced)");
  return result;
}

}  // namespace bwc::transform
