#include "bwc/transform/storage_reduction.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "bwc/analysis/access_summary.h"
#include "bwc/support/error.h"
#include "bwc/transform/rewrite.h"
#include "bwc/verify/static_dependence.h"

namespace bwc::transform {

namespace {

using ir::Affine;
using ir::ArrayId;
using ir::Expr;
using ir::ExprKind;
using ir::Program;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtList;
using verify::AffineRef;
using verify::VarDomain;
using verify::names_element;
using verify::pinned_value;
using verify::reads_written_rows;
using verify::runs_within;

/// The references of every top-level statement (verify::collect_refs): the
/// pass manager's summaries hand them in, and the pass recollects each
/// statement it rewrites.
using RefSets = std::vector<std::shared_ptr<const verify::RefSet>>;

std::shared_ptr<const verify::RefSet> collect(const Program& p, int top) {
  return std::make_shared<const verify::RefSet>(
      verify::collect_refs(p, *p.top()[static_cast<std::size_t>(top)]));
}

RefSets ref_sets(const Program& program,
                 const std::vector<analysis::LoopSummary>* summaries) {
  BWC_CHECK(summaries == nullptr || summaries->size() == program.top().size(),
            "statement summaries must cover every top-level statement");
  RefSets sets;
  for (int t = 0; t < static_cast<int>(program.top().size()); ++t)
    sets.push_back(summaries != nullptr
                       ? (*summaries)[static_cast<std::size_t>(t)].refs
                       : collect(program, t));
  return sets;
}

std::uint64_t referenced_bytes(const Program& program, const RefSets& sets) {
  std::set<std::string> referenced;
  for (const auto& set : sets)
    for (const AffineRef& r : set->refs)
      if (!r.array.empty()) referenced.insert(r.array);
  std::uint64_t bytes = 0;
  for (const ir::ArrayDecl& decl : program.arrays())
    if (referenced.count(decl.name) > 0) bytes += decl.byte_size();
  return bytes;
}

/// Recollect the references of every statement that referenced `array`.
void recollect_users(const Program& p, const std::string& array,
                     RefSets& sets) {
  for (int t = 0; t < static_cast<int>(sets.size()); ++t) {
    const std::vector<AffineRef>& refs =
        sets[static_cast<std::size_t>(t)]->refs;
    if (std::any_of(refs.begin(), refs.end(),
                    [&](const AffineRef& r) { return r.array == array; }))
      sets[static_cast<std::size_t>(t)] = collect(p, t);
  }
}

/// One reference to a candidate array, with its top-level statement.
struct TopRef {
  int top = -1;
  const AffineRef* ref = nullptr;
};

/// Every reference to array `name`, in static order: statement by
/// statement, each in collect_refs order (execution order within one
/// iteration). Unreachable statements have no references.
std::vector<TopRef> refs_to(const RefSets& sets, const std::string& name) {
  std::vector<TopRef> out;
  for (int t = 0; t < static_cast<int>(sets.size()); ++t)
    for (const AffineRef& r : sets[static_cast<std::size_t>(t)]->refs)
      if (r.array == name) out.push_back({t, &r});
  return out;
}

/// The spine loop vars of a top-level loop statement.
std::vector<std::string> spine_vars(const Stmt& loop_stmt) {
  std::vector<std::string> vars;
  const Stmt* cursor = &loop_stmt;
  while (cursor->kind == StmtKind::kLoop) {
    vars.push_back(cursor->loop->var);
    if (cursor->loop->body.size() == 1 &&
        cursor->loop->body.front()->kind == StmtKind::kLoop) {
      cursor = cursor->loop->body.front().get();
    } else {
      break;
    }
  }
  return vars;
}

// ---------------------------------------------------------------------------
// Contraction: array -> scalar.
// ---------------------------------------------------------------------------

bool try_scalarize(Program& p, ArrayId array, const RefSets& sets,
                   std::vector<std::string>& scalar_names,
                   std::vector<std::string>& actions) {
  if (p.is_output_array(array)) return false;
  const std::vector<TopRef> refs = refs_to(sets, p.array(array).name);
  if (refs.empty()) return false;

  // All refs in one top-level loop.
  const int top = refs.front().top;
  for (const auto& r : refs) {
    if (r.top != top) return false;
  }
  Stmt& loop_stmt = *p.top()[static_cast<std::size_t>(top)];
  if (loop_stmt.kind != StmtKind::kLoop) return false;

  // The first reference (static order == per-iteration order) must be a
  // write, and every reference may run only at iterations where that
  // write runs, decided on their exact guard-refined domains. This
  // guarantees no read ever sees the array's initial values.
  const AffineRef& first = *refs.front().ref;
  if (!first.write) return false;
  for (const auto& r : refs) {
    if (!runs_within(*r.ref, first)) return false;
  }

  // All refs name the same element wherever they run, injectively.
  const std::vector<Affine>& canonical = first.subscripts;
  for (const auto& r : refs) {
    if (!names_element(*r.ref, canonical)) return false;
  }
  if (!analysis::injective_over(canonical, spine_vars(loop_stmt)))
    return false;

  // Rewrite: writes become scalar assigns, reads become scalar refs.
  const std::string name = fresh_name(p.array(array).name + "_s",
                                      scalar_names);
  p.add_scalar(name);
  scalar_names.push_back(name);

  forward_through_scalar(loop_stmt.loop->body, array, name);

  actions.push_back("contracted array " + p.array(array).name +
                    " to scalar " + name);
  return true;
}

// ---------------------------------------------------------------------------
// Peeling + shrinking: 2-D array -> 1-D column buffers.
// ---------------------------------------------------------------------------

struct ShrinkPlan {
  int loop_top = -1;            // the loop with the variable-column sweep
  std::string outer_var, inner_var;
  std::int64_t outer_lo = 0, outer_hi = 0;
  bool reads_prev = false;      // reads at offset -1 exist
  std::set<std::int64_t> peel_columns;
  /// Peeled columns that lie inside the sweep range: the sweep's write at
  /// j == c must also populate the peel array (Figure 6's a1, which holds
  /// column 1 while the fused loop runs j = 1..N).
  std::set<std::int64_t> dual_write_columns;
  bool boundary_dispatch = false;  // offset -1 reads can reach j == lo
};

/// Offset of a dim-1 subscript relative to the outer var wherever its
/// context runs (e.g. "N" under a j == N guard has offset 0).
std::optional<std::int64_t> column_offset(
    const Affine& sub, const std::string& outer_var,
    const std::vector<std::string>& vars,
    const std::vector<VarDomain>& domains) {
  return pinned_value(sub - Affine::var(outer_var), vars, domains);
}

/// The first sweep iteration at which a context of the sweep loop runs
/// (level 0 is the sweep's outer loop).
std::int64_t first_outer(const std::vector<VarDomain>& domains) {
  return domains.front().hull().lo;
}

std::optional<ShrinkPlan> plan_shrink(const Program& p, ArrayId array,
                                      const RefSets& sets) {
  if (p.is_output_array(array)) return std::nullopt;
  const auto& decl = p.array(array);
  if (decl.extents.size() != 2) return std::nullopt;

  const std::vector<TopRef> refs = refs_to(sets, decl.name);
  if (refs.empty()) return std::nullopt;

  // Partition refs into constant-column refs and variable-column refs.
  // Variable-column refs must all live in one two-deep loop.
  ShrinkPlan plan;
  std::int64_t inner_trips = 0;
  const AffineRef* sweep_write = nullptr;  // the first variable-column write
  for (const auto& [top, r] : refs) {
    if (r->subscripts.size() != 2) return std::nullopt;
    if (r->subscripts[1].is_constant()) continue;  // constant column: peel
    if (plan.loop_top < 0) {
      plan.loop_top = top;
      const Stmt& loop_stmt = *p.top()[static_cast<std::size_t>(top)];
      if (loop_stmt.kind != StmtKind::kLoop) return std::nullopt;
      const auto vars = spine_vars(loop_stmt);
      if (vars.size() != 2) return std::nullopt;
      plan.outer_var = vars[0];
      plan.inner_var = vars[1];
      plan.outer_lo = loop_stmt.loop->lower;
      plan.outer_hi = loop_stmt.loop->upper;
      const ir::Loop& inner = *loop_stmt.loop->body.front()->loop;
      inner_trips = inner.upper - inner.lower + 1;
    } else if (plan.loop_top != top) {
      return std::nullopt;
    }
    if (r->write && sweep_write == nullptr) sweep_write = r;
  }
  if (plan.loop_top < 0) return std::nullopt;  // only constant columns
  // The sweep leaves column c as its first write does at j == c (the
  // checks below reject the plan unless that write covers the nest).
  const auto sweep_write_at = [&](std::int64_t c) {
    AffineRef at = *sweep_write;
    at.domains.front() = VarDomain::range(c, c);
    return at;
  };

  // Validate every reference.
  int first_write = -1;
  std::vector<std::size_t> boundary_reads;  // offset -1 reads at j == lo
  int first_read0 = -1;
  for (std::size_t k = 0; k < refs.size(); ++k) {
    const int top = refs[k].top;
    const AffineRef& r = *refs[k].ref;
    const auto offset = [&] {
      return column_offset(r.subscripts[1], plan.outer_var, r.loop_vars,
                           r.domains);
    };
    if (r.subscripts[1].is_constant()) {
      const std::int64_t c = r.subscripts[1].constant_term();
      if (c >= plan.outer_lo && c <= plan.outer_hi) {
        // Inside the sweep range. Acceptable as a plain offset-0/-1 access
        // in the sweep loop when the domain pins the outer var (e.g. a[i,N]
        // under j == N)...
        const auto off = top == plan.loop_top
                             ? offset()
                             : std::optional<std::int64_t>();
        if (!off.has_value() || (*off != 0 && *off != -1)) {
          // ...otherwise the column outlives the cur/prev rotation and
          // must be peeled, with the sweep's write at j == c duplicated
          // into the peel array. Safe only for reads of rows the sweep
          // writes, after it wrote them: in the sweep loop at iterations
          // > c, or in a later top-level statement.
          if (r.write || sweep_write == nullptr ||
              !reads_written_rows(r, top, sweep_write_at(c), plan.loop_top,
                                  /*r_after_w=*/false))
            return std::nullopt;
          plan.peel_columns.insert(c);
          plan.dual_write_columns.insert(c);
          continue;
        }
      } else {
        plan.peel_columns.insert(c);
        continue;
      }
    }
    // Variable-column (or pinned-equivalent) reference.
    const auto off = offset();
    if (!off.has_value()) return std::nullopt;
    // Row subscript must be exactly the inner variable.
    const Affine row_diff = r.subscripts[0] - Affine::var(plan.inner_var);
    if (!(row_diff.is_constant() && row_diff.constant_term() == 0))
      return std::nullopt;
    if (r.write) {
      if (*off != 0) return std::nullopt;  // writes only at current column
      if (first_write < 0) first_write = static_cast<int>(k);
      // The write must define every iteration: its exact domain is the
      // whole two-deep nest.
      const bool everywhere =
          r.exact_domain && r.loop_vars.size() == 2 &&
          r.domains[0].size() == plan.outer_hi - plan.outer_lo + 1 &&
          r.domains[1].size() == inner_trips;
      if (!everywhere) return std::nullopt;
    } else if (*off == 0) {
      if (first_read0 < 0) first_read0 = static_cast<int>(k);
    } else if (*off == -1) {
      plan.reads_prev = true;
      // Can this read execute at the first outer iteration? Then it needs
      // the peeled previous column.
      if (first_outer(r.domains) <= plan.outer_lo) {
        plan.boundary_dispatch = true;
        boundary_reads.push_back(k);
      }
    } else {
      return std::nullopt;  // reads further back than one iteration
    }
  }

  if (first_write < 0) return std::nullopt;  // read-only: keep as is
  if (first_read0 >= 0 && first_read0 < first_write)
    return std::nullopt;  // current-column read before definition

  if (plan.boundary_dispatch &&
      plan.peel_columns.count(plan.outer_lo - 1) == 0) {
    return std::nullopt;  // boundary value would be lost
  }

  // A peeled column outside the sweep range holds only what the program
  // writes to it, never the array's initial contents: its first reference
  // (it has one: only constant-column references add peels) must be a
  // write W, and every read must see only W's rows -- the reads of the
  // column, and for column lo - 1 the sweep's boundary reads at j == lo.
  for (const std::int64_t c : plan.peel_columns) {
    if (plan.dual_write_columns.count(c) != 0) continue;
    std::optional<std::size_t> w;
    for (std::size_t k = 0; k < refs.size(); ++k) {
      const auto& [top, r] = refs[k];
      if (!r->subscripts[1].is_constant() ||
          r->subscripts[1].constant_term() != c)
        continue;
      if (!w) {
        if (!r->write) return std::nullopt;
        w = k;
      } else if (!r->write &&
                 !reads_written_rows(*r, top, *refs[*w].ref, refs[*w].top,
                                     /*r_after_w=*/true)) {
        return std::nullopt;
      }
    }
    if (c != plan.outer_lo - 1 || !plan.boundary_dispatch) continue;
    for (const std::size_t k : boundary_reads) {
      AffineRef at_lo = *refs[k].ref;
      at_lo.domains.front() = VarDomain::range(plan.outer_lo, plan.outer_lo);
      if (!reads_written_rows(at_lo, plan.loop_top, *refs[*w].ref,
                              refs[*w].top, /*r_after_w=*/k > *w))
        return std::nullopt;
    }
  }
  return plan;
}

void apply_shrink(Program& p, ArrayId array, const ShrinkPlan& plan,
                  std::vector<std::string>& actions) {
  // Copy what we need out of the declaration: add_array() may reallocate
  // the declaration vector and invalidate references into it.
  const std::int64_t rows = p.array(array).extents[0];
  const std::string base = p.array(array).name;
  const std::size_t elem_bytes = p.array(array).elem_bytes;

  // New storage.
  std::map<std::int64_t, ArrayId> peel;
  for (std::int64_t c : plan.peel_columns) {
    const std::string name = base + "_col" + std::to_string(c);
    peel[c] = p.add_array(name, {rows}, elem_bytes);
  }
  const ArrayId cur = p.add_array(base + "_cur", {rows}, elem_bytes);
  ArrayId prev = ir::kInvalidArray;
  if (plan.reads_prev)
    prev = p.add_array(base + "_prev", {rows}, elem_bytes);

  // Replace constant-column refs everywhere (all loops).
  auto rewrite_const_cols = [&](StmtList& body) {
    replace_exprs(
        body,
        [&](const Expr& e) {
          return e.kind == ExprKind::kArrayRef && e.array == array &&
                 e.subscripts.size() == 2 && e.subscripts[1].is_constant() &&
                 peel.count(e.subscripts[1].constant_term()) > 0;
        },
        [&](const Expr& e) {
          return ir::make_array_ref(peel.at(e.subscripts[1].constant_term()),
                                    {e.subscripts[0]});
        });
    for (auto& s : body) {
      std::function<void(Stmt&)> fix_lhs = [&](Stmt& st) {
        if (st.kind == StmtKind::kArrayAssign && st.lhs_array == array &&
            st.lhs_subscripts.size() == 2 &&
            st.lhs_subscripts[1].is_constant() &&
            peel.count(st.lhs_subscripts[1].constant_term()) > 0) {
          st.lhs_array = peel.at(st.lhs_subscripts[1].constant_term());
          st.lhs_subscripts = {st.lhs_subscripts[0]};
        }
        if (st.kind == StmtKind::kIf) {
          for (auto& t : st.then_body) fix_lhs(*t);
          for (auto& t : st.else_body) fix_lhs(*t);
        }
        if (st.kind == StmtKind::kLoop) {
          for (auto& t : st.loop->body) fix_lhs(*t);
        }
      };
      fix_lhs(*s);
    }
  };
  rewrite_const_cols(p.top());

  // Within the sweep loop: rewrite variable-column refs, each statement in
  // its own guard-refined loop context.
  Stmt& loop_stmt = *p.top()[static_cast<std::size_t>(plan.loop_top)];
  const std::string& j = plan.outer_var;
  BWC_CHECK(loop_stmt.loop->body.size() == 1 &&
                loop_stmt.loop->body.front()->kind == StmtKind::kLoop,
            "shrink expects a two-deep simple nest");
  std::map<const Stmt*, verify::AssignSite> site_of;
  for (verify::AssignSite& site :
       verify::collect_assign_sites(loop_stmt).sites)
    site_of.emplace(site.stmt, std::move(site));

  std::function<void(StmtList&)> rewrite_body = [&](StmtList& body) {
    for (std::size_t si = 0; si < body.size(); ++si) {
      Stmt& s = *body[si];
      if (s.kind == StmtKind::kIf) {
        rewrite_body(s.then_body);
        rewrite_body(s.else_body);
        continue;
      }
      if (s.kind == StmtKind::kLoop) {
        rewrite_body(s.loop->body);
        continue;
      }
      // A statement without a site never runs; it keeps its references.
      const auto found = site_of.find(&s);
      if (found == site_of.end()) continue;
      const verify::AssignSite& site = found->second;
      const auto offset = [&](const Expr& e) {
        return column_offset(e.subscripts[1], j, site.loop_vars,
                             site.domains);
      };

      // Remember whether this statement is the sweep's write (its lhs row
      // subscript survives the rewrite) for dual-write peel maintenance
      // below.
      const bool is_sweep_write =
          s.kind == StmtKind::kArrayAssign && s.lhs_array == array;
      const Affine row_sub = is_sweep_write ? s.lhs_subscripts[0] : Affine();

      // Does this statement read the array at offset -1, possibly at the
      // boundary iteration?
      bool has_prev_read = false;
      std::function<void(const Expr&)> scan = [&](const Expr& e) {
        if (e.kind == ExprKind::kArrayRef && e.array == array) {
          const auto off = offset(e);
          if (off.has_value() && *off == -1) has_prev_read = true;
        }
        for (const auto& c : e.operands) scan(*c);
      };
      scan(*s.rhs);
      const bool needs_dispatch =
          has_prev_read && first_outer(site.domains) <= plan.outer_lo;

      auto rewrite_stmt_refs = [&](Stmt& st, bool prev_to_peel) {
        for_each_expr(st, [&](Expr& e) {
          if (e.kind != ExprKind::kArrayRef || e.array != array) return;
          const auto off = offset(e);
          BWC_CHECK(off.has_value(), "unplanned reference shape");
          if (*off == 0) {
            e.array = cur;
          } else {
            BWC_ASSERT(*off == -1, "unplanned offset");
            e.array = prev_to_peel ? peel.at(plan.outer_lo - 1) : prev;
          }
          e.subscripts = {e.subscripts[0]};
        });
        if (st.kind == StmtKind::kArrayAssign && st.lhs_array == array) {
          st.lhs_array = cur;
          st.lhs_subscripts = {st.lhs_subscripts[0]};
        }
      };

      if (needs_dispatch) {
        // if (j == lo) <stmt with prev -> peel> else <stmt, prev>.
        ir::StmtPtr then_version = s.clone();
        ir::StmtPtr else_version = s.clone();
        rewrite_stmt_refs(*then_version, /*prev_to_peel=*/true);
        rewrite_stmt_refs(*else_version, /*prev_to_peel=*/false);
        StmtList then_body, else_body;
        then_body.push_back(std::move(then_version));
        else_body.push_back(std::move(else_version));
        body[si] = ir::make_if(ir::CmpOp::kEq, Affine::var(j),
                               Affine::constant(plan.outer_lo),
                               std::move(then_body), std::move(else_body));
      } else {
        rewrite_stmt_refs(s, /*prev_to_peel=*/false);
      }

      // Dual-write peel: after the sweep's write of the current column,
      // copy it into the peel array at j == c so the column survives the
      // cur/prev rotation.
      if (is_sweep_write) {
        std::size_t insert_at = si + 1;
        for (std::int64_t c : plan.dual_write_columns) {
          StmtList copy;
          copy.push_back(ir::make_array_assign(
              peel.at(c), {row_sub}, ir::make_array_ref(cur, {row_sub})));
          body.insert(body.begin() + static_cast<std::ptrdiff_t>(insert_at),
                      ir::make_if(ir::CmpOp::kEq, Affine::var(j),
                                  Affine::constant(c), std::move(copy)));
          ++insert_at;
        }
        si = insert_at - 1;  // skip the inserted statements
      }
    }
  };
  Stmt& inner_loop = *loop_stmt.loop->body.front();
  rewrite_body(inner_loop.loop->body);

  // Carry the current column into the previous buffer at the end of each
  // inner iteration (the paper's a3[i] = a2).
  if (plan.reads_prev) {
    inner_loop.loop->body.push_back(ir::make_array_assign(
        prev, {Affine::var(plan.inner_var)},
        ir::make_array_ref(cur, {Affine::var(plan.inner_var)})));
  }

  std::string what = "shrank array " + base + " to column buffer";
  if (plan.reads_prev) what += "s (cur/prev)";
  if (!plan.peel_columns.empty()) {
    what += ", peeled column(s)";
    for (std::int64_t c : plan.peel_columns) what += " " + std::to_string(c);
  }
  actions.push_back(what);
}

}  // namespace

std::uint64_t referenced_array_bytes(
    const Program& program,
    const std::vector<analysis::LoopSummary>* statement_summaries) {
  return referenced_bytes(program, ref_sets(program, statement_summaries));
}

StorageReductionResult reduce_storage(
    const Program& program,
    const std::vector<analysis::LoopSummary>* statement_summaries) {
  StorageReductionResult result;
  result.program = program.clone();
  Program& p = result.program;
  RefSets sets = ref_sets(p, statement_summaries);
  result.referenced_bytes_before = referenced_bytes(p, sets);

  std::vector<std::string> scalar_names(p.scalars());
  const int original_arrays = p.array_count();
  for (int a = 0; a < original_arrays; ++a) {
    bool changed = try_scalarize(p, a, sets, scalar_names, result.actions);
    if (!changed) {
      const auto plan = plan_shrink(p, a, sets);
      changed = plan.has_value();
      if (changed) apply_shrink(p, a, *plan, result.actions);
    }
    // The rewrite touched exactly the statements referencing the array.
    if (changed) recollect_users(p, p.array(a).name, sets);
  }

  result.referenced_bytes_after = referenced_bytes(p, sets);
  if (!result.actions.empty())
    p.set_name(program.name() + " (storage-reduced)");
  return result;
}

}  // namespace bwc::transform
