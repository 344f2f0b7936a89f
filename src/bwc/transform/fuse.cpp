#include "bwc/transform/fuse.h"

#include <algorithm>
#include <map>
#include <set>

#include "bwc/analysis/access_summary.h"
#include "bwc/support/error.h"
#include "bwc/transform/rewrite.h"

namespace bwc::transform {

namespace {

using analysis::LoopSummary;
using fusion::FusionGraph;
using fusion::FusionPlan;

/// Rename a body's loop variables to `target` (level by level, possibly
/// shifted for promoted members) via unique temporaries so that swaps are
/// safe.
void retarget_vars(ir::StmtList& body, const std::vector<std::string>& from,
                   const std::vector<std::string>& to) {
  BWC_CHECK(from.size() == to.size(), "rename arity mismatch");
  std::map<std::string, std::string> phase1, phase2;
  for (std::size_t i = 0; i < from.size(); ++i) {
    const std::string temp = "__tmp_rn_" + std::to_string(i);
    phase1[from[i]] = temp;
    phase2[temp] = to[i];
  }
  rename_loop_vars(body, phase1);
  rename_loop_vars(body, phase2);
}

/// Fuse a group of depth-1 loops with per-member iteration shifts (loop
/// alignment): member m's body runs its original iteration i - s_m at
/// fused iteration i, delaying consumers past forward dependences.
ir::StmtPtr fuse_group_shifted(const ir::Program& program,
                               const FusionGraph& graph,
                               const std::vector<int>& members) {
  // Shift assignment: a forward pass over the members in program order,
  // honoring every pairwise minimal relative shift (relative shifts may
  // always grow, never shrink, so the longest-path forward pass is exact).
  const std::size_t n = members.size();
  std::vector<std::int64_t> shift(n, 0);
  for (std::size_t j = 1; j < n; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      const analysis::PairAnalysis& pa =
          graph.pair(members[i], members[j]);
      shift[j] = std::max(shift[j], shift[i] + std::max<std::int64_t>(
                                                   0, pa.min_shift));
    }
  }
  const std::int64_t max_shift =
      *std::max_element(shift.begin(), shift.end());

  const LoopSummary& first =
      graph.summaries[static_cast<std::size_t>(members[0])];
  const std::string& target = first.loop_vars[0];
  const std::int64_t lo = first.lowers[0];
  const std::int64_t hi = first.uppers[0];

  ir::StmtList fused_body;
  for (std::size_t m = 0; m < n; ++m) {
    const LoopSummary& ms =
        graph.summaries[static_cast<std::size_t>(members[m])];
    BWC_CHECK(ms.depth() == 1 && ms.lowers[0] == lo && ms.uppers[0] == hi,
              "shifted fusion requires identical depth-1 loops");
    const int top = graph.loop_tops[static_cast<std::size_t>(members[m])];
    ir::StmtPtr clone = program.top()[static_cast<std::size_t>(top)]->clone();
    ir::StmtList body = std::move(clone->loop->body);
    retarget_vars(body, ms.loop_vars, {target});
    const std::int64_t s = shift[m];
    if (s > 0) {
      substitute_loop_var(body, target, ir::Affine::var(target) - s);
    }
    // Guard to the member's shifted range within the union range.
    if (s > 0) {
      ir::StmtList wrapped;
      wrapped.push_back(ir::make_if(ir::CmpOp::kGe, ir::Affine::var(target),
                                    ir::Affine::constant(lo + s),
                                    std::move(body)));
      body = std::move(wrapped);
    }
    if (s < max_shift) {
      ir::StmtList wrapped;
      wrapped.push_back(ir::make_if(ir::CmpOp::kLe, ir::Affine::var(target),
                                    ir::Affine::constant(hi + s),
                                    std::move(body)));
      body = std::move(wrapped);
    }
    for (auto& stmt : body) fused_body.push_back(std::move(stmt));
  }
  return ir::make_loop(target, lo, hi + max_shift, std::move(fused_body));
}

/// Fuse the loops of one partition into a single loop nest statement.
ir::StmtPtr fuse_group(const ir::Program& program, const FusionGraph& graph,
                       const std::vector<int>& members) {
  BWC_CHECK(!members.empty(), "empty fusion group");
  if (members.size() == 1) {
    const int top = graph.loop_tops[static_cast<std::size_t>(members[0])];
    return program.top()[static_cast<std::size_t>(top)]->clone();
  }

  // Loop-alignment path: all members depth-1 and some pair needs a shift.
  bool all_depth1 = true;
  bool needs_shift = false;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (graph.summaries[static_cast<std::size_t>(members[i])].depth() != 1)
      all_depth1 = false;
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (graph.pair(members[i], members[j]).min_shift > 0)
        needs_shift = true;
    }
  }
  if (all_depth1 && needs_shift)
    return fuse_group_shifted(program, graph, members);
  BWC_CHECK(!needs_shift,
            "shifted fusion requires an all-depth-1 partition");

  // Template: the deepest member (first on ties).
  int tmpl = members[0];
  for (int m : members) {
    if (graph.summaries[static_cast<std::size_t>(m)].depth() >
        graph.summaries[static_cast<std::size_t>(tmpl)].depth())
      tmpl = m;
  }
  const LoopSummary& ts = graph.summaries[static_cast<std::size_t>(tmpl)];
  const int depth = ts.depth();

  // Fused bounds: inner levels from the template; the outer level is the
  // union of the members' outer ranges.
  std::vector<std::int64_t> lowers = ts.lowers;
  std::vector<std::int64_t> uppers = ts.uppers;
  for (int m : members) {
    const LoopSummary& ms = graph.summaries[static_cast<std::size_t>(m)];
    if (ms.depth() == depth) {
      lowers[0] = std::min(lowers[0], ms.lowers[0]);
      uppers[0] = std::max(uppers[0], ms.uppers[0]);
      for (int d = 1; d < depth; ++d) {
        BWC_CHECK(ms.lowers[static_cast<std::size_t>(d)] ==
                          ts.lowers[static_cast<std::size_t>(d)] &&
                      ms.uppers[static_cast<std::size_t>(d)] ==
                          ts.uppers[static_cast<std::size_t>(d)],
                  "fusion group members disagree on inner loop bounds");
      }
    } else {
      BWC_CHECK(ms.depth() == depth - 1,
                "fusion group members must be within one nesting level");
      for (int d = 0; d < depth - 1; ++d) {
        BWC_CHECK(ms.lowers[static_cast<std::size_t>(d)] ==
                          ts.lowers[static_cast<std::size_t>(d + 1)] &&
                      ms.uppers[static_cast<std::size_t>(d)] ==
                          ts.uppers[static_cast<std::size_t>(d + 1)],
                  "promoted member bounds must match the inner levels");
      }
    }
  }

  const std::vector<std::string>& target_vars = ts.loop_vars;

  // Build the fused body: each member's innermost body, retargeted and
  // guarded as needed, concatenated in program order (members are already
  // sorted by node id = program order).
  ir::StmtList fused_body;
  for (int m : members) {
    const int top = graph.loop_tops[static_cast<std::size_t>(m)];
    const LoopSummary& ms = graph.summaries[static_cast<std::size_t>(m)];
    ir::StmtPtr member_clone =
        program.top()[static_cast<std::size_t>(top)]->clone();

    // Peel off the member's own loop shells to reach the innermost body.
    ir::Stmt* cursor = member_clone.get();
    for (int d = 1; d < ms.depth(); ++d) {
      BWC_CHECK(cursor->loop->body.size() == 1 &&
                    cursor->loop->body.front()->kind == ir::StmtKind::kLoop,
                "fusion requires simple (perfectly nested) loop nests");
      cursor = cursor->loop->body.front().get();
    }
    ir::StmtList body = std::move(cursor->loop->body);

    ir::StmtList guarded;
    if (ms.depth() == depth) {
      retarget_vars(body, ms.loop_vars, target_vars);
      // Guard when this member's outer range is narrower than the union.
      const bool need_lo = ms.lowers[0] > lowers[0];
      const bool need_hi = ms.uppers[0] < uppers[0];
      if (need_hi) {
        ir::StmtList wrapped;
        wrapped.push_back(ir::make_if(ir::CmpOp::kLe,
                                      ir::Affine::var(target_vars[0]),
                                      ir::Affine::constant(ms.uppers[0]),
                                      std::move(body)));
        body = std::move(wrapped);
      }
      if (need_lo) {
        ir::StmtList wrapped;
        wrapped.push_back(ir::make_if(ir::CmpOp::kGe,
                                      ir::Affine::var(target_vars[0]),
                                      ir::Affine::constant(ms.lowers[0]),
                                      std::move(body)));
        body = std::move(wrapped);
      }
      guarded = std::move(body);
    } else {
      // Promoted member: runs at one outer iteration. The promote value
      // comes from the pairwise analysis against the template.
      const int lo_node = std::min(m, tmpl);
      const int hi_node = std::max(m, tmpl);
      const analysis::PairAnalysis& pa = graph.pair(lo_node, hi_node);
      BWC_CHECK(pa.compat == analysis::FusionCompat::kPromoteA ||
                    pa.compat == analysis::FusionCompat::kPromoteB,
                "no promotion alignment for shallow fusion member");
      const std::int64_t at = pa.promote_value;
      std::vector<std::string> inner_targets(target_vars.begin() + 1,
                                             target_vars.end());
      retarget_vars(body, ms.loop_vars, inner_targets);
      guarded.push_back(ir::make_if(ir::CmpOp::kEq,
                                    ir::Affine::var(target_vars[0]),
                                    ir::Affine::constant(at),
                                    std::move(body)));
    }
    for (auto& s : guarded) fused_body.push_back(std::move(s));
  }

  // Wrap in the fused loop shells, innermost first.
  ir::StmtPtr nest;
  for (int d = depth - 1; d >= 0; --d) {
    ir::StmtList body;
    if (nest) {
      body.push_back(std::move(nest));
    } else {
      body = std::move(fused_body);
    }
    nest = ir::make_loop(target_vars[static_cast<std::size_t>(d)],
                         lowers[static_cast<std::size_t>(d)],
                         uppers[static_cast<std::size_t>(d)],
                         std::move(body));
  }
  return nest;
}

}  // namespace

ir::Program apply_fusion(const ir::Program& program, const FusionGraph& graph,
                         const FusionPlan& plan) {
  BWC_CHECK(static_cast<int>(plan.assignment.size()) == graph.node_count(),
            "plan does not match fusion graph");
  std::string why;
  BWC_CHECK(fusion::plan_is_valid(graph, plan.assignment, &why),
            "invalid fusion plan: " + why);

  const auto groups = plan.groups();
  const int num_partitions = plan.num_partitions;

  // Fuse each partition.
  std::vector<ir::StmtPtr> fused(static_cast<std::size_t>(num_partitions));
  std::vector<int> group_min_top(static_cast<std::size_t>(num_partitions), 0);
  for (int p = 0; p < num_partitions; ++p) {
    const auto& members = groups[static_cast<std::size_t>(p)];
    fused[static_cast<std::size_t>(p)] = fuse_group(program, graph, members);
    group_min_top[static_cast<std::size_t>(p)] =
        graph.loop_tops[static_cast<std::size_t>(members.front())];
  }

  // Place non-loop top-level statements around the partitions.
  // slot[k] = partition index before which original statement k is emitted
  // (num_partitions = after everything).
  std::vector<int> node_of_top(program.top().size(), -1);
  for (int node = 0; node < graph.node_count(); ++node)
    node_of_top[static_cast<std::size_t>(
        graph.loop_tops[static_cast<std::size_t>(node)])] = node;

  std::vector<std::pair<int, int>> stray;  // (original index, slot)
  for (int k = 0; k < static_cast<int>(program.top().size()); ++k) {
    if (node_of_top[static_cast<std::size_t>(k)] >= 0) continue;
    const LoopSummary sk = analysis::summarize_statement(program, k);
    int before = num_partitions;  // must come before this partition
    int after = -1;               // must come after this partition
    for (int p = 0; p < num_partitions; ++p) {
      for (int m : groups[static_cast<std::size_t>(p)]) {
        const int top = graph.loop_tops[static_cast<std::size_t>(m)];
        if (!analysis::touch_conflict(
                sk, graph.summaries[static_cast<std::size_t>(m)]))
          continue;
        if (top > k) before = std::min(before, p);
        if (top < k) after = std::max(after, p);
      }
    }
    BWC_CHECK(after < before,
              "cannot place interleaved statement " + std::to_string(k) +
                  " around fused partitions");
    int slot;
    if (before < num_partitions) {
      slot = before;
    } else if (after >= 0) {
      slot = after + 1;
    } else {
      // No conflicts: keep roughly the original position.
      slot = num_partitions;
      for (int p = 0; p < num_partitions; ++p) {
        if (group_min_top[static_cast<std::size_t>(p)] > k) {
          slot = p;
          break;
        }
      }
    }
    stray.emplace_back(k, slot);
  }

  // Assemble the output program: the input's declarations (layouts and
  // outputs included), new statements.
  ir::Program out = program.clone();
  out.set_name(program.name() + " (fused)");
  out.top().clear();

  for (int p = 0; p <= num_partitions; ++p) {
    for (const auto& [k, slot] : stray) {
      if (slot == p)
        out.append(program.top()[static_cast<std::size_t>(k)]->clone());
    }
    if (p < num_partitions)
      out.append(std::move(fused[static_cast<std::size_t>(p)]));
  }
  return out;
}

}  // namespace bwc::transform
