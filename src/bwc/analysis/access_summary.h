// Per-loop access summaries: which arrays and scalars a top-level loop nest
// reads and writes. This is the raw material for fusion-graph
// construction, dependence testing and the storage passes. Each summary
// carries the nest's references in the exact dependence engine's form
// (verify::collect_refs, the one walk from a statement to its references):
// the read/write maps are tallied from them, and the legality queries of
// analysis/dependence.h and the storage passes consume them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bwc/ir/program.h"
#include "bwc/verify/static_dependence.h"

namespace bwc::analysis {

/// How a loop touches one array (the subscripts are in LoopSummary::refs).
struct ArrayAccess {
  ir::ArrayId array = ir::kInvalidArray;
  bool read = false;
  bool written = false;
};

/// How a loop touches one scalar.
struct ScalarAccess {
  bool read = false;
  bool written = false;
  /// Every write is a reduction (ir::reduction_shape) with one operator.
  /// Matching reductions of the same scalar may be fused or split without
  /// a fusion-preventing constraint -- unless the whole program also
  /// writes the scalar some other way (order_sensitive_scalars).
  bool reduction_only = true;
  ir::BinOp reduction_op = ir::BinOp::kAdd;
};

/// Summary of one top-level loop nest.
struct LoopSummary {
  int top_index = -1;  // position in Program::top()
  /// Loop variables outer-to-inner along the leftmost nest spine.
  std::vector<std::string> loop_vars;
  std::vector<std::int64_t> lowers;  // per nest level
  std::vector<std::int64_t> uppers;

  std::map<ir::ArrayId, ArrayAccess> arrays;
  std::map<std::string, ScalarAccess> scalars;
  /// Every reference of the statement with its guard-refined loop context
  /// (verify::collect_refs), in execution order within one iteration; the
  /// first depth() loops of each are the spine. Set by
  /// summarize_loop/summarize_statement and never changed after, so copies
  /// of a summary (the fusion graph keeps its own) share one set.
  std::shared_ptr<const verify::RefSet> refs;

  int depth() const { return static_cast<int>(loop_vars.size()); }
  std::int64_t trip_count() const;
  /// Arrays referenced at all (read or write).
  std::vector<ir::ArrayId> touched_arrays() const;
};

/// Does one summary write an array or scalar the other touches? Pins
/// non-loop statements (scalar inits and the like) relative to loops.
bool touch_conflict(const LoopSummary& x, const LoopSummary& y);

/// Summarize the loop at Program::top()[top_index] (must be a loop).
LoopSummary summarize_loop(const ir::Program& program, int top_index);

/// Summarize any top-level statement; non-loop statements yield a depth-0
/// summary containing just their accesses.
LoopSummary summarize_statement(const ir::Program& program, int top_index);

/// summarize_statement of every top-level statement, in order (what
/// pass::AnalysisManager caches as the statement summaries).
std::vector<LoopSummary> summarize_statements(const ir::Program& program);

/// Summaries of all top-level loops, in program order.
std::vector<LoopSummary> summarize_program(const ir::Program& program);

/// The whole-program reduction rule both verifiers apply: a scalar's
/// updates may be reordered only when every write to it, anywhere in the
/// program, is a reduction with one common operator. Returns the written
/// scalars that break the rule (an initializing `s = 0`, mixed operators),
/// given one summary per top-level statement.
std::set<std::string> order_sensitive_scalars(
    const std::vector<LoopSummary>& statements);

/// Does `ref` run at every iteration of `nest`'s spine: an exact domain
/// over exactly the spine's loops, each at its full range? Such references
/// run in static order within one iteration.
bool spans_nest(const LoopSummary& nest, const verify::AffineRef& ref);

/// Injective tuple: each dim a distinct unit-coefficient variable of
/// `spine`, covering every spine level, so distinct iterations of the nest
/// name distinct elements. A variable of a loop below the spine does not
/// qualify: two sibling loops over it would each touch every element once
/// per spine iteration.
bool injective_over(const std::vector<ir::Affine>& tuple,
                    const std::vector<std::string>& spine);

/// Clear `reduction_only` on the given scalars of `summary`, so that
/// analyze_pair orders their updates like any other write.
void clear_reductions(LoopSummary& summary,
                      const std::set<std::string>& scalars);

}  // namespace bwc::analysis
