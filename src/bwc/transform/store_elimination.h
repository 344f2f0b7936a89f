// Store elimination (paper Section 3.3).
//
// "The transformation first locates the loop containing the last segment of
// the live range and then finishes all uses of the array so that the
// program no longer needs to write new values back to the array."
//
// After fusion has localized an array's uses, a write whose value is only
// consumed later in the same iteration can be forwarded through a scalar;
// the store -- and with it the memory writeback -- disappears. Reads of the
// array's *old* values are untouched: store elimination "changes only the
// behavior of data writebacks and does not affect the performance of
// memory reads at all."
#pragma once

#include <vector>

#include "bwc/analysis/access_summary.h"
#include "bwc/ir/program.h"

namespace bwc::transform {

struct StoreEliminationResult {
  ir::Program program;
  /// Arrays whose stores were eliminated.
  std::vector<ir::ArrayId> eliminated;
};

/// Eliminate stores to every array where it is provably safe, deciding on
/// the statement summaries alone (their `arrays` flags and `refs`):
///  - the array is not a program output,
///  - one top-level statement writes it, a simple loop nest, and no later
///    statement reads it,
///  - in that nest, every reference to the array uses one identical
///    subscript tuple that covers every loop level with unit coefficients
///    (so iterations touch distinct elements: no cross-iteration reuse),
///  - every reference runs at every iteration: its exact domain is the
///    full nest (a guard that narrows it, or one the splitter cannot
///    refine, declines the array), and the nest has no unreachable code,
///    whose references the decision would not see.
/// Writes become scalar assignments; subsequent same-iteration reads use
/// the scalar; reads before the write keep reading the array's old values.
/// When `statement_summaries` is given it must hold one
/// summarize_statement result per top-level statement of `program`
/// (pass::AnalysisManager provides exactly that); otherwise the pass
/// computes them.
StoreEliminationResult eliminate_stores(
    const ir::Program& program,
    const std::vector<analysis::LoopSummary>* statement_summaries = nullptr);

}  // namespace bwc::transform
