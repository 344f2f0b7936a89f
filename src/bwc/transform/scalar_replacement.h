// Scalar replacement: register reuse for array references (Callahan,
// Cocke & Kennedy, the paper's reference [2]).
//
// The paper's balance study finds register bandwidth "the second most
// critical resource after memory bandwidth"; [2] restores register balance
// by keeping reused array elements in registers. This pass implements the
// classic stencil form for depth-1 loops:
//
//   for i                          r0 = a[lo-1]; r1 = a[lo]   (prologue)
//     .. a[i-1] .. a[i] ..   ->    for i
//     .. a[i+1] ..                   r2 = a[i+1]              (one load)
//                                    .. r0 .. r1 .. r2 ..
//                                    r0 = r1; r1 = r2         (rotate)
//
// k+1 distinct offsets cost one load per iteration instead of k+1;
// duplicate reads of the same element (CSE) come along for free. Applied
// only where it is trivially safe, decided on the statement summaries'
// references: the array is not written in the loop, every read uses the
// loop variable with unit coefficient and a constant offset, and every
// reference runs at every iteration -- its exact domain is the whole loop
// (a hoisted load must not evaluate a subscript a guard was protecting).
// A loop with unreachable code is left alone: the rewrite would reach
// references the decision never saw.
#pragma once

#include <string>
#include <vector>

#include "bwc/analysis/access_summary.h"
#include "bwc/ir/program.h"

namespace bwc::transform {

struct ScalarReplacementResult {
  ir::Program program;
  /// Static loads removed per loop iteration, summed over loops.
  int loads_removed = 0;
  std::vector<std::string> actions;
};

/// Apply scalar replacement to every eligible (array, top-level depth-1
/// loop) pair. When `statement_summaries` is given it must hold one
/// summarize_statement result per top-level statement of `program`
/// (pass::AnalysisManager provides exactly that); otherwise the pass
/// computes them.
ScalarReplacementResult replace_scalars(
    const ir::Program& program,
    const std::vector<analysis::LoopSummary>* statement_summaries = nullptr);

}  // namespace bwc::transform
