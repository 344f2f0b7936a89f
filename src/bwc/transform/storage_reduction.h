// Storage reduction (paper Section 3.2): array contraction, shrinking and
// peeling.
//
// After fusion localizes an array's live range, three rewrites shrink its
// storage (and with it the bandwidth consumed at *every* hierarchy level):
//
//  - contraction  (array -> scalar): every element's live range is inside
//    one iteration; the whole array becomes one scalar (Figure 6's b1).
//  - shrinking    (2-D array -> one or two 1-D column buffers): element
//    live ranges span at most one outer-loop iteration; values are carried
//    in a "current" column buffer plus, when reads reach one iteration
//    back, a "previous" buffer refreshed by an in-loop copy (Figure 6's
//    a2/a3 scheme; this implementation uses two N-element buffers where
//    the paper uses a scalar plus one buffer -- same asymptotics, N^2 -> N).
//  - peeling      (boundary column -> dedicated 1-D array): a slice such as
//    a[1..N, 1] that stays live across the whole loop is stored separately
//    (Figure 6's a1); reads that reach the peeled column at the boundary
//    iteration are dispatched with a j==lo guard, as in Figure 6(c).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/analysis/access_summary.h"
#include "bwc/ir/program.h"

namespace bwc::transform {

struct StorageReductionResult {
  ir::Program program;
  /// Human-readable description of each rewrite performed.
  std::vector<std::string> actions;
  /// Bytes of arrays actually referenced before/after (reduced arrays stay
  /// declared but unreferenced).
  std::uint64_t referenced_bytes_before = 0;
  std::uint64_t referenced_bytes_after = 0;
};

/// Apply storage reduction to every array where it is provably safe. When
/// `statement_summaries` is given it must hold one summarize_statement
/// result per top-level statement of `program` (pass::AnalysisManager
/// provides exactly that); the pass then takes every statement's
/// references (LoopSummary::refs) from them and recollects only the
/// statements it rewrites.
StorageReductionResult reduce_storage(
    const ir::Program& program,
    const std::vector<analysis::LoopSummary>* statement_summaries = nullptr);

/// Bytes of arrays that are referenced by at least one statement. The
/// optional `statement_summaries` follow the reduce_storage contract.
std::uint64_t referenced_array_bytes(
    const ir::Program& program,
    const std::vector<analysis::LoopSummary>* statement_summaries = nullptr);

}  // namespace bwc::transform
