// Pairwise fusion legality between top-level loop nests.
//
// Builds the ingredients of the paper's fusion graph (Section 3.1.1):
//   - data-sharing (hyper-edge pins): arrays touched by both loops,
//   - dependence edges: an earlier loop produces data a later loop uses,
//   - fusion-preventing constraints: pairs that cannot legally be fused.
//
// Legality model. Fusing loops A (earlier) and B (later) runs A's body then
// B's body in each iteration of a common iteration space. For every element
// accessed by both (at least one side writing), let delta = I_B - I_A be
// the difference of the fused iteration vectors touching that element.
// Fusion is illegal when delta can be lexicographically negative: B would
// touch the element *before* A does, reversing the original order. Every
// such question -- fusion under each alignment, the minimal alignment
// shift, interchange, and distribution (which asks analyze_pair) -- is a
// query on the exact dependence engine of verify/static_dependence.h over
// the summaries' references: a bounded integer system per reference pair,
// with the fused levels paired side by side. Undecided systems and
// references the pairing cannot place count as conflicts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bwc/analysis/access_summary.h"

namespace bwc::analysis {

/// Structural relationship that makes two loops fusable.
enum class FusionCompat {
  kIdentical,     // same depth, same bounds at every level
  kOuterUnion,    // same depth and inner bounds; outer ranges differ ->
                  // fuse over the union range with guards
  kPromoteA,      // A is one level shallower; embed it at one iteration of
                  // B's outer loop
  kPromoteB,      // B is one level shallower; embed it at one iteration of
                  // A's outer loop
  kShifted,       // fusable after delaying B by PairAnalysis::min_shift
                  // iterations (loop alignment)
  kIncompatible,  // cannot be fused
};

/// The result of analyzing an ordered pair (A earlier than B).
struct PairAnalysis {
  FusionCompat compat = FusionCompat::kIncompatible;
  /// For kPromoteA/kPromoteB: the outer-loop value at which the shallow
  /// loop's body executes.
  std::int64_t promote_value = 0;
  /// For kShifted (and informative otherwise, when computed): the minimal
  /// shift of B relative to A that legalizes fusion; 0 = no shift needed.
  std::int64_t min_shift = 0;

  /// Arrays touched by both loops (the basis of hyper-edge pins).
  std::vector<ir::ArrayId> shared_arrays;
  /// True when A writes data B touches, or B writes data A touches
  /// (arrays or non-reduction scalars): an edge A -> B in the fusion graph.
  bool dependent = false;
  /// True when the pair cannot be legally fused (structurally incompatible
  /// or a dependence would be reversed): an undirected fusion-preventing
  /// edge in the fusion graph.
  bool fusion_preventing = false;
};

/// Analyze the ordered pair of loop summaries (a must precede b in program
/// order). Guarded accesses are tested over their guard-refined domains; a
/// guard the splitter cannot refine leaves the access conservatively
/// unconditional.
PairAnalysis analyze_pair(const LoopSummary& a, const LoopSummary& b);

/// Fusion with alignment: the minimal iteration shift s >= 0 such that
/// running B's iteration i-s alongside A's iteration i preserves every
/// dependence (all fused deltas become lexicographically non-negative).
/// Defined for pairs of depth-1 loops with identical bounds whose scalar
/// interactions permit fusion. Returns:
///   - 0 when the pair already fuses unshifted,
///   - s > 0 when delaying B by s iterations legalizes fusion (e.g. B
///     reads a[i+1] produced by A: s = 1),
///   - nullopt when no bounded shift helps (undecided subscripts, scalar
///     conflicts, depth/bounds mismatch, or s would exceed max_shift).
std::optional<std::int64_t> min_fusion_shift(const LoopSummary& a,
                                             const LoopSummary& b,
                                             std::int64_t max_shift = 8);

/// Can the outer two levels of this nest be permuted (loop interchange)?
/// True when no dependence in the nest can have a distance vector with
/// positive outer and negative inner component -- the only vectors that
/// become lexicographically negative after swapping. Requires depth >= 2;
/// conservative on undecided subscripts.
bool interchange_legal(const LoopSummary& s);

}  // namespace bwc::analysis
