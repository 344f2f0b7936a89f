// Static legality certificates for the optimizer's transforms: the
// input-independent analogue of trace-based translation validation.
//
// Each prover re-derives, from the two programs alone, a proof that the
// transformed program computes the same outputs as the original for *every*
// input -- or answers kUnknown, in which case the pass manager falls back
// to the trace validator for the current problem size. The provers share
// the bounded-linear-system machinery of static_dependence.h:
//
//   prove_reschedule        fusion / interchange / distribution: matches
//                           assignment "atoms" bijectively (inferring the
//                           per-loop-level shift/permutation instance map;
//                           a level no subscript binds pairs with an after
//                           level whose domain is the same set shifted),
//                           then shows every conflicting reference pair
//                           executes in the same order before and after,
//                           enumerating direction classes over the shared
//                           loop levels. Commutative reductions get the
//                           same order exemption the trace validator grants.
//
//   prove_store_elimination writebacks to a dead array forwarded through a
//                           scalar: the writers share one nest and one
//                           tuple, injective across iterations; each
//                           forwarded read follows a writer whose domain
//                           contains its own; surviving reads never
//                           observe any writer.
//
//   prove_storage_reduction contraction to a scalar, and shrinking and
//                           peeling to column buffers: strips the copies
//                           the shrink inserts, compares the rest with
//                           the original in lockstep modulo the buffer
//                           map, and re-decides each rewritten array by
//                           reduce-storage's own rule on the original's
//                           exact domains. The boundary dispatch
//                           (`if (j == lo) ... else ...`) stays outside
//                           the model and answers kUnknown.
//
// kProven is a certificate valid for all problem sizes the bounds encode;
// kRefuted carries a concrete dependence-reversal witness; kUnknown means
// only that *this* prover lost precision, never that the transform is
// wrong.
#pragma once

#include <string>

#include "bwc/ir/program.h"
#include "bwc/verify/diagnostics.h"
#include "bwc/verify/static_dependence.h"

namespace bwc::verify {

enum class LegalityVerdict { kProven, kRefuted, kUnknown };

struct LegalityResult {
  LegalityVerdict verdict = LegalityVerdict::kUnknown;
  /// Short machine-usable reason when not proven (e.g. "atom-match-failed",
  /// "dependence-reversed", "conflict-undecided").
  std::string reason;
  /// Conflicting reference pairs examined / left undecided.
  int pairs_checked = 0;
  int pairs_unknown = 0;

  /// Render as a verify::Report (for VerifyOutcome plumbing): kProven maps
  /// to an ok report, kRefuted to an error diagnostic with `code`.
  Report to_report(const std::string& check, const std::string& code) const;
};

/// Prove that `after` is a pure reschedule of `before`: same assignment
/// instances (bijectively matched modulo per-level iteration shifts and
/// loop-level permutation), every dependence's direction preserved.
LegalityResult prove_reschedule(const ir::Program& before,
                                const ir::Program& after);

/// Prove a store-elimination rewrite (writes to dead arrays forwarded
/// through fresh scalars, reads of the stored value rewritten).
LegalityResult prove_store_elimination(const ir::Program& before,
                                       const ir::Program& after);

/// Prove a storage-reduction rewrite: arrays contracted to fresh scalars,
/// and 2-D arrays shrunk to fresh column buffers (cur, prev, peeled
/// columns), any number of each in one rewrite.
LegalityResult prove_storage_reduction(const ir::Program& before,
                                       const ir::Program& after);

/// Prove a pure layout change (transpose-layout / regroup-arrays /
/// pad-arrays): stripping every ArrayLayout back to the default must make
/// the two programs structurally identical, and every layout `after`
/// declares must be internally valid (well-formed permutation and padding,
/// coherent interleave groups). Layouts only remap simulated addresses --
/// storage stays logical-dense -- so this suffices for value preservation
/// on all inputs.
LegalityResult prove_layout_change(const ir::Program& before,
                                   const ir::Program& after);

}  // namespace bwc::verify
