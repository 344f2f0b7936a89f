// Translation validation for scheduling transformations.
//
// Given an (original, transformed) program pair where the transformation
// only re-schedules work -- loop fusion (including shifted, promoted and
// outer-union variants), loop interchange, loop distribution -- this
// validator proves, from scratch and with no input from the optimizer's
// own analyses, that the transformed execution order preserves every
// producer->consumer relation of the original:
//
//  1. Both programs are traced to their exact dynamic statement instances
//     (events.h). Instances are matched across programs by semantic
//     fingerprint (written location, read locations, folded rhs); a
//     scheduling transformation must produce a bijection, so missing or
//     extra instances (a dropped writeback, a duplicated guard body) are
//     rejected outright.
//  2. For every memory location, the write sequence must be identical
//     instance-for-instance (output dependences preserved) and every read
//     must observe the same producing write (flow dependences preserved).
//     Because reads are anchored between their producer and the next
//     write, anti dependences follow.
//  3. Scalars whose every write -- in both programs -- is a matching
//     commutative reduction `s = s op expr` are exempt from write-order
//     matching (fusing reductions interleaves them legally); reads outside
//     the reduction itself must still observe the same *set* of completed
//     updates.
//
// The check is exact, not conservative: it accepts any legal interleaving
// and rejects any instance order that reverses a dependence, with a
// diagnostic naming the violated dependence and the two instances.
#pragma once

#include "bwc/ir/program.h"
#include "bwc/verify/diagnostics.h"

namespace bwc::verify {

/// Each program is traced within kMaxTraceEvents (events.h); beyond it the
/// check is reported as skipped (certification requires a complete trace).
Report validate_translation(const ir::Program& original,
                            const ir::Program& transformed);

}  // namespace bwc::verify
