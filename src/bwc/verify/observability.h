// Observability certification for the storage passes.
//
// Store elimination and storage reduction do not merely re-schedule work:
// they delete stores and whole arrays. The property to certify is that
// everything deleted was unobservable -- no program output and no later
// memory read ever needed the removed writebacks or the shrunk storage.
// Liveness is re-derived here independently, at element granularity, from
// the concrete event trace of the pre-pass program (the passes decide on
// whole-statement access summaries and symbolic reference domains, which
// are exactly the code under suspicion).
//
// validate_store_elimination(pre, post) certifies, for every array whose
// writes disappeared:
//   - the array is not an observable output;
//   - in `pre`, no read of any element observes a write from a *different*
//     top-level statement (the store's value never escapes its loop, so
//     forwarding through a scalar can replace it);
//   - in `post`, the array is never written, and each element is read at
//     most as often as `pre` read its *initial* (pre-first-write) value --
//     every value-observing read must have been forwarded off memory.
//
// validate_storage_reduction(pre, post) certifies, for every array whose
// writes disappeared (the retired arrays):
//   - post never reads it: nothing maintains its contents any more;
//   - the array is not an observable output;
//   - no element's initial contents are observed (a read preceding every
//     write of that element cannot be reproduced by fresh buffers);
//   - replacement storage is sufficient: the peak number of simultaneously
//     live values (produced, still to be read) of all reduced arrays fits
//     in the arrays and scalars the pass introduced. A value is freed at
//     its last read: an instance reads before it writes, so a
//     read-modify-write holds one value, not two. This is a lower-bound
//     argument in the spirit of the traffic bound: a pass that "shrinks" a
//     live array below its peak live set cannot be correct, whatever code
//     it generated.
#pragma once

#include "bwc/ir/program.h"
#include "bwc/verify/diagnostics.h"

namespace bwc::verify {

/// Both checks trace each program within kMaxTraceEvents (events.h) and
/// report larger ones as skipped.
Report validate_store_elimination(const ir::Program& pre,
                                  const ir::Program& post);

Report validate_storage_reduction(const ir::Program& pre,
                                  const ir::Program& post);

}  // namespace bwc::verify
