// Steady-state fast-forward for fused stream loops.
//
// A stream loop whose array accesses all advance by the same byte step per
// iteration (StreamLoop::uniform_step_bytes, computed by lowering) drives
// the memory hierarchy with a *periodic* access stream: after
// P = line_bytes / gcd(|step|, line_bytes) iterations the whole access
// tuple has shifted by exactly one cache-line multiple at every level.
// That step is this module's period source for the one fixpoint certifier,
// memsim::PeriodDetector (memsim/fastforward.h, which also holds the
// online source that infers periods from raw access streams). Once the
// fixpoint is certified, the remaining m full periods need no simulation:
// counters advance by m * delta and the resident tags translate by
// m * shift.
//
// replay_stream_accesses() is the one period loop: it regenerates a
// loop's access stream from the loop metadata, period by period, until
// the certifier accepts, skips, and replays the tail. Both engines reach
// it the same way, through run_stream_serial: the values of the
// iterations run first as a bare loop (exec.values), then the accesses
// replay. That split is exact because a stream loop's addresses are
// affine in the loop variable and never depend on values, and its flops
// per iteration are constant.
//
// Every observable is bit-identical to full simulation by construction:
// the certified delta *is* what one more period does, induction extends
// it to m periods, and downstream code sees the exact translated cache
// contents. Loops that break the preconditions -- reductions, mixed
// strides, stride-0 destinations, page-randomized machines (Exemplar) --
// never enter the detector and replay in full.
//
// Rows are the other period source of the compiled engines. A generic
// loop around a loop whose accesses all move by one byte step per
// iteration carries lowering's RowLoop certificate; both engines report
// the end of each of its iterations to Recorder::end_row, which certifies
// the rows' fixpoint with the same PeriodDetector and then detaches the
// hierarchy for the remaining full periods of the segment. The rows still
// run -- values, dispatch and every access -- but the recorder only
// counts them, and so do the stream loops and native hooks inside, which
// all reach the simulator through Recorder::hierarchy().
#pragma once

#include <cstdint>

#include "bwc/runtime/recorder.h"
#include "bwc/runtime/stream_exec.h"

namespace bwc::runtime {

/// Execute only the *values* of iterations [lower, upper] of `sl` -- no
/// recorder, no flop accounting. The common shapes (copy / binary bodies
/// over unit-stride arrays and hoisted invariants, certified order-free
/// by stream_loop_parallel_safe) run as tight specialized loops the
/// compiler vectorizes; everything else falls back to run_stream_range
/// over a NullRecorder, which preserves iteration order for dependent
/// loops. This is the values-first pass of a fast-forwardable loop: the
/// arithmetic runs at native speed, and the access replay that follows
/// is all that touches the recorder.
void run_stream_values(const StreamLoop& sl, std::int64_t lower,
                       std::int64_t upper, const StreamContext& ctx);

/// How a stream-loop driver executes sub-ranges of a fused loop. The
/// bytecode VM's drivers run them through run_stream_range /
/// run_stream_values (default_range_exec()); the native backend
/// (runtime/codegen.h) substitutes dlopen'ed per-loop kernels. Every
/// implementation must be observably identical to the default: same
/// values in the same order, same per-access stream into the recorder,
/// same bulk flop charge at the end of a range. That contract is what
/// lets run_stream_serial and the fast-forward protocol below drive
/// either engine without knowing which one runs.
class StreamRangeExec {
 public:
  virtual ~StreamRangeExec() = default;
  /// run_stream_range() semantics into a live Recorder.
  virtual void range(const StreamLoop& sl, std::int64_t lower,
                     std::int64_t upper, const StreamContext& ctx,
                     Recorder& rec) = 0;
  /// run_stream_values() semantics: values only, no accesses, no flops.
  virtual void values(const StreamLoop& sl, std::int64_t lower,
                      std::int64_t upper, const StreamContext& ctx) = 0;
};

/// The VM's executor: run_stream_range / run_stream_values. Stateless
/// shared instance.
StreamRangeExec& default_range_exec();

/// Run the whole trip range of `sl` on the calling thread, exactly like
/// run_stream_range(), through `exec`'s kernels. With `fast_forward` set
/// and the preconditions met (a uniform per-iteration byte step and a
/// translation-invariant hierarchy), the values run first (exec.values),
/// the flops are charged in bulk, and replay_stream_accesses() replays
/// the access stream with steady-state fast-forward; otherwise
/// exec.range() runs the whole range. Checksums, flop/load/store counts
/// and boundary traffic are bit-identical either way. Keep the
/// parameters few: the VM's dispatch loop calls this, and an argument
/// passed on the stack costs that loop its frame-pointer register (~15%
/// slower 1-D replay on a 4-vCPU x86-64 host).
void run_stream_serial(const StreamLoop& sl, const StreamContext& ctx,
                       Recorder& rec, bool fast_forward,
                       StreamRangeExec& exec = default_range_exec());

/// Replay only the *access stream* of iterations [lower, upper] of `sl`
/// into `rec` -- no values, no flops. With no hierarchy attached the
/// accesses are only counted, in bulk. Otherwise they issue one by one,
/// except that with the preconditions met (as for run_stream_serial) and
/// a range spanning at least a few periods, it replays period by period
/// until memsim::PeriodDetector certifies the fixpoint, skips the
/// remaining full periods analytically (bulk-counted in `rec`) and
/// replays the tail. run_stream_serial calls it for a whole loop when
/// fast-forward is on, and the native range executor to bulk-count a
/// range without a hierarchy. `bases` is the per-array simulated base
/// table.
void replay_stream_accesses(const StreamLoop& sl, std::int64_t lower,
                            std::int64_t upper, const std::uint64_t* bases,
                            Recorder& rec);

}  // namespace bwc::runtime
