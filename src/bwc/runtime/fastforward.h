// Steady-state fast-forward for stream loops.
//
// A stream loop whose accesses all advance by the same byte step per
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
// loop's access stream from its tuple, period by period, until the
// certifier accepts, skips, and replays the tail. Both engines reach it
// the same way, through run_stream_serial: the values of the iterations
// run first (exec.values), then the accesses replay. That split is exact
// because a stream loop's statement set is fixed per entry, its addresses
// are affine in the loop variable and never depend on values, and its
// flops per iteration are constant.
//
// Every observable is bit-identical to full simulation by construction:
// the certified delta *is* what one more period does, induction extends
// it to m periods, and downstream code sees the exact translated cache
// contents. Loops that break the preconditions -- pure reductions, mixed
// strides, stride-0 accesses, ranges that fit in the caches,
// page-randomized machines (Exemplar) -- never enter the detector and
// replay in full.
//
// Rows are the other period source of the compiled engines. A generic
// loop around a loop whose accesses all move by one byte step per
// iteration carries lowering's RowLoop certificate; both engines report
// the end of each of its iterations to Recorder::end_row, which certifies
// the rows' fixpoint with the same PeriodDetector and then detaches the
// hierarchy for the remaining full periods of the segment. The rows still
// run, but the recorder only counts their accesses: generic ops and
// native hooks count one by one through Recorder::hierarchy(), and the
// stream loops inside run their values first and count their tuples in
// bulk (run_stream_serial), so a skipped row costs its values pass.
#pragma once

#include <cstdint>

#include "bwc/runtime/recorder.h"
#include "bwc/runtime/stream_exec.h"

namespace bwc::runtime {

/// Execute only the *values* of iterations [lower, upper] of `sl` -- no
/// recorder, no flop accounting. Loops certified order-free
/// (stream_loop_parallel_safe) run column by column, each op over a
/// block of iterations as a loop the compiler vectorizes, when every
/// scalar they write is a per-iteration temporary or an in-order
/// reduction; every other loop runs the per-iteration kernel of
/// run_stream_range over a NullRecorder, which keeps iteration order.
/// This is the values-first pass: the arithmetic runs at native speed,
/// and the access replay that follows is all that touches the recorder.
void run_stream_values(const StreamLoop& sl, std::int64_t lower,
                       std::int64_t upper, const StreamContext& ctx);

/// How a stream-loop driver executes sub-ranges of a stream loop. The
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
/// run_stream_range(), through `exec`'s kernels. The values run first
/// (exec.values), the flops are charged in bulk, and
/// replay_stream_accesses() replays the access stream in two cases: with
/// `fast_forward` set and the steady-state preconditions met (a uniform
/// per-iteration byte step with a store, and a translation-invariant
/// hierarchy), and while the recorder skips the rows of a certified outer
/// loop (Recorder::skipping_rows), where the accesses are only counted.
/// Otherwise exec.range() runs the whole range per iteration -- also with
/// no hierarchy at all, the path the native engine's benchmarks race.
/// Checksums, flop/load/store counts and boundary traffic are
/// bit-identical either way. Keep the parameters few: the VM's dispatch
/// loop calls this, and an argument passed on the stack costs that loop
/// its frame-pointer register (~15% slower 1-D replay on a 4-vCPU x86-64
/// host).
void run_stream_serial(const StreamLoop& sl, const StreamContext& ctx,
                       Recorder& rec, bool fast_forward,
                       StreamRangeExec& exec = default_range_exec());

/// Replay only the *access stream* of iterations [lower, upper] of `sl`
/// into `rec` -- no values, no flops. With no hierarchy attached the
/// accesses are only counted, in bulk. Otherwise they issue one by one
/// from the tuple, except that with the preconditions met (as for
/// run_stream_serial), a range spanning at least a few periods, and lines
/// touched beyond the hierarchy's capacity (a range that fits never
/// evicts its own lines, so its state cannot become
/// translation-stationary), it replays period by period until
/// memsim::PeriodDetector certifies the fixpoint, skips the remaining
/// full periods analytically (bulk-counted in `rec`) and replays the
/// tail. run_stream_serial calls it for a whole loop, and the native
/// range executor to bulk-count a range without a hierarchy.
void replay_stream_accesses(const StreamLoop& sl, std::int64_t lower,
                            std::int64_t upper, const StreamContext& ctx,
                            Recorder& rec);

}  // namespace bwc::runtime
