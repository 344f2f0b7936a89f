// Parallel compiled execution: multicore replay of a lowered program.
//
// The parallel engine models a P-core machine running the compiled
// bytecode: the outer stream loops (the fused, dependence-free innermost
// loops that lowering produces) are chunked across a fixed pool of worker
// threads. Each worker computes its chunk's values against the shared
// array storage -- writes are provably disjoint, see
// stream_loop_parallel_safe() -- and touches no recorder. After the join
// barrier the main thread replays the chunks' access streams into the
// shared recorder in *chunk-index order* (never completion order) through
// replay_stream_accesses (runtime/fastforward.h). A stream loop's
// addresses never depend on its values, so the simulated access stream,
// every boundary byte counter and every floating-point result is
// bit-identical to the serial engine's; tests/parallel_runtime_test.cpp
// enforces this differentially at 1/2/4/8 cores.
//
// Loops without a parallel-safety certificate (scalar reductions,
// loop-carried subscript patterns) and all generic bytecode run serially
// on the calling thread, exactly as in the serial engine.
#pragma once

#include <memory>

#include "bwc/runtime/stream_exec.h"

namespace bwc::runtime {

class Recorder;
class StreamRangeExec;
class ThreadPool;

/// Chunks parallel-safe stream loops across a thread pool. The VM and the
/// native driver hand it every fused loop when ExecOptions::cores > 1; one
/// instance (and its pool) serves a whole execution.
class ParallelScheduler {
 public:
  /// `cores` worker threads. Each chunk's accesses replay with
  /// steady-state fast-forward when `fast_forward` is set, so fast-forward
  /// events are counted per chunk.
  ParallelScheduler(int cores, bool fast_forward);
  ~ParallelScheduler();

  /// Run the whole trip range of `sl`: chunked when there are at least two
  /// iterations and the loop is certified parallel-safe, otherwise through
  /// run_stream_serial() on the calling thread.
  void run(const StreamLoop& sl, const StreamContext& ctx, Recorder& rec);

  /// Stream loops actually chunked so far (observability for tests).
  std::uint64_t parallel_loops() const { return parallel_loops_; }

  /// Substitute the range executor that runs chunks (and serial
  /// fallbacks). Null restores the VM's kernels (default_range_exec()).
  /// The native backend (runtime/codegen.h) plugs its dlopen'ed per-loop
  /// entry points in here; the executor must honor the StreamRangeExec
  /// exactness contract (fastforward.h).
  void set_range_exec(StreamRangeExec* exec) { exec_ = exec; }

 private:
  std::unique_ptr<ThreadPool> pool_;
  int cores_;
  bool fast_forward_;
  StreamRangeExec* exec_ = nullptr;
  std::uint64_t parallel_loops_ = 0;
};

}  // namespace bwc::runtime
