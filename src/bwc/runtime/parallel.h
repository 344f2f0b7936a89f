// Parallel compiled execution: multicore replay of a lowered program.
//
// The parallel engine models a P-core machine running the compiled
// bytecode: the outer stream loops (the fused, dependence-free innermost
// loops that lowering produces) are chunked across a fixed pool of worker
// threads. Each worker executes its chunk against the shared array
// storage -- writes are provably disjoint, see
// stream_loop_parallelizable() -- while recording its access stream into
// a private TraceRecorder. After the join barrier the main thread merges
// the traces into the shared memory-hierarchy simulator in *chunk-index
// order* (never completion order), so the simulated access stream, every
// boundary byte counter and every floating-point result is bit-identical
// to the serial engine's; tests/parallel_runtime_test.cpp enforces this
// differentially at 1/2/4/8 cores.
//
// Loops the legality predicate rejects (scalar reductions, loop-carried
// subscript patterns) and all generic bytecode run serially on the
// calling thread, exactly as in the serial engine.
#pragma once

#include <memory>

#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/lowering.h"
#include "bwc/runtime/stream_exec.h"

namespace bwc::runtime {

class StreamRangeExec;
class ThreadPool;

/// StreamScheduler that chunks parallelizable stream loops across a
/// thread pool. One instance (and its pool) serves a whole execution.
class ParallelScheduler : public StreamScheduler {
 public:
  /// `cores` worker threads; `min_parallel_trips` gates chunking (see
  /// ExecOptions). The options' hierarchy/coalesce settings determine
  /// whether worker traces buffer access runs at all. With `fast_forward`
  /// set, chunks of fast-forwardable loops run values-only on the workers
  /// and the merge replays each chunk's access stream, in chunk order,
  /// through replay_stream_accesses (runtime/fastforward.h) -- the one
  /// period loop the serial driver uses too. All other loops keep the
  /// trace-and-replay path.
  ParallelScheduler(int cores, bool record_runs, bool coalesce,
                    std::int64_t min_parallel_trips, bool fast_forward);
  ~ParallelScheduler() override;

  void run(const StreamLoop& sl, const StreamContext& ctx,
           Recorder& rec) override;

  /// Stream loops actually chunked so far (observability for tests).
  std::uint64_t parallel_loops() const { return parallel_loops_; }

  /// Substitute the range executor that runs chunks (and serial
  /// fallbacks). Null restores the VM's kernels (default_range_exec()).
  /// The native backend (runtime/codegen.h) plugs its dlopen'ed per-loop
  /// entry points in here; the executor must honor the StreamRangeExec
  /// exactness contract (fastforward.h) and be callable concurrently from
  /// the pool's workers.
  void set_range_exec(StreamRangeExec* exec) { exec_ = exec; }

 private:
  std::unique_ptr<ThreadPool> pool_;
  int cores_;
  bool record_runs_;
  bool coalesce_;
  std::int64_t min_parallel_trips_;
  bool fast_forward_;
  StreamRangeExec* exec_ = nullptr;
  std::uint64_t parallel_loops_ = 0;
};

/// Execute an already-lowered program with `opts.cores` worker threads.
/// Bit-identical to execute_lowered() at one core by construction; the
/// differential tests hold it bit-identical at every core count.
ExecResult execute_parallel(const LoweredProgram& lowered,
                            const ExecOptions& opts);

}  // namespace bwc::runtime
