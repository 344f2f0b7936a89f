#include "bwc/runtime/parallel.h"

#include <vector>

#include "bwc/runtime/compiled.h"
#include "bwc/runtime/fastforward.h"
#include "bwc/runtime/recorder.h"
#include "bwc/runtime/thread_pool.h"
#include "bwc/support/error.h"

namespace bwc::runtime {

ParallelScheduler::ParallelScheduler(int cores, bool record_runs,
                                     bool coalesce,
                                     std::int64_t min_parallel_trips,
                                     bool fast_forward)
    : pool_(std::make_unique<ThreadPool>(cores)),
      cores_(cores),
      record_runs_(record_runs),
      coalesce_(coalesce),
      min_parallel_trips_(min_parallel_trips),
      fast_forward_(fast_forward) {
  BWC_CHECK(cores >= 1, "parallel scheduler needs at least one core");
}

ParallelScheduler::~ParallelScheduler() = default;

void ParallelScheduler::run(const StreamLoop& sl, const StreamContext& ctx,
                            Recorder& rec) {
  StreamRangeExec& exec = exec_ != nullptr ? *exec_ : default_range_exec();
  const std::int64_t trips = sl.upper - sl.lower + 1;
  if (trips <= 0) return;
  if (cores_ == 1 || trips < min_parallel_trips_ ||
      !stream_loop_parallel_safe(sl)) {
    run_stream_serial(sl, ctx, rec, fast_forward_, exec);
    return;
  }

  // Deterministic chunking: trips split as evenly as possible, the first
  // `trips % chunks` chunks one iteration longer, exactly like a static
  // OpenMP schedule. Chunk boundaries depend only on (trips, cores), so
  // the merged access stream is a pure function of the program.
  const std::int64_t chunks =
      std::min<std::int64_t>(static_cast<std::int64_t>(cores_), trips);
  const std::int64_t base = trips / chunks;
  const std::int64_t extra = trips % chunks;
  std::vector<std::int64_t> chunk_lower(static_cast<std::size_t>(chunks));
  std::vector<std::int64_t> chunk_upper(static_cast<std::size_t>(chunks));
  std::int64_t next = sl.lower;
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t len = base + (c < extra ? 1 : 0);
    chunk_lower[static_cast<std::size_t>(c)] = next;
    chunk_upper[static_cast<std::size_t>(c)] = next + len - 1;
    next += len;
  }

  std::vector<TraceRecorder> traces;
  traces.reserve(static_cast<std::size_t>(chunks));
  for (std::int64_t c = 0; c < chunks; ++c)
    traces.emplace_back(record_runs_, coalesce_);

  // Fast-forwardable loops skip run capture entirely: workers do only the
  // arithmetic (the loop is parallelizable, so writes are disjoint), each
  // trace carrying a segment descriptor plus the chunk's flop charge, and
  // the merge below regenerates the access stream per chunk with the
  // steady-state detector applied. Gated on record_runs_ so hierarchy-less
  // executions keep their counter-only traces, and on fast_forward_ so
  // --no-fast-forward runs are byte-identical to the trace-and-replay
  // engine.
  const bool segments =
      fast_forward_ && record_runs_ && stream_fast_forwardable(sl, rec);
  if (segments) {
    const std::uint64_t fpi = stream_flops_per_iter(sl);
    for (std::int64_t c = 0; c < chunks; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      traces[ci].set_stream_segment(&sl, chunk_lower[ci], chunk_upper[ci],
                                    ctx.bases);
      traces[ci].flops(fpi * static_cast<std::uint64_t>(
                                 chunk_upper[ci] - chunk_lower[ci] + 1));
    }
    pool_->parallel_for(static_cast<std::size_t>(chunks), [&](std::size_t c) {
      exec.values(sl, chunk_lower[c], chunk_upper[c], ctx);
    });
  } else {
    pool_->parallel_for(static_cast<std::size_t>(chunks), [&](std::size_t c) {
      exec.range_trace(sl, chunk_lower[c], chunk_upper[c], ctx, traces[c]);
    });
  }

  // Join happened above; merge in chunk-index order, never completion
  // order, so the hierarchy sees the serial access stream.
  for (TraceRecorder& trace : traces) rec.merge(trace);
  ++parallel_loops_;
}

ExecResult execute_parallel(const LoweredProgram& lowered,
                            const ExecOptions& opts) {
  BWC_CHECK(opts.cores >= 1, "core count must be at least 1");
  ParallelScheduler scheduler(opts.cores,
                              /*record_runs=*/opts.hierarchy != nullptr,
                              opts.coalesce_accesses, opts.min_parallel_trips,
                              opts.fast_forward);
  return execute_lowered_with_scheduler(lowered, opts, &scheduler);
}

}  // namespace bwc::runtime
