#include "bwc/runtime/parallel.h"

#include <algorithm>

#include "bwc/runtime/fastforward.h"
#include "bwc/runtime/recorder.h"
#include "bwc/runtime/thread_pool.h"
#include "bwc/support/error.h"

namespace bwc::runtime {

ParallelScheduler::ParallelScheduler(int cores, bool fast_forward)
    : pool_(std::make_unique<ThreadPool>(cores)),
      cores_(cores),
      fast_forward_(fast_forward) {
  BWC_CHECK(cores >= 1, "parallel scheduler needs at least one core");
}

ParallelScheduler::~ParallelScheduler() = default;

void ParallelScheduler::run(const StreamLoop& sl, const StreamContext& ctx,
                            Recorder& rec) {
  StreamRangeExec& exec = exec_ != nullptr ? *exec_ : default_range_exec();
  const std::int64_t trips = sl.upper - sl.lower + 1;
  if (trips <= 0) return;
  const std::int64_t chunks =
      std::min<std::int64_t>(static_cast<std::int64_t>(cores_), trips);
  if (chunks == 1 || !stream_loop_parallel_safe(sl)) {
    run_stream_serial(sl, ctx, rec, fast_forward_, exec);
    return;
  }

  // Deterministic chunking: trips split as evenly as possible, the first
  // `trips % chunks` chunks one iteration longer, exactly like a static
  // OpenMP schedule. Chunk c spans [first(c), first(c + 1) - 1]; the
  // bounds depend only on (trips, cores), so the replayed access stream
  // is a pure function of the program.
  const std::int64_t base = trips / chunks;
  const std::int64_t extra = trips % chunks;
  const auto first = [&](std::int64_t c) {
    return sl.lower + c * base + std::min(c, extra);
  };

  // Workers do only the arithmetic (writes are disjoint); the flops are
  // charged in bulk, exactly as a range charges them.
  pool_->parallel_for(static_cast<std::size_t>(chunks), [&](std::size_t i) {
    const auto c = static_cast<std::int64_t>(i);
    exec.values(sl, first(c), first(c + 1) - 1, ctx);
  });
  rec.flops(stream_flops_per_iter(sl) * static_cast<std::uint64_t>(trips));

  // Join happened above; replay in chunk-index order, never completion
  // order, so the recorder sees the serial access stream.
  for (std::int64_t c = 0; c < chunks; ++c)
    replay_stream_accesses(sl, first(c), first(c + 1) - 1, ctx.bases, rec,
                           fast_forward_);
  ++parallel_loops_;
}

}  // namespace bwc::runtime
