#include "bwc/runtime/recorder.h"

#include "bwc/runtime/fastforward.h"
#include "bwc/support/error.h"

namespace bwc::runtime {

machine::ExecutionProfile Recorder::profile() const {
  BWC_CHECK(hierarchy_ != nullptr,
            "profile() requires a memory hierarchy to have been attached");
  flush();
  return machine::ExecutionProfile::capture(*hierarchy_, flops_);
}

void Recorder::merge(const TraceRecorder& trace) {
  flush();
  flops_ += trace.flop_count();
  loads_ += trace.load_count();
  stores_ += trace.store_count();
  reg_bytes_ += trace.register_bytes();
  if (hierarchy_ == nullptr) return;
  if (trace.has_segment()) {
    // Compute-only chunk: the worker did the arithmetic; regenerate its
    // access stream here (in chunk order) with fast-forward enabled. The
    // replay issues through this recorder, so the chunk's load/store/
    // register totals accrue exactly as if the runs had been captured.
    replay_stream_accesses(*trace.segment_loop(), trace.segment_lower(),
                           trace.segment_upper(), trace.segment_bases(),
                           *this);
    return;
  }
  for (const AccessRun& run : trace.runs()) issue(run);
}

}  // namespace bwc::runtime
