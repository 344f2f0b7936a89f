#include "bwc/runtime/recorder.h"

#include "bwc/support/error.h"

namespace bwc::runtime {

machine::ExecutionProfile Recorder::profile() const {
  BWC_CHECK(hierarchy_ != nullptr,
            "profile() requires a memory hierarchy to have been attached");
  flush();
  return machine::ExecutionProfile::capture(*hierarchy_, flops_);
}

}  // namespace bwc::runtime
