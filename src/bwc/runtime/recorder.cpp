#include "bwc/runtime/recorder.h"

#include <algorithm>

#include "bwc/runtime/lowering.h"
#include "bwc/support/error.h"

namespace bwc::runtime {

machine::ExecutionProfile Recorder::profile() const {
  BWC_CHECK(hierarchy_ != nullptr,
            "profile() requires a memory hierarchy to have been attached");
  flush();
  return machine::ExecutionProfile::capture(*hierarchy_, flops_);
}

void Recorder::end_row(const RowLoop& loop, std::int64_t v) {
  if (hierarchy_ == nullptr && rows_.detached == nullptr) return;
  if (rows_.detached != nullptr) {
    if (v != rows_.skip_last) return;  // skipped rows are only counted
    hierarchy_ = rows_.detached;
    rows_.detached = nullptr;
    rows_.detector->skip(rows_.skipped);
    count_fast_forward(rows_.skipped *
                       static_cast<std::uint64_t>(rows_.period));
    rows_.detector.reset();
  } else if (rows_.detector && ++rows_.in_period == rows_.period) {
    rows_.in_period = 0;
    flush();
    if (rows_.detector->boundary()) {
      const std::int64_t periods = (rows_.segment_last - v) / rows_.period;
      if (periods > 0) {
        rows_.skip_last = v + periods * rows_.period;
        rows_.skipped = static_cast<std::uint64_t>(periods);
        rows_.detached = hierarchy_;
        hierarchy_ = nullptr;
        return;
      }
      rows_.detector.reset();
    } else if (rows_.detector->exhausted()) {
      rows_.detector.reset();
    }
  }
  if (v == loop.upper) {
    rows_.detector.reset();
  } else if (v == loop.lower ||
             std::binary_search(loop.segment_starts.begin(),
                                loop.segment_starts.end(), v + 1)) {
    arm_rows(loop, v + 1);
  }
}

void Recorder::arm_rows(const RowLoop& loop, std::int64_t first) {
  rows_.detector.reset();
  if (!hierarchy_->translation_invariant()) return;
  if (loop.step_bytes != 0 &&
      loop.footprint_bytes <= hierarchy_->total_capacity_bytes())
    return;
  const auto next = std::upper_bound(loop.segment_starts.begin(),
                                     loop.segment_starts.end(), first);
  const std::int64_t last =
      next == loop.segment_starts.end() ? loop.upper : *next - 1;
  const auto period = static_cast<std::int64_t>(
      memsim::line_granular_repeats(*hierarchy_, loop.step_bytes));
  if (last - first + 1 < memsim::kMinPeriodsToAttempt * period) return;
  // Period deltas must not swallow a run pending from the previous row.
  flush();
  rows_.detector.emplace(hierarchy_, loop.step_bytes * period);
  rows_.period = period;
  rows_.in_period = 0;
  rows_.segment_last = last;
}

}  // namespace bwc::runtime
