#include "bwc/memsim/fastforward.h"

#include <algorithm>
#include <numeric>

#include "bwc/support/error.h"

namespace bwc::memsim {

namespace {

// The counter delta repeats long before the resident state becomes
// translation-stationary: a cold stream misses at a steady rate from the
// first line, but the state only settles once it has swept past every
// level's capacity (all sets full, evictions steady -- including stale
// lines of a *previous* phase draining out). The patience budget must
// therefore cover capacity / period-shift boundaries, plus slack;
// adversarial streams still degrade to plain simulation once it is spent.
// Periods with a zero shift revisit the same lines and drain nothing, so
// the slack alone bounds them.
constexpr std::int64_t kStateRetrySlack = 64;
// Snapshotting and comparing the resident state is O(resident lines), far
// too expensive to pay at every boundary of a capacity-long drain. State
// checks back off exponentially while the counter delta stays stable
// (periods 1, 2, 4, ... apart, capped), so total state work is
// O(resident * log(drain)) and certification lands within a bounded
// factor of the true drain point.
constexpr std::int64_t kMaxStateCheckGap = 256;

// Online detection knobs. The window must hold two occurrences of the
// longest period considered; adoption attempts are spaced so the
// O(period^2) scan amortizes to a few ops per access. Streams that keep
// defeating verification get a bounded number of chances before the
// detector turns itself off and the stream pays nothing but one branch
// per access.
constexpr std::size_t kMaxPeriod = 32;
constexpr std::size_t kWindow = 2 * kMaxPeriod;  // power of two (ring mask)
constexpr std::uint64_t kAttemptInterval = 128;
constexpr int kMaxFailedAdoptions = 8;
// A super-period's access span is buffered while skipping (the partial
// tail must be replayable); refuse hypotheses that would buffer more.
constexpr std::size_t kMaxSuperPeriodAccesses = 4096;

std::uint64_t magnitude(std::int64_t x) {
  return static_cast<std::uint64_t>(x < 0 ? -x : x);
}

}  // namespace

std::uint64_t line_granular_repeats(const MemoryHierarchy& h,
                                    std::int64_t step_bytes) {
  const std::uint64_t line = h.max_line_bytes();
  return line / std::gcd(magnitude(step_bytes), line);
}

// -- PeriodDetector -------------------------------------------------------

PeriodDetector::PeriodDetector(MemoryHierarchy* h,
                               std::int64_t period_shift_bytes)
    : h_(h),
      shift_(period_shift_bytes),
      max_periods_(
          (period_shift_bytes == 0
               ? 0
               : static_cast<std::int64_t>(2 * h->total_capacity_bytes() /
                                           magnitude(period_shift_bytes))) +
          kStateRetrySlack) {
  h_->snapshot_counters(&prev_);
}

bool PeriodDetector::boundary() {
  h_->snapshot_counters(&cur_);
  MemoryHierarchy::subtract_counters(cur_, prev_, &delta_);
  std::swap(prev_, cur_);
  if (++periods_ > max_periods_) {
    exhausted_ = true;
    return false;
  }
  if (!have_last_ || !(delta_ == last_delta_)) {
    // Delta changed: new traffic regime, restart the state protocol.
    std::swap(last_delta_, delta_);
    have_last_ = true;
    have_snap_ = false;
    gap_ = 1;
    wait_ = 0;
    return false;
  }
  // Delta stable (last_delta_ is the candidate per-period advance).
  if (have_snap_) {
    if (h_->state_equals_shifted(snap_, shift_)) return true;
    // The traffic delta stabilizes while stale lines are still draining
    // out of the state; back off and retry at the next check point.
    have_snap_ = false;
    gap_ = std::min(2 * gap_, kMaxStateCheckGap);
    wait_ = gap_ - 1;
    return false;
  }
  if (wait_ > 0) {
    --wait_;
    return false;
  }
  h_->snapshot_state(&snap_);
  have_snap_ = true;
  return false;
}

void PeriodDetector::skip(std::uint64_t periods) {
  h_->apply_counters_scaled(last_delta_, periods);
  h_->shift_state(shift_ * static_cast<std::int64_t>(periods));
}

// -- AccessFastForward ----------------------------------------------------

AccessFastForward::AccessFastForward(MemoryHierarchy* hierarchy)
    : hierarchy_(hierarchy), attempt_countdown_(kWindow) {
  BWC_CHECK(hierarchy_ != nullptr && hierarchy_->translation_invariant(),
            "online fast-forward requires a translation-invariant hierarchy");
  history_.resize(kWindow);
}

void AccessFastForward::forward(const Access& a) {
  if (a.is_store) {
    hierarchy_->store(a.addr, a.size);
  } else {
    hierarchy_->load(a.addr, a.size);
  }
}

bool AccessFastForward::matches_expected(const Access& a) const {
  const Access& p = pattern_[pos_];
  return a.is_store == p.is_store && a.size == p.size &&
         a.addr == p.addr + static_cast<std::uint64_t>(
                                shift_ * static_cast<std::int64_t>(rep_));
}

void AccessFastForward::access(bool is_store, std::uint64_t addr,
                               std::uint64_t size) {
  const Access a{addr, static_cast<std::uint32_t>(size), is_store};
  switch (mode_) {
    case Mode::kOff:
      forward(a);
      return;
    case Mode::kCollect:
      collect(a);
      return;
    case Mode::kVerify:
      if (!matches_expected(a)) {
        fail_adoption();
        if (mode_ == Mode::kOff) {
          forward(a);
        } else {
          collect(a);
        }
        return;
      }
      forward(a);
      if (++pos_ == pattern_.size()) {
        pos_ = 0;
        ++rep_;
        if (++rep_in_sp_ == sp_reps_) {
          rep_in_sp_ = 0;
          if (detector_->boundary()) {
            mode_ = Mode::kSkip;
            skipped_sps_ = 0;
            partial_.clear();
          } else if (detector_->exhausted()) {
            fail_adoption();
          }
        }
      }
      return;
    case Mode::kSkip:
      if (!matches_expected(a)) {
        settle();  // returns to kCollect
        collect(a);
        return;
      }
      ++skipped_accesses_;
      partial_.push_back(a);
      if (++pos_ == pattern_.size()) {
        pos_ = 0;
        ++rep_;
        if (++rep_in_sp_ == sp_reps_) {
          rep_in_sp_ = 0;
          ++skipped_sps_;
          partial_.clear();
        }
      }
      return;
  }
}

void AccessFastForward::collect(const Access& a) {
  forward(a);
  history_[history_head_] = a;
  history_head_ = (history_head_ + 1) & (kWindow - 1);
  if (history_count_ < kWindow) ++history_count_;
  if (--attempt_countdown_ == 0) {
    try_adopt();
    if (mode_ == Mode::kCollect) attempt_countdown_ = kAttemptInterval;
  }
}

void AccessFastForward::try_adopt() {
  // `back(k)` is the k-th most recent access.
  const auto back = [&](std::size_t k) -> const Access& {
    return history_[(history_head_ + kWindow - 1 - k) & (kWindow - 1)];
  };
  for (std::size_t p = 1; 2 * p <= history_count_ && p <= kMaxPeriod; ++p) {
    const std::int64_t delta = static_cast<std::int64_t>(back(0).addr) -
                               static_cast<std::int64_t>(back(p).addr);
    if (delta == 0) continue;
    bool ok = true;
    for (std::size_t j = 0; j < p && ok; ++j) {
      const Access& x = back(j);
      const Access& y = back(j + p);
      ok = x.is_store == y.is_store && x.size == y.size &&
           static_cast<std::int64_t>(x.addr) -
                   static_cast<std::int64_t>(y.addr) ==
               delta;
    }
    if (!ok) continue;

    const std::uint64_t reps = line_granular_repeats(*hierarchy_, delta);
    if (reps * p > kMaxSuperPeriodAccesses) continue;

    pattern_.assign(p, Access{});
    for (std::size_t j = 0; j < p; ++j) pattern_[p - 1 - j] = back(j);
    shift_ = delta;
    sp_reps_ = reps;
    pos_ = 0;
    rep_ = 1;
    rep_in_sp_ = 0;
    detector_.emplace(hierarchy_, delta * static_cast<std::int64_t>(reps));
    mode_ = Mode::kVerify;
    return;
  }
}

void AccessFastForward::restart_collection() {
  pattern_.clear();
  detector_.reset();
  mode_ = Mode::kCollect;
  history_count_ = 0;
  history_head_ = 0;
  attempt_countdown_ = kWindow;
}

void AccessFastForward::fail_adoption() {
  restart_collection();
  if (++failed_adoptions_ >= kMaxFailedAdoptions) mode_ = Mode::kOff;
}

void AccessFastForward::settle() {
  if (mode_ != Mode::kSkip) return;
  if (skipped_sps_ > 0) detector_->skip(skipped_sps_);
  // The absorbed tail past the last super-period boundary matched the
  // prediction but was never simulated; replay it against the translated
  // state, exactly where full simulation would have issued it.
  for (const Access& a : partial_) forward(a);
  partial_.clear();
  skipped_sps_ = 0;
  // Back to collection: the next access either re-establishes the same
  // pattern (a new phase of the stream) or the stream has moved on.
  restart_collection();
}

}  // namespace bwc::memsim
