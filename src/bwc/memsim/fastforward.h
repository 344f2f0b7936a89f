// Steady-state fast-forward: the periodic-fixpoint certifier and the
// online period source for raw access streams.
//
// A stream whose access tuple repeats with every address advanced by a
// constant shift drives a translation-invariant MemoryHierarchy (pure
// modulo set indexing) towards a *periodic fixpoint*: identical
// per-period counter deltas and a resident state that equals its own
// translation by the period's address shift. PeriodDetector certifies
// that fixpoint and then advances the hierarchy by any number of periods
// analytically -- counters by m * delta, resident tags by m * shift --
// which by induction is exactly what simulating them would have done.
//
// The certifier is fed by three period sources:
//  - the compiled engines' stream loops (runtime/fastforward.h), whose
//    period comes from lowering's uniform per-iteration address step;
//  - rows: the iterations of an outer loop whose accesses all move by one
//    byte step per iteration (lowering's RowLoop certificate), reported
//    by the engines at each row end (runtime::Recorder::end_row);
//  - AccessFastForward below, which infers the period online from a raw
//    access stream with no loop metadata attached -- the native workloads
//    (Figure 3 stride kernels, STREAM, the proxies) in
//    bench::steady_state_profile's warm-up passes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bwc/memsim/hierarchy.h"

namespace bwc::memsim {

/// Stream loops and rows arm the certifier only for a span of at least
/// this many periods: certification needs four (warm-up, two equal
/// deltas, one state comparison), and anything close to that would skip
/// next to nothing.
inline constexpr std::int64_t kMinPeriodsToAttempt = 8;

/// Repetitions of an address step of `step_bytes` after which the
/// accumulated shift is a line multiple at every level of `h` at once:
/// max_line / gcd(|step|, max_line), which is 1 for a zero step.
std::uint64_t line_granular_repeats(const MemoryHierarchy& h,
                                    std::int64_t step_bytes);

/// Periodic-fixpoint certifier. The caller replays one period of its
/// stream into the hierarchy (flushing any coalesced run), then calls
/// boundary(); true means the fixpoint is certified, delta() is the
/// exact per-period counter advance and skip() may fold any number of
/// further periods in analytically. exhausted() reports that the
/// capacity-scaled patience budget is spent and the caller should stop
/// probing.
class PeriodDetector {
 public:
  /// `period_shift_bytes` is the address shift of one period; it must be
  /// a multiple of h->max_line_bytes() (line_granular_repeats) and the
  /// hierarchy translation_invariant(). A zero shift certifies periods
  /// that reuse the same lines, which need no capacity drain: their
  /// patience budget is the slack alone. Snapshots the counters: the
  /// first period starts now.
  PeriodDetector(MemoryHierarchy* h, std::int64_t period_shift_bytes);

  /// Close one period. True once the fixpoint is certified: the counter
  /// delta repeated and the resident state equals its snapshot translated
  /// by the period shift.
  bool boundary();
  bool exhausted() const { return exhausted_; }
  /// The certified per-period counter advance (valid once boundary()
  /// returned true).
  const MemoryHierarchy::Counters& delta() const { return last_delta_; }
  /// Advance the hierarchy by `periods` certified periods without
  /// simulating them: counters by periods * delta(), resident state by
  /// periods * the period shift.
  void skip(std::uint64_t periods);

 private:
  MemoryHierarchy* h_;
  std::int64_t shift_;
  std::int64_t max_periods_;
  MemoryHierarchy::Counters prev_, cur_, delta_, last_delta_;
  bool have_last_ = false;
  MemoryHierarchy::ResidentState snap_;
  bool have_snap_ = false;
  std::int64_t periods_ = 0;
  std::int64_t gap_ = 1;   // periods between state checks (backoff)
  std::int64_t wait_ = 0;  // periods left before the next snapshot
  bool exhausted_ = false;
};

/// Online period source: watches a raw access stream on its way into a
/// MemoryHierarchy, infers a period from the recent window, certifies it
/// with a PeriodDetector at super-period boundaries, and then *absorbs*
/// matching accesses instead of simulating them, folding the skipped
/// super-periods back in on settle(). Every counter and the final
/// resident state are exactly what full simulation would have produced,
/// which is why bench::steady_state_profile can use it for warm-up passes
/// without perturbing the measured pass by a single byte.
class AccessFastForward {
 public:
  /// The hierarchy must be translation_invariant() (checked); callers gate
  /// construction on that, so page-randomized machines (Exemplar) simply
  /// never get a detector and always simulate in full.
  explicit AccessFastForward(MemoryHierarchy* hierarchy);

  AccessFastForward(const AccessFastForward&) = delete;
  AccessFastForward& operator=(const AccessFastForward&) = delete;

  /// Observe one program access. In the detection phases the access is
  /// forwarded to the hierarchy unchanged; once the periodic fixpoint is
  /// certified, accesses matching the predicted stream are absorbed and a
  /// mismatch settles the skipped span before re-entering detection.
  void access(bool is_store, std::uint64_t addr, std::uint64_t size);

  /// Fold any absorbed-but-unapplied span into the hierarchy: skip the
  /// certified super-periods (PeriodDetector::skip) and replay the
  /// partial tail element by element. Must be called before the
  /// hierarchy's counters or state are read; safe to call at any time.
  void settle();

  /// Accesses absorbed by the skip path so far (observability).
  std::uint64_t skipped_accesses() const { return skipped_accesses_; }

 private:
  struct Access {
    std::uint64_t addr = 0;
    std::uint32_t size = 0;
    bool is_store = false;
  };

  // kCollect: forward everything, look for a period in the recent window.
  // kVerify: forward everything while checking each access against the
  //          adopted pattern and certifying at super-period boundaries.
  // kSkip:   absorb matching accesses; counters/state owed until settle().
  // kOff:    detection failed too often; forward-only, zero overhead.
  enum class Mode : std::uint8_t { kCollect, kVerify, kSkip, kOff };

  void forward(const Access& a);
  bool matches_expected(const Access& a) const;
  void collect(const Access& a);
  void try_adopt();
  void fail_adoption();
  void restart_collection();

  MemoryHierarchy* hierarchy_;
  Mode mode_ = Mode::kCollect;

  // Collection window (ring buffer of the most recent accesses).
  std::vector<Access> history_;
  std::size_t history_head_ = 0;  // next write slot
  std::size_t history_count_ = 0;
  std::uint64_t attempt_countdown_;
  int failed_adoptions_ = 0;

  // Adopted hypothesis: `pattern_` is one period of the stream as last
  // seen; occurrence r of pattern slot j is predicted at
  // pattern_[j].addr + shift_ * r. A super-period is `sp_reps_` pattern
  // repetitions, chosen so its total shift is line-granular at every
  // level; the certifier's period is one super-period.
  std::vector<Access> pattern_;
  std::int64_t shift_ = 0;     // bytes per pattern repetition
  std::uint64_t sp_reps_ = 0;  // pattern repetitions per super-period
  std::size_t pos_ = 0;        // next pattern slot expected
  std::uint64_t rep_ = 0;      // current repetition number (shift multiple)
  std::uint64_t rep_in_sp_ = 0;
  std::optional<PeriodDetector> detector_;  // kVerify and kSkip

  // Skip-phase debt: super-periods fully absorbed, plus the partial tail
  // of absorbed accesses past the last super-period boundary.
  std::uint64_t skipped_sps_ = 0;
  std::vector<Access> partial_;
  std::uint64_t skipped_accesses_ = 0;
};

}  // namespace bwc::memsim
