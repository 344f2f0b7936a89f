// Access/flop recorder: the instrumentation point between workloads and the
// memory-hierarchy simulator.
//
// Native workloads (matrix multiply, FFT, the SP and Sweep3D proxies) issue
// their exact access streams through a Recorder; IR programs do the same
// via the interpreters. Either way the result is an ExecutionProfile -- the
// flop count and per-boundary transfer bytes that define program balance.
//
// Coalescing fast path: with `coalesce` enabled, runs of adjacent accesses
// that are contiguous in the address space and of the same kind (all loads
// or all stores) are issued to the hierarchy as one batched range instead
// of element by element. The hierarchy splits a range into one
// CacheLevel::access per cache line, so a stride-1 sweep costs one
// simulated access per line rather than one per element (8x fewer for
// 64 B lines of doubles) while every observable -- load/store counts and
// per-boundary traffic bytes -- stays exactly the same: only accesses that
// are *adjacent in stream order* merge, so fills, writebacks, write-through
// forwarding and LRU ordering are unchanged. The compiled engines (the
// VM and the native engine) always coalesce; the reference interpreter
// never does, and stays the per-element simulation the differential tests
// compare them against. See docs/runtime.md.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "bwc/machine/timing.h"
#include "bwc/memsim/fastforward.h"
#include "bwc/memsim/hierarchy.h"

namespace bwc::runtime {

struct RowLoop;

/// One coalesced access run: `count` same-kind accesses, contiguous in
/// stream order, covering [addr, addr + bytes) in ascending address order
/// (or descending when flagged -- a stride -1 stream). Recorder holds its
/// pending run as one.
struct AccessRun {
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
  bool is_store = false;
  bool descending = false;

  /// The coalescing rule: absorb the next access of the stream when it is
  /// of the same kind and adjacent in the run's direction. A one-access
  /// run has no direction yet and may grow either way; afterwards it
  /// only extends in its established direction. False leaves the run
  /// unchanged. Forced inline: it sits on Recorder::load/store, the
  /// per-access hot path of the VM, and as a separate call it tips GCC
  /// into no longer inlining those into the dispatch loop.
  [[gnu::always_inline]] bool extend(std::uint64_t next, std::uint64_t size,
                                     bool store) {
    if (store != is_store) return false;
    if ((count == 1 || !descending) && next == addr + bytes) {
      bytes += size;
      ++count;
      descending = false;
      return true;
    }
    if ((count == 1 || descending) && next + size == addr) {
      addr = next;
      bytes += size;
      ++count;
      descending = true;
      return true;
    }
    return false;
  }
};

/// Recorder stand-in that discards accesses and flops: an instrumented
/// kernel (run_stream_range, the native workloads) instantiated with it
/// compiles to the bare arithmetic loop -- the values-only pass of
/// fast-forward and the native wall-clock benchmarks.
struct NullRecorder {
  void load(std::uint64_t, std::uint64_t) {}
  void store(std::uint64_t, std::uint64_t) {}
  void load_double(std::uint64_t) {}
  void store_double(std::uint64_t) {}
  void flops(std::uint64_t) {}
};

class Recorder {
 public:
  /// `hierarchy` may be null: flops and access counts are still tracked,
  /// but no cache simulation or boundary traffic is recorded.
  /// `coalesce` enables the batched stride-1 fast path described above.
  /// `warmup_fast_forward` attaches an online steady-state detector
  /// (memsim::AccessFastForward) that absorbs periodic spans of the raw
  /// access stream and folds them into the hierarchy analytically --
  /// counters and final cache state stay exact, so warm-up passes use it
  /// to reach steady state without simulating every element. Ignored
  /// (full simulation) when the hierarchy is null or not
  /// translation-invariant (page-randomized machines).
  explicit Recorder(memsim::MemoryHierarchy* hierarchy = nullptr,
                    bool coalesce = false, bool warmup_fast_forward = false)
      : hierarchy_(hierarchy), coalesce_(coalesce && hierarchy != nullptr) {
    if (warmup_fast_forward && hierarchy != nullptr &&
        hierarchy->translation_invariant())
      online_ff_ = std::make_unique<memsim::AccessFastForward>(hierarchy);
  }

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  ~Recorder() { flush(); }

  void load(std::uint64_t addr, std::uint64_t size) {
    ++loads_;
    reg_bytes_ += size;
    if (hierarchy_ == nullptr) return;
    if (online_ff_ != nullptr) {
      // The online detector needs the elementwise stream (it infers the
      // period from it), so it bypasses coalescing.
      online_ff_->access(/*is_store=*/false, addr, size);
    } else if (coalesce_) {
      extend_run(addr, size, /*is_store=*/false);
    } else {
      hierarchy_->load(addr, size);
    }
  }
  void store(std::uint64_t addr, std::uint64_t size) {
    ++stores_;
    reg_bytes_ += size;
    if (hierarchy_ == nullptr) return;
    if (online_ff_ != nullptr) {
      online_ff_->access(/*is_store=*/true, addr, size);
    } else if (coalesce_) {
      extend_run(addr, size, /*is_store=*/true);
    } else {
      hierarchy_->store(addr, size);
    }
  }
  void load_double(std::uint64_t addr) { load(addr, 8); }
  void store_double(std::uint64_t addr) { store(addr, 8); }

  void flops(std::uint64_t n) { flops_ += n; }

  /// Issue any pending coalesced run to the hierarchy and settle the
  /// online fast-forward detector (if attached). Must be called (or
  /// implied by profile()/destruction) before reading hierarchy counters.
  void flush() const {
    if (online_ff_ != nullptr) online_ff_->settle();
    if (run_.bytes == 0) return;
    issue(run_);
    run_.bytes = 0;
  }

  /// Bulk-account accesses that were never issued one by one: the
  /// stream-loop replay (runtime/fastforward.h) charges a range's
  /// load/store/register totals in one call when no hierarchy is attached,
  /// and the skipped periods' totals when fast-forward applied them to the
  /// hierarchy analytically. Nothing is simulated here.
  void count_accesses(std::uint64_t loads, std::uint64_t stores,
                      std::uint64_t reg_bytes) {
    loads_ += loads;
    stores_ += stores;
    reg_bytes_ += reg_bytes;
  }

  /// Row fast-forward, the third period source of memsim::PeriodDetector
  /// (runtime/fastforward.h). The engines call this at the end of row `v`
  /// (one iteration) of a loop that carries row certificate `loop`, when
  /// fast-forward is on. From the first row of each segment it arms a
  /// detector whose period is line_granular_repeats(loop.step_bytes) rows,
  /// and it flushes the pending run at each period boundary. Once the
  /// fixpoint is certified it detaches the hierarchy for the segment's
  /// remaining full periods: the engine still computes every value and
  /// issues every access, and this recorder only counts them. At the row
  /// closing the last skipped period it applies PeriodDetector::skip and
  /// reattaches. It arms only on translation-invariant hierarchies, for
  /// segments of at least memsim::kMinPeriodsToAttempt periods, and, for
  /// rows that move (step_bytes != 0), only when the loop's footprint
  /// exceeds the caches: rows that fit never evict their predecessors,
  /// so their state never becomes translation-stationary.
  void end_row(const RowLoop& loop, std::int64_t v);

  /// Record one fast-forward event that skipped `iterations` loop
  /// iterations past simulation: stream-loop iterations, or rows of a
  /// certified loop (each row counts as one iteration of that loop).
  void count_fast_forward(std::uint64_t iterations) {
    ++ff_events_;
    ff_iterations_ += iterations;
  }

  /// Fast-forward events recorded through count_fast_forward() (one per
  /// certified stream loop or row segment) and the iterations they
  /// skipped.
  std::uint64_t fast_forward_events() const { return ff_events_; }
  std::uint64_t fast_forwarded_iterations() const { return ff_iterations_; }
  /// Accesses absorbed by the online warm-up detector (0 when detached).
  std::uint64_t online_skipped_accesses() const {
    return online_ff_ != nullptr ? online_ff_->skipped_accesses() : 0;
  }

  std::uint64_t flop_count() const { return flops_; }
  std::uint64_t load_count() const { return loads_; }
  std::uint64_t store_count() const { return stores_; }
  std::uint64_t register_bytes() const { return reg_bytes_; }
  memsim::MemoryHierarchy* hierarchy() const { return hierarchy_; }
  bool coalescing() const { return coalesce_; }

  /// Snapshot flops + hierarchy boundary traffic. Requires a hierarchy;
  /// flushes any pending coalesced run first.
  machine::ExecutionProfile profile() const;

 private:
  void extend_run(std::uint64_t addr, std::uint64_t size, bool is_store) {
    if (run_.bytes != 0 && run_.extend(addr, size, is_store)) return;
    flush();
    run_ = AccessRun{addr, size, 1, is_store, false};
  }

  void arm_rows(const RowLoop& loop, std::int64_t first);

  /// Issue one coalesced run to the hierarchy.
  void issue(const AccessRun& run) const {
    if (run.is_store) {
      hierarchy_->store_run(run.addr, run.bytes, run.count, run.descending);
    } else {
      hierarchy_->load_run(run.addr, run.bytes, run.count, run.descending);
    }
  }

  memsim::MemoryHierarchy* hierarchy_;
  bool coalesce_;
  std::unique_ptr<memsim::AccessFastForward> online_ff_;
  std::uint64_t flops_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t reg_bytes_ = 0;
  std::uint64_t ff_events_ = 0;
  std::uint64_t ff_iterations_ = 0;
  // Row fast-forward (end_row): the armed segment's certifier, its period
  // in rows and the rows closed in the current one; while skipping, the
  // detached hierarchy, the last skipped row and the periods skipped.
  struct Rows {
    std::optional<memsim::PeriodDetector> detector;
    std::int64_t period = 0;
    std::int64_t in_period = 0;
    std::int64_t segment_last = 0;
    std::int64_t skip_last = 0;
    std::uint64_t skipped = 0;
    memsim::MemoryHierarchy* detached = nullptr;
  } rows_;
  // Pending contiguous run (none while bytes == 0), not yet issued to the
  // hierarchy. Mutable so that profile() (const) can flush before
  // snapshotting.
  mutable AccessRun run_;
};

}  // namespace bwc::runtime
