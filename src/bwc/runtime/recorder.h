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
// forwarding and LRU ordering are unchanged. See docs/runtime.md.
#pragma once

#include <cstdint>
#include <memory>

#include "bwc/machine/timing.h"
#include "bwc/memsim/fastforward.h"
#include "bwc/memsim/hierarchy.h"

namespace bwc::runtime {

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

  /// Bulk-account accesses that were never issued one by one: with no
  /// hierarchy attached, the stream-loop replay (runtime/fastforward.h)
  /// charges a range's load/store/register totals in one call. Only legal
  /// when no hierarchy is attached: nothing is simulated here, so with a
  /// hierarchy the caller must issue real load()/store() calls instead.
  void count_accesses(std::uint64_t loads, std::uint64_t stores,
                      std::uint64_t reg_bytes) {
    loads_ += loads;
    stores_ += stores;
    reg_bytes_ += reg_bytes;
  }

  /// Bulk-account `iterations` fast-forwarded loop iterations whose
  /// accesses were applied to the hierarchy analytically (never issued
  /// through load()/store()). Keeps this recorder's load/store/register
  /// totals exact; see runtime/fastforward.h for the caller.
  void count_fast_forward(std::uint64_t loads, std::uint64_t stores,
                          std::uint64_t reg_bytes, std::uint64_t iterations) {
    loads_ += loads;
    stores_ += stores;
    reg_bytes_ += reg_bytes;
    ++ff_events_;
    ff_iterations_ += iterations;
  }

  /// Fast-forward events applied through count_fast_forward() (one per
  /// certified loop or parallel chunk) and iterations they skipped.
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
  // Pending contiguous run (none while bytes == 0), not yet issued to the
  // hierarchy. Mutable so that profile() (const) can flush before
  // snapshotting.
  mutable AccessRun run_;
};

}  // namespace bwc::runtime
