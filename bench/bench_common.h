// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each binary regenerates one table or figure of the paper's evaluation.
// The substrate is the simulated memory hierarchy plus the bandwidth-bound
// timing model; absolute numbers differ from the 1999 hardware, but the
// shapes (who wins, by what factor, where crossovers fall) are the claims
// under reproduction. See EXPERIMENTS.md for paper-vs-measured records.
#pragma once

#include <cstdio>
#include <string>

#include "bwc/ir/program.h"
#include "bwc/machine/machine_model.h"
#include "bwc/machine/timing.h"
#include "bwc/memsim/hierarchy.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/recorder.h"

namespace bwc::bench {

/// Cache scale divisor used throughout: paper-scale working-set/cache
/// ratios at tractable simulation sizes (balance is scale-invariant).
inline constexpr std::uint64_t kCacheScale = 16;

inline machine::MachineModel o2k() {
  return machine::origin2000_r10k().scaled(kCacheScale);
}
inline machine::MachineModel exemplar() {
  return machine::exemplar_pa8000().scaled(kCacheScale);
}

/// Run `workload(rec)` to steady state on the machine's hierarchy: one
/// warm-up pass, then one measured pass. Returns the measured profile.
///
/// The warm-up pass only has to leave the hierarchy in the exact state a
/// full pass would, so it runs with online steady-state fast-forward
/// attached (memsim::AccessFastForward): the period is inferred from the
/// raw access stream and certified by memsim::PeriodDetector, the same
/// certifier the compiled engines' stream loops use, and periodic spans
/// are absorbed and folded in analytically. That cuts warm-up simulation
/// cost without changing the warmed state or the measured pass by a byte.
/// Machines whose hierarchies are not translation-invariant (page
/// randomization) warm up by full simulation automatically.
///
/// Counter hygiene (regression-tested in tests/runtime_test.cpp): the
/// warm-up pass uses its own Recorder whose scope ends -- settling the
/// detector and flushing any coalesced run into the hierarchy -- before
/// reset_stats() clears the boundary counters; the measured pass then
/// starts from a *fresh* Recorder, so warm-up flops and access counts
/// never leak into the profile while the cache contents stay warm.
template <typename Fn>
machine::ExecutionProfile steady_state_profile(
    const machine::MachineModel& machine, Fn&& workload) {
  memsim::MemoryHierarchy h = machine.make_hierarchy();
  {
    runtime::Recorder warmup(&h, /*coalesce=*/true,
                             /*warmup_fast_forward=*/true);
    workload(warmup);
  }
  h.reset_stats();
  runtime::Recorder rec(&h, /*coalesce=*/true);
  workload(rec);
  return rec.profile();
}

/// Single cold pass (for programs that run once, like the paper examples).
/// Coalescing is byte-exact (see recorder.h), so the fast path is on.
template <typename Fn>
machine::ExecutionProfile cold_profile(const machine::MachineModel& machine,
                                       Fn&& workload) {
  memsim::MemoryHierarchy h = machine.make_hierarchy();
  runtime::Recorder rec(&h, /*coalesce=*/true);
  workload(rec);
  return rec.profile();
}

/// Cold-cache profile of an IR program, replayed by the compiled engine
/// (slot-resolved bytecode + coalesced cache access; see docs/runtime.md).
inline machine::ExecutionProfile program_cold_profile(
    const machine::MachineModel& machine, const ir::Program& program) {
  memsim::MemoryHierarchy h = machine.make_hierarchy();
  runtime::ExecOptions opts;
  opts.hierarchy = &h;
  return runtime::execute_compiled(program, opts).profile;
}

/// Steady-state profile of an IR program: lower once, warm the hierarchy
/// with one pass, measure the second.
inline machine::ExecutionProfile program_steady_profile(
    const machine::MachineModel& machine, const ir::Program& program) {
  const runtime::LoweredProgram lowered = runtime::lower(program);
  memsim::MemoryHierarchy h = machine.make_hierarchy();
  runtime::ExecOptions opts;
  opts.hierarchy = &h;
  runtime::execute_lowered(lowered, opts);
  h.reset_stats();
  return runtime::execute_lowered(lowered, opts).profile;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace bwc::bench
