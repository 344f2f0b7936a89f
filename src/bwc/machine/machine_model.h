// Machine models: peak compute rate, per-boundary data bandwidths, and
// cache geometry.
//
// "Machine balance is the amount of data transfer that the machine provides
// for each machine operation" (Section 2.2). A model carries one bandwidth
// per hierarchy boundary (registers<->L1, L1<->L2, ..., last-level<->memory)
// and its balance is bandwidth divided by peak flop rate.
//
// Presets reproduce the two machines of the paper's evaluation: an SGI
// Origin2000 node (MIPS R10000) and an HP/Convex Exemplar node (PA-8000).
// The numbers come from the paper (Figure 1 machine row: 4 / 4 / 0.8
// bytes/flop for the Origin2000) and period hardware specifications.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/memsim/hierarchy.h"

namespace bwc::machine {

struct MachineModel {
  std::string name;
  /// Peak floating-point rate in MFLOPS (10^6 flops/s) of ONE core.
  double peak_mflops = 0.0;
  /// Sustained bandwidth in MB/s for each boundary, ordered from
  /// registers<->L1 to last-level<->memory. Size must be caches.size()+1.
  /// Private boundaries are per-core (aggregate capacity scales with
  /// core_count); shared boundaries are machine-wide (one bus).
  std::vector<double> boundary_bandwidth_mbps;
  /// Cache geometry from L1 to last level.
  std::vector<memsim::CacheConfig> caches;
  /// Fixed per-run overhead (loop startup, sync) in the timing model.
  double startup_overhead_s = 0.0;
  /// Identical cores drawing on the hierarchy. Private boundaries and the
  /// flop rate replicate per core; shared boundaries do not.
  int core_count = 1;
  /// Per-boundary sharing flags, same order and size as
  /// boundary_bandwidth_mbps. Empty means the default topology: every
  /// cache boundary private, the memory bus (last boundary) shared.
  std::vector<bool> boundary_shared;

  /// True when boundary `b` is one bus shared by all cores.
  bool is_shared(std::size_t b) const;

  /// Machine-wide capacity of boundary `b` in MB/s: the per-core figure
  /// multiplied by core_count for private boundaries, unchanged for
  /// shared ones.
  double aggregate_bandwidth_mbps(std::size_t b) const;

  /// Machine-wide peak flop rate: core_count * peak_mflops.
  double aggregate_peak_mflops() const;

  /// A copy of this model with `cores` cores (geometry and per-core
  /// rates unchanged).
  MachineModel with_cores(int cores) const;

  /// Bytes of transfer available per flop at each boundary (Figure 1's
  /// machine row): aggregate bandwidth over aggregate peak. At one core
  /// this is the paper's uniprocessor balance; with more cores the
  /// private boundaries hold their balance while every shared boundary's
  /// balance shrinks by 1/core_count -- the shared-bus squeeze.
  std::vector<double> machine_balance() const;

  /// Memory bandwidth (last boundary) in MB/s.
  double memory_bandwidth_mbps() const;

  /// Instantiate a simulator with this machine's cache geometry.
  memsim::MemoryHierarchy make_hierarchy() const;

  /// A copy of this model with every cache size divided by `divisor`
  /// (geometry shape and all bandwidths preserved). Benchmarks use scaled
  /// models so that paper-scale working-set/cache ratios are reproduced at
  /// tractable simulation sizes; balance numbers are unaffected because
  /// both the footprint and the cache shrink together.
  MachineModel scaled(std::uint64_t divisor) const;

  /// Throws bwc::Error unless bandwidths/caches are consistent.
  void validate() const;
};

/// SGI Origin2000 node: MIPS R10000, peak 400 MFLOPS; machine balance
/// 4 / 4 / 0.8 bytes per flop (paper Figure 1); 32 KB 2-way L1 with 32 B
/// lines, 4 MB 2-way L2 with 128 B lines.
MachineModel origin2000_r10k();

/// HP/Convex Exemplar node: PA-8000, peak 720 MFLOPS; single-level 1 MB
/// direct-mapped data cache with 32 B lines; ~560 MB/s memory bandwidth
/// (the paper's kernels sustain 417-551 MB/s).
MachineModel exemplar_pa8000();

/// A generic modern core for "the gap keeps widening" comparisons:
/// higher absolute rates, *worse* memory balance than the Origin2000.
MachineModel generic_modern();

/// A modern server core with a three-level hierarchy (L1/L2/L3), for
/// exercising depth-agnostic code paths and deeper-hierarchy studies.
MachineModel generic_modern_l3();

/// All presets, for parameterized tests and sweeps.
std::vector<MachineModel> all_presets();

/// The preset a command line or a bwcd request names: "o2k"
/// (origin2000_r10k), "exemplar" (exemplar_pa8000) or "modern"
/// (generic_modern). Throws bwc::Error listing the supported names.
MachineModel machine_by_name(const std::string& name);

}  // namespace bwc::machine
