// Layout-aware access-stride and line-traffic estimation.
//
// The static traffic lower bound (verify/traffic_bound.h) counts distinct
// bytes and is therefore layout-invariant: it cannot distinguish a
// row-major from a column-major sweep. This estimator models what the
// memory simulator will actually see for a given cache geometry -- byte
// strides under each array's declared ArrayLayout, line-granular sweep
// traffic, and set-mapping conflicts -- so the layout passes
// (transform/layout.h), the per-array PassReport breakdown, and the
// lint-conflict-stride diagnostic can all reason about layouts before
// paying for a simulation. Estimates are deterministic and comparative,
// not cycle-accurate: the quantity that matters is the delta between two
// layouts of the same program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/ir/program.h"

namespace bwc::analysis {

/// The cache geometry the estimator maps addresses onto. Defaults mirror
/// the memory simulator's L1 (memsim/cache_config.h: 32 KiB, 32-byte
/// lines, 2-way => 512 sets); arrays sit where the executors place them
/// (ir::array_base_addresses).
struct LayoutGeometry {
  std::uint64_t line_bytes = 32;
  std::uint64_t sets = 512;
  std::uint64_t ways = 2;

  /// Bytes covered by one way (the set-index period of the address map).
  std::uint64_t way_span() const { return sets * line_bytes; }
};

/// What the estimator derives about one declared array.
struct ArrayLayoutTraffic {
  ir::ArrayId array = ir::kInvalidArray;
  std::string name;
  /// Trip-weighted dynamic reference count across all top-level statements.
  std::int64_t accesses = 0;
  /// The access-weighted most common nonzero per-innermost-iteration byte
  /// stride under the declared layout; 0 when every access is loop-
  /// invariant in the innermost variable (or the array is unreferenced).
  std::int64_t dominant_stride_bytes = 0;
  /// Estimated line-granular bytes this array moves across the memory
  /// boundary (sweep-based; accounts for set-conflict thrashing).
  std::int64_t line_bytes_estimate = 0;
  /// Distinct cache sets a dominant-stride sweep cycles over; equal to
  /// `sets` for unit strides, collapsing for large power-of-two strides.
  std::int64_t distinct_sets = 0;
  /// Distinct lines one innermost sweep of the dominant access touches.
  std::int64_t sweep_lines = 0;
  /// Cache set of the array's base address ((base / line) mod sets):
  /// co-streamed arrays sharing a phase contend for the same sets.
  std::int64_t set_phase = 0;
  /// The dominant-stride sweep needs more lines than the sets it maps to
  /// can hold (sweep_lines > distinct_sets * ways with distinct_sets <
  /// sets): every revisit re-misses, the layout is set-conflict bound.
  bool conflict = false;
};

/// Whole-program estimate: one entry per declared array, in ArrayId order,
/// plus the line-traffic total.
struct LayoutTrafficEstimate {
  std::vector<ArrayLayoutTraffic> arrays;
  std::int64_t total_line_bytes = 0;

  const ArrayLayoutTraffic& of(ir::ArrayId id) const {
    return arrays[static_cast<std::size_t>(id)];
  }
};

/// Estimate per-array strides, line traffic and set conflicts of `program`
/// under geometry `g`.
LayoutTrafficEstimate estimate_layout_traffic(const ir::Program& program,
                                              const LayoutGeometry& g = {});

}  // namespace bwc::analysis
