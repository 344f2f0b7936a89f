// Static memory-traffic lower bounds from affine access summaries.
//
// For a cold memory hierarchy, every distinct byte a program touches must
// cross the memory<->L2 boundary at least once -- under a write-allocate
// policy the line is fetched, under no-write-allocate the store itself
// crosses. The number of distinct bytes touched is therefore a sound lower
// bound on the simulated boundary traffic, whatever the cache geometry,
// associativity or replacement policy. This analyzer computes that bound
// statically, per array, from the affine subscripts of the static engine's
// assignment sites (verify::collect_assign_sites), whose loop domains are
// refined through guards: one box per combination of a site's domain
// pieces, each subscript variable bound to its innermost enclosing loop.
//
//  - A reference whose every dimension uses at most one loop variable maps
//    its iteration space injectively onto elements: its footprint is the
//    product of the distinct variables' trip counts, exactly.
//  - When every reference to an array has only {0, +-1} coefficients, each
//    reference covers a dense box of elements and the array footprint is
//    the exact union of boxes (computed by coordinate compression).
//  - Otherwise the footprint falls back to the largest single-reference
//    count (still a valid lower bound); references under guards the
//    splitter cannot refine are excluded entirely (a guard may suppress
//    every access).
//
// The companion flops_upper_bound counts every arithmetic operation the
// program could execute (both branches of each guard), giving a sound
// static machine-balance denominator. EXPERIMENTS.md records the invariant
// checked by the test suite: lower_bound_bytes <= the memsim-measured
// memory<->L2 traffic on every workload, original and optimized.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/ir/program.h"

namespace bwc::verify {

/// Distinct-element footprint of one array.
struct ArrayFootprint {
  std::string name;
  /// Distinct elements provably touched (lower bound; exact when `exact`).
  std::int64_t distinct_elements = 0;
  std::int64_t bytes = 0;
  /// Every unguarded reference was covered by the union-of-boxes count.
  bool exact = false;
  /// References skipped because they sit under a guard the splitter
  /// cannot refine or use a variable no enclosing loop binds; each
  /// reference counts once, however many boxes its domain pieces make.
  int guarded_refs = 0;
};

struct TrafficBound {
  std::vector<ArrayFootprint> arrays;
  /// Sum of per-array footprint bytes: sound lower bound on the bytes
  /// crossing the memory<->L2 boundary on a cold hierarchy.
  std::int64_t lower_bound_bytes = 0;
  /// Static upper bound on executed flops (guards counted both ways).
  std::int64_t flops_upper_bound = 0;

  /// Human-readable table of the per-array footprints and totals.
  std::string render() const;
};

TrafficBound compute_traffic_bound(const ir::Program& program);

/// One array's share of the essential data-movement floor.
struct FloorRegion {
  std::string name;
  /// Elements whose first access is a read: their initial contents are
  /// program inputs and must be fetched by any equivalent program.
  std::int64_t initial_read_elements = 0;
  /// Elements of observable output arrays the program definitely writes:
  /// their final contents must be produced by any equivalent program.
  std::int64_t output_write_elements = 0;
  /// |initial-read region UNION output-write region| (an element in both
  /// is counted once: one boundary crossing covers fetch and update on a
  /// write-allocate hierarchy).
  std::int64_t elements = 0;
  std::int64_t bytes = 0;
};

/// The essential data-movement floor (the Olivry-style cold-footprint
/// I/O bound, specialized to this IR): bytes that ANY observationally
/// equivalent program must move across the memory<->L2 boundary, however
/// it is scheduled, fused, contracted or store-eliminated. Per array it
/// is the union of
///
///  - the initial-read region: elements read before any write of the
///    same element could have covered them. A read claims its box only
///    when it provably executes (unguarded) and provably touches every
///    element of the box; every write that may precede the read
///    subtracts its (over-approximated) box, except a same-statement
///    write with byte-identical subscripts whose iteration->element map
///    is injective over the full nest -- there the read of each element
///    happens in the unique iteration that writes it, before the store.
///  - the output-write region: elements of arrays marked as program
///    outputs that are definitely written (unguarded, exactly-covering
///    boxes only).
///
/// compute_data_floor(P) <= compute_traffic_bound(Q).lower_bound_bytes
/// <= memsim-measured traffic of Q for every program Q equivalent to P
/// whose initial reads are live and whose output writes store fresh
/// values (true for every bundled workload; an adversarial program that
/// rewrites an output with its initial contents can beat the output
/// term). The autotuner's optimality certificates are gaps against this
/// floor (docs/AUTOTUNE.md).
struct DataFloor {
  std::vector<FloorRegion> arrays;
  /// Sum of per-array floor bytes.
  std::int64_t floor_bytes = 0;

  /// Human-readable table of the per-array regions and the total.
  std::string render() const;
};

DataFloor compute_data_floor(const ir::Program& program);

}  // namespace bwc::verify
