// Interpreter for the loop-program IR.
//
// Serves two purposes at once:
//  1. Semantics: computes the program's observable outputs (checksum over
//     declared outputs), which every compiler transformation must preserve.
//  2. Measurement: feeds the exact access stream into a memory-hierarchy
//     simulator and counts flops, yielding the ExecutionProfile that the
//     balance model consumes.
//
// Intrinsics f and g are fixed pure functions; input streams return
// deterministic values keyed by (stream, element index), so results are
// reproducible across runs and invariant under transformations that
// preserve which input elements feed which outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bwc/ir/program.h"
#include "bwc/machine/timing.h"
#include "bwc/memsim/hierarchy.h"

namespace bwc::runtime {

struct ExecOptions {
  /// Optional hierarchy; when null only semantics and flops are computed.
  memsim::MemoryHierarchy* hierarchy = nullptr;
  /// Compiled engine only (execute_compiled): batch stride-1 access runs
  /// into line-granular hierarchy accesses. Boundary traffic is preserved
  /// byte-for-byte (see recorder.h); disable to force per-element
  /// simulation. The reference interpreter ignores this flag.
  bool coalesce_accesses = true;
  /// Compiled engine only: worker threads for the parallel executor
  /// (parallel.h); must be at least 1. With cores > 1, fused stream loops
  /// certified free of cross-iteration dependences are chunked across a
  /// thread pool that computes their values, and the chunks' accesses
  /// replay into the shared hierarchy in chunk-index order -- results
  /// (checksums, scalars, counters, per-boundary traffic) are
  /// bit-identical to serial execution at any core count. The reference
  /// interpreter ignores this.
  int cores = 1;
  /// Compiled engine only: steady-state fast-forward for fused stream
  /// loops and for the rows of certified outer loops
  /// (runtime/fastforward.h). A stream loop's values run first, then its
  /// access stream replays period by period until memsim::PeriodDetector
  /// certifies the hierarchy's periodic fixpoint, and the remaining full
  /// periods advance analytically instead of being simulated; rows run
  /// whole, and once their fixpoint is certified the recorder only counts
  /// the accesses of the remaining full periods. Checksums, counts,
  /// boundary traffic and the final resident state are bit-identical
  /// either way: false selects the full-simulation reference that
  /// tests/fastforward_test.cpp compares against. Automatically inert on
  /// hierarchies that are not translation-invariant (page-randomized
  /// machines) and on loops without a uniform access step. The reference
  /// interpreter ignores this flag.
  bool fast_forward = true;
};

struct ExecResult {
  /// Sum over output scalars plus all elements of output arrays.
  double checksum = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  /// Valid when a hierarchy was provided; boundary traffic + flops.
  machine::ExecutionProfile profile;
  /// Final values of all scalars.
  std::map<std::string, double> scalars;
  /// Base address assigned to each array (by ArrayId).
  std::vector<std::uint64_t> array_bases;
  /// Steady-state fast-forward observability (compiled engine only):
  /// certified fast-forward events (one per stream loop, parallel chunk
  /// or row segment) and total loop iterations they skipped past
  /// simulation, a skipped row counting as one iteration of its loop.
  /// Zero when fast-forward is off, refused, or never certified.
  std::uint64_t fast_forward_events = 0;
  std::uint64_t fast_forwarded_iterations = 0;
};

/// Execute the program. Throws bwc::Error on out-of-bounds subscripts,
/// references to undeclared names, or malformed IR.
ExecResult execute(const ir::Program& program, const ExecOptions& opts = {});

/// The interpreter's pure intrinsics (exposed for tests).
double intrinsic_f(double x, double y);
double intrinsic_g(double x, double y);

/// Key under which an array's *initial* contents are generated: element k of
/// array `name` starts as ir::input_value(initial_key(name), k).
int initial_key(const std::string& array_name);

}  // namespace bwc::runtime
