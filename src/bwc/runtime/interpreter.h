// Interpreter for the loop-program IR.
//
// Serves two purposes at once:
//  1. Semantics: computes the program's observable outputs (checksum over
//     declared outputs), which every compiler transformation must preserve.
//  2. Measurement: feeds the exact access stream into a memory-hierarchy
//     simulator and counts flops, yielding the ExecutionProfile that the
//     balance model consumes. It simulates every access element by
//     element, so it is the oracle the compiled engines (compiled.h,
//     codegen.h), which coalesce runs and fast-forward periods, are held
//     bit-identical to.
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
  /// The compiled engines (execute_compiled, execute_native) batch
  /// stride-1 access runs into line-granular hierarchy accesses, which
  /// preserves boundary traffic byte-for-byte (see recorder.h); the
  /// reference interpreter simulates every element.
  memsim::MemoryHierarchy* hierarchy = nullptr;
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
  /// Ignored by every engine: replay runs on the calling thread at any
  /// core count, and a machine's core count is a timing-model parameter
  /// only (machine::MachineModel::core_count). The field stays so that
  /// callers which still set it keep compiling.
  int cores = 1;
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
  /// certified fast-forward events (one per stream loop or row segment)
  /// and total loop iterations they skipped past simulation, a skipped
  /// row counting as one iteration of its loop.
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
