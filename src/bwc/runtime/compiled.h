// Compiled execution engine: replays a lowered program (lowering.h)
// through a tight dispatch loop.
//
// Produces bit-identical results to the reference interpreter
// (interpreter.h) -- same checksums, flop/load/store counts, scalar
// values, array bases and per-boundary traffic -- while avoiding all
// per-access name lookups and heap allocation. With a memory hierarchy
// attached it always coalesces stride-1 access runs into line-granular
// batches (see recorder.h), which preserves boundary traffic
// byte-for-byte but costs one CacheLevel::access per cache line instead
// of one per element.
//
// The reference interpreter remains the semantics oracle and the
// per-element simulation; the differential test
// (tests/compiled_runtime_test.cpp) holds the two engines identical over
// the paper programs, the extra pipelines and a seeded random-program
// corpus.
#pragma once

#include "bwc/ir/program.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/lowering.h"

namespace bwc::runtime {

/// Lower and execute in one call. Semantically identical to execute(),
/// faster.
ExecResult execute_compiled(const ir::Program& program,
                            const ExecOptions& opts = {});

/// Execute an already-lowered program (amortizes lower() across repeated
/// runs, e.g. steady-state measurement or benchmarking loops).
ExecResult execute_lowered(const LoweredProgram& lowered,
                           const ExecOptions& opts = {});

}  // namespace bwc::runtime
