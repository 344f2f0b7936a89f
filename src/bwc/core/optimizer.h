// core::optimize -- the paper's compiler strategy as one entry point, a
// thin wrapper over the bwc::pass pipeline machinery.
//
// Which passes run is always a PipelineSpec string (docs/PIPELINE.md has
// the grammar and the pass catalogue). The default, kDefaultPipeline, is
// the paper's strategy: bandwidth-minimal loop fusion organizes the global
// computation to minimize total memory transfer (paper Section 3), storage
// reduction shrinks localized arrays, store elimination removes writebacks
// to arrays whose uses complete inside the fused loop. Interchange, scalar
// replacement and the layout passes -- inter-array regrouping
// (regroup-arrays) among them -- are opt-in entries of the same spec
// ("interchange,fuse(solver=exact),reduce-storage"). Per-pass
// facts (timing, IR deltas, predicted traffic deltas, verifier outcomes,
// machine-readable remarks) live in OptimizeResult::pipeline;
// PipelineReport::to_text renders them as the human-readable pass log.
#pragma once

#include <string>

#include "bwc/fusion/fusion_graph.h"
#include "bwc/ir/program.h"
#include "bwc/pass/pass_manager.h"
#include "bwc/pass/report.h"

namespace bwc::core {

/// The paper's pipeline: fusion, then storage reduction, then store
/// elimination.
inline constexpr char kDefaultPipeline[] =
    "fuse(solver=best),reduce-storage,eliminate-stores";

struct OptimizeResult {
  ir::Program program;
  /// Plan actually applied (empty assignment when fusion was skipped).
  fusion::FusionPlan plan;
  /// Structured per-pass reports: remarks, timing, IR and predicted
  /// memory-traffic deltas, verifier outcomes, analysis-cache counters.
  pass::PipelineReport pipeline;
};

/// Run the pipeline spec `passes` on a copy of `program` ("" runs no
/// passes). Throws bwc::Error on a malformed spec, a structurally invalid
/// input, or a pass its verifier check rejects (options.verify).
OptimizeResult optimize(const ir::Program& program,
                        const std::string& passes = kDefaultPipeline,
                        const pass::PipelineOptions& options = {});

}  // namespace bwc::core
