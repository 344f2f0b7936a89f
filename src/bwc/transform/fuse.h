// Loop fusion code generation: apply a FusionPlan to a Program.
//
// Each partition's loops are merged into a single loop nest executing the
// member bodies in program order. Members whose outer ranges differ are
// guarded (the paper's Figure 6(b) "if (j<=N-1) ... else ..." shape);
// members one level shallower are embedded at a single outer iteration
// (e.g. a boundary fix-up loop runs at j == N).
#pragma once

#include "bwc/fusion/fusion_graph.h"
#include "bwc/ir/program.h"

namespace bwc::transform {

/// Produce the fused program. `graph` must have been built from `program`
/// and `plan` must be valid for it (finish_plan output). Throws bwc::Error
/// when a partition's members cannot be structurally merged.
ir::Program apply_fusion(const ir::Program& program,
                         const fusion::FusionGraph& graph,
                         const fusion::FusionPlan& plan);

}  // namespace bwc::transform
