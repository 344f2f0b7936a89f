// Layout transforms: rewrite ArrayLayout declarations, never statements.
//
// The fourth transform family. Where fusion and storage reduction rewrite
// the computation, these transforms change only where elements sit in the
// simulated address space (ir::ArrayLayout), leaving every statement --
// and therefore every computed value -- untouched.
// Legality is structural (verify::prove_layout_change); profitability is
// judged against the layout-aware line-traffic estimator
// (analysis/layout_traffic.h) for the configured cache geometry.
//
//   transpose_layouts  permute a multi-dimensional array's storage order
//                      so the dimension the innermost loops walk is the
//                      fastest-varying one (row-major <-> column-major).
//
//   regroup_layouts    interleave always-co-accessed same-shape 1-D
//                      arrays into one allocation (SoA -> AoS) by
//                      assigning them a shared interleave group: k
//                      conflicting streams collapse into one. This is
//                      the inter-array data regrouping of the paper's
//                      Section 4, with no subscript rewrite and no
//                      packing copy.
//
//   pad_layouts        add dead element slots: inter-dimension padding
//                      breaks power-of-two strides that collapse onto few
//                      cache sets; end-of-allocation padding staggers the
//                      base addresses of co-streamed arrays that share a
//                      set phase.
#pragma once

#include <string>
#include <vector>

#include "bwc/analysis/layout_traffic.h"
#include "bwc/ir/program.h"

namespace bwc::transform {

struct LayoutResult {
  ir::Program program;
  /// One line per layout actually changed; empty when nothing applied.
  std::vector<std::string> actions;
};

/// Permute storage order of multi-dimensional arrays toward the
/// dominant (trip-weighted) innermost access dimension. Skips grouped
/// or already-padded arrays.
LayoutResult transpose_layouts(const ir::Program& program);

/// Assign fresh interleave groups to sets of 1-D arrays with identical
/// shape, padding and accessing statements (and matching written-ness).
LayoutResult regroup_layouts(const ir::Program& program);

/// Pad layouts to break set-mapping conflicts reported by the estimator
/// under geometry `g`. Greedy: each candidate pad is kept only when it
/// strictly lowers the estimated line traffic.
LayoutResult pad_layouts(const ir::Program& program,
                         const analysis::LayoutGeometry& g = {});

}  // namespace bwc::transform
