// Pipeline tests over realistic multi-loop programs (Jacobi chains, ADI
// sweeps, image chains): fusion legality in the presence of stencil
// offsets, full-pipeline semantics, and profitability.
#include <gtest/gtest.h>

#include <cmath>

#include "bwc/analysis/liveness.h"
#include "bwc/core/optimizer.h"
#include "bwc/fusion/solvers.h"
#include "bwc/ir/printer.h"
#include "bwc/model/measure.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/transform/fuse.h"
#include "bwc/workloads/extra_programs.h"

namespace bwc {
namespace {

void expect_preserved(const ir::Program& a, const ir::Program& b) {
  const double ca = runtime::execute(a).checksum;
  const double cb = runtime::execute(b).checksum;
  EXPECT_NEAR(ca, cb, 1e-9 * (std::abs(ca) + 1.0))
      << "transformed:\n" << ir::to_string(b);
}

// -- Jacobi chain ---------------------------------------------------------------

TEST(JacobiChain, StencilOffsetsBlockAdjacentSweepFusion) {
  const ir::Program p = workloads::jacobi_chain(64, 4);
  const auto g = fusion::build_fusion_graph(p);
  // Sweep s+1 reads sweep s's output at offsets -1/0/+1; the +1 read makes
  // fusing adjacent sweeps illegal.
  ASSERT_GE(g.node_count(), 5);
  EXPECT_TRUE(g.is_preventing(0, 1));
  EXPECT_TRUE(g.is_preventing(1, 2));
  // Sweeps two apart write different arrays from what they read... they
  // share arrays with offset reads too; what must hold is plan validity.
  const auto plan = fusion::best_fusion(g);
  EXPECT_TRUE(fusion::plan_is_valid(g, plan.assignment));
}

TEST(JacobiChain, PipelinePreservesSemantics) {
  const ir::Program p = workloads::jacobi_chain(64, 4);
  const auto r = core::optimize(p);
  expect_preserved(p, r.program);
}

TEST(JacobiChain, NormLoopFusesWithLastSweep) {
  // The final norm reduction reads u at offset 0 only: it can fuse with
  // the last sweep that writes u.
  const ir::Program p = workloads::jacobi_chain(64, 4);
  const auto g = fusion::build_fusion_graph(p);
  const int last_sweep = 3;
  const int norm_loop = 4;
  EXPECT_FALSE(g.is_preventing(last_sweep, norm_loop));
  const auto plan = fusion::best_fusion(g);
  EXPECT_EQ(plan.assignment[static_cast<std::size_t>(last_sweep)],
            plan.assignment[static_cast<std::size_t>(norm_loop)]);
}

// -- ADI-like -------------------------------------------------------------------

TEST(AdiLike, RowAndColumnSweepsCannotFuse) {
  const ir::Program p = workloads::adi_like(16);
  const auto g = fusion::build_fusion_graph(p);
  // The row sweep's i-recurrence vs the column sweep's j-recurrence on the
  // same array reverse a dependence under any alignment.
  EXPECT_TRUE(g.is_preventing(0, 1));
}

TEST(AdiLike, ChecksumFusesWithColumnSweep) {
  const ir::Program p = workloads::adi_like(16);
  const auto g = fusion::build_fusion_graph(p);
  const auto plan = fusion::best_fusion(g);
  EXPECT_TRUE(fusion::plan_is_valid(g, plan.assignment));
  EXPECT_LT(plan.num_partitions, g.node_count());  // something fused
  const ir::Program fused = transform::apply_fusion(p, g, plan);
  expect_preserved(p, fused);
}

TEST(AdiLike, FullPipelineSemantics) {
  const ir::Program p = workloads::adi_like(20);
  for (const std::string solver : {"best", "greedy", "bisection"}) {
    expect_preserved(
        p, core::optimize(p, "fuse(solver=" + solver +
                                 "),reduce-storage,eliminate-stores")
               .program);
  }
}

// -- Blur/sharpen chain -----------------------------------------------------------

TEST(BlurSharpen, ChainFusesAndContracts) {
  const ir::Program p = workloads::blur_sharpen(128);
  const auto r = core::optimize(p);
  expect_preserved(p, r.program);
  // blur and diff are intermediates; after fusion they contract and their
  // stores disappear from the referenced set. img and out must survive
  // (inputs/outputs).
  const auto live = analysis::analyze_liveness(r.program);
  bool blur_gone = true;
  for (int a = 0; a < r.program.array_count(); ++a) {
    if (r.program.array(a).name == "blur" &&
        (!live[static_cast<std::size_t>(a)].reading_stmts.empty() ||
         !live[static_cast<std::size_t>(a)].writing_stmts.empty()))
      blur_gone = false;
  }
  EXPECT_TRUE(blur_gone) << ir::to_string(r.program);
}

TEST(BlurSharpen, TrafficDropsSubstantially) {
  const ir::Program p = workloads::blur_sharpen(100000);
  const auto r = core::optimize(p);
  const auto machine = machine::origin2000_r10k().scaled(16);
  const auto before = model::measure(p, machine);
  const auto after = model::measure(r.program, machine);
  EXPECT_LT(after.profile.memory_bytes(),
            before.profile.memory_bytes() / 2);
  EXPECT_NEAR(before.exec.checksum, after.exec.checksum,
              1e-9 * std::abs(before.exec.checksum));
}

TEST(BlurSharpen, BlurFusionBlockedByForwardOffset) {
  // blur reads img[i+1]; diff/out read img[i]: all loops over the same
  // range. blur -> diff is offset-0 flow (fusable); check the graph shape.
  const ir::Program p = workloads::blur_sharpen(64);
  const auto g = fusion::build_fusion_graph(p);
  EXPECT_FALSE(g.is_preventing(0, 1));
  EXPECT_FALSE(g.is_preventing(1, 2));
  EXPECT_FALSE(g.is_preventing(2, 3));
}

// -- Reduction cascade -------------------------------------------------------------

TEST(ReductionCascade, AllKernelsFuseIntoOnePass) {
  const ir::Program p = workloads::reduction_cascade(256, 5);
  const auto g = fusion::build_fusion_graph(p);
  const auto plan = fusion::best_fusion(g);
  EXPECT_EQ(plan.num_partitions, 1);
  EXPECT_EQ(plan.cost, 1);  // the single shared input array
  expect_preserved(p, transform::apply_fusion(p, g, plan));
}

TEST(ReductionCascade, TrafficScalesDownByKernelCount) {
  const int kernels = 6;
  const ir::Program p = workloads::reduction_cascade(100000, kernels);
  const auto r = core::optimize(p);
  const auto machine = machine::origin2000_r10k().scaled(16);
  const double before =
      static_cast<double>(model::measure(p, machine).profile.memory_bytes());
  const double after = static_cast<double>(
      model::measure(r.program, machine).profile.memory_bytes());
  EXPECT_NEAR(before / after, kernels, 0.5);
}

}  // namespace
}  // namespace bwc
