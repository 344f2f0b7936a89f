// Pipeline tests over realistic multi-loop programs (Jacobi chains, ADI
// sweeps, image chains, scalar reductions split across loops): fusion
// legality in the presence of stencil offsets and reductions,
// full-pipeline semantics, and profitability.
#include <gtest/gtest.h>

#include <cmath>

#include "bwc/analysis/access_summary.h"
#include "bwc/core/optimizer.h"
#include "bwc/fusion/solvers.h"
#include "bwc/ir/dsl.h"
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
  const ir::ArrayId blur = r.program.array_id("blur");
  ASSERT_GE(blur, 0);
  for (const auto& s : analysis::summarize_statements(r.program))
    EXPECT_EQ(s.arrays.count(blur), 0u) << ir::to_string(r.program);
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

// -- Scalar reductions across loops -------------------------------------------

using namespace ir::dsl;  // NOLINT

/// Two loops updating `m` from x and y: `m = m op e` (or `m = e op m` when
/// `self_last`), optionally after `m = 0`. With `one_loop` both updates
/// share one loop instead (a distribution candidate).
ir::Program two_reductions(ir::BinOp op, bool self_last, bool init,
                           bool one_loop = false) {
  const std::int64_t n = 4096;
  ir::Program p("reductions");
  const ir::ArrayId x = p.add_array("x", {n});
  const ir::ArrayId y = p.add_array("y", {n});
  p.add_scalar("m");
  p.mark_output_scalar("m");
  const auto update = [&](ir::ExprPtr e) {
    return assign("m", self_last
                           ? ir::make_binary(op, std::move(e), sref("m"))
                           : ir::make_binary(op, sref("m"), std::move(e)));
  };
  if (init) p.append(assign("m", lit(0.0)));
  if (one_loop) {
    p.append(loop("i", 1, n, update(at(x, v("i")) * lit(2.0)),
                  update(at(y, v("i")) + lit(1.0))));
  } else {
    p.append(loop("i", 1, n, update(at(x, v("i")) * lit(2.0))));
    p.append(loop("i", 1, n, update(at(y, v("i")) + lit(1.0))));
  }
  return p;
}

// `m = e min m` is the same reduction as `m = m min e`: the loops fuse
// either way, and both the static prover and the trace validator certify.
TEST(ScalarReductions, MirroredMinFusesLikeSelfFirst) {
  for (const bool self_last : {false, true}) {
    const ir::Program p = two_reductions(ir::BinOp::kMin, self_last, false);
    for (const auto mode : {pass::StaticVerifyMode::kOn,
                            pass::StaticVerifyMode::kOff}) {
      pass::PipelineOptions opts;
      opts.static_verify = mode;
      const auto r = core::optimize(p, core::kDefaultPipeline, opts);
      const pass::PassReport& fuse = r.pipeline.passes.at(0);
      EXPECT_TRUE(fuse.changed) << "self_last " << self_last;
      EXPECT_EQ(r.program.top_loop_indices().size(), 1u);
      EXPECT_EQ(fuse.verify.check, mode == pass::StaticVerifyMode::kOn
                                       ? "static-reschedule"
                                       : "translation");
      EXPECT_FALSE(fuse.verify.skipped);
      expect_preserved(p, r.program);
    }
  }
}

// An initializing `m = 0` makes m's update order observable to both
// verifiers, so neither fusion nor distribution may reorder the updates.
// Without it the reductions commute and the loops fuse (or split).
TEST(ScalarReductions, InitializedReductionsKeepTheirOrder) {
  for (const bool init : {true, false}) {
    const ir::Program p = two_reductions(ir::BinOp::kAdd, false, init);
    const auto fused = core::optimize(p);
    EXPECT_EQ(fused.program.top_loop_indices().size(), init ? 2u : 1u);
    expect_preserved(p, fused.program);

    const ir::Program q =
        two_reductions(ir::BinOp::kAdd, false, init, /*one_loop=*/true);
    const auto split = core::optimize(q, "distribute");
    EXPECT_EQ(split.program.top_loop_indices().size(), init ? 1u : 2u);
    expect_preserved(q, split.program);
  }
}

}  // namespace
}  // namespace bwc
