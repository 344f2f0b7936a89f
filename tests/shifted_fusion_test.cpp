// Tests for fusion with loop alignment (shifted fusion).
#include <gtest/gtest.h>

#include <cmath>

#include "bwc/analysis/dependence.h"
#include "bwc/core/optimizer.h"
#include "bwc/fusion/solvers.h"
#include "bwc/ir/dsl.h"
#include "bwc/ir/printer.h"
#include "bwc/model/measure.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/prng.h"
#include "bwc/transform/fuse.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc {
namespace {

using namespace ir::dsl;  // NOLINT

void expect_preserved(const ir::Program& a, const ir::Program& b) {
  const double ca = runtime::execute(a).checksum;
  const double cb = runtime::execute(b).checksum;
  EXPECT_NEAR(ca, cb, 1e-9 * (std::abs(ca) + 1.0))
      << "transformed:\n" << ir::to_string(b);
}

/// Producer a[i] = f(b); consumer reads a[i + off].
ir::Program offset_pair_program(std::int64_t off, std::int64_t n = 64) {
  ir::Program p("pair");
  const ir::ArrayId a = p.add_array("a", {n + 16});
  const ir::ArrayId b = p.add_array("b", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, n, assign(a, {v("i")}, at(b, v("i")) * lit(2.0))));
  p.append(loop("i", 2, n,
                assign("s", sref("s") + at(a, v("i", off)))));
  return p;
}

TEST(MinFusionShift, ZeroForAlignedPairs) {
  const auto s = analysis::summarize_program(offset_pair_program(0));
  EXPECT_EQ(analysis::min_fusion_shift(s[0], s[1]), 0);
}

TEST(MinFusionShift, MatchesForwardDistance) {
  for (std::int64_t off : {1, 2, 5}) {
    const auto s = analysis::summarize_program(offset_pair_program(off));
    EXPECT_EQ(analysis::min_fusion_shift(s[0], s[1]), off) << off;
  }
}

TEST(MinFusionShift, BackwardOffsetsNeedNoShift) {
  const auto s = analysis::summarize_program(offset_pair_program(-2));
  EXPECT_EQ(analysis::min_fusion_shift(s[0], s[1]), 0);
}

TEST(MinFusionShift, RespectsMaxShift) {
  const auto s = analysis::summarize_program(offset_pair_program(5));
  EXPECT_FALSE(analysis::min_fusion_shift(s[0], s[1], 4).has_value());
}

TEST(MinFusionShift, RejectsMismatchedShapes) {
  ir::Program p("t");
  const ir::ArrayId a = p.add_array("a", {64, 64});
  p.add_scalar("s");
  p.append(loop("j", 1, 8, loop("i", 1, 8,
                                assign(a, {v("i"), v("j")}, lit(1.0)))));
  p.append(loop("i", 1, 8,
                assign("s", sref("s") + at(a, v("i"), k(1)))));
  const auto s = analysis::summarize_program(p);
  EXPECT_FALSE(analysis::min_fusion_shift(s[0], s[1]).has_value());
}

TEST(ShiftedFusion, GraphMarksShiftedPairs) {
  const ir::Program p = offset_pair_program(1);
  fusion::FusionGraphOptions opts;
  opts.allow_shifted_fusion = true;
  const auto g = fusion::build_fusion_graph(p, opts);
  EXPECT_FALSE(g.is_preventing(0, 1));
  EXPECT_EQ(g.pair(0, 1).compat, analysis::FusionCompat::kShifted);
  EXPECT_EQ(g.pair(0, 1).min_shift, 1);
  // Without the option the pair stays preventing.
  const auto g0 = fusion::build_fusion_graph(p);
  EXPECT_TRUE(g0.is_preventing(0, 1));
}

TEST(ShiftedFusion, PairSemanticsAcrossOffsets) {
  for (std::int64_t off : {1, 2, 3}) {
    const ir::Program p = offset_pair_program(off);
    fusion::FusionGraphOptions gopts;
    gopts.allow_shifted_fusion = true;
    const auto g = fusion::build_fusion_graph(p, gopts);
    const auto plan = fusion::exact_enumeration(g);
    EXPECT_EQ(plan.num_partitions, 1) << off;
    const ir::Program fused = transform::apply_fusion(p, g, plan);
    expect_preserved(p, fused);
    EXPECT_EQ(fused.top_loop_indices().size(), 1u);
  }
}

TEST(ShiftedFusion, JacobiChainFusesCompletely) {
  // The headline win: without alignment no adjacent sweeps fuse; with it
  // the whole chain (plus the norm) becomes one software-pipelined loop.
  const ir::Program p = workloads::jacobi_chain(96, 4);
  fusion::FusionGraphOptions gopts;
  gopts.allow_shifted_fusion = true;
  const auto g = fusion::build_fusion_graph(p, gopts);
  EXPECT_TRUE(g.preventing.empty());
  const auto plan = fusion::best_fusion(g);
  EXPECT_EQ(plan.num_partitions, 1);
  const ir::Program fused = transform::apply_fusion(p, g, plan);
  expect_preserved(p, fused);
}

TEST(ShiftedFusion, JacobiTrafficDrops) {
  const ir::Program p = workloads::jacobi_chain(100000, 4);
  const auto machine = machine::origin2000_r10k().scaled(16);
  const auto plain = model::measure(
      core::optimize(p, "fuse(solver=best)").program, machine);
  const auto shifted = model::measure(
      core::optimize(p, "fuse(solver=best,shift=1)").program, machine);
  EXPECT_NEAR(plain.exec.checksum, shifted.exec.checksum,
              1e-9 * std::abs(plain.exec.checksum));
  // One fused sweep streams u/v once instead of once per sweep.
  EXPECT_LT(shifted.profile.memory_bytes(),
            0.55 * static_cast<double>(plain.profile.memory_bytes()));
}

TEST(ShiftedFusion, ChainShiftsAccumulate) {
  // Three producers chained with +1 offsets: shifts must accumulate 0,1,2.
  const std::int64_t n = 64;
  ir::Program p("chain");
  const ir::ArrayId a = p.add_array("a", {n + 16});
  const ir::ArrayId b = p.add_array("b", {n + 16});
  const ir::ArrayId c = p.add_array("c", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, n, assign(a, {v("i")}, lvar("i") * lit(0.5))));
  p.append(loop("i", 2, n, assign(b, {v("i")}, at(a, v("i", 1)) + lit(1.0))));
  p.append(loop("i", 2, n, assign("s", sref("s") + at(b, v("i", 1)))));
  (void)c;
  fusion::FusionGraphOptions gopts;
  gopts.allow_shifted_fusion = true;
  const auto g = fusion::build_fusion_graph(p, gopts);
  // Pairwise minimal shifts: adjacent pairs need 1; loops 0 and 2 share no
  // data directly (0), so the codegen's forward pass must accumulate the
  // chain to shifts {0, 1, 2} -- verified by the semantics check below.
  EXPECT_EQ(g.pair(0, 1).min_shift, 1);
  EXPECT_EQ(g.pair(1, 2).min_shift, 1);
  EXPECT_EQ(g.pair(0, 2).min_shift, 0);
  const auto plan = fusion::exact_enumeration(g);
  EXPECT_EQ(plan.num_partitions, 1);
  expect_preserved(p, transform::apply_fusion(p, g, plan));
}

TEST(ShiftedFusion, RandomProgramsPreserveSemantics) {
  Prng rng(987654);
  for (int trial = 0; trial < 25; ++trial) {
    workloads::RandomProgramParams params;
    params.num_loops = 3 + static_cast<int>(rng.uniform(4));
    params.num_arrays = 2 + static_cast<int>(rng.uniform(3));
    params.n = 48;
    const ir::Program p = workloads::random_program(rng, params);
    const auto r = core::optimize(
        p, "fuse(solver=best,shift=1),reduce-storage,eliminate-stores");
    expect_preserved(p, r.program);
  }
}

TEST(ShiftedFusion, OptimizerOptionOffMatchesBaseline) {
  const ir::Program p = offset_pair_program(1);
  const auto plain = core::optimize(p);
  EXPECT_EQ(plain.plan.num_partitions, 2);  // preventing without alignment
  const auto aligned = core::optimize(
      p, "fuse(solver=best,shift=1),reduce-storage,eliminate-stores");
  EXPECT_EQ(aligned.plan.num_partitions, 1);
}

}  // namespace
}  // namespace bwc
