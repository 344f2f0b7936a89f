// Loop distribution tests: legality, semantics, and the
// distribute-then-refuse normalization property.
#include <gtest/gtest.h>

#include <cmath>

#include "bwc/core/optimizer.h"
#include "bwc/fusion/solvers.h"
#include "bwc/ir/dsl.h"
#include "bwc/ir/printer.h"
#include "bwc/model/measure.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/prng.h"
#include "bwc/transform/distribute.h"
#include "bwc/transform/fuse.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc::transform {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::Program;

void expect_preserved(const Program& a, const Program& b) {
  const double ca = runtime::execute(a).checksum;
  const double cb = runtime::execute(b).checksum;
  EXPECT_NEAR(ca, cb, 1e-9 * (std::abs(ca) + 1.0))
      << "distributed:\n" << ir::to_string(b);
}

TEST(Distribute, SplitsIndependentStatements) {
  Program p("t");
  const ArrayId a = p.add_array("a", {32});
  const ArrayId b = p.add_array("b", {32});
  p.mark_output_array(a);
  p.mark_output_array(b);
  p.append(loop("i", 1, 32,
                assign(a, {v("i")}, lvar("i") * lit(1.5)),
                assign(b, {v("i")}, lvar("i") + lit(3.0))));
  const DistributionResult r = distribute_loops(p);
  EXPECT_EQ(r.loops_before, 1);
  EXPECT_EQ(r.loops_after, 2);
  expect_preserved(p, r.program);
}

TEST(Distribute, ForwardFlowSplits) {
  // a[i] produced then consumed at the same iteration: sequencing the
  // producer loop fully first is legal.
  Program p("t");
  const ArrayId a = p.add_array("a", {32});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 32,
                assign(a, {v("i")}, lvar("i")),
                assign("s", sref("s") + at(a, v("i")))));
  const DistributionResult r = distribute_loops(p);
  EXPECT_EQ(r.loops_after, 2);
  expect_preserved(p, r.program);
}

TEST(Distribute, BackwardCarriedDependenceBlocksSplit) {
  // Statement 1 writes a[i]; statement 2 reads a[i+1]. Interleaved, the
  // read sees the *original* a[i+1] (not yet written); sequenced, it would
  // see the updated value. Must stay together.
  Program p("t");
  const ArrayId a = p.add_array("a", {40});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, 38,
                assign(a, {v("i")}, lvar("i") * lit(0.1)),
                assign("s", sref("s") + at(a, v("i", 1)))));
  const DistributionResult r = distribute_loops(p);
  EXPECT_EQ(r.loops_after, 1);
  expect_preserved(p, r.program);
}

TEST(Distribute, AntiDependenceWithForwardOffsetSplits) {
  // Reading a[i+1] then writing a[i]: every read still precedes the write
  // of its element in both orders -- splitting is legal.
  Program p("t");
  const ArrayId a = p.add_array("a", {40});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, 38,
                assign("s", sref("s") + at(a, v("i", 1))),
                assign(a, {v("i")}, lvar("i") * lit(0.1))));
  const DistributionResult r = distribute_loops(p);
  EXPECT_EQ(r.loops_after, 2);
  expect_preserved(p, r.program);
}

TEST(Distribute, ScalarTemporaryBlocksSplit) {
  // t carries a value from statement 1 to statement 2 each iteration.
  Program p("t");
  const ArrayId a = p.add_array("a", {32});
  p.add_scalar("t");
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 32,
                assign("t", at(a, v("i")) * lit(2.0)),
                assign("s", sref("s") + sref("t"))));
  const DistributionResult r = distribute_loops(p);
  EXPECT_EQ(r.loops_after, 1);
  expect_preserved(p, r.program);
}

TEST(Distribute, MixedBoundaries) {
  // s1 -> s2 glued (scalar temp), s3 independent: split once.
  Program p("t");
  const ArrayId a = p.add_array("a", {32});
  const ArrayId b = p.add_array("b", {32});
  p.add_scalar("t");
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.mark_output_array(b);
  p.append(loop("i", 1, 32,
                assign("t", at(a, v("i")) + lit(1.0)),
                assign("s", sref("s") + sref("t")),
                assign(b, {v("i")}, lvar("i"))));
  const DistributionResult r = distribute_loops(p);
  EXPECT_EQ(r.loops_after, 2);
  expect_preserved(p, r.program);
}

TEST(Distribute, TwoDeepNestsReplicateShells) {
  Program p("t");
  const ArrayId a = p.add_array("a", {8, 8});
  const ArrayId b = p.add_array("b", {8, 8});
  p.mark_output_array(a);
  p.mark_output_array(b);
  p.append(loop("j", 1, 8,
                loop("i", 1, 8,
                     assign(a, {v("i"), v("j")}, lvar("i") + lvar("j")),
                     assign(b, {v("i"), v("j")}, lvar("i") * lvar("j")))));
  const DistributionResult r = distribute_loops(p);
  EXPECT_EQ(r.loops_after, 2);
  const auto loops = r.program.top_loop_indices();
  for (int idx : loops) {
    EXPECT_EQ(r.program.top()[static_cast<std::size_t>(idx)]->loop->var, "j");
  }
  expect_preserved(p, r.program);
}

TEST(Distribute, UndoesFusion) {
  // Fuse blur_sharpen, then distribute: the statement-per-loop structure
  // returns (the fused loop splits back apart), and traffic rises.
  const Program p = workloads::blur_sharpen(100000);
  const Program fused = core::optimize(p, "fuse(solver=best)").program;
  EXPECT_EQ(fused.top_loop_indices().size(), 1u);
  const DistributionResult r = distribute_loops(fused);
  EXPECT_GE(r.loops_after, 4);
  expect_preserved(p, r.program);

  const auto machine = machine::origin2000_r10k().scaled(16);
  EXPECT_GT(model::measure(r.program, machine).profile.memory_bytes(),
            model::measure(fused, machine).profile.memory_bytes());
}

TEST(Distribute, NormalizationRoundTrip) {
  // distribute -> refuse lands at the same (or better) fusion cost as
  // fusing the original directly: distribution exposes every legal split
  // so the solver starts from a clean slate.
  const Program p = workloads::blur_sharpen(512);
  const auto direct = fusion::best_fusion(fusion::build_fusion_graph(p));
  const DistributionResult d = distribute_loops(p);
  const auto renorm =
      fusion::best_fusion(fusion::build_fusion_graph(d.program));
  EXPECT_LE(renorm.cost, direct.cost);
  expect_preserved(p, apply_fusion(d.program,
                                   fusion::build_fusion_graph(d.program),
                                   renorm));
}

TEST(Distribute, RandomProgramsPreserveSemantics) {
  Prng rng(1357911);
  for (int trial = 0; trial < 15; ++trial) {
    const Program p = workloads::random_program(rng);
    // First fuse (creating multi-statement loops), then distribute.
    const Program fused = core::optimize(p).program;
    const DistributionResult r = distribute_loops(fused);
    expect_preserved(p, r.program);
  }
}

TEST(Distribute, GuardedFusedProgramsSurvive) {
  const Program p = workloads::fig6_original(16);
  const Program fused = core::optimize(p, "fuse(solver=best)").program;
  const DistributionResult r = distribute_loops(fused);
  expect_preserved(p, r.program);
}

}  // namespace
}  // namespace bwc::transform
