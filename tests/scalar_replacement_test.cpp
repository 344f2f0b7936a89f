// Scalar replacement tests: stencil rotation, safety exclusions, and the
// register-traffic payoff.
#include <gtest/gtest.h>

#include <cmath>

#include "bwc/ir/dsl.h"
#include "bwc/ir/printer.h"
#include "bwc/model/measure.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/prng.h"
#include "bwc/transform/scalar_replacement.h"
#include "bwc/workloads/extra_programs.h"
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
      << "transformed:\n" << ir::to_string(b);
}

Program stencil(std::int64_t n) {
  Program p("stencil");
  const ArrayId a = p.add_array("a", {n + 2});
  const ArrayId out = p.add_array("out", {n + 2});
  p.mark_output_array(out);
  p.append(loop("i", 2, n,
                assign(out, {v("i")},
                       at(a, v("i", -1)) + at(a, v("i")) + at(a, v("i", 1)))));
  return p;
}

TEST(ScalarReplacement, RotatesThreePointStencil) {
  const Program p = stencil(64);
  const ScalarReplacementResult r = replace_scalars(p);
  ASSERT_EQ(r.actions.size(), 1u);
  EXPECT_EQ(r.loads_removed, 2);
  expect_preserved(p, r.program);
}

TEST(ScalarReplacement, LoadCountDropsToOnePerIteration) {
  const std::int64_t n = 1000;
  const Program p = stencil(n);
  const ScalarReplacementResult r = replace_scalars(p);
  const auto before = runtime::execute(p);
  const auto after = runtime::execute(r.program);
  // 3 loads/iter -> 1 load/iter (+2 prologue loads).
  EXPECT_EQ(before.loads, 3u * (n - 1));
  EXPECT_EQ(after.loads, (n - 1) + 2u);
  // Stores unchanged.
  EXPECT_EQ(after.stores, before.stores);
}

TEST(ScalarReplacement, RegisterTrafficDrops) {
  const Program p = stencil(50000);
  const ScalarReplacementResult r = replace_scalars(p);
  const auto machine = machine::origin2000_r10k().scaled(16);
  const auto before = model::measure(p, machine);
  const auto after = model::measure(r.program, machine);
  // Register boundary traffic falls by ~half; memory traffic unchanged.
  EXPECT_LT(after.profile.register_bytes(),
            0.6 * static_cast<double>(before.profile.register_bytes()));
  EXPECT_NEAR(static_cast<double>(after.profile.memory_bytes()),
              static_cast<double>(before.profile.memory_bytes()),
              0.02 * static_cast<double>(before.profile.memory_bytes()));
}

TEST(ScalarReplacement, SkipsWrittenArrays) {
  Program p("t");
  const ArrayId a = p.add_array("a", {32});
  p.mark_output_array(a);
  p.append(loop("i", 2, 30,
                assign(a, {v("i")}, at(a, v("i", -1)) + at(a, v("i", 1)))));
  EXPECT_TRUE(replace_scalars(p).actions.empty());
}

TEST(ScalarReplacement, SkipsGuardedReferences) {
  Program p("t");
  const ArrayId a = p.add_array("a", {32});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, 30,
                when(ir::CmpOp::kGe, v("i"), k(3),
                     assign("s", sref("s") + at(a, v("i", -1)) +
                                     at(a, v("i"))))));
  EXPECT_TRUE(replace_scalars(p).actions.empty());
}

TEST(ScalarReplacement, SkipsLoopsWithUnreachableReads) {
  // a[i+5] sits under a guard no iteration takes (then, in the second
  // loop, in a loop that never runs), so the references the decision
  // sees never include it; rotating a's other reads would send that
  // offset, which is outside the plan, to the rewrite.
  for (const bool empty_loop : {false, true}) {
    Program p("t");
    const ArrayId a = p.add_array("a", {40});
    const ArrayId out = p.add_array("out", {40});
    p.mark_output_array(out);
    ir::StmtPtr unreachable =
        empty_loop ? when(ir::CmpOp::kGe, v("i"), k(3),
                          loop("k", 2, 1,
                               assign(out, {v("i")}, at(a, v("i", 5)))))
                   : when(ir::CmpOp::kGt, v("i"), k(30),
                          assign(out, {v("i")}, at(a, v("i", 5))));
    p.append(loop("i", 2, 30,
                  assign(out, {v("i")},
                         at(a, v("i", -1)) + at(a, v("i")) + at(a, v("i", 1))),
                  std::move(unreachable)));
    const ScalarReplacementResult r = replace_scalars(p);
    EXPECT_TRUE(r.actions.empty()) << ir::to_string(r.program);
    expect_preserved(p, r.program);
  }
}

TEST(ScalarReplacement, RotatesUnderNonNarrowingGuards) {
  // i >= 1 holds at every iteration of i = 2..30: the guarded reads run at
  // every iteration, so hoisting their loads evaluates no new subscript.
  Program p("t");
  const ArrayId a = p.add_array("a", {32});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, 30,
                when(ir::CmpOp::kGe, v("i"), k(1),
                     assign("s", sref("s") + at(a, v("i", -1)) +
                                     at(a, v("i"))))));
  const ScalarReplacementResult r = replace_scalars(p);
  EXPECT_EQ(r.loads_removed, 1);
  expect_preserved(p, r.program);
}

TEST(ScalarReplacement, SkipsSingleOffsetReads) {
  Program p("t");
  const ArrayId a = p.add_array("a", {32});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 32, assign("s", sref("s") + at(a, v("i")))));
  EXPECT_TRUE(replace_scalars(p).actions.empty());
}

TEST(ScalarReplacement, MultipleArraysInOneLoop) {
  Program p("t");
  const std::int64_t n = 40;
  const ArrayId a = p.add_array("a", {n + 2});
  const ArrayId b = p.add_array("b", {n + 2});
  const ArrayId out = p.add_array("out", {n + 2});
  p.mark_output_array(out);
  p.append(loop("i", 2, n,
                assign(out, {v("i")},
                       (at(a, v("i", -1)) + at(a, v("i", 1))) *
                           (at(b, v("i")) - at(b, v("i", -1))))));
  const ScalarReplacementResult r = replace_scalars(p);
  EXPECT_EQ(r.actions.size(), 2u);
  expect_preserved(p, r.program);
}

TEST(ScalarReplacement, JacobiChainSweepsAllRotate) {
  const Program p = workloads::jacobi_chain(64, 4);
  const ScalarReplacementResult r = replace_scalars(p);
  // Each of the 4 sweeps reads its source at 3 offsets.
  EXPECT_EQ(r.actions.size(), 4u);
  EXPECT_EQ(r.loads_removed, 8);
  expect_preserved(p, r.program);
}

TEST(ScalarReplacement, RandomProgramsSafe) {
  Prng rng(60606);
  for (int trial = 0; trial < 15; ++trial) {
    const Program p = workloads::random_program(rng);
    expect_preserved(p, replace_scalars(p).program);
  }
}

}  // namespace
}  // namespace bwc::transform
