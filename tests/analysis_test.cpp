#include <gtest/gtest.h>

#include "bwc/analysis/access_summary.h"
#include "bwc/analysis/dependence.h"
#include "bwc/ir/dsl.h"
#include "bwc/support/error.h"

namespace bwc::analysis {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::Program;

// -- Access summaries -----------------------------------------------------------

TEST(AccessSummary, CollectsArraysScalarsAndNest) {
  Program p("t");
  const ArrayId a = p.add_array("a", {8, 8});
  const ArrayId b = p.add_array("b", {8, 8});
  p.add_scalar("sum");
  p.append(loop("j", 2, 8,
                loop("i", 1, 8,
                     assign(b, {v("i"), v("j")},
                            at(a, v("i"), v("j", -1)) + at(a, v("i"), v("j"))),
                     assign("sum", sref("sum") + at(b, v("i"), v("j"))))));
  const LoopSummary s = summarize_loop(p, 0);
  EXPECT_EQ(s.depth(), 2);
  EXPECT_EQ(s.loop_vars, (std::vector<std::string>{"j", "i"}));
  EXPECT_EQ(s.lowers, (std::vector<std::int64_t>{2, 1}));
  EXPECT_EQ(s.trip_count(), 7 * 8);
  ASSERT_TRUE(s.arrays.count(a));
  EXPECT_TRUE(s.arrays.at(a).read);
  EXPECT_FALSE(s.arrays.at(a).written);
  EXPECT_TRUE(s.arrays.at(b).read);
  EXPECT_TRUE(s.arrays.at(b).written);
  const auto count = [&](const std::string& array, bool write) {
    int n = 0;
    for (const verify::AffineRef& r : s.refs->refs)
      n += r.array == array && r.write == write ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count("a", false), 2);
  EXPECT_EQ(count("a", true), 0);
  EXPECT_EQ(count("b", true), 1);
  EXPECT_EQ(count("b", false), 1);
  ASSERT_TRUE(s.scalars.count("sum"));
  EXPECT_TRUE(s.scalars.at("sum").written);
  EXPECT_TRUE(s.scalars.at("sum").reduction_only);
}

TEST(AccessSummary, NonReductionScalarWrite) {
  Program p("t");
  p.add_scalar("x");
  const ArrayId a = p.add_array("a", {8});
  p.append(loop("i", 1, 8, assign("x", at(a, v("i")) * lit(2.0))));
  const LoopSummary s = summarize_loop(p, 0);
  EXPECT_FALSE(s.scalars.at("x").reduction_only);
}

TEST(AccessSummary, ReductionSelfReadNotCounted) {
  Program p("t");
  p.add_scalar("sum");
  const ArrayId a = p.add_array("a", {8});
  p.append(loop("i", 1, 8, assign("sum", sref("sum") + at(a, v("i")))));
  const LoopSummary s = summarize_loop(p, 0);
  EXPECT_TRUE(s.scalars.at("sum").reduction_only);
  EXPECT_FALSE(s.scalars.at("sum").read);  // only the reduction self-read
}

TEST(AccessSummary, StatementSummaryForNonLoop) {
  Program p("t");
  p.add_scalar("x");
  p.append(assign("x", lit(0.0)));
  const LoopSummary s = summarize_statement(p, 0);
  EXPECT_EQ(s.depth(), 0);
  EXPECT_TRUE(s.scalars.at("x").written);
}

// -- Dependence / fusability -------------------------------------------------------

struct TwoLoops {
  Program p{"t"};
  ArrayId a = -1, b = -1;
};

/// L1: a[i+w_off] = b[i]; L2: c reads a[i+r_off].
PairAnalysis offset_pair(std::int64_t w_off, std::int64_t r_off) {
  Program p("t");
  const ArrayId a = p.add_array("a", {64});
  const ArrayId b = p.add_array("b", {64});
  p.add_scalar("s");
  p.append(loop("i", 2, 60, assign(a, {v("i", w_off)}, at(b, v("i")))));
  p.append(loop("i", 2, 60, assign("s", sref("s") + at(a, v("i", r_off)))));
  const auto s = summarize_program(p);
  return analyze_pair(s[0], s[1]);
}

TEST(Dependence, SameIndexFlowIsFusable) {
  const PairAnalysis pa = offset_pair(0, 0);
  EXPECT_TRUE(pa.dependent);
  EXPECT_FALSE(pa.fusion_preventing);
  EXPECT_EQ(pa.compat, FusionCompat::kIdentical);
}

TEST(Dependence, ReadOfEarlierElementIsFusable) {
  // Consumer reads a[i-1]: the value was produced one iteration earlier.
  EXPECT_FALSE(offset_pair(0, -1).fusion_preventing);
}

TEST(Dependence, ReadOfLaterElementPreventsFusion) {
  // Consumer reads a[i+1]: not yet produced at fused iteration i.
  EXPECT_TRUE(offset_pair(0, 1).fusion_preventing);
}

TEST(Dependence, WriterOffsetReversesTheRule) {
  EXPECT_TRUE(offset_pair(-1, 0).fusion_preventing);   // write a[i-1], read a[i]
  EXPECT_FALSE(offset_pair(1, 0).fusion_preventing);   // write a[i+1], read a[i]
}

TEST(Dependence, AntiDependenceSymmetric) {
  // L1 reads a[i+off]; L2 writes a[i].
  const auto build = [](std::int64_t r_off) {
    Program p("t");
    const ArrayId a = p.add_array("a", {64});
    p.add_scalar("s");
    p.append(loop("i", 2, 60, assign("s", sref("s") + at(a, v("i", r_off)))));
    p.append(loop("i", 2, 60, assign(a, {v("i")}, lit(1.0))));
    const auto s = summarize_program(p);
    return analyze_pair(s[0], s[1]);
  };
  // Reading a[i-1] then writing a[i]: fused, the write at iteration i-1
  // clobbers the value the read at iteration i needs -> preventing.
  EXPECT_TRUE(build(-1).fusion_preventing);
  // Reading a[i+1] then writing a[i]: element e is written at iteration e,
  // after the read at iteration e-1 -> safe.
  EXPECT_FALSE(build(1).fusion_preventing);
}

TEST(Dependence, DisjointArraysShareNothing) {
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  const ArrayId b = p.add_array("b", {16});
  p.append(loop("i", 1, 16, assign(a, {v("i")}, lit(1.0))));
  p.append(loop("i", 1, 16, assign(b, {v("i")}, lit(2.0))));
  const auto s = summarize_program(p);
  const PairAnalysis pa = analyze_pair(s[0], s[1]);
  EXPECT_TRUE(pa.shared_arrays.empty());
  EXPECT_FALSE(pa.dependent);
  EXPECT_FALSE(pa.fusion_preventing);
}

TEST(Dependence, MismatchedBoundsIncompatible) {
  Program p("t");
  const ArrayId a = p.add_array("a", {64});
  p.append(loop("i", 1, 16, assign(a, {v("i")}, lit(1.0))));
  p.append(loop("i", 1, 32, assign(a, {v("i")}, lit(2.0))));
  const auto s = summarize_program(p);
  // Depth-1 loops have no outer-union path; bounds differ -> incompatible.
  EXPECT_TRUE(analyze_pair(s[0], s[1]).fusion_preventing);
}

TEST(Dependence, OuterUnionForTwoDeepNests) {
  Program p("t");
  const ArrayId a = p.add_array("a", {32, 32});
  p.append(loop("j", 1, 32,
                loop("i", 1, 32, assign(a, {v("i"), v("j")}, lit(1.0)))));
  p.append(loop("j", 2, 32,
                loop("i", 1, 32,
                     assign(a, {v("i"), v("j")},
                            at(a, v("i"), v("j", -1)) + lit(1.0)))));
  const auto s = summarize_program(p);
  const PairAnalysis pa = analyze_pair(s[0], s[1]);
  EXPECT_EQ(pa.compat, FusionCompat::kOuterUnion);
  EXPECT_FALSE(pa.fusion_preventing);
}

TEST(Dependence, PromoteShallowBoundaryLoop) {
  // The Figure 6 pattern: a depth-1 fix-up over the last column fuses at
  // j == N.
  Program p("t");
  const ArrayId b = p.add_array("b", {16, 16});
  p.append(loop("j", 2, 16,
                loop("i", 1, 16, assign(b, {v("i"), v("j")}, lit(1.0)))));
  p.append(loop("i", 1, 16,
                assign(b, {v("i"), k(16)},
                       at(b, v("i"), k(16)) + lit(1.0))));
  const auto s = summarize_program(p);
  const PairAnalysis pa = analyze_pair(s[0], s[1]);
  EXPECT_EQ(pa.compat, FusionCompat::kPromoteB);
  EXPECT_EQ(pa.promote_value, 16);
}

TEST(Dependence, ScalarResetPreventsFusion) {
  Program p("t");
  p.add_scalar("s");
  const ArrayId a = p.add_array("a", {16});
  p.append(loop("i", 1, 16, assign("s", sref("s") + at(a, v("i")))));
  p.append(loop("i", 1, 16, assign("s", at(a, v("i")) * lit(2.0))));
  const auto s = summarize_program(p);
  // Second loop overwrites s non-reductively: interleaving illegal.
  EXPECT_TRUE(analyze_pair(s[0], s[1]).fusion_preventing);
}

TEST(Dependence, MatchingReductionsFuse) {
  Program p("t");
  p.add_scalar("s");
  const ArrayId a = p.add_array("a", {16});
  const ArrayId b = p.add_array("b", {16});
  p.append(loop("i", 1, 16, assign("s", sref("s") + at(a, v("i")))));
  p.append(loop("i", 1, 16, assign("s", sref("s") + at(b, v("i")))));
  const auto s = summarize_program(p);
  const PairAnalysis pa = analyze_pair(s[0], s[1]);
  EXPECT_TRUE(pa.dependent);
  EXPECT_FALSE(pa.fusion_preventing);
}

TEST(Dependence, WriteWriteSameIndexFusable) {
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.append(loop("i", 1, 16, assign(a, {v("i")}, lit(1.0))));
  p.append(loop("i", 1, 16, assign(a, {v("i")}, lit(2.0))));
  const auto s = summarize_program(p);
  EXPECT_FALSE(analyze_pair(s[0], s[1]).fusion_preventing);
}

TEST(Dependence, LoopInvariantArrayWritePreventing) {
  // L1 writes a[i] for all i under a j loop where the value depends on j;
  // conservative analysis must prevent fusion with a later reader when the
  // subscript ignores the outer var.
  Program p("t");
  const ArrayId a = p.add_array("a", {16, 16});
  const ArrayId c = p.add_array("c", {16, 16});
  p.add_scalar("s");
  p.append(loop("j", 1, 16,
                loop("i", 1, 16, assign(a, {v("i"), k(1)}, lvar("j")))));
  p.append(loop("j", 1, 16,
                loop("i", 1, 16,
                     assign(c, {v("i"), v("j")}, at(a, v("i"), k(1))))));
  const auto s = summarize_program(p);
  EXPECT_TRUE(analyze_pair(s[0], s[1]).fusion_preventing);
}

}  // namespace
}  // namespace bwc::analysis
