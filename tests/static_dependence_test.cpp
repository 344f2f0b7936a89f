// Unit tests for the symbolic dependence engine (verify/static_dependence):
// the bounded-linear-system solver and its classical refutation tests,
// pairwise conflict systems with scheduling constraints, the
// lexicographic-order conflict query, guard-refined
// site/reference collection, the program-level dependence summary, and the
// byte-linear parallel-safety certificate for stream loops.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/ir/dsl.h"
#include "bwc/verify/static_dependence.h"
#include "bwc/workloads/paper_programs.h"

namespace bwc::verify {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::Program;

// -- solve_system -------------------------------------------------------------

TEST(SolveSystem, EmptyDomainIsIndependent) {
  VarDomain d = VarDomain::range(5, 10);
  d.clip(20, 30);  // leaves no legal value
  const Feasibility f = solve_system({d}, {{{{0, 1}}, 0}});
  EXPECT_EQ(f.verdict, Verdict::kIndependent);
  EXPECT_STREQ(f.decided_by, "empty-domain");
}

TEST(SolveSystem, ZivRefutesConstantContradiction) {
  // No variables: 0 + 3 == 0 is false.
  const Feasibility f = solve_system({}, {{{}, 3}});
  EXPECT_EQ(f.verdict, Verdict::kIndependent);
}

TEST(SolveSystem, GcdRefutesParityConflict) {
  // 2i - 4j + 1 == 0: gcd(2, 4) = 2 does not divide 1.
  const Feasibility f =
      solve_system({VarDomain::range(0, 100), VarDomain::range(0, 100)},
                   {{{{0, 2}, {1, -4}}, 1}});
  EXPECT_EQ(f.verdict, Verdict::kIndependent);
}

TEST(SolveSystem, BanerjeeRefutesOutOfRangeConstant) {
  // i - j + 100 == 0 with i, j in [0, 9]: i - j ranges over [-9, 9].
  const Feasibility f =
      solve_system({VarDomain::range(0, 9), VarDomain::range(0, 9)},
                   {{{{0, 1}, {1, -1}}, 100}});
  EXPECT_EQ(f.verdict, Verdict::kIndependent);
}

TEST(SolveSystem, WitnessSearchFindsInDomainSolution) {
  // i - j == 0 with i in [0, 9], j in [5, 20]: solutions i = j in [5, 9].
  const Feasibility f =
      solve_system({VarDomain::range(0, 9), VarDomain::range(5, 20)},
                   {{{{0, 1}, {1, -1}}, 0}});
  ASSERT_EQ(f.verdict, Verdict::kDependent);
  ASSERT_EQ(f.witness.size(), 2u);
  EXPECT_EQ(f.witness[0], f.witness[1]);
  EXPECT_GE(f.witness[0], 5);
  EXPECT_LE(f.witness[0], 9);
}

TEST(SolveSystem, WitnessRespectsDomainHoles) {
  // i == j, i in [0, 4] u [8, 9], j in [5, 8]: only i = j = 8 works.
  VarDomain holes;
  holes.ranges = {{0, 4}, {8, 9}};
  const Feasibility f = solve_system({holes, VarDomain::range(5, 8)},
                                     {{{{0, 1}, {1, -1}}, 0}});
  ASSERT_EQ(f.verdict, Verdict::kDependent);
  EXPECT_EQ(f.witness[0], 8);
  EXPECT_EQ(f.witness[1], 8);
}

TEST(SolveSystem, UnconstrainedSystemIsDependent) {
  // No equations: any domain point is a witness.
  const Feasibility f = solve_system({VarDomain::range(3, 7)}, {});
  ASSERT_EQ(f.verdict, Verdict::kDependent);
  EXPECT_GE(f.witness[0], 3);
  EXPECT_LE(f.witness[0], 7);
}

// -- VarDomain ----------------------------------------------------------------

TEST(VarDomainTest, UnionBookkeeping) {
  VarDomain d;
  d.ranges = {{0, 4}, {10, 12}};
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(d.size(), 8);
  EXPECT_TRUE(d.contains(4));
  EXPECT_FALSE(d.contains(5));
  EXPECT_TRUE(d.contains(10));
  EXPECT_EQ(d.hull().lo, 0);
  EXPECT_EQ(d.hull().hi, 12);
  d.clip(3, 11);
  EXPECT_EQ(d.size(), 4);  // {3, 4} u {10, 11}
  EXPECT_FALSE(d.contains(12));
}

// -- PairSystem ---------------------------------------------------------------

AffineRef array_ref(const std::string& array, std::int64_t coeff,
                    std::int64_t offset, std::int64_t lo, std::int64_t hi,
                    bool write) {
  AffineRef r;
  r.loop_vars = {"i"};
  r.domains = {VarDomain::range(lo, hi)};
  r.subscripts = {ir::Affine::var("i", coeff, offset)};
  r.array = array;
  r.write = write;
  return r;
}

TEST(PairSystemTest, DisjointOffsetRangesAreIndependent) {
  // write a[i], i in [0, 9] vs read a[i + 10], i in [0, 9].
  const AffineRef w = array_ref("a", 1, 0, 0, 9, true);
  const AffineRef r = array_ref("a", 1, 10, 0, 9, false);
  PairSystem sys(w, r);
  EXPECT_EQ(sys.solve().verdict, Verdict::kIndependent);
}

TEST(PairSystemTest, StrideParityIsIndependent) {
  // write a[2i] vs read a[2i + 1]: even vs odd elements.
  const AffineRef w = array_ref("a", 2, 0, 0, 99, true);
  const AffineRef r = array_ref("a", 2, 1, 0, 99, false);
  PairSystem sys(w, r);
  EXPECT_EQ(sys.solve().verdict, Verdict::kIndependent);
}

TEST(PairSystemTest, OverlapYieldsWitness) {
  // write a[i] vs read a[i - 1]: element 5 written at i=5, read at i=6.
  const AffineRef w = array_ref("a", 1, 0, 0, 9, true);
  const AffineRef r = array_ref("a", 1, -1, 0, 9, false);
  PairSystem sys(w, r);
  const Feasibility f = sys.solve();
  ASSERT_EQ(f.verdict, Verdict::kDependent);
  ASSERT_GE(f.witness.size(), 2u);
  EXPECT_EQ(f.witness[0], f.witness[1] - 1);
}

TEST(PairSystemTest, BoundDifferenceCutsSameSubscriptPairs) {
  // Same subscript forces i_a == i_b; additionally requiring
  // i_b - i_a >= 1 makes the system infeasible.
  const AffineRef w = array_ref("a", 1, 0, 0, 9, true);
  const AffineRef r = array_ref("a", 1, 0, 0, 9, false);
  PairSystem sys(w, r);
  sys.bound_difference(sys.a_var(0), 0, sys.b_var(0), 0,
                       {1, std::int64_t{1} << 40});
  EXPECT_EQ(sys.solve().verdict, Verdict::kIndependent);
}

TEST(PairSystemTest, DimensionMismatchIsUnknown) {
  AffineRef w = array_ref("a", 1, 0, 0, 9, true);
  AffineRef r = array_ref("a", 1, 0, 0, 9, false);
  r.subscripts.push_back(ir::Affine::constant(0));
  PairSystem sys(w, r);
  EXPECT_FALSE(sys.well_formed());
  EXPECT_EQ(sys.solve().verdict, Verdict::kUnknown);
}

TEST(PairSystemTest, InexactDomainsDisableDependenceProofs) {
  // Over-approximated domains keep independence sound but must not
  // produce a dependence witness.
  AffineRef w = array_ref("a", 1, 0, 0, 9, true);
  w.exact_domain = false;
  const AffineRef r = array_ref("a", 1, -1, 0, 9, false);
  PairSystem sys(w, r);
  EXPECT_NE(sys.solve().verdict, Verdict::kDependent);
}

// -- lex_conflict ------------------------------------------------------------

TEST(LexConflict, FirstDifferenceSelectsTheDirection) {
  // write a[i] vs read a[i + 1]: element e is written at i = e, read at
  // i = e - 1, so the reader's iteration is always one earlier.
  const AffineRef w = array_ref("a", 1, 0, 0, 9, true);
  const AffineRef r = array_ref("a", 1, 1, 0, 9, false);
  EXPECT_EQ(lex_conflict(w, r, same_levels(1), VarDomain::range(-kSpan, -1))
                .verdict,
            Verdict::kDependent);
  EXPECT_EQ(lex_conflict(w, r, same_levels(1), VarDomain::range(1, kSpan))
                .verdict,
            Verdict::kIndependent);
  // A stride-2 reader of odd elements never meets an even writer.
  const AffineRef w2 = array_ref("a", 2, 0, 0, 9, true);
  const AffineRef r2 = array_ref("a", 2, 1, 0, 9, false);
  EXPECT_EQ(lex_conflict(w2, r2, same_levels(1), {{{-kSpan, -1}, {1, kSpan}}})
                .verdict,
            Verdict::kIndependent);
}

TEST(LexConflict, ConstantSideRunsAtItsShift) {
  // A loop-free write of a[5] placed at schedule value `at` against a
  // reader of a[i]: they meet at i = 5, a difference of 5 - at.
  AffineRef w;
  w.subscripts = {ir::Affine::constant(5)};
  w.array = "a";
  w.write = true;
  const AffineRef r = array_ref("a", 1, 0, 0, 9, false);
  const VarDomain before = VarDomain::range(-kSpan, -1);
  EXPECT_EQ(lex_conflict(w, r, {{-1, 3, 0, 0}}, before).verdict,
            Verdict::kIndependent);
  EXPECT_EQ(lex_conflict(w, r, {{-1, 7, 0, 0}}, before).verdict,
            Verdict::kDependent);
}

TEST(LexConflict, EmptyScheduleAndIllFormedPairs) {
  const AffineRef w = array_ref("a", 1, 0, 0, 9, true);
  AffineRef r = array_ref("a", 1, 1, 0, 9, false);
  const VarDomain before = VarDomain::range(-kSpan, -1);
  // No levels: a single schedule point has no earlier instance.
  EXPECT_EQ(lex_conflict(w, r, {}, before).verdict, Verdict::kIndependent);
  r.subscripts.push_back(ir::Affine::constant(0));
  EXPECT_EQ(lex_conflict(w, r, same_levels(1), before).verdict,
            Verdict::kUnknown);
}

// -- collect_assign_sites / collect_refs --------------------------------------

TEST(CollectSites, GuardRefinesLoopDomain) {
  Program p("t");
  const ArrayId a = p.add_array("a", {100});
  p.append(loop("i", 0, 99,
                when(ir::CmpOp::kGe, v("i"), k(50),
                     assign(a, {v("i")}, lvar("i")))));
  const SiteWalk walk = collect_assign_sites(*p.top()[0]);
  ASSERT_EQ(walk.sites.size(), 1u);
  const AssignSite& site = walk.sites[0];
  ASSERT_EQ(site.domains.size(), 1u);
  EXPECT_EQ(site.domains[0].hull().lo, 50);
  EXPECT_EQ(site.domains[0].hull().hi, 99);
  EXPECT_TRUE(site.exact_domain);
  EXPECT_EQ(walk.unreachable_guards, 0);
}

TEST(CollectSites, ShadowedGuardVariableIsNotRefined) {
  // The guard reads the inner `i`; refining the outer [1, 2] would prove
  // the arm empty. A name bound twice is left unrefined instead.
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.append(loop("i", 1, 2,
                loop("i", 1, 16,
                     when(ir::CmpOp::kGe, v("i"), k(8),
                          assign(a, {v("i")}, at(a, v("i")) + lit(1))))));
  const SiteWalk walk = collect_assign_sites(*p.top()[0]);
  ASSERT_EQ(walk.sites.size(), 1u);
  EXPECT_FALSE(walk.sites[0].exact_domain);
  EXPECT_EQ(walk.unreachable_guards, 0);
}

TEST(CollectSites, EmptyGuardArmIsUnreachable) {
  Program p("t");
  const ArrayId a = p.add_array("a", {100});
  p.append(loop("i", 0, 99,
                when(ir::CmpOp::kGe, v("i"), k(500),
                     assign(a, {v("i")}, lvar("i")))));
  const SiteWalk walk = collect_assign_sites(*p.top()[0]);
  EXPECT_TRUE(walk.sites.empty());
  EXPECT_EQ(walk.unreachable_guards, 1);
}

TEST(CollectRefs, ReductionShapeIsDetected) {
  Program p("t");
  const ArrayId a = p.add_array("a", {64});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 0, 63, assign("s", sref("s") + at(a, v("i")))));
  const RefSet refs = collect_refs(p, *p.top()[0]);
  bool saw_reduction_write = false;
  for (const AffineRef& r : refs.refs) {
    if (r.scalar == "s" && r.write) {
      saw_reduction_write = true;
      EXPECT_TRUE(r.reduction);
      EXPECT_EQ(r.reduction_op, ir::BinOp::kAdd);
    }
  }
  EXPECT_TRUE(saw_reduction_write);
}

// -- summarize_dependences ----------------------------------------------------

TEST(SummarizeDependences, Fig7PairsAreDecided) {
  const DependenceSummary s =
      summarize_dependences(workloads::fig7_original(1000));
  EXPECT_GT(s.pairs.size(), 0u);
  EXPECT_EQ(s.unknown, 0);
  EXPECT_EQ(s.inexact_refs, 0);
  // The producer/consumer pair on `res` must be recognized as dependent.
  bool res_dependent = false;
  for (const StmtDependence& d : s.pairs)
    res_dependent = res_dependent ||
                    (d.array == "res" && d.verdict == Verdict::kDependent);
  EXPECT_TRUE(res_dependent);
}

TEST(SummarizeDependences, DisjointLoopsAreIndependent) {
  Program p("t");
  const ArrayId a = p.add_array("a", {200});
  p.mark_output_array(a);
  // Two loops writing disjoint halves of one array.
  p.append(loop("i", 0, 99, assign(a, {v("i")}, lvar("i"))));
  p.append(loop("i", 0, 99, assign(a, {v("i", 100)}, lvar("i"))));
  const DependenceSummary s = summarize_dependences(p);
  for (const StmtDependence& d : s.pairs) {
    if (d.stmt_a == 0 && d.stmt_b == 1)
      EXPECT_EQ(d.verdict, Verdict::kIndependent) << d.array;
  }
  EXPECT_EQ(s.unknown, 0);
}

// -- certify_parallel_accesses ------------------------------------------------

LinearAccess acc(bool write, std::int64_t base, std::int64_t coeff,
                 std::int64_t elem = 8, int space = 0) {
  LinearAccess a;
  a.write = write;
  a.base = base;
  a.coeff = coeff;
  a.elem_bytes = elem;
  a.space = space;
  return a;
}

TEST(ParallelCertificate, DisjointSpacesAreSafe) {
  // y[i] = x[i]: write and read in different arrays.
  const Verdict v = certify_parallel_accesses(
      {acc(true, 0, 8, 8, 0), acc(false, 0, 8, 8, 1)}, 0, 999);
  EXPECT_EQ(v, Verdict::kIndependent);
}

TEST(ParallelCertificate, UnitStrideWriteIsSafe) {
  // Distinct iterations write distinct bytes.
  const Verdict v = certify_parallel_accesses({acc(true, 0, 8)}, 0, 999);
  EXPECT_EQ(v, Verdict::kIndependent);
}

TEST(ParallelCertificate, BroadcastWriteIsUnsafe) {
  // coeff == 0: every iteration writes the same bytes.
  const Verdict v = certify_parallel_accesses({acc(true, 0, 0)}, 0, 999);
  EXPECT_EQ(v, Verdict::kDependent);
}

TEST(ParallelCertificate, ShiftedReadOfWrittenArrayIsUnsafe) {
  // a[i] = f(a[i + 1]): iteration i reads what iteration i + 1 writes.
  const Verdict v = certify_parallel_accesses(
      {acc(true, 0, 8, 8, 0), acc(false, 8, 8, 8, 0)}, 0, 999);
  EXPECT_EQ(v, Verdict::kDependent);
}

TEST(ParallelCertificate, StridedWritesLeaveGaps) {
  // 8-byte writes with a 16-byte stride never collide across iterations.
  const Verdict v = certify_parallel_accesses({acc(true, 0, 16)}, 0, 999);
  EXPECT_EQ(v, Verdict::kIndependent);
}

TEST(ParallelCertificate, ReadOnlyLoopIsSafe) {
  const Verdict v = certify_parallel_accesses(
      {acc(false, 0, 8, 8, 0), acc(false, 0, 8, 8, 0)}, 0, 999);
  EXPECT_EQ(v, Verdict::kIndependent);
}

}  // namespace
}  // namespace bwc::verify
