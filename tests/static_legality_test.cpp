// Unit and acceptance tests for the static legality provers
// (verify/static_legality): reschedule proofs for fusion / distribution /
// interchange, store-elimination and storage-reduction certificates
// (contraction, shrink and peel), seeded bugs each prover must refuse to
// certify, the static-first verification modes of the pass manager, and
// the coverage bar -- every check of the bundled workloads certifies
// statically at default sizes, with no trace fallback.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/ir/dsl.h"
#include "bwc/pass/passes.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/transform/distribute.h"
#include "bwc/transform/store_elimination.h"
#include "bwc/transform/storage_reduction.h"
#include "bwc/verify/static_legality.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc::verify {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::CmpOp;
using ir::Program;

double checksum(const Program& p) { return runtime::execute(p).checksum; }

// -- prove_reschedule ---------------------------------------------------------

/// Producer a[i + w] in loop 1, consumer reads a[i + r] in loop 2.
Program two_loops(std::int64_t w, std::int64_t r) {
  const std::int64_t n = 40;
  Program p("pair");
  const ArrayId a = p.add_array("a", {n + 16});
  const ArrayId b = p.add_array("b", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, n, assign(a, {v("i", w)}, at(b, v("i")) + lvar("i"))));
  p.append(loop("i", 8, n, assign("s", sref("s") + at(a, v("i", r)))));
  return p;
}

/// The same statements naively fused into one loop (no shift).
Program fused_loops(std::int64_t w, std::int64_t r) {
  const std::int64_t n = 40;
  Program p("pair");
  const ArrayId a = p.add_array("a", {n + 16});
  const ArrayId b = p.add_array("b", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, n,
                assign(a, {v("i", w)}, at(b, v("i")) + lvar("i")),
                assign("s", sref("s") + at(a, v("i", r)))));
  return p;
}

TEST(ProveReschedule, IdentityIsProven) {
  const Program p = two_loops(0, 0);
  const LegalityResult res = prove_reschedule(p, p);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
}

TEST(ProveReschedule, LegalFusionIsProven) {
  // Read trails the write (r <= w): fusing preserves the flow order.
  for (const auto& [w, r] :
       {std::pair<int, int>{0, 0}, {0, -1}, {1, 0}, {2, -2}}) {
    const LegalityResult res =
        prove_reschedule(two_loops(w, r), fused_loops(w, r));
    EXPECT_EQ(res.verdict, LegalityVerdict::kProven)
        << "w=" << w << " r=" << r << " reason=" << res.reason;
    EXPECT_GT(res.pairs_checked, 0);
  }
}

TEST(ProveReschedule, IllegalFusionIsRefuted) {
  // Read outruns the write (r > w): naive fusion reverses the dependence.
  for (const auto& [w, r] : {std::pair<int, int>{0, 1}, {0, 2}, {-1, 0}}) {
    const LegalityResult res =
        prove_reschedule(two_loops(w, r), fused_loops(w, r));
    EXPECT_EQ(res.verdict, LegalityVerdict::kRefuted)
        << "w=" << w << " r=" << r << " reason=" << res.reason;
  }
}

TEST(ProveReschedule, DistributionIsProven) {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId a = p.add_array("a", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, n,
                assign(a, {v("i")}, lvar("i") * lit(0.25)),
                assign("s", sref("s") + at(a, v("i")))));
  const auto result = transform::distribute_loops(p);
  ASSERT_EQ(result.loops_after, 2);
  const LegalityResult res = prove_reschedule(p, result.program);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
}

TEST(ProveReschedule, ChangedComputationIsNotProven) {
  // The "after" program computes something else: the atom matcher must
  // refuse the bijection; never certify a semantic change.
  const Program before = two_loops(0, 0);
  // Same shape, different rhs structure.
  Program other("pair");
  const ArrayId a = other.add_array("a", {56});
  const ArrayId b = other.add_array("b", {56});
  other.add_scalar("s");
  other.mark_output_scalar("s");
  other.append(loop("i", 8, 40,
                    assign(a, {v("i")}, at(b, v("i")) * lit(2.0))));
  other.append(loop("i", 8, 40, assign("s", sref("s") + at(a, v("i")))));
  const LegalityResult res = prove_reschedule(before, other);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
}

TEST(ProveReschedule, ReductionReorderingIsProven) {
  // Two reduction loops into one: accumulation order changes, but the
  // common-op reduction exemption (same one the trace validator grants)
  // applies to scalar s.
  const std::int64_t n = 40;
  Program before("t");
  const ArrayId a = before.add_array("a", {n + 16});
  const ArrayId b = before.add_array("b", {n + 16});
  before.add_scalar("s");
  before.mark_output_scalar("s");
  before.append(loop("i", 8, n, assign("s", sref("s") + at(a, v("i")))));
  before.append(loop("i", 8, n, assign("s", sref("s") + at(b, v("i")))));
  Program after("t");
  const ArrayId a2 = after.add_array("a", {n + 16});
  const ArrayId b2 = after.add_array("b", {n + 16});
  after.add_scalar("s");
  after.mark_output_scalar("s");
  after.append(loop("i", 8, n,
                    assign("s", sref("s") + at(a2, v("i"))),
                    assign("s", sref("s") + at(b2, v("i")))));
  const LegalityResult res = prove_reschedule(before, after);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
}

// A statement that reads no loop variable leaves its level unbound by any
// subscript; the matcher pairs it with the fused loop's level by domain.
Program variable_free_pair(bool fused, bool flow) {
  Program p("pair");
  const ArrayId x = p.add_array("x", {48});
  const ArrayId a = p.add_array("a", {48});
  p.add_scalar("s");
  p.add_scalar("acc");
  p.mark_output_scalar("acc");
  // flow: s = x[i] feeds acc = (acc + s); else a[i] = x[i] beside
  // acc = (acc + (1 * 0.5)), which share nothing.
  ir::StmtPtr first = flow ? assign("s", at(x, v("i")))
                           : assign(a, {v("i")}, at(x, v("i")) * lit(0.5));
  ir::StmtPtr second = flow ? assign("acc", sref("acc") + sref("s"))
                            : assign("acc", sref("acc") + lit(1.0) * lit(0.5));
  if (fused) {
    p.append(loop("i", 2, 40, std::move(first), std::move(second)));
  } else {
    p.append(loop("i", 2, 40, std::move(first)));
    p.append(loop("i", 2, 40, std::move(second)));
  }
  return p;
}

TEST(ProveReschedule, VariableFreeStatementFusionIsProven) {
  const LegalityResult res = prove_reschedule(variable_free_pair(false, false),
                                              variable_free_pair(true, false));
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
}

TEST(ProveReschedule, VariableFreeStatementAcrossFlowIsRefuted) {
  // Seeded bug: acc reads the last s before fusion and every s after it.
  const Program before = variable_free_pair(false, true);
  const Program after = variable_free_pair(true, true);
  const LegalityResult res = prove_reschedule(before, after);
  EXPECT_EQ(res.verdict, LegalityVerdict::kRefuted) << res.reason;
  EXPECT_NE(checksum(before), checksum(after));
}

TEST(ProveReschedule, ConstantStoreFusedPastItsReaderIsRefuted) {
  // y[i] reads s = 0 before fusion; fused after `s = 2`, it reads 2.
  const auto build = [](bool fused) {
    Program p("pair");
    const ArrayId x = p.add_array("x", {48});
    const ArrayId y = p.add_array("y", {48});
    p.add_scalar("s");
    p.mark_output_array(y);
    ir::StmtPtr read = assign(y, {v("i")}, sref("s") + at(x, v("i")));
    ir::StmtPtr store = assign("s", lit(2.0));
    if (fused) {
      p.append(loop("i", 2, 40, std::move(store), std::move(read)));
    } else {
      p.append(loop("i", 2, 40, std::move(read)));
      p.append(loop("i", 2, 40, std::move(store)));
    }
    return p;
  };
  const LegalityResult res = prove_reschedule(build(false), build(true));
  EXPECT_EQ(res.verdict, LegalityVerdict::kRefuted) << res.reason;
  EXPECT_NE(checksum(build(false)), checksum(build(true)));
}

// -- prove_store_elimination --------------------------------------------------

Program eliminable_store_program() {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId a = p.add_array("a", {n + 16});
  const ArrayId b = p.add_array("b", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, n,
                assign(a, {v("i")}, at(b, v("i")) + lit(1.0)),
                assign("s", sref("s") + at(a, v("i")))));
  return p;
}

TEST(ProveStoreElimination, ForwardedWritebackIsProven) {
  const Program p = eliminable_store_program();
  const auto result = transform::eliminate_stores(p);
  ASSERT_FALSE(result.eliminated.empty());
  const LegalityResult res = prove_store_elimination(p, result.program);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
  // Sanity: semantics preserved (the prover certified a true fact).
  EXPECT_NEAR(runtime::execute(p).checksum,
              runtime::execute(result.program).checksum, 1e-9);
}

TEST(ProveStoreElimination, UnrelatedRewriteIsNotProven) {
  const Program p = eliminable_store_program();
  const LegalityResult res = prove_store_elimination(p, two_loops(0, 0));
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
}

/// for i = 1..n: [if (i >= 2)] a[i] = x[i]; y[i] = (a[i] + 1), and the
/// rewrite that forwards a through the scalar a_t.
Program guarded_writer(bool forwarded) {
  Program p("t");
  const ArrayId x = p.add_array("x", {48});
  const ArrayId a = p.add_array("a", {48});
  const ArrayId y = p.add_array("y", {48});
  p.mark_output_array(y);
  if (forwarded) p.add_scalar("a_t");
  ir::StmtPtr write = forwarded ? assign("a_t", at(x, v("i")))
                                : assign(a, {v("i")}, at(x, v("i")));
  ir::ExprPtr read = forwarded ? sref("a_t") : at(a, v("i"));
  p.append(loop("i", 1, 40, when(CmpOp::kGe, v("i"), k(2), std::move(write)),
                assign(y, {v("i")}, std::move(read) + lit(1.0))));
  return p;
}

TEST(ProveStoreElimination, GuardedWriterDoesNotCoverItsForwardedRead) {
  // At i = 1 the forwarded read sees the scalar, not a[1]: the writer's
  // domain must contain the read's.
  const Program before = guarded_writer(false);
  const Program after = guarded_writer(true);
  const LegalityResult res = prove_store_elimination(before, after);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_NE(checksum(before), checksum(after));
}

TEST(ProveStoreElimination, SeveralWritersOfOneTupleAreProven) {
  Program p("t");
  const ArrayId x = p.add_array("x", {48});
  const ArrayId a = p.add_array("a", {48});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, 40, assign(a, {v("i")}, at(x, v("i"))),
                assign("s", sref("s") + at(a, v("i"))),
                assign(a, {v("i")}, at(a, v("i")) * lit(0.5)),
                assign("s", sref("s") + at(a, v("i")))));
  const auto result = transform::eliminate_stores(p);
  ASSERT_EQ(result.eliminated.size(), 1u);
  const LegalityResult res = prove_store_elimination(p, result.program);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_EQ(checksum(p), checksum(result.program));
}

TEST(ProveStoreElimination, WritersWithDifferentTuplesAreNotProven) {
  // Seeded bug: a[i - 1] is another element than a[i], but the rewrite
  // forwards both writes through one scalar.
  const auto build = [](bool forwarded) {
    Program p("t");
    const ArrayId x = p.add_array("x", {48});
    const ArrayId a = p.add_array("a", {48});
    const ArrayId y = p.add_array("y", {48});
    p.mark_output_array(y);
    if (forwarded) {
      p.add_scalar("a_t");
      p.append(loop("i", 2, 40, assign("a_t", at(x, v("i"))),
                    assign("a_t", at(x, v("i")) * lit(3.0)),
                    assign(y, {v("i")}, sref("a_t") + lit(1.0))));
    } else {
      p.append(loop("i", 2, 40, assign(a, {v("i")}, at(x, v("i"))),
                    assign(a, {v("i", -1)}, at(x, v("i")) * lit(3.0)),
                    assign(y, {v("i")}, at(a, v("i")) + lit(1.0))));
    }
    return p;
  };
  const LegalityResult res = prove_store_elimination(build(false), build(true));
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_NE(checksum(build(false)), checksum(build(true)));
}

// -- prove_storage_reduction --------------------------------------------------

Program contractible_program() {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId t = p.add_array("t", {n + 16});
  const ArrayId b = p.add_array("b", {n + 16});
  const ArrayId c = p.add_array("c", {n + 16});
  p.mark_output_array(c);
  p.append(loop("i", 8, n,
                assign(t, {v("i")}, at(b, v("i")) * lit(2.0)),
                assign(c, {v("i")}, at(t, v("i")) + lit(1.0))));
  return p;
}

TEST(ProveStorageReduction, ScalarContractionIsProven) {
  const Program p = contractible_program();
  const auto result = transform::reduce_storage(p);
  ASSERT_FALSE(result.actions.empty());
  ASSERT_LT(result.referenced_bytes_after, result.referenced_bytes_before);
  const LegalityResult res = prove_storage_reduction(p, result.program);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_NEAR(runtime::execute(p).checksum,
              runtime::execute(result.program).checksum, 1e-9);
}

TEST(ProveStorageReduction, NonContractionRewriteIsUnknown) {
  // A rewrite that changes the atom count (not a pure contraction) is
  // outside this prover's model: it must answer kUnknown, never kProven.
  const Program p = contractible_program();
  const auto result = transform::distribute_loops(p);
  const LegalityResult res = prove_storage_reduction(p, result.program);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
}

/// Trace-validate a storage reduction, as `--static-verify=off` does.
verify::Report trace_check(const Program& before, const Program& after) {
  return pass::ReduceStoragePass().check(before, after,
                                         {pass::StaticVerifyMode::kOff});
}

TEST(ProveStorageReduction, SurvivingReadOfContractedArrayIsRejected) {
  // The rewrite contracts a's write but leaves y[i] = (a[i] + 1) reading
  // the retired array, which now holds its initial contents.
  const auto build = [](bool contracted) {
    Program p("t");
    const ArrayId x = p.add_array("x", {48});
    const ArrayId a = p.add_array("a", {48});
    const ArrayId y = p.add_array("y", {48});
    p.mark_output_array(y);
    if (contracted) p.add_scalar("a_s");
    p.append(loop("i", 1, 40,
                  contracted ? assign("a_s", at(x, v("i")))
                             : assign(a, {v("i")}, at(x, v("i"))),
                  assign(y, {v("i")}, at(a, v("i")) + lit(1.0))));
    return p;
  };
  const LegalityResult res = prove_storage_reduction(build(false), build(true));
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_FALSE(trace_check(build(false), build(true)).ok());
  EXPECT_NE(checksum(build(false)), checksum(build(true)));
}

/// One 2-D sweep: m[i,j] = input; if (j >= 2) m[i,j] = (m[i,j] * 0.75) +
/// 0.1; sum = (sum + m[i,j]); if (j == 12) sum = (sum + m[i,pinned]).
Program guarded_sweep(std::int64_t pinned) {
  const std::int64_t n = 12;
  Program p("sweep");
  const ArrayId m = p.add_array("m", {n, n});
  p.add_scalar("sum");
  p.mark_output_scalar("sum");
  p.append(loop(
      "j", 1, n,
      loop("i", 1, n,
           assign(m, {v("i"), v("j")}, input2(7, v("i"), v("j"), n, n)),
           when(CmpOp::kGe, v("j"), k(2),
                assign(m, {v("i"), v("j")},
                       at(m, v("i"), v("j")) * lit(0.75) + lit(0.1))),
           assign("sum", sref("sum") + at(m, v("i"), v("j"))),
           when(CmpOp::kEq, v("j"), k(n),
                assign("sum", sref("sum") + at(m, v("i"), k(pinned)))))));
  return p;
}

TEST(ProveStorageReduction, GuardedContractionIsProven) {
  const Program p = guarded_sweep(12);
  const auto result = transform::reduce_storage(p);
  ASSERT_EQ(result.actions.size(), 1u);
  const LegalityResult res = prove_storage_reduction(p, result.program);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_EQ(checksum(p), checksum(result.program));
}

TEST(ProveStorageReduction, GuardDroppedFromContractedStatementIsNotProven) {
  // Seeded bug: the guarded update runs at j = 1 too.
  const Program p = guarded_sweep(12);
  Program after = transform::reduce_storage(p).program;
  ir::StmtList& body = after.top().front()->loop->body.front()->loop->body;
  ASSERT_EQ(body[1]->kind, ir::StmtKind::kIf);
  body[1] = std::move(body[1]->then_body.front());
  const LegalityResult res = prove_storage_reduction(p, after);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_NE(checksum(p), checksum(after));
}

TEST(ProveStorageReduction, PinnedTupleOffByOneIsNotProven) {
  // Seeded bug: m[i,11] under j == 12 is the previous column, not the
  // element the scalar holds.
  const Program before = guarded_sweep(11);
  const Program after = transform::reduce_storage(guarded_sweep(12)).program;
  const LegalityResult res = prove_storage_reduction(before, after);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_NE(checksum(before), checksum(after));
}

/// Figure 6 fused: the one sweep reads a[i,j-1], a[i,j] and a[i,1].
Program fig6_fused(std::int64_t n) {
  return core::optimize(workloads::fig6_original(n), "fuse(solver=best)")
      .program;
}

/// The inner body of the first two-deep nest of `p`.
ir::StmtList& sweep_body(Program& p) {
  for (auto& s : p.top())
    if (s->kind == ir::StmtKind::kLoop)
      return s->loop->body.front()->loop->body;
  throw Error("no sweep");
}

TEST(ProveStorageReduction, Fig6ShrinkPeelAndContractionAreProven) {
  const Program before = fig6_fused(40);
  const auto result = transform::reduce_storage(before);
  ASSERT_EQ(result.actions.size(), 2u);  // a shrinks, b contracts
  const LegalityResult res = prove_storage_reduction(before, result.program);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_EQ(checksum(before), checksum(result.program));
}

TEST(ProveStorageReduction, WrongPeelSliceIsNotProven) {
  // Seeded bug: the dual write copies column 2 into a_col1.
  const Program before = fig6_fused(40);
  Program after = transform::reduce_storage(before).program;
  bool moved = false;
  for (auto& s : sweep_body(after)) {
    if (s->kind == ir::StmtKind::kIf && s->then_body.size() == 1 &&
        s->then_body.front()->kind == ir::StmtKind::kArrayAssign &&
        after.array(s->then_body.front()->lhs_array).name == "a_col1") {
      s->cmp_rhs = k(2);
      moved = true;
    }
  }
  ASSERT_TRUE(moved);
  const LegalityResult res = prove_storage_reduction(before, after);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_NE(checksum(before), checksum(after));
}

TEST(ProveStorageReduction, ShiftedRotationIsNotProven) {
  // Two writes of a per iteration; the seeded bug rotates cur into prev
  // between them, so prev holds the first write's value.
  const std::int64_t n = 12;
  Program before("rotation");
  const ArrayId a = before.add_array("a", {n, n});
  before.add_scalar("sum");
  before.mark_output_scalar("sum");
  before.append(loop(
      "j", 1, n,
      loop("i", 1, n,
           assign(a, {v("i"), v("j")}, input2(3, v("i"), v("j"), n, n)),
           assign(a, {v("i"), v("j")},
                  at(a, v("i"), v("j")) * lit(0.5) + lit(1.0)),
           when(CmpOp::kGe, v("j"), k(2),
                assign("sum", sref("sum") + at(a, v("i"), v("j", -1)))))));
  const auto result = transform::reduce_storage(before);
  ASSERT_EQ(result.actions.size(), 1u);
  EXPECT_EQ(prove_storage_reduction(before, result.program).verdict,
            LegalityVerdict::kProven);
  Program after = result.program.clone();
  ir::StmtList& body = sweep_body(after);
  ir::StmtPtr rotation = std::move(body.back());
  body.pop_back();
  body.insert(body.begin() + 1, std::move(rotation));
  const LegalityResult res = prove_storage_reduction(before, after);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_NE(checksum(before), checksum(after));
}

TEST(ProveStorageReduction, ShrinkLeavingALaterReadOfTheOldArrayIsRejected) {
  // A later nest reads column 3 of a: the rewrite must read the peel, not
  // the retired array, whose contents nothing writes any more.
  const std::int64_t n = 12;
  Program before("later");
  const ArrayId a = before.add_array("a", {n, n});
  before.add_scalar("sum");
  before.mark_output_scalar("sum");
  before.append(loop(
      "j", 1, n,
      loop("i", 1, n,
           assign(a, {v("i"), v("j")}, input2(5, v("i"), v("j"), n, n)),
           when(CmpOp::kGe, v("j"), k(2),
                assign("sum", sref("sum") + at(a, v("i"), v("j", -1)))))));
  before.append(
      loop("i", 1, n, assign("sum", sref("sum") + at(a, v("i"), k(3)))));
  const auto result = transform::reduce_storage(before);
  ASSERT_EQ(result.actions.size(), 1u);
  EXPECT_EQ(prove_storage_reduction(before, result.program).verdict,
            LegalityVerdict::kProven);
  EXPECT_TRUE(trace_check(before, result.program).ok());
  // Point the later nest back at a[i,3].
  Program after = result.program.clone();
  ir::Stmt& later = *after.top().back()->loop->body.front();
  later.rhs->operands[1] = at(after.array_id("a"), v("i"), k(3));
  const LegalityResult res = prove_storage_reduction(before, after);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_FALSE(trace_check(before, after).ok());
  EXPECT_NE(checksum(before), checksum(after));
}

// -- Pass-manager integration: static-first verification ----------------------

/// Count verifier outcomes across a pipeline run: how many checks ran at
/// all, and how many of them were discharged by a static certificate.
void count_checks(const core::OptimizeResult& result, int* ran,
                  int* statically) {
  for (const auto& report : result.pipeline.passes) {
    if (!report.verify.ran) continue;
    ++*ran;
    if (report.verify.check.rfind("static-", 0) == 0) ++*statically;
  }
}

TEST(StaticFirstVerification, AcceptanceBarAcrossBundledWorkloads) {
  const struct {
    const char* name;
    Program program;
  } rows[] = {
      {"fig7", workloads::fig7_original(1000)},
      {"fig6", workloads::fig6_original(2000)},
      {"sec21", workloads::sec21_both_loops(1000)},
      {"jacobi", workloads::jacobi_chain(1000, 4)},
      {"adi", workloads::adi_like(200)},
      {"blur", workloads::blur_sharpen(1000)},
      {"cascade", workloads::reduction_cascade(1000, 3)},
  };
  int ran = 0;
  int statically = 0;
  for (const auto& row : rows) {
    // Static-first is the default.
    const core::OptimizeResult result = core::optimize(row.program);
    int row_ran = 0;
    int row_static = 0;
    count_checks(result, &row_ran, &row_static);
    ran += row_ran;
    statically += row_static;
    // Every workload applies at least one verified transform.
    EXPECT_GT(row_ran, 0) << row.name;
  }
  ASSERT_GT(ran, 0);
  const double share =
      static_cast<double>(statically) / static_cast<double>(ran);
  EXPECT_GE(share, 0.8) << statically << " of " << ran
                        << " checks were static certificates";
}

TEST(StaticFirstVerification, OffModeUsesTraceValidatorOnly) {
  pass::PipelineOptions opts;
  opts.static_verify = pass::StaticVerifyMode::kOff;
  const core::OptimizeResult result = core::optimize(
      workloads::fig7_original(500), core::kDefaultPipeline, opts);
  for (const auto& report : result.pipeline.passes) {
    if (!report.verify.ran) continue;
    EXPECT_NE(report.verify.check.rfind("static-", 0), 0u)
        << report.pass << " used " << report.verify.check;
  }
}

/// A sweep whose j - 1 read reaches the boundary j == 2: reduce-storage
/// dispatches it to the peeled column 1 with `if (j == 2) ... else ...`,
/// a shape outside the shrink prover's model.
Program boundary_dispatch(std::int64_t n) {
  Program p("dispatch");
  const ArrayId a = p.add_array("a", {n, n});
  p.add_scalar("sum");
  p.mark_output_scalar("sum");
  p.append(loop("i", 1, n, assign(a, {v("i"), k(1)}, input1(4, v("i"), n))));
  p.append(loop(
      "j", 2, n,
      loop("i", 1, n,
           assign(a, {v("i"), v("j")},
                  at(a, v("i"), v("j", -1)) * lit(0.5) +
                      input2(6, v("i"), v("j"), n, n)),
           assign("sum", sref("sum") + at(a, v("i"), v("j"))))));
  return p;
}

TEST(StaticFirstVerification, OnlyModeNeverTracesAndSkipsUnknowns) {
  // In kOnly mode the dispatch's unproven check must be reported as
  // skipped, not silently certified and not trace-validated.
  pass::PipelineOptions opts;
  opts.static_verify = pass::StaticVerifyMode::kOnly;
  const Program p = boundary_dispatch(24);
  const core::OptimizeResult result =
      core::optimize(p, core::kDefaultPipeline, opts);
  bool saw_skipped_unknown = false;
  for (const auto& report : result.pipeline.passes) {
    if (!report.verify.ran) continue;
    EXPECT_EQ(report.verify.check.rfind("static-", 0), 0u)
        << report.pass << " used " << report.verify.check;
    if (report.verify.skipped) saw_skipped_unknown = true;
  }
  EXPECT_TRUE(saw_skipped_unknown) << result.pipeline.to_text();
  // The default mode certifies it by trace, and the rewrite is right.
  const core::OptimizeResult traced = core::optimize(p);
  EXPECT_EQ(checksum(p), checksum(traced.program));
}

TEST(StaticFirstVerification, BundledWorkloadsProveEveryCheckAtDefaultSizes) {
  // bwcopt --program X at its default size (n = 100000, capped as the CLI
  // caps it): every check is a static certificate, none is skipped.
  Prng rng(1);
  workloads::RandomProgramParams params;
  params.n = 4096;
  const struct {
    const char* name;
    Program program;
  } rows[] = {
      {"fig6", workloads::fig6_original(2000)},
      {"fig7", workloads::fig7_original(100000)},
      {"sec21", workloads::sec21_both_loops(100000)},
      {"jacobi", workloads::jacobi_chain(100000, 4)},
      {"adi", workloads::adi_like(2000)},
      {"blur", workloads::blur_sharpen(100000)},
      {"cascade", workloads::reduction_cascade(100000, 3)},
      {"stride", workloads::transposed_sweep(2000)},
      {"random", workloads::random_program(rng, params)},
  };
  pass::PipelineOptions opts;
  opts.static_verify = pass::StaticVerifyMode::kOnly;
  for (const auto& row : rows) {
    const core::OptimizeResult result =
        core::optimize(row.program, core::kDefaultPipeline, opts);
    for (const auto& report : result.pipeline.passes) {
      if (!report.verify.ran) continue;
      EXPECT_EQ(report.verify.check.rfind("static-", 0), 0u)
          << row.name << ": " << report.pass;
      EXPECT_FALSE(report.verify.skipped)
          << row.name << ": " << report.pass << " skipped: "
          << report.verify.skip_reason;
    }
  }
}

TEST(StaticFirstVerification, ChecksumPreservedUnderAllModes) {
  const Program p = workloads::blur_sharpen(500);
  const double before = runtime::execute(p).checksum;
  for (const auto mode :
       {pass::StaticVerifyMode::kOn, pass::StaticVerifyMode::kOff,
        pass::StaticVerifyMode::kOnly}) {
    pass::PipelineOptions opts;
    opts.static_verify = mode;
    const core::OptimizeResult result =
        core::optimize(p, core::kDefaultPipeline, opts);
    EXPECT_NEAR(before, runtime::execute(result.program).checksum,
                1e-9 * (std::abs(before) + 1.0))
        << pass::static_verify_mode_name(mode);
  }
}

}  // namespace
}  // namespace bwc::verify
