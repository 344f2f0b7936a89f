#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "bwc/analysis/access_summary.h"
#include "bwc/core/optimizer.h"
#include "bwc/fusion/solvers.h"
#include "bwc/ir/dsl.h"
#include "bwc/ir/printer.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/prng.h"
#include "bwc/transform/fuse.h"
#include "bwc/transform/rewrite.h"
#include "bwc/transform/storage_reduction.h"
#include "bwc/transform/store_elimination.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc::transform {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::Program;

void expect_same_semantics(const Program& a, const Program& b) {
  const double ca = runtime::execute(a).checksum;
  const double cb = runtime::execute(b).checksum;
  const double tolerance = 1e-9 * (std::abs(ca) + 1.0);
  EXPECT_NEAR(ca, cb, tolerance)
      << "original:\n" << ir::to_string(a) << "\ntransformed:\n"
      << ir::to_string(b);
}

// -- Rewrite utilities --------------------------------------------------------

TEST(Rewrite, RenameLoopVarsEverywhere) {
  Program p("t");
  const ArrayId a = p.add_array("a", {8});
  p.add_scalar("s");
  p.append(loop("i", 1, 8,
                when(ir::CmpOp::kLe, v("i"), k(4),
                     assign(a, {v("i")}, lvar("i") + sref("s")))));
  rename_loop_vars(p.top(), {{"i", "z"}});
  const std::string s = ir::to_string(p);
  EXPECT_EQ(s.find(" i "), std::string::npos);
  EXPECT_NE(s.find("for z = 1, 8"), std::string::npos);
  EXPECT_NE(s.find("a[z]"), std::string::npos);
  EXPECT_NE(s.find("if (z <= 4)"), std::string::npos);
}

TEST(Rewrite, FreshNameAvoidsCollisions) {
  EXPECT_EQ(fresh_name("t", {"a", "b"}), "t");
  EXPECT_EQ(fresh_name("t", {"t"}), "t_1");
  EXPECT_EQ(fresh_name("t", {"t", "t_1"}), "t_2");
}

TEST(Rewrite, ReplaceExprsSwapsMatches) {
  Program p("t");
  const ArrayId a = p.add_array("a", {8});
  p.add_scalar("s");
  p.append(loop("i", 1, 8, assign("s", sref("s") + at(a, v("i")))));
  replace_exprs(
      p.top(),
      [&](const ir::Expr& e) {
        return e.kind == ir::ExprKind::kArrayRef && e.array == a;
      },
      [](const ir::Expr&) { return lit(1.0); });
  EXPECT_DOUBLE_EQ(runtime::execute(p).scalars.at("s"), 8.0);
}

// -- Fusion code generation ------------------------------------------------------

TEST(Fuse, IdenticalBoundsConcatenatesBodies) {
  const Program p = workloads::fig7_original(64);
  const auto graph = fusion::build_fusion_graph(p);
  const auto plan = fusion::exact_enumeration(graph);
  EXPECT_EQ(plan.num_partitions, 1);
  const Program fused = apply_fusion(p, graph, plan);
  EXPECT_EQ(fused.top_loop_indices().size(), 1u);
  expect_same_semantics(p, fused);
}

TEST(Fuse, ScalarInitHoistedBeforeItsPartition) {
  const Program p = workloads::fig7_original(32);
  const auto graph = fusion::build_fusion_graph(p);
  const Program fused = apply_fusion(p, graph, fusion::best_fusion(graph));
  // sum = 0 must execute before the fused loop.
  ASSERT_GE(fused.top().size(), 2u);
  EXPECT_EQ(fused.top()[0]->kind, ir::StmtKind::kScalarAssign);
  EXPECT_EQ(fused.top()[1]->kind, ir::StmtKind::kLoop);
}

TEST(Fuse, OuterUnionInsertsGuards) {
  const Program p = workloads::fig6_original(24);
  const auto graph = fusion::build_fusion_graph(p);
  const auto plan = fusion::exact_enumeration(graph);
  EXPECT_EQ(plan.num_partitions, 1);
  const Program fused = apply_fusion(p, graph, plan);
  expect_same_semantics(p, fused);
  // The fused loop covers the union range 1..N.
  const auto loops = fused.top_loop_indices();
  ASSERT_EQ(loops.size(), 1u);
  const ir::Stmt& nest = *fused.top()[static_cast<std::size_t>(loops[0])];
  EXPECT_EQ(nest.loop->lower, 1);
  EXPECT_EQ(nest.loop->upper, 24);
}

TEST(Fuse, NoFusionPlanIsIdentityShape) {
  const Program p = workloads::fig7_original(16);
  const auto graph = fusion::build_fusion_graph(p);
  const auto plan = fusion::no_fusion(graph);
  const Program out = apply_fusion(p, graph, plan);
  EXPECT_EQ(out.top_loop_indices().size(), p.top_loop_indices().size());
  expect_same_semantics(p, out);
}

TEST(Fuse, RandomProgramsPreserveSemantics) {
  Prng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    workloads::RandomProgramParams params;
    params.num_loops = 3 + static_cast<int>(rng.uniform(4));
    params.num_arrays = 2 + static_cast<int>(rng.uniform(3));
    params.n = 32;
    const Program p = workloads::random_program(rng, params);
    const auto graph = fusion::build_fusion_graph(p);
    using Solver = std::function<fusion::FusionPlan(const fusion::FusionGraph&)>;
    const std::vector<Solver> solvers = {
        [](const fusion::FusionGraph& g) {
          return fusion::exact_enumeration(g);
        },
        fusion::greedy_fusion, fusion::recursive_bisection};
    for (const Solver& solver : solvers) {
      const auto plan = solver(graph);
      const Program fused = apply_fusion(p, graph, plan);
      expect_same_semantics(p, fused);
    }
  }
}

// -- Store elimination ---------------------------------------------------------

TEST(StoreElim, Figure7RemovesResWritebacks) {
  const Program p = workloads::fig7_original(64);
  const auto graph = fusion::build_fusion_graph(p);
  const Program fused = apply_fusion(p, graph, fusion::best_fusion(graph));
  const StoreEliminationResult r = eliminate_stores(fused);
  ASSERT_EQ(r.eliminated.size(), 1u);
  EXPECT_EQ(r.program.array(r.eliminated[0]).name, "res");
  expect_same_semantics(p, r.program);
  // No array-assign to res remains.
  for (const auto& s : analysis::summarize_statements(r.program)) {
    const auto it = s.arrays.find(r.eliminated[0]);
    EXPECT_TRUE(it == s.arrays.end() || !it->second.written);
  }
}

TEST(StoreElim, KeepsOutputArrays) {
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.mark_output_array(a);
  p.append(loop("i", 1, 16, assign(a, {v("i")}, lvar("i"))));
  const StoreEliminationResult r = eliminate_stores(p);
  EXPECT_TRUE(r.eliminated.empty());
}

TEST(StoreElim, KeepsArraysReadLater) {
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 16, assign(a, {v("i")}, lvar("i"))));
  p.append(loop("i", 1, 16, assign("s", sref("s") + at(a, v("i")))));
  EXPECT_TRUE(eliminate_stores(p).eliminated.empty());
}

TEST(StoreElim, KeepsCrossIterationFlow) {
  // res[i] read at i+... different subscript tuples -> unsafe, must skip.
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, 15,
                assign(a, {v("i")}, lvar("i")),
                assign("s", sref("s") + at(a, v("i", -1)))));
  EXPECT_TRUE(eliminate_stores(p).eliminated.empty());
  expect_same_semantics(p, eliminate_stores(p).program);
}

TEST(StoreElim, EliminatesWriteOnlyDeadArray) {
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 16, assign(a, {v("i")}, lvar("i") * lit(2.0))));
  p.append(assign("s", lit(1.0)));
  const StoreEliminationResult r = eliminate_stores(p);
  ASSERT_EQ(r.eliminated.size(), 1u);
  expect_same_semantics(p, r.program);
}

TEST(StoreElim, ReadsBeforeWriteKeepOldValues) {
  // sum1 collects the OLD value of a[i]; the write is then dead.
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 16,
                assign("s", sref("s") + at(a, v("i"))),
                assign(a, {v("i")}, lit(7.0))));
  const StoreEliminationResult r = eliminate_stores(p);
  EXPECT_EQ(r.eliminated.size(), 1u);
  expect_same_semantics(p, r.program);
}

TEST(StoreElim, DeclinesStoreUnderTwoVariableGuard) {
  // The splitter cannot refine i >= j, so the write's domain is inexact:
  // the iterations where i < j read t's old values, which a forwarding
  // scalar would replace by the last stored value.
  Program p("t");
  const ArrayId x = p.add_array("x", {8, 8});
  const ArrayId t = p.add_array("t", {8, 8});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop(
      "j", 1, 8,
      loop("i", 1, 8,
           when(ir::CmpOp::kGe, v("i") - v("j"), k(0),
                assign(t, {v("i"), v("j")}, at(x, v("i"), v("j")) * lit(2.0))),
           assign("s", sref("s") + at(t, v("i"), v("j"))))));
  const StoreEliminationResult r = eliminate_stores(p);
  EXPECT_TRUE(r.eliminated.empty()) << ir::to_string(r.program);
  expect_same_semantics(p, r.program);
}

TEST(StoreElim, NonNarrowingGuardsStillEliminate) {
  // i >= 1 holds at every iteration of i = 2..15: the guarded references
  // run at every iteration, in static order.
  Program p("t");
  const ArrayId x = p.add_array("x", {16});
  const ArrayId t = p.add_array("t", {16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, 15,
                when(ir::CmpOp::kGe, v("i"), k(1),
                     assign(t, {v("i")}, at(x, v("i")) * lit(2.0))),
                assign("s", sref("s") + at(t, v("i")))));
  const StoreEliminationResult r = eliminate_stores(p);
  EXPECT_EQ(r.eliminated, std::vector<ArrayId>{t});
  expect_same_semantics(p, r.program);
}

/// One statement of a 1-D loop over i = 2..n-1 (2-D: inside j = 1..m),
/// bare half of the time, else under a narrowing (i >= 3, i <= n-2),
/// non-narrowing (i >= 1), unreachable (i > n) or, in 2-D nests,
/// two-variable (i >= j) guard.
ir::StmtPtr random_guard(Prng& rng, bool two_d, std::int64_t n,
                         ir::StmtPtr st) {
  if (rng.uniform(2) == 0) return st;
  switch (rng.uniform(two_d ? 5 : 4)) {
    case 0:
      return when(ir::CmpOp::kGe, v("i"), k(3), std::move(st));
    case 1:
      return when(ir::CmpOp::kLe, v("i"), k(n - 2), std::move(st));
    case 2:
      return when(ir::CmpOp::kGe, v("i"), k(1), std::move(st));
    case 3:
      return when(ir::CmpOp::kGt, v("i"), k(n), std::move(st));
    default:
      return when(ir::CmpOp::kGe, v("i") - v("j"), k(0), std::move(st));
  }
}

/// One 1-D loop or 2-D nest whose statements write t, read it back (also
/// read-modify-write), and read a three-point stencil of x, each under a
/// random guard; then a loop that may read t again.
Program random_guarded_loop(Prng& rng) {
  constexpr std::int64_t n = 12, m = 4;
  const bool two_d = rng.uniform(2) == 0;
  Program p("random guarded loop");
  const std::vector<std::int64_t> extents =
      two_d ? std::vector<std::int64_t>{n + 1, m}
            : std::vector<std::int64_t>{n + 1};
  const ArrayId x = p.add_array("x", extents);
  const ArrayId t = p.add_array("t", extents);
  const ArrayId c = p.add_array("c", extents);
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.mark_output_array(c);
  const auto tuple = [&](std::int64_t offset, ir::Affine col) {
    std::vector<ir::Affine> subs = {v("i", offset)};
    if (two_d) subs.push_back(std::move(col));
    return subs;
  };
  const auto ref = [&](ArrayId a, std::int64_t offset) {
    return ir::make_array_ref(a, tuple(offset, v("j")));
  };
  ir::StmtList body;
  const std::uint64_t statements = 2 + rng.uniform(3);
  for (std::uint64_t q = 0; q < statements; ++q) {
    ir::StmtPtr st;
    switch (q == 0 ? 0 : rng.uniform(5)) {
      case 0:
        st = assign(t, tuple(0, v("j")), ref(x, 0) * lit(2.0));
        break;
      case 1:
        st = assign(c, tuple(0, v("j")), ref(t, 0) + ref(x, -1) + ref(x, 1));
        break;
      case 2:
        st = assign("s", sref("s") + ref(t, 0));
        break;
      case 3:
        st = assign(c, tuple(0, v("j")), ref(x, -1) + ref(x, 0) + ref(x, 1));
        break;
      default:
        st = assign(t, tuple(0, v("j")), ref(t, 0) + lit(1.0));
        break;
    }
    body.push_back(random_guard(rng, two_d, n, std::move(st)));
  }
  ir::StmtPtr nest = loop_b("i", 2, n - 1, std::move(body));
  p.append(two_d ? loop("j", 1, m, std::move(nest)) : std::move(nest));
  if (rng.uniform(2) == 0) {
    p.append(loop("i", 2, n - 1,
                  assign("s", sref("s") + ir::make_array_ref(
                                              t, tuple(0, k(1))))));
  }
  return p;
}

TEST(StorageDecisions, RandomGuardedLoopsKeepChecksum) {
  // Unverified, so a wrong decision shows as a changed checksum (or a
  // failed assertion in the rewrite) rather than as a verifier rejection.
  pass::PipelineOptions unverified;
  unverified.verify = false;
  Prng rng(19);
  for (int trial = 0; trial < 300; ++trial) {
    const Program p = random_guarded_loop(rng);
    for (const char* spec :
         {"eliminate-stores", "scalar-replace",
          "fuse(solver=best),reduce-storage,eliminate-stores"}) {
      SCOPED_TRACE(std::string(spec) + " on trial " + std::to_string(trial));
      expect_same_semantics(p, core::optimize(p, spec, unverified).program);
    }
  }
}

// -- Storage reduction ------------------------------------------------------------

TEST(StorageReduction, ContractsIterationLocalArray) {
  Program p("t");
  const ArrayId t = p.add_array("tmp", {64});
  const ArrayId a = p.add_array("a", {64});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 64,
                assign(t, {v("i")}, at(a, v("i")) * lit(2.0)),
                assign("s", sref("s") + at(t, v("i")))));
  const StorageReductionResult r = reduce_storage(p);
  ASSERT_EQ(r.actions.size(), 1u);
  EXPECT_NE(r.actions[0].find("contracted"), std::string::npos);
  expect_same_semantics(p, r.program);
  EXPECT_LT(r.referenced_bytes_after, r.referenced_bytes_before);
}

TEST(StorageReduction, KeepsArrayReadBeforeWritten) {
  // First access is a read of initial values: cannot contract.
  Program p("t");
  const ArrayId t = p.add_array("tmp", {64});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 64,
                assign("s", sref("s") + at(t, v("i"))),
                assign(t, {v("i")}, lit(1.0))));
  EXPECT_TRUE(reduce_storage(p).actions.empty());
}

TEST(StorageReduction, KeepsOutputArrays) {
  Program p("t");
  const ArrayId t = p.add_array("tmp", {64});
  p.mark_output_array(t);
  p.append(loop("i", 1, 64, assign(t, {v("i")}, lvar("i"))));
  EXPECT_TRUE(reduce_storage(p).actions.empty());
}

TEST(StorageReduction, KeepsCrossIterationCarrier) {
  // t[i] read at i-1 in the same 1-D loop: element live range crosses
  // iterations; 1-D arrays are not shrunk by this pass.
  Program p("t");
  const ArrayId t = p.add_array("tmp", {64});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, 63,
                assign(t, {v("i")}, lvar("i")),
                assign("s", sref("s") + at(t, v("i", -1)))));
  EXPECT_TRUE(reduce_storage(p).actions.empty());
  expect_same_semantics(p, reduce_storage(p).program);
}

TEST(StorageReduction, ShrinksTwoDimensionalSweep) {
  // b[i,j] written at j, read at j and j-1 (reads guarded away from j=lo):
  // the classic cur/prev shrink, no peel needed.
  Program p("t");
  const ArrayId b = p.add_array("b", {32, 32});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("j", 1, 32,
                loop("i", 1, 32,
                     assign(b, {v("i"), v("j")}, input2(3, v("i"), v("j"), 32, 32)),
                     when(ir::CmpOp::kGe, v("j"), k(2),
                          assign("s", sref("s") + (at(b, v("i"), v("j"))) +
                                          at(b, v("i"), v("j", -1)))))));
  const StorageReductionResult r = reduce_storage(p);
  ASSERT_FALSE(r.actions.empty());
  EXPECT_NE(r.actions[0].find("shrank"), std::string::npos);
  expect_same_semantics(p, r.program);
  // 32x32 doubles (8 KB) replaced by two 32-double buffers.
  EXPECT_LT(r.referenced_bytes_after, r.referenced_bytes_before / 4);
}

TEST(StorageReduction, Figure6FullPipeline) {
  const Program p = workloads::fig6_original(20);
  const auto graph = fusion::build_fusion_graph(p);
  const Program fused = apply_fusion(p, graph, fusion::best_fusion(graph));
  const StorageReductionResult r = reduce_storage(fused);
  expect_same_semantics(p, r.program);
  // Both N^2 arrays must be gone from the referenced set: only 1-D buffers
  // remain (3 column buffers for a; b becomes a scalar).
  EXPECT_LE(r.referenced_bytes_after, 3 * 20 * 8u);
  bool contracted_b = false, shrank_a = false;
  for (const auto& act : r.actions) {
    if (act.find("contracted array b") != std::string::npos)
      contracted_b = true;
    if (act.find("shrank array a") != std::string::npos) shrank_a = true;
  }
  EXPECT_TRUE(contracted_b);
  EXPECT_TRUE(shrank_a);
}

TEST(StorageReduction, RandomProgramsSafe) {
  // The pass must either leave random programs alone or keep semantics.
  Prng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const Program p = workloads::random_program(rng);
    const StorageReductionResult r = reduce_storage(p);
    expect_same_semantics(p, r.program);
  }
}

// A write of t that runs at only some iterations, followed by an unguarded
// read of t in the same iteration: at the other iterations the read sees
// t's initial contents, which a contracted scalar cannot reproduce. The
// guards are exactly the ones the interval splitter refines (or, for two
// loop variables, marks inexact), so the pass must see through each.
struct GuardedWrite {
  const char* name;
  Program (*make)();
};

void PrintTo(const GuardedWrite& shape, std::ostream* os) { *os << shape.name; }

Program guarded_write_1d(ir::CmpOp cmp, ir::Affine lhs, std::int64_t rhs,
                         bool else_arm) {
  Program p("guarded write");
  const ArrayId x = p.add_array("x", {16});
  const ArrayId t = p.add_array("t", {16});
  const ArrayId y = p.add_array("y", {16});
  p.mark_output_array(y);
  ir::StmtList write = block(assign(t, {v("i")}, at(x, v("i")) * lit(2.0)));
  ir::StmtList none;
  p.append(loop("i", 1, 16,
                if_else(cmp, std::move(lhs), k(rhs),
                        else_arm ? std::move(none) : std::move(write),
                        else_arm ? std::move(write) : ir::StmtList{}),
                assign(y, {v("i")}, at(t, v("i")))));
  return p;
}

const GuardedWrite kGuardedWrites[] = {
    {"not_equal",
     [] { return guarded_write_1d(ir::CmpOp::kNe, v("i"), 5, false); }},
    {"else_of_equal",
     [] { return guarded_write_1d(ir::CmpOp::kEq, v("i"), 1, true); }},
    {"scaled_coefficient",
     [] { return guarded_write_1d(ir::CmpOp::kGe, v("i") * 2, 8, false); }},
    {"two_variables",
     [] {
       Program p("guarded write 2-D");
       const ArrayId x = p.add_array("x", {8, 8});
       const ArrayId t = p.add_array("t", {8, 8});
       const ArrayId y = p.add_array("y", {8, 8});
       p.mark_output_array(y);
       p.append(loop(
           "i", 1, 8,
           loop("j", 1, 8,
                when(ir::CmpOp::kGe, v("i"), v("j"),
                     assign(t, {v("i"), v("j")},
                            at(x, v("i"), v("j")) * lit(2.0))),
                assign(y, {v("i"), v("j")}, at(t, v("i"), v("j"))))));
       return p;
     }},
};

class StorageReductionGuardedWrite
    : public ::testing::TestWithParam<GuardedWrite> {};

TEST_P(StorageReductionGuardedWrite, DeclinedWithMissedRemark) {
  const Program p = GetParam().make();
  core::OptimizeResult alone;
  ASSERT_NO_THROW(alone = core::optimize(p, "reduce-storage"));
  ASSERT_EQ(alone.pipeline.passes.size(), 1u);
  const pass::PassReport& report = alone.pipeline.passes.front();
  EXPECT_FALSE(report.changed);
  ASSERT_EQ(report.remarks.size(), 1u);
  EXPECT_EQ(report.remarks[0].kind, pass::RemarkKind::kMissed);
  EXPECT_EQ(report.remarks[0].code, "storage-no-candidates");
  EXPECT_TRUE(ir::equal(p, alone.program));
}

TEST_P(StorageReductionGuardedWrite, ChecksumKeptUnderEveryVerifyMode) {
  const Program p = GetParam().make();
  pass::PipelineOptions verified;
  pass::PipelineOptions static_only;
  static_only.static_verify = pass::StaticVerifyMode::kOnly;
  pass::PipelineOptions unverified;
  unverified.verify = false;
  for (const auto& [mode, options] :
       {std::pair{"verify", verified}, std::pair{"static-only", static_only},
        std::pair{"no-verify", unverified}}) {
    SCOPED_TRACE(mode);
    try {
      expect_same_semantics(
          p, core::optimize(p, core::kDefaultPipeline, options).program);
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, StorageReductionGuardedWrite,
                         ::testing::ValuesIn(kGuardedWrites),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(StorageReduction, SiblingInnerLoopsKeepTheirArray) {
  // One inner k loop writes t[i,k] and a sibling k loop reads it: every
  // element of row i is live across the first loop, so t cannot become a
  // scalar even though both references name the same tuple.
  Program p("sibling loops");
  const ArrayId x = p.add_array("x", {8});
  const ArrayId t = p.add_array("t", {8, 8});
  const ArrayId y = p.add_array("y", {8, 8});
  p.mark_output_array(y);
  p.append(loop("i", 1, 8,
                loop("k", 1, 8,
                     assign(t, {v("i"), v("k")}, at(x, v("k")) + lit(1.0))),
                loop("k", 1, 8,
                     assign(y, {v("i"), v("k")}, at(t, v("i"), v("k"))))));
  EXPECT_TRUE(reduce_storage(p).actions.empty());
  pass::PipelineOptions static_only;
  static_only.static_verify = pass::StaticVerifyMode::kOnly;
  expect_same_semantics(
      p, core::optimize(p, core::kDefaultPipeline, static_only).program);
}

TEST(StorageReduction, PinnedColumnOfALaterLoopIsPeeled) {
  // A later nest reads a[i,3] under j == 3: its own j is pinned, but it is
  // not the sweep's j, so the column must be peeled (and dual-written by
  // the sweep), never read as the sweep's current column.
  Program p("pinned column later");
  const ArrayId a = p.add_array("a", {8, 8});
  const ArrayId y = p.add_array("y", {8, 8});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.mark_output_array(y);
  p.append(loop(
      "j", 1, 8,
      loop("i", 1, 8,
           assign(a, {v("i"), v("j")}, input2(3, v("i"), v("j"), 8, 8)),
           when(ir::CmpOp::kGe, v("j"), k(2),
                assign("s", sref("s") + (at(a, v("i"), v("j")) +
                                         at(a, v("i"), v("j", -1))))))));
  p.append(loop("j", 1, 8,
                loop("i", 1, 8,
                     when(ir::CmpOp::kEq, v("j"), k(3),
                          assign(y, {v("i"), v("j")}, at(a, v("i"), k(3)))))));
  const StorageReductionResult r = reduce_storage(p);
  ASSERT_EQ(r.actions.size(), 1u);
  EXPECT_EQ(r.actions[0],
            "shrank array a to column buffers (cur/prev), peeled column(s) 3");
  expect_same_semantics(p, r.program);
}

/// One to three j/i sweeps over t[i,j], each statement under a random
/// guard: a write at column j, reads at j, at j-1 (under j >= 2) and at a
/// constant column. Guards compare i, 1*j or 2*j, or i - j (which the
/// splitter cannot refine), against a constant with any operator.
Program random_guarded_sweep(Prng& rng) {
  constexpr std::int64_t n = 6;
  Program p("random guarded sweep");
  const ArrayId x = p.add_array("x", {n, n});
  const ArrayId t = p.add_array("t", {n, n});
  const ArrayId y = p.add_array("y", {n, n});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.mark_output_array(y);
  const auto guarded = [&](ir::StmtPtr st) {
    if (rng.uniform(2) == 0) return st;
    const ir::Affine lhs[] = {v("i"), v("j"), v("j") * 2, v("i") - v("j")};
    const auto cmp = static_cast<ir::CmpOp>(rng.uniform(6));
    const ir::Affine& side = lhs[rng.uniform(4)];
    return when(cmp, side, k(static_cast<std::int64_t>(rng.uniform(n)) + 1),
                std::move(st));
  };
  const auto statement = [&](std::uint64_t kind) -> ir::StmtPtr {
    const std::vector<ir::Affine> ij = {v("i"), v("j")};
    switch (kind) {
      case 0:
        return guarded(assign(t, ij, at(x, v("i"), v("j")) * lit(2.0)));
      case 1:
        return when(ir::CmpOp::kGe, v("j"), k(2),
                    guarded(assign("s", sref("s") +
                                            at(t, v("i"), v("j", -1)))));
      case 2:
        return guarded(assign("s", sref("s") + at(t, v("i"), v("j"))));
      case 3:
        return guarded(assign(
            y, ij,
            at(t, v("i"), k(static_cast<std::int64_t>(rng.uniform(n)) + 1))));
      default:
        return guarded(assign(y, ij, at(t, v("i"), v("j")) + lit(1.0)));
    }
  };
  const std::uint64_t nests = 1 + rng.uniform(3);
  for (std::uint64_t nest = 0; nest < nests; ++nest) {
    ir::StmtList body;
    const std::uint64_t statements = 1 + rng.uniform(3);
    for (std::uint64_t q = 0; q < statements; ++q)
      body.push_back(statement(nest == 0 && q == 0 ? 0 : rng.uniform(5)));
    p.append(loop("j", 1, n, loop_b("i", 1, n, std::move(body))));
  }
  return p;
}

TEST(StorageReduction, RandomGuardedSweepsKeepChecksum) {
  // Unverified, so a wrong contraction, shrink or peel shows as a changed
  // checksum rather than as a verifier rejection.
  pass::PipelineOptions unverified;
  unverified.verify = false;
  Prng rng(18);
  for (int trial = 0; trial < 300; ++trial) {
    const Program p = random_guarded_sweep(rng);
    expect_same_semantics(
        p, core::optimize(p, core::kDefaultPipeline, unverified).program);
  }
}

TEST(StorageReduction, ExactDomainsStillContract) {
  // Figure 6: b's write under j >= 2 vouches for the j == N fix-up and the
  // j >= 2 read.
  const Program original = workloads::fig6_original(20);
  const auto graph = fusion::build_fusion_graph(original);
  const StorageReductionResult fig6 = reduce_storage(
      apply_fusion(original, graph, fusion::best_fusion(graph)));
  EXPECT_NE(std::find(fig6.actions.begin(), fig6.actions.end(),
                      "contracted array b to scalar b_s"),
            fig6.actions.end());

  // A write under i >= 2 covers a read under i >= 3.
  Program p("nested guards");
  const ArrayId x = p.add_array("x", {16});
  const ArrayId t = p.add_array("t", {16});
  const ArrayId y = p.add_array("y", {16});
  p.mark_output_array(y);
  p.append(loop("i", 1, 16,
                when(ir::CmpOp::kGe, v("i"), k(2),
                     assign(t, {v("i")}, at(x, v("i")) * lit(2.0))),
                when(ir::CmpOp::kGe, v("i"), k(3),
                     assign(y, {v("i")}, at(t, v("i"))))));
  const StorageReductionResult r = reduce_storage(p);
  ASSERT_EQ(r.actions.size(), 1u);
  EXPECT_EQ(r.actions[0], "contracted array t to scalar t_s");
  expect_same_semantics(p, r.program);
  const core::OptimizeResult full = core::optimize(p);
  expect_same_semantics(p, full.program);
}

// -- Full pipeline ------------------------------------------------------------------

TEST(Optimizer, Figure7EndToEnd) {
  const Program p = workloads::fig7_original(128);
  const core::OptimizeResult r = core::optimize(p);
  expect_same_semantics(p, r.program);
  EXPECT_EQ(r.plan.num_partitions, 1);
}

TEST(Optimizer, Figure6EndToEnd) {
  const Program p = workloads::fig6_original(24);
  const core::OptimizeResult r = core::optimize(p);
  expect_same_semantics(p, r.program);
}

TEST(Optimizer, RandomProgramsEndToEnd) {
  Prng rng(20240707);
  for (int trial = 0; trial < 30; ++trial) {
    workloads::RandomProgramParams params;
    params.num_loops = 2 + static_cast<int>(rng.uniform(5));
    params.num_arrays = 2 + static_cast<int>(rng.uniform(4));
    params.n = 24;
    const Program p = workloads::random_program(rng, params);
    for (const std::string solver : {"best", "greedy", "edge-weighted"}) {
      const core::OptimizeResult r = core::optimize(
          p, "fuse(solver=" + solver + "),reduce-storage,eliminate-stores");
      expect_same_semantics(p, r.program);
    }
  }
}

TEST(Optimizer, PassesCanBeDisabled) {
  const Program p = workloads::fig7_original(32);
  const core::OptimizeResult r = core::optimize(p, "");
  EXPECT_TRUE(ir::equal(p, r.program));
  EXPECT_TRUE(r.pipeline.passes.empty());
}

}  // namespace
}  // namespace bwc::transform
