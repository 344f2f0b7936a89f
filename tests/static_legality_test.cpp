// Unit and acceptance tests for the static legality provers
// (verify/static_legality): reschedule proofs for fusion / distribution /
// interchange, store-elimination and storage-reduction certificates, the
// static-first verification modes of the pass manager, and the coverage
// acceptance bar -- at least 80% of the transform applications across the
// bundled workloads must certify statically, with no trace fallback.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/ir/dsl.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/transform/distribute.h"
#include "bwc/transform/store_elimination.h"
#include "bwc/transform/storage_reduction.h"
#include "bwc/verify/static_legality.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"

namespace bwc::verify {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::Program;

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

TEST(StaticFirstVerification, OnlyModeNeverTracesAndSkipsUnknowns) {
  // fig6's storage reduction (shrink + peel) is outside the static
  // prover's model: in kOnly mode its check must be reported as skipped,
  // not silently certified and not trace-validated.
  pass::PipelineOptions opts;
  opts.static_verify = pass::StaticVerifyMode::kOnly;
  const core::OptimizeResult result = core::optimize(
      workloads::fig6_original(2000), core::kDefaultPipeline, opts);
  bool saw_skipped_unknown = false;
  for (const auto& report : result.pipeline.passes) {
    if (!report.verify.ran) continue;
    EXPECT_EQ(report.verify.check.rfind("static-", 0), 0u)
        << report.pass << " used " << report.verify.check;
    if (report.verify.skipped) saw_skipped_unknown = true;
  }
  EXPECT_TRUE(saw_skipped_unknown);
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
