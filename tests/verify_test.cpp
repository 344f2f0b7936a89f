// bwc::verify tests: structural validation, translation validation of the
// scheduling passes, observability certification of the storage passes,
// seeded-bug rejection, and the static traffic lower-bound invariant
// (bound <= memsim-measured memory<->L2 traffic on every workload,
// original and optimized).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/fusion/solvers.h"
#include "bwc/ir/dsl.h"
#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/transform/distribute.h"
#include "bwc/transform/fuse.h"
#include "bwc/transform/interchange.h"
#include "bwc/verify/verify.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::CmpOp;
using ir::Program;

bool has_code(const verify::Report& report, const std::string& code) {
  for (const auto& d : report.diags) {
    if (d.severity == verify::Severity::kError && d.code == code) return true;
  }
  return false;
}

/// Workloads small enough for full instance-level verification.
std::vector<std::pair<std::string, Program>> small_workloads() {
  std::vector<std::pair<std::string, Program>> w;
  w.emplace_back("fig6", workloads::fig6_original(20));
  w.emplace_back("fig7", workloads::fig7_original(512));
  w.emplace_back("sec21", workloads::sec21_both_loops(512));
  w.emplace_back("jacobi", workloads::jacobi_chain(128, 4));
  w.emplace_back("adi", workloads::adi_like(20));
  w.emplace_back("blur", workloads::blur_sharpen(256));
  w.emplace_back("cascade", workloads::reduction_cascade(256, 4));
  return w;
}

// ---------------------------------------------------------------------------
// Structural validation
// ---------------------------------------------------------------------------

TEST(Structure, AcceptsAllWorkloads) {
  for (const auto& [name, p] : small_workloads()) {
    const verify::Report r = verify::validate_structure(p);
    EXPECT_TRUE(r.ok()) << name << ":\n" << r.render();
  }
}

TEST(Structure, RejectsOutOfBoundsSubscript) {
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.mark_output_array(a);
  p.append(loop("i", 1, 16, assign(a, {v("i", 1)}, lvar("i"))));  // a[17]!
  const verify::Report r = verify::validate_structure(p);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "subscript-out-of-bounds")) << r.render();
  EXPECT_NE(r.first_error().find("[2, 17]"), std::string::npos) << r.render();
}

TEST(Structure, RejectsShrunkArrayDeclaration) {
  // The "shrunk live array" bug class: the code still addresses elements
  // the (reduced) declaration no longer provides.
  Program p("t");
  const ArrayId a = p.add_array("a", {15});  // one element short
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 16, assign("s", sref("s") + at(a, v("i")))));
  const verify::Report r = verify::validate_structure(p);
  EXPECT_TRUE(has_code(r, "subscript-out-of-bounds")) << r.render();
}

TEST(Structure, GuardRefinementAcceptsShiftedBodies) {
  // a[i-1] under `if (i >= 2)` never leaves [1, n]; without guard
  // refinement interval arithmetic would flag i-1 = 0.
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.mark_output_array(a);
  p.append(loop("i", 1, 16,
                when(CmpOp::kGe, v("i"), k(2),
                     assign(a, {v("i", -1)}, lvar("i")))));
  const verify::Report r = verify::validate_structure(p);
  EXPECT_TRUE(r.ok()) << r.render();
}

TEST(Structure, GuardRefinementStillSeesViolations) {
  // The guard admits i = 17, so a[i] can fault even under a guard.
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.mark_output_array(a);
  p.append(loop("i", 1, 17,
                when(CmpOp::kGe, v("i"), k(17), assign(a, {v("i")}, lit(1)))));
  const verify::Report r = verify::validate_structure(p);
  EXPECT_TRUE(has_code(r, "subscript-out-of-bounds")) << r.render();
}

TEST(Structure, RejectsUndeclaredScalarAndInvalidSlot) {
  Program p("t");
  p.add_scalar("s");
  p.append(loop("i", 1, 4, assign("s", sref("missing"))));
  p.append(loop("i", 1, 4, assign(7, {v("i")}, lit(0))));  // no array 7
  const verify::Report r = verify::validate_structure(p);
  EXPECT_TRUE(has_code(r, "scalar-undeclared")) << r.render();
  EXPECT_TRUE(has_code(r, "array-slot-invalid")) << r.render();
}

// ---------------------------------------------------------------------------
// Translation validation: acceptance
// ---------------------------------------------------------------------------

fusion::FusionPlan (*const kAllSolvers[])(const fusion::FusionGraph&) = {
    fusion::best_fusion,
    [](const fusion::FusionGraph& g) { return fusion::exact_enumeration(g); },
    fusion::greedy_fusion, fusion::recursive_bisection,
    fusion::edge_weighted_baseline};

TEST(Translation, CertifiesFusionAcrossWorkloadsAndSolvers) {
  for (const auto& [name, p] : small_workloads()) {
    for (const auto solve : kAllSolvers) {
      const fusion::FusionGraph g = fusion::build_fusion_graph(p);
      const fusion::FusionPlan plan = solve(g);
      const Program fused = transform::apply_fusion(p, g, plan);
      const verify::Report r = verify::validate_translation(p, fused);
      EXPECT_TRUE(r.ok() && !r.skipped)
          << name << " via " << plan.solver << ":\n" << r.render();
    }
  }
}

TEST(Translation, CertifiesShiftedFusion) {
  // Consumer reads a[i+2]: fusable only with a delay of 2.
  Program p("t");
  const ArrayId a = p.add_array("a", {56});
  const ArrayId b = p.add_array("b", {56});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, 40, assign(a, {v("i")}, at(b, v("i")) + lvar("i"))));
  p.append(loop("i", 8, 40, assign("s", sref("s") + at(a, v("i", 2)))));
  fusion::FusionGraphOptions opts;
  opts.allow_shifted_fusion = true;
  const fusion::FusionGraph g = fusion::build_fusion_graph(p, opts);
  const fusion::FusionPlan plan = fusion::best_fusion(g);
  ASSERT_EQ(plan.num_partitions, 1);
  const Program fused = transform::apply_fusion(p, g, plan);
  const verify::Report r = verify::validate_translation(p, fused);
  EXPECT_TRUE(r.ok() && !r.skipped) << r.render();
}

TEST(Translation, CertifiesInterchange) {
  Program p("t");
  const ArrayId a = p.add_array("a", {24, 24});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 24,
                loop("j", 1, 24, assign("s", sref("s") + at(a, v("i"), v("j"))))));
  transform::InterchangeResult ir = transform::auto_interchange(p);
  ASSERT_FALSE(ir.interchanged.empty());
  const verify::Report r = verify::validate_translation(p, ir.program);
  EXPECT_TRUE(r.ok() && !r.skipped) << r.render();
}

TEST(Translation, CertifiesDistribution) {
  Program p("t");
  const ArrayId a = p.add_array("a", {40});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 4, 36,
                assign(a, {v("i")}, lvar("i") * lit(0.5)),
                assign("s", sref("s") + at(a, v("i", -1)))));
  const transform::DistributionResult d = transform::distribute_loops(p);
  ASSERT_EQ(d.loops_after, 2);
  const verify::Report r = verify::validate_translation(p, d.program);
  EXPECT_TRUE(r.ok() && !r.skipped) << r.render();
}

// ---------------------------------------------------------------------------
// Translation validation: seeded bugs must be rejected with a diagnostic
// naming the violated dependence.
// ---------------------------------------------------------------------------

/// Producer loop writing a, consumer loop reducing it.
Program producer_consumer() {
  Program p("t");
  const ArrayId a = p.add_array("a", {40});
  const ArrayId b = p.add_array("b", {40});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 32, assign(a, {v("i")}, at(b, v("i")) + lvar("i"))));
  p.append(loop("i", 1, 32, assign("s", sref("s") * at(a, v("i")))));
  return p;
}

TEST(Translation, RejectsReorderedStatements) {
  const Program p = producer_consumer();
  Program bad("t");
  const ArrayId a = bad.add_array("a", {40});
  const ArrayId b = bad.add_array("b", {40});
  bad.add_scalar("s");
  bad.mark_output_scalar("s");
  // Consumer scheduled before its producer: every flow dependence on a[i]
  // is reversed.
  bad.append(loop("i", 1, 32, assign("s", sref("s") * at(a, v("i")))));
  bad.append(loop("i", 1, 32, assign(a, {v("i")}, at(b, v("i")) + lvar("i"))));
  const verify::Report r = verify::validate_translation(p, bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "flow-dependence-reversed")) << r.render();
  // The diagnostic names the violated dependence's location.
  EXPECT_NE(r.first_error().find("a["), std::string::npos) << r.render();
}

TEST(Translation, RejectsDroppedWriteback) {
  const Program p = producer_consumer();
  Program bad("t");
  const ArrayId a = bad.add_array("a", {40});
  bad.add_array("b", {40});
  bad.add_scalar("s");
  bad.mark_output_scalar("s");
  // Producer loop dropped entirely.
  bad.append(loop("i", 1, 32, assign("s", sref("s") * at(a, v("i")))));
  const verify::Report r = verify::validate_translation(p, bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "instance-missing")) << r.render();
}

TEST(Translation, RejectsAlteredComputation) {
  const Program p = producer_consumer();
  Program bad = p.clone();
  // Same shape, different arithmetic: b[i] - i instead of b[i] + i.
  bad.top()[0] = loop(
      "i", 1, 32,
      assign(0, {v("i")}, at(1, v("i")) - lvar("i")));
  const verify::Report r = verify::validate_translation(p, bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "instance-missing")) << r.render();
}

TEST(Translation, RejectsDuplicatedInstances) {
  const Program p = producer_consumer();
  Program bad = p.clone();
  bad.append(loop("i", 1, 32,
                  assign(0, {v("i")}, at(1, v("i")) + lvar("i"))));
  const verify::Report r = verify::validate_translation(p, bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "instance-extra")) << r.render();
}

TEST(Translation, RejectsReversedOutputDependence) {
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.mark_output_array(a);
  p.append(loop("i", 1, 16, assign(a, {v("i")}, lit(1.0))));
  p.append(loop("i", 1, 16, assign(a, {v("i")}, lit(2.0))));
  Program bad("t");
  const ArrayId a2 = bad.add_array("a", {16});
  bad.mark_output_array(a2);
  bad.append(loop("i", 1, 16, assign(a2, {v("i")}, lit(2.0))));
  bad.append(loop("i", 1, 16, assign(a2, {v("i")}, lit(1.0))));
  const verify::Report r = verify::validate_translation(p, bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "output-dependence-reversed")) << r.render();
}

TEST(Translation, RejectsChangedOutputs) {
  const Program p = producer_consumer();
  Program bad = p.clone();
  bad.mark_output_array(0);  // adds array a to the observable outputs
  const verify::Report r = verify::validate_translation(p, bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "outputs-changed")) << r.render();
}

TEST(Translation, AcceptsReductionInterleavingButNotPartialReads) {
  // Two reduction loops into s: fusing interleaves the updates -- legal.
  Program p("t");
  const ArrayId a = p.add_array("a", {40});
  const ArrayId b = p.add_array("b", {40});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 32, assign("s", sref("s") + at(a, v("i")))));
  p.append(loop("i", 1, 32, assign("s", sref("s") + at(b, v("i")))));
  Program fused("t");
  const ArrayId fa = fused.add_array("a", {40});
  const ArrayId fb = fused.add_array("b", {40});
  fused.add_scalar("s");
  fused.mark_output_scalar("s");
  fused.append(loop("i", 1, 32,
                    assign("s", sref("s") + at(fa, v("i"))),
                    assign("s", sref("s") + at(fb, v("i")))));
  const verify::Report r = verify::validate_translation(p, fused);
  EXPECT_TRUE(r.ok()) << r.render();

  // But a non-reduction read of s moved across updates sees a partial sum.
  Program p2 = p.clone();
  const ArrayId c = p2.add_array("c", {40});
  p2.mark_output_array(c);
  p2.append(loop("i", 1, 32, assign(c, {v("i")}, sref("s"))));
  Program bad("t");
  const ArrayId ba = bad.add_array("a", {40});
  const ArrayId bb = bad.add_array("b", {40});
  bad.add_scalar("s");
  bad.mark_output_scalar("s");
  const ArrayId bc = bad.add_array("c", {40});
  bad.mark_output_array(bc);
  bad.append(loop("i", 1, 32, assign("s", sref("s") + at(ba, v("i")))));
  bad.append(loop("i", 1, 32, assign(bc, {v("i")}, sref("s"))));  // too early
  bad.append(loop("i", 1, 32, assign("s", sref("s") + at(bb, v("i")))));
  const verify::Report r2 = verify::validate_translation(p2, bad);
  EXPECT_FALSE(r2.ok());
  EXPECT_TRUE(has_code(r2, "reduction-read-partial")) << r2.render();
}

TEST(Translation, SkipsOversizedTraces) {
  // The static estimate exceeds the event budget: refused before tracing.
  const Program p = workloads::fig7_original(400000);
  ASSERT_GT(verify::estimate_events(p), verify::kMaxTraceEvents);
  const verify::Report r = verify::validate_translation(p, p);
  EXPECT_TRUE(r.skipped);
  EXPECT_TRUE(r.ok()) << r.render();
}

// ---------------------------------------------------------------------------
// Observability certification of the storage passes
// ---------------------------------------------------------------------------

/// pre: t[i] produced and consumed in the same iteration; c is the output.
Program store_elim_pre(bool second_loop_reads_t, bool t_is_output) {
  Program p("t");
  const ArrayId t = p.add_array("t", {40});
  const ArrayId b = p.add_array("b", {40});
  const ArrayId c = p.add_array("c", {40});
  p.mark_output_array(c);
  if (t_is_output) p.mark_output_array(t);
  p.append(loop("i", 1, 32,
                assign(t, {v("i")}, at(b, v("i")) * lit(2.0)),
                assign(c, {v("i")}, at(t, v("i")) + lit(1.0))));
  if (second_loop_reads_t) {
    p.append(loop("i", 1, 32,
                  assign(c, {v("i")}, at(c, v("i")) + at(t, v("i")))));
  }
  return p;
}

/// post: the store to t forwarded through the scalar t_t.
Program store_elim_post() {
  Program p("t");
  p.add_array("t", {40});
  const ArrayId b = p.add_array("b", {40});
  const ArrayId c = p.add_array("c", {40});
  p.mark_output_array(c);
  p.add_scalar("t_t");
  p.append(loop("i", 1, 32,
                assign("t_t", at(b, v("i")) * lit(2.0)),
                assign(c, {v("i")}, sref("t_t") + lit(1.0))));
  return p;
}

TEST(Observability, CertifiesStoreElimination) {
  const verify::Report r = verify::validate_store_elimination(
      store_elim_pre(false, false), store_elim_post());
  EXPECT_TRUE(r.ok() && !r.skipped) << r.render();
}

TEST(Observability, RejectsEliminatingOutputArrayStores) {
  Program pre = store_elim_pre(false, true);  // t is observable!
  const verify::Report r =
      verify::validate_store_elimination(pre, store_elim_post());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "store-elim-output")) << r.render();
}

TEST(Observability, RejectsEliminatingEscapingStores) {
  // A second loop observes t: the store's value escapes its iteration.
  Program pre = store_elim_pre(true, false);
  Program post = store_elim_post();
  post.append(loop("i", 1, 32,
                   assign(2, {v("i")}, at(2, v("i")) + at(0, v("i")))));
  const verify::Report r = verify::validate_store_elimination(pre, post);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "store-elim-observed")) << r.render();
}

TEST(Observability, CertifiesStorageReduction) {
  // t contracted to the scalar tt: one value live at a time.
  Program pre("t");
  const ArrayId t = pre.add_array("t", {40});
  const ArrayId b = pre.add_array("b", {40});
  const ArrayId c = pre.add_array("c", {40});
  pre.mark_output_array(c);
  pre.append(loop("i", 1, 32,
                  assign(t, {v("i")}, at(b, v("i")) + lit(3.0)),
                  assign(c, {v("i")}, at(t, v("i")) * lit(0.5))));
  Program post("t");
  post.add_array("t", {40});
  const ArrayId pb = post.add_array("b", {40});
  const ArrayId pc = post.add_array("c", {40});
  post.mark_output_array(pc);
  post.add_scalar("tt");
  post.append(loop("i", 1, 32,
                   assign("tt", at(pb, v("i")) + lit(3.0)),
                   assign(pc, {v("i")}, sref("tt") * lit(0.5))));
  const verify::Report r = verify::validate_storage_reduction(pre, post);
  EXPECT_TRUE(r.ok() && !r.skipped) << r.render();
}

TEST(Observability, RejectsShrinkingBelowPeakLiveSet) {
  // c[i] needs t[i] and t[i-1]: two values live at once; a single scalar
  // (8 bytes) cannot hold the 16-byte peak live set.
  Program pre("t");
  const ArrayId t = pre.add_array("t", {40});
  const ArrayId b = pre.add_array("b", {40});
  const ArrayId c = pre.add_array("c", {40});
  pre.mark_output_array(c);
  pre.append(loop("i", 1, 32, assign(t, {v("i")}, at(b, v("i")) + lit(3.0))));
  pre.append(loop("i", 2, 32,
                  assign(c, {v("i")}, at(t, v("i")) + at(t, v("i", -1)))));
  Program post("t");
  post.add_array("t", {40});
  const ArrayId pb = post.add_array("b", {40});
  const ArrayId pc = post.add_array("c", {40});
  post.mark_output_array(pc);
  post.add_scalar("tt");
  post.append(loop("i", 2, 32,
                   assign("tt", at(pb, v("i")) + lit(3.0)),
                   assign(pc, {v("i")}, sref("tt") + sref("tt"))));
  const verify::Report r = verify::validate_storage_reduction(pre, post);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "storage-reduction-capacity")) << r.render();
}

TEST(Observability, ReadModifyWriteFitsOneScalar) {
  // t[i] is read and rewritten by one instance: the old value dies at the
  // read, as the new one is born, so one scalar holds the live set.
  Program pre("t");
  const ArrayId t = pre.add_array("t", {40});
  const ArrayId b = pre.add_array("b", {40});
  const ArrayId c = pre.add_array("c", {40});
  pre.mark_output_array(c);
  pre.append(loop("i", 1, 32,
                  assign(t, {v("i")}, at(b, v("i"))),
                  assign(t, {v("i")}, at(t, v("i")) + lit(1.0)),
                  assign(c, {v("i")}, at(t, v("i")))));
  Program post("t");
  post.add_array("t", {40});
  const ArrayId pb = post.add_array("b", {40});
  const ArrayId pc = post.add_array("c", {40});
  post.mark_output_array(pc);
  post.add_scalar("tt");
  post.append(loop("i", 1, 32,
                   assign("tt", at(pb, v("i"))),
                   assign("tt", sref("tt") + lit(1.0)),
                   assign(pc, {v("i")}, sref("tt"))));
  const verify::Report r = verify::validate_storage_reduction(pre, post);
  EXPECT_TRUE(r.ok() && !r.skipped) << r.render();
}

TEST(Observability, RejectsValueReadAfterSuccessorIsBorn) {
  // t[i+1] is born before c[i] reads t[i]: two values live at once, which
  // one scalar cannot hold.
  Program pre("t");
  const ArrayId t = pre.add_array("t", {40});
  const ArrayId b = pre.add_array("b", {40});
  const ArrayId c = pre.add_array("c", {40});
  pre.mark_output_array(c);
  pre.append(assign(t, {k(1)}, at(b, k(1))));
  pre.append(loop("i", 1, 32,
                  assign(t, {v("i", 1)}, lit(2.0) * at(t, v("i"))),
                  assign(c, {v("i")}, at(t, v("i")))));
  Program post("t");
  post.add_array("t", {40});
  const ArrayId pb = post.add_array("b", {40});
  const ArrayId pc = post.add_array("c", {40});
  post.mark_output_array(pc);
  post.add_scalar("tt");
  post.append(assign("tt", at(pb, k(1))));
  post.append(loop("i", 1, 32,
                   assign("tt", lit(2.0) * sref("tt")),
                   assign(pc, {v("i")}, sref("tt"))));
  const verify::Report r = verify::validate_storage_reduction(pre, post);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "storage-reduction-capacity")) << r.render();
}

TEST(Observability, RejectsReducingOutputArray) {
  Program pre("t");
  const ArrayId t = pre.add_array("t", {40});
  const ArrayId b = pre.add_array("b", {40});
  pre.mark_output_array(t);
  pre.append(loop("i", 1, 32, assign(t, {v("i")}, at(b, v("i")))));
  Program post("t");
  const ArrayId pt = post.add_array("t", {40});
  post.add_array("b", {40});
  post.mark_output_array(pt);
  post.add_scalar("tt");
  post.append(loop("i", 1, 32, assign("tt", lit(0.0))));
  const verify::Report r = verify::validate_storage_reduction(pre, post);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_code(r, "storage-reduction-output")) << r.render();
}

// ---------------------------------------------------------------------------
// Pipeline integration: the verifier runs inside core::optimize
// ---------------------------------------------------------------------------

TEST(Pipeline, VerifierCertifiesEveryPass) {
  const core::OptimizeResult result = core::optimize(
      workloads::blur_sharpen(256),
      "interchange,fuse(solver=best,shift=1),reduce-storage,eliminate-stores,"
      "scalar-replace");
  int verified_passes = 0;
  for (const auto& report : result.pipeline.passes) {
    if (report.verify.ran) {
      ++verified_passes;
      EXPECT_TRUE(report.changed) << report.pass;
      EXPECT_FALSE(report.verify.check.empty()) << report.pass;
    }
  }
  EXPECT_GE(verified_passes, 2) << result.pipeline.to_text();
}

TEST(Pipeline, VerifyOffProducesNoVerifyLines) {
  pass::PipelineOptions opts;
  opts.verify = false;
  const core::OptimizeResult result = core::optimize(
      workloads::blur_sharpen(256), core::kDefaultPipeline, opts);
  for (const auto& report : result.pipeline.passes) {
    EXPECT_FALSE(report.verify.ran) << report.pass;
  }
}

TEST(Pipeline, OversizedProgramsDegradeToStructuralChecks) {
  const Program p = workloads::fig7_original(400000);
  ASSERT_GT(verify::estimate_events(p), verify::kMaxTraceEvents);
  pass::PipelineOptions opts;
  // The static prover certifies fig7's transforms without replaying events;
  // force trace-only verification so the event budget is actually exercised.
  opts.static_verify = pass::StaticVerifyMode::kOff;
  const core::OptimizeResult result =
      core::optimize(p, core::kDefaultPipeline, opts);
  bool skipped = false;
  for (const auto& report : result.pipeline.passes) {
    if (report.verify.ran && report.verify.skipped) {
      skipped = true;
      EXPECT_FALSE(report.verify.skip_reason.empty()) << report.pass;
    }
  }
  EXPECT_TRUE(skipped) << result.pipeline.to_text();
}

// ---------------------------------------------------------------------------
// Static traffic lower bound vs. measured traffic
// ---------------------------------------------------------------------------

void expect_bound_holds(const std::string& name, const Program& p,
                        const machine::MachineModel& machine) {
  const verify::TrafficBound bound = verify::compute_traffic_bound(p);
  const model::Measurement m = model::measure(p, machine);
  EXPECT_LE(static_cast<std::uint64_t>(bound.lower_bound_bytes),
            m.profile.memory_bytes())
      << name << ":\n" << bound.render();
  EXPECT_GE(static_cast<std::uint64_t>(bound.flops_upper_bound),
            m.profile.flops)
      << name << ":\n" << bound.render();
}

TEST(TrafficBound, HoldsOnAllWorkloadsOriginalAndOptimized) {
  const machine::MachineModel machine = machine::origin2000_r10k().scaled(16);
  for (const auto& [name, p] : small_workloads()) {
    expect_bound_holds(name, p, machine);
    const core::OptimizeResult result = core::optimize(
        p,
        "interchange,fuse(solver=best,shift=1),reduce-storage,"
        "eliminate-stores");
    expect_bound_holds(name + " (optimized)", result.program, machine);
  }
}

TEST(TrafficBound, HoldsOnRandomPrograms) {
  const machine::MachineModel machine = machine::origin2000_r10k().scaled(16);
  const std::string passes =
      "fuse(solver=best,shift=1),reduce-storage,eliminate-stores";
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Prng rng(seed);
    const Program p = workloads::random_program(rng);
    expect_bound_holds("random/" + std::to_string(seed), p, machine);
    const core::OptimizeResult result = core::optimize(p, passes);
    expect_bound_holds("random/" + std::to_string(seed) + " (optimized)",
                       result.program, machine);
    Prng rng2(seed);
    const Program p2 = workloads::random_program_2d(rng2, 12, 3);
    expect_bound_holds("random2d/" + std::to_string(seed), p2, machine);
    const core::OptimizeResult r2 = core::optimize(p2, passes);
    expect_bound_holds("random2d/" + std::to_string(seed) + " (optimized)",
                       r2.program, machine);
  }
}

TEST(TrafficBound, ExactOnSimpleReduction) {
  const std::int64_t n = 64;
  Program p("t");
  const ArrayId a = p.add_array("a", {n});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, n, assign("s", sref("s") + at(a, v("i")))));
  const verify::TrafficBound bound = verify::compute_traffic_bound(p);
  EXPECT_EQ(bound.lower_bound_bytes, n * 8);
  EXPECT_EQ(bound.flops_upper_bound, n);
  ASSERT_EQ(bound.arrays.size(), 1u);
  EXPECT_TRUE(bound.arrays[0].exact);
  EXPECT_EQ(bound.arrays[0].distinct_elements, n);
}

TEST(TrafficBound, UnionOfBoxesMergesOverlappingStencilRefs) {
  // a[i-1], a[i], a[i+1] over i in [2, 31]: the union is [1, 32], not 3x30.
  Program p("t");
  const ArrayId a = p.add_array("a", {40});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 2, 31,
                assign("s", sref("s") + at(a, v("i", -1)) + at(a, v("i")) +
                                at(a, v("i", 1)))));
  const verify::TrafficBound bound = verify::compute_traffic_bound(p);
  ASSERT_EQ(bound.arrays.size(), 1u);
  EXPECT_EQ(bound.arrays[0].distinct_elements, 32);
  EXPECT_TRUE(bound.arrays[0].exact);
}

TEST(TrafficBound, GuardedRefsRefineThroughSingleVarGuards) {
  // Promotion-style guard: the ref executes on exactly one iteration.
  Program p("t");
  const ArrayId a = p.add_array("a", {40});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 32,
                when(CmpOp::kEq, v("i"), k(7),
                     assign("s", sref("s") + at(a, v("i"))))));
  const verify::TrafficBound bound = verify::compute_traffic_bound(p);
  ASSERT_EQ(bound.arrays.size(), 1u);
  EXPECT_EQ(bound.arrays[0].distinct_elements, 1);
  EXPECT_TRUE(bound.arrays[0].exact);
}

// Nests whose inner loop reuses the outer loop's name: a subscript or
// guard variable names the innermost loop, as at run time.

/// for i = 1, 1000 / for i = 1, 2 / a[i] = (b[i] + 1)
Program shadowed_copy() {
  Program p("shadowed copy");
  const ArrayId a = p.add_array("a", {1000});
  const ArrayId b = p.add_array("b", {1000});
  p.mark_output_array(a);
  p.append(loop("i", 1, 1000,
                loop("i", 1, 2, assign(a, {v("i")}, at(b, v("i")) + lit(1)))));
  return p;
}

/// A guarded update of `a` in a shadowed nest, then loops reading it
/// (examples/programs/shadowed_guard.bwc).
Program shadowed_guard() {
  Program p("shadowed guard");
  const ArrayId a = p.add_array("a", {16});
  const ArrayId b = p.add_array("b", {16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 2,
                loop("i", 1, 16,
                     when(CmpOp::kGe, v("i"), k(8),
                          assign(a, {v("i")}, at(a, v("i")) + lit(1))))));
  p.append(loop("j", 1, 16, assign(b, {v("j")}, at(a, v("j")) * lit(2))));
  p.append(assign("s", lit(0)));
  p.append(loop("j", 1, 16, assign("s", sref("s") + at(b, v("j")))));
  return p;
}

/// for i = 1, 2 / for i = 1, 16 / if (i >= 2) s = (s + a[i]): 30 flops
/// run; refining the outer i would bound them by 16.
Program shadowed_guarded_sum() {
  Program p("shadowed guarded sum");
  const ArrayId a = p.add_array("a", {16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 2,
                loop("i", 1, 16,
                     when(CmpOp::kGe, v("i"), k(2),
                          assign("s", sref("s") + at(a, v("i")))))));
  return p;
}

/// An unguarded update of `a` in a shadowed nest, then loops reading it.
/// The default pipeline rejects it (ROADMAP: repeated loop names).
Program shadowed_update() {
  Program p("shadowed update");
  const ArrayId a = p.add_array("a", {16});
  const ArrayId c = p.add_array("c", {16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 16,
                loop("i", 1, 16,
                     assign(a, {v("i")}, at(a, v("i")) + lit(1)))));
  p.append(loop("j", 1, 16, assign(c, {v("j")}, at(a, v("j")) * lit(2))));
  p.append(assign("s", lit(0)));
  p.append(loop("j", 1, 16, assign("s", sref("s") + at(c, v("j")))));
  return p;
}

TEST(TrafficBound, ShadowedLoopVariableBindsInnermost) {
  const verify::TrafficBound bound =
      verify::compute_traffic_bound(shadowed_copy());
  ASSERT_EQ(bound.arrays.size(), 2u);
  EXPECT_EQ(bound.arrays[1].name, "b");
  EXPECT_EQ(bound.arrays[1].distinct_elements, 2);
  EXPECT_TRUE(bound.arrays[1].exact);
}

TEST(TrafficBound, GuardedRefCountedOncePerReference) {
  // The != guard leaves i two pieces, so the write has two boxes; the
  // two-variable guard below it excludes the write once.
  Program p("t");
  const ArrayId a = p.add_array("a", {8, 8});
  p.mark_output_array(a);
  p.append(loop("i", 1, 8,
                loop("j", 1, 8,
                     when(CmpOp::kNe, v("i"), k(4),
                          when(CmpOp::kLe, v("i") + v("j"), k(8),
                               assign(a, {v("i"), v("j")}, lit(1)))))));
  const verify::TrafficBound bound = verify::compute_traffic_bound(p);
  ASSERT_EQ(bound.arrays.size(), 1u);
  EXPECT_EQ(bound.arrays[0].guarded_refs, 1);
  EXPECT_FALSE(bound.arrays[0].exact);
}

TEST(TrafficBound, HoldsOnShadowedNests) {
  const machine::MachineModel machine = machine::origin2000_r10k().scaled(16);
  for (Program (*make)() : {shadowed_copy, shadowed_guard,
                            shadowed_guarded_sum, shadowed_update}) {
    const Program p = make();
    expect_bound_holds(p.name(), p, machine);
    if (make == shadowed_update) continue;  // the pipeline rejects it
    expect_bound_holds(p.name() + " (optimized)", core::optimize(p).program,
                       machine);
  }
}

/// Guarded nests for the pinned table: one guard the splitter refines
/// with an else arm, one `!=` that splits a domain in two, and one
/// two-variable guard it cannot refine.
Program single_var_guard_nest() {
  Program p("single-var guard");
  const ArrayId a = p.add_array("a", {40});
  const ArrayId b = p.add_array("b", {40});
  p.mark_output_array(a);
  p.append(loop("i", 1, 32,
                if_else(CmpOp::kGe, v("i"), k(8),
                        block(assign(a, {v("i")}, at(b, v("i")) + lit(1))),
                        block(assign(b, {v("i")}, at(a, v("i", 1)) * lit(2))))));
  return p;
}

Program not_equal_guard_nest() {
  Program p("!= guard");
  const ArrayId c = p.add_array("c", {16, 16});
  const ArrayId d = p.add_array("d", {16, 16});
  p.mark_output_array(c);
  p.append(loop("i", 1, 16,
                loop("j", 2, 16,
                     when(CmpOp::kNe, v("j"), k(5),
                          assign(c, {v("i"), v("j")},
                                 at(c, v("i"), v("j", -1)) +
                                     at(d, v("j"), v("i")))))));
  return p;
}

Program two_var_guard_nest() {
  Program p("two-var guard");
  const ArrayId a = p.add_array("a", {8, 8});
  const ArrayId b = p.add_array("b", {8, 8});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 8,
                loop("j", 1, 8,
                     when(CmpOp::kLe, v("i") + v("j"), k(8),
                          assign(a, {v("i"), v("j")},
                                 at(b, v("i"), v("j")) + lit(1))))));
  p.append(assign("s", lit(0)));
  p.append(loop("i", 1, 8, assign("s", sref("s") + at(a, v("i"), k(1)))));
  return p;
}

TEST(TrafficBound, PinnedValuesOnWorkloadsAndGuardedNests) {
  // Soundness alone would pass a weaker bound or floor: pin the values.
  struct Row {
    const char* name;
    std::int64_t bound_bytes;
    std::int64_t flops;
    const char* exact;  // per array: 'e' exact, 'x' lower bound only
    std::int64_t floor_bytes;
  };
  const Row rows[] = {
      {"fig6", 6240, 1560, "ee", 0},
      {"fig6 (optimized)", 480, 1560, "eeeee", 0},
      {"fig7", 8192, 1024, "ee", 8192},
      {"fig7 (optimized)", 8192, 1024, "ee", 8192},
      {"sec21", 4096, 1024, "e", 4096},
      {"sec21 (optimized)", 4096, 1024, "e", 4096},
      {"jacobi", 2048, 2772, "ee", 1040},
      {"jacobi (optimized)", 2048, 2772, "ee", 1040},
      {"adi", 6240, 2300, "ee", 6240},
      {"adi (optimized)", 6240, 2300, "ee", 6240},
      {"blur", 8144, 2286, "eeee", 4080},
      {"blur (optimized)", 4080, 2286, "eeee", 4080},
      {"cascade", 2048, 2048, "e", 2048},
      {"cascade (optimized)", 2048, 2048, "e", 2048},
      {"single-var guard", 504, 32, "ee", 448},
      {"!= guard", 3840, 224, "ee", 3840},
      {"two-var guard", 64, 72, "xx", 0},
  };
  std::vector<std::pair<std::string, Program>> programs;
  for (auto& [name, p] : small_workloads()) {
    Program optimized = core::optimize(p).program;
    programs.emplace_back(name, std::move(p));
    programs.emplace_back(name + " (optimized)", std::move(optimized));
  }
  for (Program (*make)() :
       {single_var_guard_nest, not_equal_guard_nest, two_var_guard_nest}) {
    Program p = make();
    programs.emplace_back(p.name(), std::move(p));
  }
  ASSERT_EQ(programs.size(), std::size(rows));
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const auto& [name, p] = programs[i];
    const Row& row = rows[i];
    EXPECT_EQ(name, row.name);
    const verify::TrafficBound bound = verify::compute_traffic_bound(p);
    std::string exact;
    for (const verify::ArrayFootprint& a : bound.arrays)
      exact += a.exact ? 'e' : 'x';
    EXPECT_EQ(bound.lower_bound_bytes, row.bound_bytes) << name;
    EXPECT_EQ(bound.flops_upper_bound, row.flops) << name;
    EXPECT_EQ(exact, row.exact) << name;
    EXPECT_EQ(verify::compute_data_floor(p).floor_bytes, row.floor_bytes)
        << name;
  }
}

}  // namespace
}  // namespace bwc
