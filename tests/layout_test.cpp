// Tests for the data-layout IR dimension: the ArrayLayout declaration
// surface (printer/parser round trip, addressing resolution), the
// layout-aware traffic estimator, the three layout passes
// (transpose-layout, regroup-arrays, pad-arrays) and their legality
// proof, the per-array PassReport breakdown, the lint-conflict-stride
// diagnostic, and -- the core contract -- a differential matrix holding
// every layout pipeline bit-identical across the reference interpreter,
// the bytecode VM and the native engine, with steady-state fast-forward
// both on and off.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "bwc/analysis/layout_traffic.h"
#include "bwc/core/optimizer.h"
#include "bwc/ir/dsl.h"
#include "bwc/ir/parser.h"
#include "bwc/ir/printer.h"
#include "bwc/ir/program.h"
#include "bwc/memsim/cache_config.h"
#include "bwc/memsim/hierarchy.h"
#include "bwc/pass/report.h"
#include "bwc/runtime/codegen.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/transform/layout.h"
#include "bwc/verify/static_legality.h"
#include "bwc/workloads/extra_programs.h"

namespace bwc {
namespace {

using ir::ArrayId;
using ir::Program;

/// Shared object cache: each transformed program compiles natively once,
/// later matrix points are pure dlopen reuses.
runtime::NativeOptions test_native_opts() {
  static const std::string dir = ::testing::TempDir() +
                                 "bwc-layout-test-cache." +
                                 std::to_string(::getpid());
  runtime::NativeOptions opts;
  opts.cache_dir = dir;
  return opts;
}

/// Observables a pure layout change must preserve. Addresses (and hence
/// traffic bytes and array bases) legitimately move; values and
/// operation counts must not.
void expect_same_semantics(const runtime::ExecResult& ref,
                           const runtime::ExecResult& got,
                           const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(ref.checksum, got.checksum);
  EXPECT_EQ(ref.flops, got.flops);
  EXPECT_EQ(ref.loads, got.loads);
  EXPECT_EQ(ref.stores, got.stores);
  EXPECT_EQ(ref.scalars, got.scalars);
}

/// Full bit-identity between two engines executing the *same* program:
/// everything down to per-boundary traffic and simulated bases matches.
void expect_identical(const runtime::ExecResult& ref,
                      const runtime::ExecResult& got,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(ref.checksum, got.checksum);
  EXPECT_EQ(ref.flops, got.flops);
  EXPECT_EQ(ref.loads, got.loads);
  EXPECT_EQ(ref.stores, got.stores);
  EXPECT_EQ(ref.scalars, got.scalars);
  EXPECT_EQ(ref.array_bases, got.array_bases);
  ASSERT_EQ(ref.profile.boundaries.size(), got.profile.boundaries.size());
  for (std::size_t b = 0; b < ref.profile.boundaries.size(); ++b) {
    SCOPED_TRACE("boundary " + ref.profile.boundaries[b].name);
    EXPECT_EQ(ref.profile.boundaries[b].bytes_toward_cpu,
              got.profile.boundaries[b].bytes_toward_cpu);
    EXPECT_EQ(ref.profile.boundaries[b].bytes_from_cpu,
              got.profile.boundaries[b].bytes_from_cpu);
  }
}

memsim::MemoryHierarchy default_hierarchy() {
  return memsim::MemoryHierarchy({memsim::CacheConfig{}});
}

/// The differential matrix: `transformed` (some layout pipeline's output)
/// must preserve `original`'s semantics on the reference interpreter and
/// then replay bit-identically on the VM and the native engine with
/// fast-forward on and off.
void expect_layout_equivalent(const Program& original,
                              const Program& transformed) {
  memsim::MemoryHierarchy hbase = default_hierarchy();
  runtime::ExecOptions base_opts;
  base_opts.hierarchy = &hbase;
  const runtime::ExecResult base = runtime::execute(original, base_opts);

  memsim::MemoryHierarchy href = default_hierarchy();
  runtime::ExecOptions ref_opts;
  ref_opts.hierarchy = &href;
  const runtime::ExecResult ref = runtime::execute(transformed, ref_opts);
  expect_same_semantics(base, ref, transformed.name() + " [interpreter]");

  for (const bool fast_forward : {true, false}) {
    const std::string tag = transformed.name() +
                            " [ff=" + std::to_string(fast_forward) + "]";
    memsim::MemoryHierarchy hvm = default_hierarchy();
    runtime::ExecOptions vm_opts;
    vm_opts.hierarchy = &hvm;
    vm_opts.fast_forward = fast_forward;
    const runtime::ExecResult vm =
        runtime::execute_compiled(transformed, vm_opts);
    expect_identical(ref, vm, tag + " [vm]");

    memsim::MemoryHierarchy hnat = default_hierarchy();
    runtime::ExecOptions nat_opts;
    nat_opts.hierarchy = &hnat;
    nat_opts.fast_forward = fast_forward;
    runtime::NativeReport report;
    const runtime::ExecResult nat = runtime::execute_native(
        transformed, nat_opts, test_native_opts(), &report);
    ASSERT_TRUE(report.native) << report.warning;
    expect_identical(ref, nat, tag + " [native]");
  }
}

/// Run one layout pipeline (verification on) and push the result through
/// the engine matrix.
void expect_pipeline_equivalent(const Program& p, const std::string& passes) {
  const core::OptimizeResult result = core::optimize(p, passes);
  expect_layout_equivalent(p, result.program);
}

// --------------------------------------------------------------------
// Differential matrix: every layout pass alone and the full pipeline.
// --------------------------------------------------------------------

TEST(LayoutEngines, TransposeOnTransposedSweep) {
  expect_pipeline_equivalent(workloads::transposed_sweep(64),
                             "transpose-layout");
}

TEST(LayoutEngines, PadOnTransposedSweep) {
  // n = 512 makes the column stride exactly 4 KiB: the conflict the pad
  // pass exists to break.
  expect_pipeline_equivalent(workloads::transposed_sweep(512), "pad-arrays");
}

TEST(LayoutEngines, FullPipelineOnTransposedSweep) {
  expect_pipeline_equivalent(workloads::transposed_sweep(64),
                             "transpose-layout,regroup-arrays,pad-arrays");
}

TEST(LayoutEngines, RegroupOnConflictStreams) {
  expect_pipeline_equivalent(workloads::conflict_streams(2048, 3),
                             "regroup-arrays");
}

TEST(LayoutEngines, FullPipelineOnConflictStreams) {
  expect_pipeline_equivalent(workloads::conflict_streams(2048, 3),
                             "transpose-layout,regroup-arrays,pad-arrays");
}

TEST(LayoutEngines, FullPipelineAfterClassicPasses) {
  // The layout family composes with the paper's pipeline: fuse first,
  // then fix the survivors' layouts.
  expect_pipeline_equivalent(
      workloads::transposed_sweep(64),
      "fuse,transpose-layout,regroup-arrays,pad-arrays");
}

// --------------------------------------------------------------------
// ArrayLayout declaration surface: round trip and addressing.
// --------------------------------------------------------------------

void expect_round_trip(const Program& p) {
  SCOPED_TRACE(p.name());
  const std::string text = ir::to_string(p);
  const Program parsed = ir::parse_program(text);
  EXPECT_TRUE(ir::equal(p, parsed)) << text;
  // The layout annotation itself must be byte-stable under a second trip.
  EXPECT_EQ(text, ir::to_string(parsed));
}

TEST(LayoutRoundTrip, HandWrittenLayouts) {
  Program p = workloads::transposed_sweep(8);
  p.mutable_array(0).layout.order = {1, 0};
  p.mutable_array(0).layout.pad = {3, 0};
  expect_round_trip(p);

  Program q = workloads::conflict_streams(16, 3);
  for (int a = 0; a < q.array_count(); ++a) q.mutable_array(a).layout.group = 2;
  expect_round_trip(q);
}

TEST(LayoutRoundTrip, EveryOrderPadGroupCombination) {
  // Property sweep over the annotation space on a 2-D + 1-D program:
  // every combination of order permutation, pad vector and group id must
  // survive print -> parse -> print.
  for (const std::vector<int>& order :
       {std::vector<int>{}, std::vector<int>{0, 1}, std::vector<int>{1, 0}}) {
    for (const std::vector<std::int64_t>& pad :
         {std::vector<std::int64_t>{}, std::vector<std::int64_t>{1, 0},
          std::vector<std::int64_t>{5, 2}}) {
      Program p = workloads::transposed_sweep(8);
      p.mutable_array(0).layout.order = order;
      p.mutable_array(0).layout.pad = pad;
      expect_round_trip(p);
    }
  }
  for (const int group : {-1, 0, 7}) {
    Program p = workloads::conflict_streams(16, 2);
    p.mutable_array(0).layout.group = group;
    p.mutable_array(1).layout.group = group;
    expect_round_trip(p);
  }
}

TEST(LayoutRoundTrip, TransformOutputs) {
  expect_round_trip(
      transform::transpose_layouts(workloads::transposed_sweep(16)).program);
  expect_round_trip(
      transform::regroup_layouts(workloads::conflict_streams(64, 3)).program);
  expect_round_trip(
      transform::pad_layouts(workloads::transposed_sweep(512)).program);
}

TEST(LayoutAddressing, PaddedArrayScalesAllocationOnly) {
  Program p("t");
  const ArrayId a = p.add_array("a", {4, 4});
  p.mutable_array(a).layout.pad = {1, 0};
  const ir::ArrayDecl& decl = p.array(a);
  EXPECT_EQ(decl.padded_extent(0), 5);
  EXPECT_EQ(decl.padded_element_count(), 20);
  const ir::ArrayAddressing addr = ir::resolve_addressing(p, a);
  EXPECT_TRUE(addr.owns_allocation);
  EXPECT_EQ(addr.owner, a);
  EXPECT_EQ(addr.addr_scale, 8u);
  EXPECT_EQ(addr.member_offset, 0u);
  EXPECT_EQ(addr.alloc_bytes, 20u * 8u);
}

TEST(LayoutAddressing, GroupMembersShareOneAllocation) {
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  const ArrayId b = p.add_array("b", {16});
  p.mutable_array(a).layout.group = 0;
  p.mutable_array(b).layout.group = 0;
  const ir::ArrayAddressing aa = ir::resolve_addressing(p, a);
  const ir::ArrayAddressing ab = ir::resolve_addressing(p, b);
  EXPECT_TRUE(aa.owns_allocation);
  EXPECT_FALSE(ab.owns_allocation);
  EXPECT_EQ(aa.owner, a);
  EXPECT_EQ(ab.owner, a);
  EXPECT_EQ(aa.addr_scale, 16u);  // two interleaved 8-byte members
  EXPECT_EQ(ab.addr_scale, 16u);
  EXPECT_EQ(aa.member_offset, 0u);
  EXPECT_EQ(ab.member_offset, 8u);
  EXPECT_EQ(aa.alloc_bytes, 2u * 16u * 8u);
}

// --------------------------------------------------------------------
// The estimator and the transforms it drives.
// --------------------------------------------------------------------

TEST(LayoutEstimator, FlagsTransposedSweepConflict) {
  const Program p = workloads::transposed_sweep(512);
  const analysis::LayoutTrafficEstimate before =
      analysis::estimate_layout_traffic(p);
  // img is swept with a 4 KiB stride: its sweeps collapse onto a few
  // sets and must be flagged.
  EXPECT_TRUE(before.of(0).conflict);
  EXPECT_EQ(before.of(0).dominant_stride_bytes, 512 * 8);

  const transform::LayoutResult t = transform::transpose_layouts(p);
  ASSERT_FALSE(t.actions.empty());
  const analysis::LayoutTrafficEstimate after =
      analysis::estimate_layout_traffic(t.program);
  EXPECT_FALSE(after.of(0).conflict);
  EXPECT_EQ(after.of(0).dominant_stride_bytes, 8);
  EXPECT_LT(after.total_line_bytes, before.total_line_bytes);
}

TEST(LayoutEstimator, FlagsCoStreamThrashAndRegroupClearsIt) {
  const Program p = workloads::conflict_streams(2048, 3);
  const analysis::LayoutTrafficEstimate before =
      analysis::estimate_layout_traffic(p);
  bool any_conflict = false;
  for (const analysis::ArrayLayoutTraffic& a : before.arrays)
    any_conflict |= a.conflict;
  EXPECT_TRUE(any_conflict);

  const transform::LayoutResult t = transform::regroup_layouts(p);
  ASSERT_FALSE(t.actions.empty());
  for (int a = 0; a < t.program.array_count(); ++a)
    EXPECT_GE(t.program.array(a).layout.group, 0);
  const analysis::LayoutTrafficEstimate after =
      analysis::estimate_layout_traffic(t.program);
  for (const analysis::ArrayLayoutTraffic& a : after.arrays)
    EXPECT_FALSE(a.conflict) << a.name;
  EXPECT_LT(after.total_line_bytes, before.total_line_bytes);
}

TEST(LayoutTransforms, PadImprovesEstimateOrDoesNothing) {
  const Program p = workloads::transposed_sweep(512);
  const analysis::LayoutTrafficEstimate before =
      analysis::estimate_layout_traffic(p);
  const transform::LayoutResult t = transform::pad_layouts(p);
  ASSERT_FALSE(t.actions.empty());
  const analysis::LayoutTrafficEstimate after =
      analysis::estimate_layout_traffic(t.program);
  EXPECT_LT(after.total_line_bytes, before.total_line_bytes);
}

TEST(LayoutTransforms, TransposeSkipsBalancedAndGroupedArrays) {
  // `out` in transposed_sweep is swept in both orders with equal weight:
  // no strictly-better order exists, so it must keep the default.
  const transform::LayoutResult t =
      transform::transpose_layouts(workloads::transposed_sweep(64));
  EXPECT_TRUE(t.program.array(1).layout.is_default());

  // A grouped array is never permuted even when its vote says otherwise.
  Program p = workloads::transposed_sweep(64);
  p.mutable_array(0).layout.group = 0;
  p.mutable_array(1).layout.group = 0;
  const transform::LayoutResult g = transform::transpose_layouts(p);
  EXPECT_TRUE(g.program.array(0).layout.order.empty());
}

// The classic passes rewrite statements, never declarations: every
// ArrayLayout survives fusion and distribution when they fire.
TEST(LayoutTransforms, FuseAndDistributeKeepLayouts) {
  using namespace ir::dsl;  // NOLINT
  const auto program = [](bool one_loop) {
    Program p("laid-out");
    const ArrayId x = p.add_array("x", {256});
    const ArrayId a = p.add_array("a", {256});
    const ArrayId b = p.add_array("b", {256});
    p.mutable_array(x).layout.pad = {8};
    p.mutable_array(a).layout.group = 0;
    p.mutable_array(b).layout.group = 0;
    p.mark_output_array(a);
    p.mark_output_array(b);
    ir::StmtPtr sa = assign(a, {v("i")}, at(x, v("i")) * lit(2.0));
    ir::StmtPtr sb = assign(b, {v("i")}, at(x, v("i")) + lit(1.0));
    if (one_loop) {
      p.append(loop("i", 1, 256, std::move(sa), std::move(sb)));
    } else {
      p.append(loop("i", 1, 256, std::move(sa)));
      p.append(loop("i", 1, 256, std::move(sb)));
    }
    return p;
  };
  for (const bool one_loop : {false, true}) {
    const Program p = program(one_loop);
    const core::OptimizeResult r =
        core::optimize(p, one_loop ? "distribute" : "fuse");
    ASSERT_TRUE(r.pipeline.passes.at(0).changed) << p.name();
    for (int k = 0; k < p.array_count(); ++k)
      EXPECT_EQ(r.program.array(k).layout, p.array(k).layout)
          << p.array(k).name << " after " << r.pipeline.passes.at(0).pass;
  }
}

// --------------------------------------------------------------------
// Legality: the pure-layout-change prover.
// --------------------------------------------------------------------

TEST(LayoutLegality, ProvesTransformOutputs) {
  const Program p = workloads::transposed_sweep(64);
  for (const transform::LayoutResult& t :
       {transform::transpose_layouts(p), transform::pad_layouts(p)}) {
    const verify::LegalityResult res =
        verify::prove_layout_change(p, t.program);
    EXPECT_EQ(res.verdict, verify::LegalityVerdict::kProven) << res.reason;
  }
  const Program q = workloads::conflict_streams(256, 3);
  const verify::LegalityResult res =
      verify::prove_layout_change(q, transform::regroup_layouts(q).program);
  EXPECT_EQ(res.verdict, verify::LegalityVerdict::kProven) << res.reason;
}

TEST(LayoutLegality, RefutesInvalidLayout) {
  const Program p = workloads::transposed_sweep(16);
  Program bad = p.clone();
  bad.mutable_array(0).layout.order = {0, 0};  // not a permutation
  const verify::LegalityResult res = verify::prove_layout_change(p, bad);
  EXPECT_EQ(res.verdict, verify::LegalityVerdict::kRefuted);
  EXPECT_EQ(res.reason.rfind("invalid-layout", 0), 0u) << res.reason;
}

TEST(LayoutLegality, UnknownWhenComputationChanged) {
  const verify::LegalityResult res = verify::prove_layout_change(
      workloads::transposed_sweep(16), workloads::transposed_sweep(32));
  EXPECT_EQ(res.verdict, verify::LegalityVerdict::kUnknown);
  EXPECT_EQ(res.reason, "not-a-pure-layout-change");
}

// --------------------------------------------------------------------
// Reporting: per-array breakdowns and the lint diagnostic.
// --------------------------------------------------------------------

TEST(LayoutReports, PerArrayBreakdownNamesTheTransposedArray) {
  const core::OptimizeResult result =
      core::optimize(workloads::transposed_sweep(256),
                     "transpose-layout,regroup-arrays,pad-arrays");
  ASSERT_EQ(result.pipeline.passes.size(), 3u);
  const pass::PassReport& transpose = result.pipeline.passes.at(0);
  EXPECT_TRUE(transpose.changed);
  bool img_improved = false;
  for (const pass::ArrayTraffic& t : transpose.per_array)
    if (t.name == "img" && t.bytes_after < t.bytes_before)
      img_improved = true;
  EXPECT_TRUE(img_improved);
}

TEST(LayoutReports, LintFlagsConflictingStride) {
  const core::OptimizeResult bad =
      core::optimize(workloads::transposed_sweep(512), "lint");
  ASSERT_EQ(bad.pipeline.passes.size(), 1u);
  bool flagged = false;
  for (const pass::Remark& r : bad.pipeline.passes.at(0).remarks)
    if (r.code == "lint-conflict-stride" &&
        r.severity == pass::RemarkSeverity::kWarning)
      flagged = true;
  EXPECT_TRUE(flagged);

  const core::OptimizeResult good =
      core::optimize(workloads::blur_sharpen(512), "lint");
  for (const pass::Remark& r : good.pipeline.passes.at(0).remarks)
    EXPECT_NE(r.code, "lint-conflict-stride");
}

}  // namespace
}  // namespace bwc
