// Tests for the bwc::pass layer: PipelineSpec parsing, the pass registry,
// ordering equivalence against hand-called transforms, analysis-cache
// correctness (on/off equivalence, stale-analysis auditing), structured
// reports, and the text pass log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/fusion/solvers.h"
#include "bwc/ir/dsl.h"
#include "bwc/ir/printer.h"
#include "bwc/pass/pass_manager.h"
#include "bwc/pass/passes.h"
#include "bwc/pass/pipeline_spec.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/transform/distribute.h"
#include "bwc/transform/fuse.h"
#include "bwc/transform/interchange.h"
#include "bwc/transform/layout.h"
#include "bwc/transform/scalar_replacement.h"
#include "bwc/transform/storage_reduction.h"
#include "bwc/transform/store_elimination.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc::pass {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::Program;

// -- PipelineSpec parsing -----------------------------------------------------

TEST(PipelineSpec, ParsesNamesAndParams) {
  const PipelineSpec spec = parse_pipeline_spec(
      "interchange, fuse(solver=exact, shift=1), reduce-storage");
  ASSERT_EQ(spec.passes.size(), 3u);
  EXPECT_EQ(spec.passes[0].name, "interchange");
  EXPECT_TRUE(spec.passes[0].params.empty());
  EXPECT_EQ(spec.passes[1].name, "fuse");
  EXPECT_EQ(spec.passes[1].param("solver"), "exact");
  EXPECT_EQ(spec.passes[1].param("shift"), "1");
  EXPECT_EQ(spec.passes[1].param("absent", "fallback"), "fallback");
  EXPECT_EQ(spec.passes[2].name, "reduce-storage");
}

TEST(PipelineSpec, ToStringRoundTrips) {
  const std::string canonical =
      "interchange,fuse(solver=exact,shift=1),reduce-storage";
  const PipelineSpec spec = parse_pipeline_spec(canonical);
  EXPECT_EQ(spec.to_string(), canonical);
  EXPECT_EQ(parse_pipeline_spec(spec.to_string()).to_string(), canonical);
}

TEST(PipelineSpec, EmptySpecIsEmptyPipeline) {
  EXPECT_TRUE(parse_pipeline_spec("").empty());
  EXPECT_TRUE(parse_pipeline_spec("  ").empty());
}

TEST(PipelineSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_pipeline_spec("fuse(solver=exact"), Error);
  EXPECT_THROW(parse_pipeline_spec("fuse)"), Error);
  EXPECT_THROW(parse_pipeline_spec("fuse,,reduce-storage"), Error);
  EXPECT_THROW(parse_pipeline_spec("fuse(solver)"), Error);
  EXPECT_THROW(parse_pipeline_spec("fuse(solver=)"), Error);
  EXPECT_THROW(parse_pipeline_spec("Fuse"), Error);
  EXPECT_THROW(parse_pipeline_spec("fuse(a=(b))"), Error);
}

TEST(PassRegistry, RejectsUnknownPassesAndParams) {
  EXPECT_THROW(build_pipeline(parse_pipeline_spec("bogus")), Error);
  EXPECT_THROW(build_pipeline(parse_pipeline_spec("fuse(bogus=1)")), Error);
  EXPECT_THROW(build_pipeline(parse_pipeline_spec("fuse(solver=none)")),
               Error);
  EXPECT_THROW(build_pipeline(parse_pipeline_spec("fuse(shift=2)")), Error);
  EXPECT_THROW(build_pipeline(parse_pipeline_spec("interchange(x=1)")),
               Error);
  EXPECT_THROW(core::optimize(workloads::fig7_original(16), "bogus"), Error);
}

TEST(PassRegistry, BuildsEveryKnownPass) {
  const PipelineSpec spec = parse_pipeline_spec(
      "interchange,fuse(solver=greedy,shift=1,max-shift=4),reduce-storage,"
      "eliminate-stores,scalar-replace,regroup-arrays,distribute");
  const auto passes = build_pipeline(spec);
  ASSERT_EQ(passes.size(), 7u);
  for (std::size_t i = 0; i < passes.size(); ++i)
    EXPECT_EQ(passes[i]->name(), spec.passes[i].name);
}

// -- Ordering equivalence against hand-called transforms ----------------------

/// Apply one spec entry the way the pre-pass-manager code did, calling the
/// transform entry points directly.
void hand_apply(Program& p, const PassSpec& spec) {
  if (spec.name == "interchange") {
    transform::InterchangeResult r = transform::auto_interchange(p);
    if (!r.interchanged.empty()) p = std::move(r.program);
  } else if (spec.name == "fuse") {
    fusion::FusionGraphOptions go;
    go.allow_shifted_fusion = spec.param("shift") == "1";
    const fusion::FusionGraph graph = fusion::build_fusion_graph(p, go);
    const std::string solver = spec.param("solver", "best");
    fusion::FusionPlan plan;
    if (solver == "best") {
      plan = fusion::best_fusion(graph);
    } else if (solver == "exact") {
      plan = fusion::exact_enumeration(graph);
    } else if (solver == "greedy") {
      plan = fusion::greedy_fusion(graph);
    } else if (solver == "bisection") {
      plan = fusion::recursive_bisection(graph);
    } else if (solver == "edge-weighted") {
      plan = fusion::edge_weighted_baseline(graph);
    } else {
      FAIL() << "unexpected solver " << solver;
    }
    if (plan.num_partitions < graph.node_count())
      p = transform::apply_fusion(p, graph, plan);
  } else if (spec.name == "reduce-storage") {
    transform::StorageReductionResult r = transform::reduce_storage(p);
    if (!r.actions.empty()) p = std::move(r.program);
  } else if (spec.name == "eliminate-stores") {
    transform::StoreEliminationResult r = transform::eliminate_stores(p);
    if (!r.eliminated.empty()) p = std::move(r.program);
  } else if (spec.name == "scalar-replace") {
    transform::ScalarReplacementResult r = transform::replace_scalars(p);
    if (!r.actions.empty()) p = std::move(r.program);
  } else if (spec.name == "regroup-arrays") {
    transform::LayoutResult r = transform::regroup_layouts(p);
    if (!r.actions.empty()) p = std::move(r.program);
  } else if (spec.name == "distribute") {
    transform::DistributionResult r = transform::distribute_loops(p);
    if (r.loops_after > r.loops_before) p = std::move(r.program);
  } else {
    FAIL() << "unexpected pass " << spec.name;
  }
}

/// The pipeline (via PipelineSpec + optimize) must produce a bit-identical
/// program to hand-calling the transforms in the same order, with the
/// analysis cache on and off.
void expect_matches_hand_calls(const Program& original,
                               const std::string& spec_text) {
  const PipelineSpec spec = parse_pipeline_spec(spec_text);
  Program hand = original.clone();
  for (const PassSpec& pass : spec.passes) hand_apply(hand, pass);

  for (const bool cache : {true, false}) {
    PipelineOptions opts;
    opts.verify = false;
    opts.cache_analyses = cache;
    const core::OptimizeResult result =
        core::optimize(original, spec_text, opts);
    EXPECT_TRUE(ir::equal(hand, result.program))
        << "pipeline \"" << spec_text << "\" (cache=" << cache
        << ") diverged from hand-called transforms:\n-- hand:\n"
        << ir::to_string(hand) << "\n-- pipeline:\n"
        << ir::to_string(result.program);
    const double c0 = runtime::execute(original).checksum;
    const double c1 = runtime::execute(result.program).checksum;
    EXPECT_NEAR(c0, c1, 1e-9 * (std::abs(c0) + 1.0)) << spec_text;
  }
}

TEST(PassOrdering, DefaultPipelineOnPaperWorkloads) {
  const std::string spec = core::kDefaultPipeline;
  EXPECT_EQ(spec, "fuse(solver=best),reduce-storage,eliminate-stores");
  expect_matches_hand_calls(workloads::fig7_original(128), spec);
  expect_matches_hand_calls(workloads::fig6_original(24), spec);
  expect_matches_hand_calls(workloads::sec21_both_loops(128), spec);
  expect_matches_hand_calls(workloads::blur_sharpen(64), spec);
}

TEST(PassOrdering, NonDefaultOrderings) {
  expect_matches_hand_calls(
      workloads::fig7_original(128),
      "eliminate-stores,fuse(solver=greedy),reduce-storage");
  expect_matches_hand_calls(workloads::fig6_original(24),
                            "reduce-storage,fuse(solver=exact),scalar-replace");
  expect_matches_hand_calls(workloads::blur_sharpen(64),
                            "distribute,fuse(solver=best),regroup-arrays");
}

TEST(PassOrdering, RandomizedSweep) {
  // Random programs through random pipelines: any ordering of the pass
  // pool must match the hand-called sequence bit for bit and preserve
  // semantics.
  const std::vector<std::string> pool = {
      "interchange",       "fuse(solver=best)", "fuse(solver=greedy)",
      "fuse(solver=edge-weighted)", "reduce-storage",
      "eliminate-stores",  "scalar-replace",    "regroup-arrays",
      "distribute"};
  Prng rng(20260807);
  for (int trial = 0; trial < 25; ++trial) {
    workloads::RandomProgramParams params;
    params.num_loops = 2 + static_cast<int>(rng.uniform(5));
    params.num_arrays = 2 + static_cast<int>(rng.uniform(4));
    params.n = 24;
    const Program p = workloads::random_program(rng, params);
    std::string spec;
    const int length = 1 + static_cast<int>(rng.uniform(5));
    for (int k = 0; k < length; ++k) {
      if (k > 0) spec += ",";
      spec += pool[static_cast<std::size_t>(rng.uniform(pool.size()))];
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + spec);
    expect_matches_hand_calls(p, spec);
  }
}

TEST(PassOrdering, VerifierDoesNotChangeTheResult) {
  for (const bool verify : {true, false}) {
    PipelineOptions opts;
    opts.verify = verify;
    const core::OptimizeResult r = core::optimize(
        workloads::fig6_original(24), core::kDefaultPipeline, opts);
    const core::OptimizeResult base =
        core::optimize(workloads::fig6_original(24));
    EXPECT_TRUE(ir::equal(r.program, base.program)) << verify;
  }
}

// -- Analysis cache -----------------------------------------------------------

TEST(AnalysisCache, CachingIsObservableInStats) {
  PipelineOptions opts;
  const core::OptimizeResult warm = core::optimize(
      workloads::fig6_original(24), core::kDefaultPipeline, opts);
  EXPECT_GT(warm.pipeline.analysis.hits, 0u);
  EXPECT_GT(warm.pipeline.analysis.misses, 0u);
  EXPECT_GT(warm.pipeline.analysis.invalidations, 0u);

  opts.cache_analyses = false;
  const core::OptimizeResult cold = core::optimize(
      workloads::fig6_original(24), core::kDefaultPipeline, opts);
  EXPECT_EQ(cold.pipeline.analysis.hits, 0u);
  EXPECT_GT(cold.pipeline.analysis.misses, warm.pipeline.analysis.misses);
}

/// A pass that mutates the program but claims it preserved every analysis:
/// the audit mode must catch the stale cache entries it leaves behind.
class LyingAppendPass : public Pass {
 public:
  explicit LyingAppendPass(bool lie) : lie_(lie) {}
  std::string name() const override { return "lying-append"; }
  std::string label() const override { return "lying append"; }
  PassResult run(ir::Program& program, AnalysisManager& am,
                 PassReport& report) override {
    (void)am;
    report.note("append", "appended a scalar statement");
    program.add_scalar("lie_s");
    program.append(assign("lie_s", lit(1.0)));
    PassResult result;
    result.changed = true;
    result.preserved =
        lie_ ? PreservedAnalyses::all() : PreservedAnalyses::none();
    return result;
  }

 private:
  bool lie_;
};

TEST(AnalysisCache, AuditCatchesSkippedInvalidation) {
  PipelineOptions options;
  options.verify = false;
  options.audit_analyses = true;
  PassManager manager(options);
  manager.add(std::make_unique<LyingAppendPass>(/*lie=*/true));
  Program p = workloads::fig7_original(64);
  try {
    manager.run(p);
    FAIL() << "stale analysis was not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("stale analysis"),
              std::string::npos)
        << e.what();
  }
}

TEST(AnalysisCache, AuditAcceptsDeclaredInvalidation) {
  PipelineOptions options;
  options.verify = false;
  options.audit_analyses = true;
  PassManager manager(options);
  manager.add(std::make_unique<LyingAppendPass>(/*lie=*/false));
  Program p = workloads::fig7_original(64);
  const PipelineReport report = manager.run(p);
  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_TRUE(report.passes[0].changed);
}

TEST(AnalysisCache, AuditAcceptsTheDefaultPipeline) {
  PipelineOptions options;
  options.audit_analyses = true;
  PassManager manager(options);
  manager.add(build_pipeline(parse_pipeline_spec(
      "interchange,fuse(solver=best),reduce-storage,eliminate-stores,"
      "scalar-replace")));
  for (auto* make : {workloads::fig6_original, workloads::fig7_original}) {
    Program p = make(24);
    EXPECT_NO_THROW(manager.run(p));
  }
}

// -- Structured reports -------------------------------------------------------

TEST(PassReports, RecordPerPassFacts) {
  const core::OptimizeResult result =
      core::optimize(workloads::fig6_original(24));
  ASSERT_EQ(result.pipeline.passes.size(), 3u);
  const PassReport& fuse = result.pipeline.passes[0];
  EXPECT_EQ(fuse.pass, "fuse");
  EXPECT_EQ(fuse.label, "fusion");
  EXPECT_TRUE(fuse.changed);
  EXPECT_GE(fuse.wall_ms, 0.0);
  EXPECT_GT(fuse.ir_before.loops, fuse.ir_after.loops);
  EXPECT_GE(fuse.traffic_bound_before, 0);
  EXPECT_GE(fuse.traffic_bound_after, 0);
  ASSERT_FALSE(fuse.remarks.empty());
  EXPECT_EQ(fuse.remarks[0].code, "fusion-applied");
  EXPECT_EQ(fuse.remarks[0].kind, RemarkKind::kApplied);
  EXPECT_TRUE(fuse.verify.ran);

  // Storage reduction on fig6 shrinks the referenced footprint: the
  // predicted memory-traffic delta must be negative.
  const PassReport& storage = result.pipeline.passes[1];
  EXPECT_EQ(storage.pass, "reduce-storage");
  EXPECT_TRUE(storage.changed);
  EXPECT_LT(storage.traffic_bound_delta(), 0) << storage.traffic_bound_before;
  EXPECT_LT(storage.ir_after.referenced_bytes,
            storage.ir_before.referenced_bytes);
}

TEST(PassReports, UnchangedPassKeepsStatsAndSkipsVerify) {
  const core::OptimizeResult result =
      core::optimize(workloads::fig7_original(64), "reduce-storage");
  ASSERT_EQ(result.pipeline.passes.size(), 1u);
  const PassReport& r = result.pipeline.passes[0];
  EXPECT_FALSE(r.changed);
  EXPECT_FALSE(r.verify.ran);
  EXPECT_EQ(r.traffic_bound_before, r.traffic_bound_after);
  EXPECT_EQ(r.ir_before.referenced_bytes, r.ir_after.referenced_bytes);
  ASSERT_EQ(r.remarks.size(), 1u);
  EXPECT_EQ(r.remarks[0].kind, RemarkKind::kMissed);
}

TEST(PassReports, PlanIsExtractedFromExplicitPipelines) {
  const core::OptimizeResult result = core::optimize(
      workloads::fig7_original(64), "eliminate-stores,fuse(solver=exact)");
  EXPECT_EQ(result.plan.num_partitions, 1);
  EXPECT_EQ(result.plan.solver, "exact");
}

TEST(PassReports, JsonRenderingIsWellFormedEnoughToFreeze) {
  const core::OptimizeResult result =
      core::optimize(workloads::fig7_original(64));
  const std::string json = result.pipeline.to_json("fig7", "default");
  EXPECT_NE(json.find("\"schema\": \"bwc-remarks-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\": \"fuse\""), std::string::npos);
  EXPECT_NE(json.find("\"analysis_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"traffic_bound_delta_bytes\""), std::string::npos);
}

// -- The pass log -------------------------------------------------------------

/// The first remark of `report` with `code`, or nullptr.
const Remark* find_remark(const PassReport& report, const std::string& code) {
  for (const Remark& r : report.remarks)
    if (r.code == code) return &r;
  return nullptr;
}

/// The value of `key` in a remark's args ("" when absent).
std::string arg(const Remark& remark, const std::string& key) {
  for (const auto& [k, v] : remark.args)
    if (k == key) return v;
  return "";
}

TEST(PassLog, Fig7FusesCertifiesAndEliminatesStores) {
  // Trace-only verification, so the certificates count checked instances.
  PipelineOptions options;
  options.static_verify = StaticVerifyMode::kOff;
  const core::OptimizeResult fig7 = core::optimize(
      workloads::fig7_original(1000), core::kDefaultPipeline, options);
  ASSERT_EQ(fig7.pipeline.passes.size(), 3u);

  const PassReport& fuse = fig7.pipeline.passes[0];
  const Remark* fused = find_remark(fuse, "fusion-applied");
  ASSERT_NE(fused, nullptr);
  EXPECT_EQ(fused->kind, RemarkKind::kApplied);
  EXPECT_EQ(arg(*fused, "loops"), "2");
  EXPECT_EQ(arg(*fused, "partitions"), "1");
  EXPECT_TRUE(fuse.verify.ran);
  EXPECT_EQ(fuse.verify.check, "translation");
  EXPECT_FALSE(fuse.verify.skipped);
  EXPECT_EQ(fuse.verify.instances_checked, 4002u);

  const PassReport& storage = fig7.pipeline.passes[1];
  EXPECT_FALSE(storage.changed);
  EXPECT_FALSE(storage.verify.ran);
  const Remark* none = find_remark(storage, "storage-no-candidates");
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->kind, RemarkKind::kMissed);

  const PassReport& stores = fig7.pipeline.passes[2];
  const Remark* eliminated = find_remark(stores, "stores-eliminated");
  ASSERT_NE(eliminated, nullptr);
  EXPECT_EQ(eliminated->kind, RemarkKind::kApplied);
  EXPECT_EQ(arg(*eliminated, "arrays"), "res");
  EXPECT_TRUE(stores.verify.ran);
  EXPECT_EQ(stores.verify.check, "store-elimination");
  EXPECT_FALSE(stores.verify.skipped);
  EXPECT_EQ(stores.verify.instances_checked, 4002u);

  // The text log: one line per applied/missed remark and per check.
  const std::string text = fig7.pipeline.to_text();
  EXPECT_NE(text.find("  - " + fused->message + "\n"), std::string::npos);
  EXPECT_NE(text.find("  - verify (fusion): translation certified, 4002 "
                      "instance(s) checked\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5) << text;
}

TEST(PassLog, Fig6ShrinksStorageAndSkipsOversizedChecks) {
  PipelineOptions options;
  options.static_verify = StaticVerifyMode::kOff;
  const core::OptimizeResult fig6 = core::optimize(
      workloads::fig6_original(2000), core::kDefaultPipeline, options);
  ASSERT_EQ(fig6.pipeline.passes.size(), 3u);

  const PassReport& fuse = fig6.pipeline.passes[0];
  const Remark* fused = find_remark(fuse, "fusion-applied");
  ASSERT_NE(fused, nullptr);
  EXPECT_EQ(arg(*fused, "loops"), "4");
  EXPECT_EQ(arg(*fused, "partitions"), "1");

  // One storage-reduced remark per array: a shrinks to column buffers,
  // b contracts to a scalar.
  const PassReport& storage = fig6.pipeline.passes[1];
  EXPECT_TRUE(storage.changed);
  std::vector<std::string> actions;
  for (const Remark& r : storage.remarks)
    if (r.code == "storage-reduced") actions.push_back(r.message);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].rfind("storage reduction: shrank array a ", 0), 0u)
      << actions[0];
  EXPECT_EQ(actions[1], "storage reduction: contracted array b to scalar b_s");
  const Remark* bytes = find_remark(storage, "storage-bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(arg(*bytes, "bytes_before"), "64000000");
  EXPECT_EQ(arg(*bytes, "bytes_after"), "48000");

  // Both instance-level checks exceed the 2M-event budget and are
  // reported as skipped, not certified.
  for (const PassReport* report : {&fuse, &storage}) {
    EXPECT_TRUE(report->verify.ran) << report->pass;
    EXPECT_TRUE(report->verify.skipped) << report->pass;
    EXPECT_NE(report->verify.skip_reason.find("budget is 2000000"),
              std::string::npos)
        << report->verify.skip_reason;
    EXPECT_EQ(report->verify.instances_checked, 0u) << report->pass;
  }
  EXPECT_FALSE(fig6.pipeline.passes[2].changed);
}

TEST(PassLog, NotesNeverAppearInText) {
  // No nest of fig7 profits from interchange: a note-only pass.
  const core::OptimizeResult result = core::optimize(
      workloads::fig7_original(64), "interchange," +
                                        std::string(core::kDefaultPipeline));
  EXPECT_EQ(result.pipeline.to_text().find("interchange"), std::string::npos)
      << result.pipeline.to_text();
  bool saw_note = false;
  for (const auto& report : result.pipeline.passes) {
    for (const auto& remark : report.remarks)
      saw_note = saw_note || remark.kind == RemarkKind::kNote;
  }
  EXPECT_TRUE(saw_note);
}

}  // namespace
}  // namespace bwc::pass
