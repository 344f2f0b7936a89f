#include "bwc/pass/passes.h"

#include <sstream>
#include <utility>

#include "bwc/fusion/solvers.h"
#include "bwc/pass/lint.h"
#include "bwc/support/error.h"
#include "bwc/analysis/layout_traffic.h"
#include "bwc/transform/distribute.h"
#include "bwc/transform/fuse.h"
#include "bwc/transform/interchange.h"
#include "bwc/transform/layout.h"
#include "bwc/transform/scalar_replacement.h"
#include "bwc/transform/storage_reduction.h"
#include "bwc/transform/store_elimination.h"
#include "bwc/verify/observability.h"
#include "bwc/verify/static_legality.h"
#include "bwc/verify/translation.h"

namespace bwc::pass {

namespace {

/// Static-first checking: a kProven certificate (input-independent) makes
/// the trace replay unnecessary; otherwise the trace validator decides for
/// the current problem size -- except in kOnly mode, where the static
/// verdict is final (kRefuted fails, kUnknown reports a skipped check).
template <typename Prover, typename TraceCheck>
verify::Report static_first(const ir::Program& before,
                            const ir::Program& after,
                            const CheckOptions& options, Prover prove,
                            const std::string& static_check,
                            const std::string& code, TraceCheck trace) {
  if (options.static_verify == StaticVerifyMode::kOff) return trace();
  const verify::LegalityResult result = prove(before, after);
  if (result.verdict == verify::LegalityVerdict::kProven ||
      options.static_verify == StaticVerifyMode::kOnly) {
    return result.to_report(static_check, code);
  }
  return trace();
}

}  // namespace

// ---------------------------------------------------------------------------
// interchange

PassResult InterchangePass::run(ir::Program& program, AnalysisManager& am,
                                PassReport& report) {
  transform::InterchangeResult result =
      transform::auto_interchange(program, &am.statement_summaries(program));
  PassResult pr;
  if (result.interchanged.empty()) {
    // Nothing to interchange is routine (most nests are already stride-1):
    // record it as a note, which the text log leaves out.
    report.note("interchange-no-candidates",
                "no 2-deep nest both profits from and permits interchange");
    return pr;
  }
  std::ostringstream args;
  for (std::size_t i = 0; i < result.interchanged.size(); ++i) {
    if (i > 0) args << " ";
    args << result.interchanged[i];
  }
  report.applied("interchange-applied",
                 "interchange: swapped " +
                     std::to_string(result.interchanged.size()) +
                     " nest(s) to stride-1 order",
                 {{"nests", std::to_string(result.interchanged.size())},
                  {"top_indices", args.str()}});
  program = std::move(result.program);
  pr.changed = true;
  // Interchange permutes the spine of individual nests: per-statement
  // access summaries change (loop order), but footprints are unchanged
  // (traffic bound).
  pr.preserved = PreservedAnalyses::none().preserve(AnalysisId::kTrafficBound);
  return pr;
}

verify::Report InterchangePass::check(const ir::Program& before,
                                      const ir::Program& after,
                                      const CheckOptions& options) const {
  return static_first(before, after, options, verify::prove_reschedule,
                      "static-reschedule", "reschedule", [&] {
                        return verify::validate_translation(before, after);
                      });
}

// ---------------------------------------------------------------------------
// fuse

FusePass::FusePass(Options options) : options_(std::move(options)) {}

namespace {

fusion::FusionPlan solve(const std::string& solver,
                         const fusion::FusionGraph& graph) {
  if (solver == "best") return fusion::best_fusion(graph);
  if (solver == "exact") return fusion::exact_enumeration(graph);
  if (solver == "greedy") return fusion::greedy_fusion(graph);
  if (solver == "bisection") return fusion::recursive_bisection(graph);
  if (solver == "edge-weighted") return fusion::edge_weighted_baseline(graph);
  throw Error("unknown fusion solver: " + solver);
}

}  // namespace

PassResult FusePass::run(ir::Program& program, AnalysisManager& am,
                         PassReport& report) {
  fusion::FusionGraphOptions graph_options;
  graph_options.allow_shifted_fusion = options_.allow_shifted_fusion;
  graph_options.max_shift = options_.max_shift;
  const fusion::FusionGraph& graph = am.fusion_graph(program, graph_options);
  plan_ = solve(options_.solver, graph);
  const fusion::FusionPlan unfused = fusion::no_fusion(graph);

  PassResult pr;
  if (plan_.num_partitions >= graph.node_count()) {
    report.missed("fusion-not-profitable", "fusion: no profitable fusion found",
                  {{"solver", plan_.solver},
                   {"loops", std::to_string(graph.node_count())},
                   {"unfused_cost", std::to_string(unfused.cost)}});
    return pr;
  }
  ir::Program fused = transform::apply_fusion(program, graph, plan_);
  std::ostringstream os;
  os << "fusion (" << plan_.solver << "): " << graph.node_count()
     << " loops -> " << plan_.num_partitions << " partitions; arrays loaded "
     << unfused.cost << " -> " << plan_.cost;
  report.applied("fusion-applied", os.str(),
                 {{"solver", plan_.solver},
                  {"loops", std::to_string(graph.node_count())},
                  {"partitions", std::to_string(plan_.num_partitions)},
                  {"cost_before", std::to_string(unfused.cost)},
                  {"cost_after", std::to_string(plan_.cost)},
                  {"bytes_cost", std::to_string(plan_.bytes_cost)}});
  program = std::move(fused);
  pr.changed = true;
  return pr;
}

verify::Report FusePass::check(const ir::Program& before,
                               const ir::Program& after,
                               const CheckOptions& options) const {
  return static_first(before, after, options, verify::prove_reschedule,
                      "static-reschedule", "reschedule", [&] {
                        return verify::validate_translation(before, after);
                      });
}

// ---------------------------------------------------------------------------
// reduce-storage

PassResult ReduceStoragePass::run(ir::Program& program, AnalysisManager& am,
                                  PassReport& report) {
  transform::StorageReductionResult result =
      transform::reduce_storage(program, &am.statement_summaries(program));
  PassResult pr;
  if (result.actions.empty()) {
    report.missed("storage-no-candidates",
                  "storage reduction: no candidate arrays");
    return pr;
  }
  for (const auto& action : result.actions)
    report.applied("storage-reduced", "storage reduction: " + action);
  std::ostringstream os;
  os << "storage reduction: referenced array bytes "
     << result.referenced_bytes_before << " -> "
     << result.referenced_bytes_after;
  report.applied(
      "storage-bytes", os.str(),
      {{"bytes_before", std::to_string(result.referenced_bytes_before)},
       {"bytes_after", std::to_string(result.referenced_bytes_after)}});
  program = std::move(result.program);
  pr.changed = true;
  return pr;
}

verify::Report ReduceStoragePass::check(const ir::Program& before,
                                        const ir::Program& after,
                                        const CheckOptions& options) const {
  return static_first(before, after, options, verify::prove_storage_reduction,
                      "static-storage-reduction", "storage-reduction", [&] {
                        return verify::validate_storage_reduction(
                            before, after);
                      });
}

// ---------------------------------------------------------------------------
// eliminate-stores

PassResult EliminateStoresPass::run(ir::Program& program, AnalysisManager& am,
                                    PassReport& report) {
  transform::StoreEliminationResult result =
      transform::eliminate_stores(program, &am.statement_summaries(program));
  PassResult pr;
  if (result.eliminated.empty()) {
    report.missed("stores-no-candidates",
                  "store elimination: no candidate arrays");
    return pr;
  }
  std::ostringstream os;
  std::ostringstream names;
  os << "store elimination: removed writebacks to";
  for (std::size_t i = 0; i < result.eliminated.size(); ++i) {
    const std::string& name =
        result.program.array(result.eliminated[i]).name;
    os << " " << name;
    if (i > 0) names << " ";
    names << name;
  }
  report.applied("stores-eliminated", os.str(),
                 {{"arrays", names.str()},
                  {"count", std::to_string(result.eliminated.size())}});
  program = std::move(result.program);
  pr.changed = true;
  return pr;
}

verify::Report EliminateStoresPass::check(const ir::Program& before,
                                          const ir::Program& after,
                                          const CheckOptions& options) const {
  return static_first(before, after, options, verify::prove_store_elimination,
                      "static-store-elimination", "store-elimination", [&] {
                        return verify::validate_store_elimination(
                            before, after);
                      });
}

// ---------------------------------------------------------------------------
// scalar-replace

PassResult ScalarReplacePass::run(ir::Program& program, AnalysisManager& am,
                                  PassReport& report) {
  transform::ScalarReplacementResult result =
      transform::replace_scalars(program, &am.statement_summaries(program));
  PassResult pr;
  if (result.actions.empty()) {
    report.missed("scalars-no-candidates",
                  "scalar replacement: no stencil candidates");
    return pr;
  }
  for (const auto& action : result.actions)
    report.applied("scalars-replaced", "scalar replacement: " + action);
  report.note("scalars-loads-removed",
              std::to_string(result.loads_removed) +
                  " static load(s) removed per iteration",
              {{"loads_removed", std::to_string(result.loads_removed)}});
  program = std::move(result.program);
  pr.changed = true;
  return pr;
}

// ---------------------------------------------------------------------------
// distribute

PassResult DistributePass::run(ir::Program& program, AnalysisManager& am,
                               PassReport& report) {
  (void)am;
  transform::DistributionResult result = transform::distribute_loops(program);
  PassResult pr;
  if (result.loops_after <= result.loops_before) {
    report.missed("distribute-no-candidates",
                  "distribution: no loop could be split");
    return pr;
  }
  report.applied("distributed",
                 "distribution: split " +
                     std::to_string(result.loops_before) + " loop(s) into " +
                     std::to_string(result.loops_after),
                 {{"loops_before", std::to_string(result.loops_before)},
                  {"loops_after", std::to_string(result.loops_after)}});
  program = std::move(result.program);
  pr.changed = true;
  return pr;
}

verify::Report DistributePass::check(const ir::Program& before,
                                     const ir::Program& after,
                                     const CheckOptions& options) const {
  return static_first(before, after, options, verify::prove_reschedule,
                      "static-reschedule", "reschedule", [&] {
                        return verify::validate_translation(before, after);
                      });
}

// ---------------------------------------------------------------------------
// layout passes (transpose-layout, regroup-arrays, pad-arrays)

namespace {

/// Shared tail of the three layout passes: publish the estimator's
/// per-array line-traffic breakdown (before vs after), record the
/// applied/missed remarks, and install the transformed program. Layout
/// changes alter printed IR and simulated addressing, so nothing cached
/// survives (the default PreservedAnalyses::none()).
PassResult finish_layout_pass(ir::Program& program, PassReport& report,
                              transform::LayoutResult result,
                              const std::string& label,
                              const std::string& code_prefix) {
  const analysis::LayoutTrafficEstimate before =
      analysis::estimate_layout_traffic(program);
  const analysis::LayoutTrafficEstimate after =
      analysis::estimate_layout_traffic(result.program);
  for (int a = 0; a < program.array_count(); ++a) {
    if (before.of(a).accesses == 0 && after.of(a).accesses == 0) continue;
    report.per_array.push_back({program.array(a).name,
                                before.of(a).line_bytes_estimate,
                                after.of(a).line_bytes_estimate});
  }
  PassResult pr;
  if (result.actions.empty()) {
    report.missed(code_prefix + "-no-candidates",
                  label + ": no profitable layout change");
    return pr;
  }
  for (const auto& action : result.actions)
    report.applied(code_prefix + "-applied", label + ": " + action);
  report.note(
      code_prefix + "-traffic",
      "estimated line traffic " + std::to_string(before.total_line_bytes) +
          " -> " + std::to_string(after.total_line_bytes) + " bytes",
      {{"line_bytes_before", std::to_string(before.total_line_bytes)},
       {"line_bytes_after", std::to_string(after.total_line_bytes)}});
  program = std::move(result.program);
  pr.changed = true;
  return pr;
}

verify::Report check_layout_pass(const ir::Program& before,
                                 const ir::Program& after,
                                 const CheckOptions& options) {
  return static_first(before, after, options, verify::prove_layout_change,
                      "static-layout-change", "layout-change", [&] {
                        return verify::validate_translation(before, after);
                      });
}

}  // namespace

PassResult TransposeLayoutPass::run(ir::Program& program, AnalysisManager& am,
                                    PassReport& report) {
  (void)am;  // vote census walks the program itself
  return finish_layout_pass(program, report, transform::transpose_layouts(program),
                            "layout transpose", "transpose-layout");
}

verify::Report TransposeLayoutPass::check(const ir::Program& before,
                                          const ir::Program& after,
                                          const CheckOptions& options) const {
  return check_layout_pass(before, after, options);
}

PassResult RegroupArraysPass::run(ir::Program& program, AnalysisManager& am,
                                  PassReport& report) {
  (void)am;
  return finish_layout_pass(program, report, transform::regroup_layouts(program),
                            "layout regrouping", "regroup-arrays");
}

verify::Report RegroupArraysPass::check(const ir::Program& before,
                                        const ir::Program& after,
                                        const CheckOptions& options) const {
  return check_layout_pass(before, after, options);
}

PassResult PadArraysPass::run(ir::Program& program, AnalysisManager& am,
                              PassReport& report) {
  (void)am;
  return finish_layout_pass(program, report, transform::pad_layouts(program),
                            "layout padding", "pad-arrays");
}

verify::Report PadArraysPass::check(const ir::Program& before,
                                    const ir::Program& after,
                                    const CheckOptions& options) const {
  return check_layout_pass(before, after, options);
}

// ---------------------------------------------------------------------------
// registry

namespace {

[[noreturn]] void bad_param(const PassSpec& spec, const std::string& key) {
  throw Error("pass \"" + spec.name + "\" does not take parameter \"" + key +
              "\"");
}

void expect_no_params(const PassSpec& spec) {
  if (!spec.params.empty()) bad_param(spec, spec.params.front().first);
}

std::unique_ptr<Pass> create_fuse(const PassSpec& spec) {
  FusePass::Options options;
  for (const auto& [key, value] : spec.params) {
    if (key == "solver") {
      if (value != "best" && value != "exact" && value != "greedy" &&
          value != "bisection" && value != "edge-weighted") {
        throw Error("unknown fusion solver: " + value);
      }
      options.solver = value;
    } else if (key == "shift") {
      if (value != "0" && value != "1")
        throw Error("fuse parameter shift must be 0 or 1, got \"" + value +
                    "\"");
      options.allow_shifted_fusion = value == "1";
    } else if (key == "max-shift") {
      try {
        options.max_shift = std::stoll(value);
      } catch (const std::exception&) {
        throw Error("fuse parameter max-shift must be an integer, got \"" +
                    value + "\"");
      }
    } else {
      bad_param(spec, key);
    }
  }
  return std::make_unique<FusePass>(options);
}

}  // namespace

std::unique_ptr<Pass> create_pass(const PassSpec& spec) {
  if (spec.name == "fuse") return create_fuse(spec);
  if (spec.name == "interchange") {
    expect_no_params(spec);
    return std::make_unique<InterchangePass>();
  }
  if (spec.name == "reduce-storage") {
    expect_no_params(spec);
    return std::make_unique<ReduceStoragePass>();
  }
  if (spec.name == "eliminate-stores") {
    expect_no_params(spec);
    return std::make_unique<EliminateStoresPass>();
  }
  if (spec.name == "scalar-replace") {
    expect_no_params(spec);
    return std::make_unique<ScalarReplacePass>();
  }
  if (spec.name == "distribute") {
    expect_no_params(spec);
    return std::make_unique<DistributePass>();
  }
  if (spec.name == "transpose-layout") {
    expect_no_params(spec);
    return std::make_unique<TransposeLayoutPass>();
  }
  if (spec.name == "regroup-arrays") {
    expect_no_params(spec);
    return std::make_unique<RegroupArraysPass>();
  }
  if (spec.name == "pad-arrays") {
    expect_no_params(spec);
    return std::make_unique<PadArraysPass>();
  }
  if (spec.name == "lint") {
    expect_no_params(spec);
    return std::make_unique<LintPass>();
  }
  throw Error("unknown pass: " + spec.name);
}

std::vector<std::unique_ptr<Pass>> build_pipeline(const PipelineSpec& spec) {
  std::vector<std::unique_ptr<Pass>> passes;
  passes.reserve(spec.passes.size());
  for (const PassSpec& pass : spec.passes) passes.push_back(create_pass(pass));
  return passes;
}

}  // namespace bwc::pass
