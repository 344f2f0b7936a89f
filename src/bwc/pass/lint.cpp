#include "bwc/pass/lint.h"

#include <set>
#include <string>
#include <vector>

#include "bwc/analysis/layout_traffic.h"
#include "bwc/verify/static_dependence.h"

namespace bwc::pass {

namespace {

/// Can two references of one top-level statement touch a common element in
/// distinct events? Self pairs require the iterations to differ at some
/// loop level; distinct refs conflict at any iteration pair (conservative:
/// same-iteration multi-touches also count, so the at-bound claim stays
/// sound without modelling which loop levels the two refs share).
verify::Verdict revisit_verdict(const verify::AffineRef& a,
                                const verify::AffineRef& b) {
  if (&a != &b) return verify::PairSystem(a, b).solve().verdict;
  return verify::lex_conflict(
             a, b, verify::same_levels(static_cast<int>(a.loop_vars.size())),
             {{{-verify::kSpan, -1}, {1, verify::kSpan}}})
      .verdict;
}

}  // namespace

PassResult LintPass::run(ir::Program& program, AnalysisManager& am,
                         PassReport& report) {
  // Dead stores: arrays written somewhere, never read anywhere, and not
  // program outputs -- their computation is unobservable. The optimizer's
  // store-elimination pass removes these when it runs; surviving ones are
  // graded as errors.
  const std::vector<analysis::LoopSummary>& summaries =
      am.statement_summaries(program);
  std::set<std::string> written, read;
  for (const analysis::LoopSummary& s : summaries) {
    for (const auto& ref : s.refs->refs) {
      if (ref.array.empty()) continue;
      (ref.write ? written : read).insert(ref.array);
    }
  }
  std::set<std::string> outputs;
  for (ir::ArrayId id : program.output_arrays())
    outputs.insert(program.array(id).name);
  for (const auto& name : written) {
    if (read.count(name) || outputs.count(name)) continue;
    report.finding(RemarkSeverity::kError, "lint-dead-store",
                   "array " + name +
                       " is written but never read and is not an output; "
                       "the stores are dead",
                   {{"array", name}});
  }

  // Unreachable guard arms and analysis-opaque contexts, per statement.
  for (std::size_t t = 0; t < summaries.size(); ++t) {
    const verify::RefSet& refs = *summaries[t].refs;
    if (refs.unreachable_guards > 0) {
      report.finding(RemarkSeverity::kWarning, "lint-unreachable-guard",
                     "statement " + std::to_string(t) + " has " +
                         std::to_string(refs.unreachable_guards) +
                         " guard arm(s) whose iteration domain is empty",
                     {{"top", std::to_string(t)},
                      {"arms", std::to_string(refs.unreachable_guards)}});
    }
    if (refs.inexact_refs > 0) {
      report.finding(
          RemarkSeverity::kWarning, "lint-opaque-context",
          "statement " + std::to_string(t) + " has " +
              std::to_string(refs.inexact_refs) +
              " reference(s) under a guard the interval splitter cannot "
              "refine; static analyses over-approximate their domains",
          {{"top", std::to_string(t)},
           {"refs", std::to_string(refs.inexact_refs)}});
    }
  }

  // Loops already at the distinct-byte traffic lower bound: no array
  // element is provably revisited in a distinct event, so every byte the
  // nest touches crosses the memory boundary exactly once (cold cache) --
  // no intra-loop scheduling change can reduce its traffic.
  for (std::size_t t = 0; t < summaries.size(); ++t) {
    if (program.top()[t]->kind != ir::StmtKind::kLoop) continue;
    const std::vector<verify::AffineRef>& refs = summaries[t].refs->refs;
    bool any_array = false;
    bool at_bound = true;
    std::set<std::string> arrays;
    for (std::size_t i = 0; i < refs.size() && at_bound; ++i) {
      if (refs[i].array.empty()) continue;
      any_array = true;
      arrays.insert(refs[i].array);
      for (std::size_t j = i; j < refs.size() && at_bound; ++j) {
        if (refs[j].array != refs[i].array) continue;
        if (revisit_verdict(refs[i], refs[j]) !=
            verify::Verdict::kIndependent)
          at_bound = false;
      }
    }
    if (!any_array || !at_bound) continue;
    std::string names;
    for (const auto& a : arrays) names += (names.empty() ? "" : " ") + a;
    report.finding(RemarkSeverity::kInfo, "lint-at-traffic-bound",
                   "loop " + std::to_string(t) +
                       " already meets the distinct-byte traffic lower "
                       "bound: no element is revisited across iterations",
                   {{"top", std::to_string(t)}, {"arrays", names}});
  }

  // Whole-program static traffic lower bound with its per-array
  // breakdown (distinct keys, one per array), so remark consumers --
  // the autotuner's users chief among them -- can see WHICH array keeps
  // a candidate off the floor, not just the total.
  const verify::TrafficBound& bound = am.traffic_bound(program);
  {
    std::vector<std::pair<std::string, std::string>> args;
    args.emplace_back("lower_bound_bytes",
                      std::to_string(bound.lower_bound_bytes));
    args.emplace_back("flops_upper_bound",
                      std::to_string(bound.flops_upper_bound));
    for (const verify::ArrayFootprint& a : bound.arrays) {
      args.emplace_back("array." + a.name + ".bound_bytes",
                        std::to_string(a.bytes));
      args.emplace_back("array." + a.name + ".exact",
                        a.exact ? "true" : "false");
    }
    report.finding(RemarkSeverity::kInfo, "lint-traffic-bound",
                   "static traffic lower bound " +
                       std::to_string(bound.lower_bound_bytes) +
                       " bytes across " +
                       std::to_string(bound.arrays.size()) + " array(s)",
                   std::move(args));
  }

  // Arrays whose dominant access stride maps repeatedly onto the same few
  // cache sets for the simulator's geometry: the sweep's lines exceed what
  // those sets can hold, so revisits re-miss regardless of cache size.
  // The layout passes (transpose-layout, pad-arrays) exist to fix this.
  {
    const analysis::LayoutGeometry geometry;
    const analysis::LayoutTrafficEstimate est =
        analysis::estimate_layout_traffic(program, geometry);
    for (const analysis::ArrayLayoutTraffic& a : est.arrays) {
      if (!a.conflict) continue;
      report.finding(
          RemarkSeverity::kWarning, "lint-conflict-stride",
          "array " + a.name + " has dominant stride " +
              std::to_string(a.dominant_stride_bytes) + " bytes mapping to " +
              std::to_string(a.distinct_sets) + " of " +
              std::to_string(geometry.sets) +
              " cache sets; its sweeps thrash the " +
              std::to_string(geometry.ways) + "-way cache",
          {{"array", a.name},
           {"stride_bytes", std::to_string(a.dominant_stride_bytes)},
           {"distinct_sets", std::to_string(a.distinct_sets)},
           {"sets", std::to_string(geometry.sets)},
           {"ways", std::to_string(geometry.ways)},
           {"set_phase", std::to_string(a.set_phase)},
           {"line_bytes_estimate", std::to_string(a.line_bytes_estimate)}});
    }
  }

  // Whole-program dependence census from the cached analysis, so tools
  // reading the remarks see the prover's coverage at a glance.
  const verify::DependenceSummary& deps = am.dependence_summary(program);
  report.finding(RemarkSeverity::kInfo, "lint-dependence-summary",
                 "statement-pair dependence tests: " +
                     std::to_string(deps.independent) + " independent, " +
                     std::to_string(deps.dependent) + " dependent, " +
                     std::to_string(deps.unknown) + " unknown",
                 {{"independent", std::to_string(deps.independent)},
                  {"dependent", std::to_string(deps.dependent)},
                  {"unknown", std::to_string(deps.unknown)},
                  {"inexact_refs", std::to_string(deps.inexact_refs)}});

  return PassResult{};  // diagnostics only: the program is never changed
}

}  // namespace bwc::pass
