#include "bwc/pass/analysis_manager.h"

#include "bwc/ir/printer.h"
#include "bwc/support/error.h"

namespace bwc::pass {

std::string AnalysisManager::fingerprint_of(const ir::Program& program) const {
  return ir::to_string(program);
}

bool AnalysisManager::serve_from_cache(const ir::Program& program, bool valid,
                                       const std::string& fingerprint,
                                       const char* what) {
  if (!options_.cache || !valid) {
    ++stats_.misses;
    return false;
  }
  if (options_.audit && fingerprint != fingerprint_of(program)) {
    throw Error(std::string("stale analysis detected: cached ") + what +
                " does not match the current IR -- a pass mutated the "
                "program without declaring the invalidation");
  }
  ++stats_.hits;
  return true;
}

const std::vector<analysis::LoopSummary>& AnalysisManager::statement_summaries(
    const ir::Program& program) {
  if (serve_from_cache(program, summaries_valid_, summaries_fp_,
                       "statement summaries")) {
    return summaries_;
  }
  summaries_ = analysis::summarize_statements(program);
  summaries_valid_ = true;
  if (options_.audit) summaries_fp_ = fingerprint_of(program);
  return summaries_;
}

const fusion::FusionGraph& AnalysisManager::fusion_graph(
    const ir::Program& program, const fusion::FusionGraphOptions& options) {
  const bool same_options =
      graph_options_.allow_shifted_fusion == options.allow_shifted_fusion &&
      graph_options_.max_shift == options.max_shift;
  if (serve_from_cache(program, graph_valid_ && same_options, graph_fp_,
                       "fusion graph")) {
    return graph_;
  }
  graph_ = fusion::build_fusion_graph(program, options,
                                      &statement_summaries(program));
  graph_options_ = options;
  graph_valid_ = true;
  if (options_.audit) graph_fp_ = fingerprint_of(program);
  return graph_;
}

const verify::TrafficBound& AnalysisManager::traffic_bound(
    const ir::Program& program) {
  if (serve_from_cache(program, bound_valid_, bound_fp_, "traffic bound")) {
    return bound_;
  }
  bound_ = verify::compute_traffic_bound(program);
  bound_valid_ = true;
  if (options_.audit) bound_fp_ = fingerprint_of(program);
  return bound_;
}

const verify::DependenceSummary& AnalysisManager::dependence_summary(
    const ir::Program& program) {
  if (serve_from_cache(program, deps_valid_, deps_fp_,
                       "dependence summary")) {
    return deps_;
  }
  deps_ = verify::summarize_dependences(program);
  deps_valid_ = true;
  if (options_.audit) deps_fp_ = fingerprint_of(program);
  return deps_;
}

void AnalysisManager::invalidate(const PreservedAnalyses& preserved) {
  if (preserved.preserves_all()) return;
  ++stats_.invalidations;
  if (!preserved.preserves(AnalysisId::kStatementSummaries))
    summaries_valid_ = false;
  if (!preserved.preserves(AnalysisId::kFusionGraph)) graph_valid_ = false;
  if (!preserved.preserves(AnalysisId::kTrafficBound)) bound_valid_ = false;
  if (!preserved.preserves(AnalysisId::kStaticDependence))
    deps_valid_ = false;
}

}  // namespace bwc::pass
