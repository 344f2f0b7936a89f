// AnalysisManager: cached program analyses with declared invalidation.
//
// Every pass used to re-derive dependence and access-summary analyses from
// scratch; the manager computes each analysis once per program state and
// hands out const references until a transform declares it clobbered the
// state (PassManager calls invalidate() with the pass's PreservedAnalyses
// after every changing pass). Cached results are only sound while that
// contract is honored; the optional audit mode re-fingerprints the IR on
// every cache hit and throws on a stale entry, which is how
// tests/pass_manager_test.cpp catches deliberately-skipped invalidations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/analysis/access_summary.h"
#include "bwc/fusion/fusion_graph.h"
#include "bwc/ir/program.h"
#include "bwc/pass/report.h"
#include "bwc/verify/static_dependence.h"
#include "bwc/verify/traffic_bound.h"

namespace bwc::pass {

/// The analyses the manager knows how to cache.
enum class AnalysisId : unsigned {
  kStatementSummaries = 0,  // analysis::summarize_statements
  kFusionGraph = 1,         // fusion::build_fusion_graph (per options)
  kTrafficBound = 2,        // verify::compute_traffic_bound
  kStaticDependence = 3,    // verify::summarize_dependences
};

/// What a transform promises it did NOT clobber. A pass that changed the
/// program returns the set of analyses still valid on the new IR; the
/// manager drops everything else. Claiming too much is a miscompile
/// waiting to happen -- the audit mode and the pipeline verifier exist to
/// catch exactly that.
class PreservedAnalyses {
 public:
  static PreservedAnalyses all() {
    PreservedAnalyses p;
    p.all_ = true;
    return p;
  }
  static PreservedAnalyses none() { return PreservedAnalyses(); }

  PreservedAnalyses& preserve(AnalysisId id) {
    mask_ |= 1u << static_cast<unsigned>(id);
    return *this;
  }
  bool preserves(AnalysisId id) const {
    return all_ || (mask_ & (1u << static_cast<unsigned>(id))) != 0;
  }
  bool preserves_all() const { return all_; }

 private:
  bool all_ = false;
  std::uint32_t mask_ = 0;
};

class AnalysisManager {
 public:
  struct Options {
    /// Off: every query recomputes (the bench's cache-disabled mode).
    bool cache = true;
    /// On: every cache hit re-fingerprints the program (ir printer) and
    /// throws bwc::Error when the cached entry no longer matches -- a
    /// pass mutated the IR without declaring the invalidation.
    bool audit = false;
  };

  AnalysisManager() : AnalysisManager(Options()) {}
  explicit AnalysisManager(Options options) : options_(options) {}

  /// One summarize_statement result per top-level statement, in order.
  const std::vector<analysis::LoopSummary>& statement_summaries(
      const ir::Program& program);
  /// Keyed by options: a query with different FusionGraphOptions than the
  /// cached graph recomputes.
  const fusion::FusionGraph& fusion_graph(
      const ir::Program& program, const fusion::FusionGraphOptions& options);
  const verify::TrafficBound& traffic_bound(const ir::Program& program);
  /// Statement-pair symbolic dependence verdicts (ZIV/SIV/GCD/Banerjee
  /// over guard-refined domains); consumed by the lint pass and any pass
  /// wanting input-independent dependence facts.
  const verify::DependenceSummary& dependence_summary(
      const ir::Program& program);

  /// Drop every cached analysis the pass did not declare preserved.
  void invalidate(const PreservedAnalyses& preserved);

  const AnalysisCacheStats& stats() const { return stats_; }
  const Options& options() const { return options_; }

 private:
  /// Returns true when the slot may be served from cache; bumps counters
  /// and performs the audit-mode staleness check.
  bool serve_from_cache(const ir::Program& program, bool valid,
                        const std::string& fingerprint, const char* what);
  std::string fingerprint_of(const ir::Program& program) const;

  Options options_;
  AnalysisCacheStats stats_;

  bool summaries_valid_ = false;
  std::vector<analysis::LoopSummary> summaries_;
  std::string summaries_fp_;

  bool graph_valid_ = false;
  fusion::FusionGraph graph_;
  fusion::FusionGraphOptions graph_options_;
  std::string graph_fp_;

  bool bound_valid_ = false;
  verify::TrafficBound bound_;
  std::string bound_fp_;

  bool deps_valid_ = false;
  verify::DependenceSummary deps_;
  std::string deps_fp_;
};

}  // namespace bwc::pass
