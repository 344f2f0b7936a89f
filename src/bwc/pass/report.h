// Structured per-pass reporting: remarks, IR deltas, timing and verifier
// outcomes. Every pass run produces one PassReport; a pipeline run produces
// a PipelineReport, rendered as the human-readable pass log (to_text) or as
// JSON (to_json). docs/PIPELINE.md documents the remark schema; the JSON
// rendering is validated in CI by tools/check_remarks_schema.py.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bwc/analysis/access_summary.h"
#include "bwc/ir/program.h"

namespace bwc::pass {

/// What a remark records: a transformation a pass applied, or one it
/// looked for and did not find (both are lines of the pass log), or a
/// kNote of machine-readable detail (why a fusion was rejected, which
/// array shrank) that the text log leaves out.
enum class RemarkKind { kApplied, kMissed, kNote };

const char* remark_kind_name(RemarkKind kind);

/// How serious a remark is. Ordinary pass remarks are kInfo; diagnostics
/// passes (pass/lint.h) grade their findings, and bwcopt --lint exits
/// nonzero when any kError finding was emitted.
enum class RemarkSeverity { kInfo, kWarning, kError };

const char* remark_severity_name(RemarkSeverity severity);

/// One machine-readable observation from a pass run.
struct Remark {
  RemarkKind kind = RemarkKind::kNote;
  /// Stable kebab-case code, e.g. "fusion-applied", "store-eliminated".
  std::string code;
  /// Human-readable text; for kApplied/kMissed this is the pass-log line.
  std::string message;
  /// Structured key=value detail (all values rendered as strings).
  std::vector<std::pair<std::string, std::string>> args;
  RemarkSeverity severity = RemarkSeverity::kInfo;
};

/// Coarse shape of the IR, captured before and after every pass.
struct IrStats {
  int loops = 0;       // top-level loop nests
  int statements = 0;  // top-level statements (loops included)
  int arrays_referenced = 0;
  std::uint64_t referenced_bytes = 0;
};

/// Compute IrStats from cached per-statement summaries (one per top-level
/// statement, as produced by AnalysisManager::statement_summaries).
IrStats compute_ir_stats(const ir::Program& program,
                         const std::vector<analysis::LoopSummary>& summaries);

/// Outcome of the inter-pass verifier check that followed a pass.
struct VerifyOutcome {
  bool ran = false;
  /// Which checker ran ("translation", "storage-reduction", ...).
  std::string check;
  /// The instance-level part was skipped (event budget).
  bool skipped = false;
  std::string skip_reason;
  std::uint64_t instances_checked = 0;
};

/// Per-array traffic attribution: estimated line-granular bytes an array
/// moves before and after a pass (analysis::estimate_layout_traffic).
/// Layout passes fill one entry per referenced array; other passes leave
/// the breakdown empty.
struct ArrayTraffic {
  std::string name;
  std::int64_t bytes_before = 0;
  std::int64_t bytes_after = 0;
};

/// Everything one pass run produced.
struct PassReport {
  std::string pass;   // PipelineSpec name, e.g. "fuse"
  std::string label;  // human label used in logs, e.g. "fusion"
  bool changed = false;
  double wall_ms = 0.0;    // transform time (excludes verification)
  double verify_ms = 0.0;  // inter-pass checker time
  IrStats ir_before;
  IrStats ir_after;
  /// Static memory-traffic lower bound (verify::traffic_bound) of the
  /// program before/after the pass, in bytes; -1 when not computed.
  std::int64_t traffic_bound_before = -1;
  std::int64_t traffic_bound_after = -1;
  VerifyOutcome verify;
  std::vector<Remark> remarks;
  /// Per-array line-traffic breakdown; empty unless the pass computed one.
  std::vector<ArrayTraffic> per_array;

  /// after - before, or 0 when either side was not computed.
  std::int64_t traffic_bound_delta() const;

  void applied(std::string code, std::string message,
               std::vector<std::pair<std::string, std::string>> args = {});
  void missed(std::string code, std::string message,
              std::vector<std::pair<std::string, std::string>> args = {});
  void note(std::string code, std::string message,
            std::vector<std::pair<std::string, std::string>> args = {});
  /// A graded diagnostic finding (lint): a kNote remark with a severity.
  void finding(RemarkSeverity severity, std::string code, std::string message,
               std::vector<std::pair<std::string, std::string>> args = {});
};

/// Analysis-cache counters (filled from AnalysisManager::stats()).
struct AnalysisCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
};

/// One pipeline run: per-pass reports plus cache counters.
struct PipelineReport {
  std::vector<PassReport> passes;
  AnalysisCacheStats analysis;

  /// The pass log, one "  - " line per kApplied/kMissed remark and per
  /// verifier check that ran, in pipeline order. Deterministic: no wall
  /// clocks or cache counters, so every replay engine prints the same log.
  std::string to_text() const;

  /// Number of kError-severity remarks across all passes (bwcopt --lint
  /// exits 1 when nonzero).
  int error_findings() const;

  /// Machine-readable rendering (schema "bwc-remarks-v1"; validated by
  /// tools/check_remarks_schema.py). `program` and `pipeline` name the
  /// optimized program and the PipelineSpec that produced the run.
  std::string to_json(const std::string& program,
                      const std::string& pipeline) const;
};

}  // namespace bwc::pass
