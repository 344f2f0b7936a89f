// PassManager: runs a pipeline of passes over a program, owning the
// cross-cutting concerns every pass used to hand-roll -- analysis caching
// and invalidation, per-pass timing, IR and traffic-bound deltas, the
// inter-pass verifier, and structured reporting (docs/PIPELINE.md).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "bwc/ir/program.h"
#include "bwc/pass/analysis_manager.h"
#include "bwc/pass/pass.h"
#include "bwc/pass/report.h"

namespace bwc::pass {

struct PipelineOptions {
  /// Re-check every changing pass's output with its bwc::verify checker;
  /// a violation raises bwc::Error ("verification failed after <label>").
  /// The input program's structure is validated before the first pass.
  bool verify = true;
  /// Static-prover-first checking policy (CheckOptions::static_verify):
  /// kOn tries the input-independent legality provers before replaying
  /// traces, kOff is trace-only, kOnly never replays.
  StaticVerifyMode static_verify = StaticVerifyMode::kOn;
  /// Serve repeated analysis queries from the AnalysisManager cache. Off
  /// recomputes everything on every query (the benchmark's control arm).
  bool cache_analyses = true;
  /// Fingerprint the IR on every cache hit and throw on a stale entry
  /// (AnalysisManager::Options::audit). Expensive; for tests.
  bool audit_analyses = false;
  /// When set, called with each pass and the program state after it ran
  /// (bwcopt --print-after-all).
  std::function<void(const Pass&, const ir::Program&)> print_after;
};

class PassManager {
 public:
  explicit PassManager(PipelineOptions options = {});

  void add(std::unique_ptr<Pass> pass);
  void add(std::vector<std::unique_ptr<Pass>> passes);
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }

  /// Run every pass over `program` in place. Throws bwc::Error when the
  /// input is structurally invalid (verify on) or a pass fails its check.
  PipelineReport run(ir::Program& program);

 private:
  PipelineOptions options_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace bwc::pass
