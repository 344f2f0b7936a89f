// The uniform pass interface. A Pass transforms an ir::Program in place,
// reads analyses through the AnalysisManager (never recomputing them
// itself), records structured remarks on its PassReport, and declares
// which cached analyses survive its rewrite. Each pass also names the
// bwc::verify checker that certifies its output; the PassManager runs it
// after every changing pass (docs/PIPELINE.md).
#pragma once

#include <string>

#include "bwc/ir/program.h"
#include "bwc/pass/analysis_manager.h"
#include "bwc/pass/report.h"
#include "bwc/verify/diagnostics.h"

namespace bwc::pass {

/// How the static legality provers and the trace validators divide the
/// inter-pass checking work.
enum class StaticVerifyMode {
  /// Try the static prover first; a kProven certificate (valid for every
  /// input) skips trace validation entirely, anything else falls back to
  /// the trace validator for the current problem size.
  kOn,
  /// Trace validation only (the pre-prover behavior).
  kOff,
  /// Static proofs only: kRefuted fails the pipeline, kUnknown is
  /// reported as a skipped check. No traces are ever replayed.
  kOnly,
};

const char* static_verify_mode_name(StaticVerifyMode mode);

/// Options threaded to the inter-pass checkers (bwc::verify). Instance-level
/// checks trace each program within verify::kMaxTraceEvents; larger
/// programs degrade to structural validation (the checker reports skipped).
struct CheckOptions {
  StaticVerifyMode static_verify = StaticVerifyMode::kOn;
};

/// What one pass run did.
struct PassResult {
  bool changed = false;
  /// Analyses still valid on the transformed IR. Ignored (treated as all)
  /// when the pass did not change the program.
  PreservedAnalyses preserved = PreservedAnalyses::none();
};

class Pass {
 public:
  virtual ~Pass() = default;

  /// PipelineSpec name, e.g. "fuse", "reduce-storage".
  virtual std::string name() const = 0;
  /// Human label used in logs and verify lines, e.g. "fusion",
  /// "storage reduction".
  virtual std::string label() const = 0;

  /// Transform `program` in place; query analyses via `am`; record remarks
  /// and structured facts on `report` (the manager fills timing, IR deltas
  /// and traffic bounds itself).
  virtual PassResult run(ir::Program& program, AnalysisManager& am,
                         PassReport& report) = 0;

  /// The verifier check certifying this pass's rewrite. Default:
  /// structural validation of the output (sufficient for passes whose
  /// rewrites the instance-level validators do not model). Scheduling
  /// passes override with translation validation, storage passes with
  /// their observability certificates.
  virtual verify::Report check(const ir::Program& before,
                               const ir::Program& after,
                               const CheckOptions& options) const;
};

}  // namespace bwc::pass
