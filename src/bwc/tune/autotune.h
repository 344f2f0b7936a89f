// Parallel pipeline autotuner with lower-bound optimality certificates.
//
// The search treats pipelines as data (pass::PipelineSpec strings are the
// genome, tune/search_space.h spans the space) and optimizes the static
// traffic bound: score(spec) = verify::compute_traffic_bound applied to
// the program after running `spec` through core::optimize with full
// verification on, so an illegal candidate is rejected by the independent
// verifier (bwc::Error) and scored infeasible -- search can never ship an
// illegal pipeline. Scoring is embarrassingly parallel and runs on a
// runtime::ThreadPool; all mutation/selection decisions happen on the
// main thread at generation boundaries from a seeded bwc::Prng, so a
// fixed seed replays the identical search whatever the thread count.
//
// The searched objective is the *static bound* (cheap, no replay); the
// top-k survivors plus the default core::optimize pipeline are then
// validated in memsim and the winner is the candidate with the smallest
// MEASURED memory<->L2 traffic. Because the default pipeline is always in
// the validated set, the winner is never worse than the default.
//
// Certificates: verify::compute_data_floor(P) is a scheduling-independent
// data-movement floor -- bytes any equivalent program must move. The
// search stops early once the best candidate's predicted traffic is
// within `gap_percent` of that floor, and the result carries a
// machine-checkable certificate (surfaced as a bwc-remarks-v1 record by
// report()) when the winner's measured traffic lands within the gap:
//
//   floor <= bound(winner) <= measured(winner) <= floor * (1 + gap/100)
//
// pinning the winner's true traffic to a provably near-optimal band.
// docs/AUTOTUNE.md walks through the semantics and the floor's caveats.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/ir/program.h"
#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/pass/report.h"
#include "bwc/verify/traffic_bound.h"

namespace bwc::tune {

enum class Strategy { kBeam, kGenetic };

const char* strategy_name(Strategy strategy);
/// "beam" or "genetic" (throws bwc::Error otherwise).
Strategy parse_strategy(const std::string& name);
/// "small" (16), "medium" (48), "large" (128) or a positive integer:
/// the maximum number of candidates scored.
int parse_budget(const std::string& text);

struct TuneOptions {
  Strategy strategy = Strategy::kBeam;
  /// Certificate tolerance: stop when predicted traffic is within this
  /// percentage of the data-movement floor.
  double gap_percent = 5.0;
  /// Maximum candidates scored (parse_budget; default "medium").
  int budget = 48;
  std::uint64_t seed = 0;
  /// Requested scoring pool width (scoring_threads caps it). Results are
  /// bit-identical at any value.
  int threads = 1;
  /// Extra starting population (e.g. winners from a daemon record log).
  /// Malformed or over-long entries are ignored.
  std::vector<std::string> seed_specs;
  /// Machine the memsim validation runs on, as-is (caller applies any
  /// scale / core-count adjustments first).
  machine::MachineModel machine;
  model::ExecEngine engine = model::ExecEngine::kCompiled;
};

/// Width of the scoring pool tune() starts: the requested threads, but no
/// more than the `budget` candidates it may score or the `hardware`
/// threads of the host (std::thread::hardware_concurrency(), 0 when
/// unknown), and at least one.
int scoring_threads(int requested, int budget, unsigned hardware);

/// One memsim-validated candidate.
struct Validated {
  std::string spec;
  std::int64_t predicted_bytes = 0;  // static traffic bound after the spec
  std::int64_t measured_bytes = 0;   // memsim memory<->L2 traffic
};

/// The machine-checkable optimality claim. `within_gap` holds iff
/// floor_bytes > 0 and measured_bytes <= floor_bytes * (1 + tolerance).
struct Certificate {
  bool within_gap = false;
  std::int64_t floor_bytes = 0;      // compute_data_floor(P)
  std::int64_t predicted_bytes = 0;  // winner's static bound
  std::int64_t measured_bytes = 0;   // winner's memsim traffic
  /// 100 * (measured - floor) / floor; -1 when the floor is zero.
  double gap_percent = -1.0;
  double tolerance_percent = 0.0;
};

struct TuneResult {
  std::string winner_spec;  // canonical; "" means "run no passes"
  std::int64_t winner_predicted_bytes = 0;
  std::int64_t winner_measured_bytes = 0;
  /// The default core::optimize pipeline, measured for comparison.
  std::string default_spec;
  std::int64_t default_measured_bytes = 0;
  Certificate certificate;
  verify::DataFloor floor;
  /// Distinct candidates scored / of those, rejected as illegal or
  /// failing to compile.
  int evaluated = 0;
  int infeasible = 0;
  /// Width of the scoring pool the search ran on (scoring_threads).
  int threads = 1;
  /// Search stopped before exhausting the budget because the best
  /// predicted traffic was already within the gap.
  bool early_stop = false;
  /// Every memsim-validated candidate (winner and default included).
  std::vector<Validated> validated;
  /// Pipeline report of the winner's optimize run (empty for "").
  pass::PipelineReport winner_pipeline;

  /// Synthetic "tune" pass record carrying the certificate and the
  /// per-array floor breakdown as bwc-remarks-v1 remarks; append it to
  /// winner_pipeline.passes for a schema-valid machine-readable report.
  pass::PassReport report() const;
};

/// Run the autotuner. Throws bwc::Error only for unusable options or a
/// program the baseline measurement itself rejects; individual candidate
/// failures are scored infeasible and skipped.
TuneResult tune(const ir::Program& program, const TuneOptions& options);

}  // namespace bwc::tune
