// Optimizer-pipeline throughput: wall-clock cost of a full
// core::optimize() run, and what the pass layer's analysis cache buys.
//
// The pass manager serves statement summaries (which every storage pass
// decides on), the fusion graph and traffic bounds from the
// AnalysisManager cache across passes
// (src/bwc/pass/analysis_manager.h); with the cache disabled every query
// recomputes from the IR, which is what each pass did for itself before
// the pass-manager refactor. The cached and uncached runs produce
// bit-identical programs -- checked here on every workload -- so the
// ratio isolates the cost of re-derived analyses.
//
// The gated workloads model steady-state re-optimization: the program is
// first driven to the pipeline's fixed point (nothing changes any more,
// the incremental-recompile case), then a convergence pipeline -- the
// fuse/reduce-storage/eliminate-stores trio run twice, as a driver
// checking for a fixed point would -- is timed. Building the fusion
// graph dominates every other analysis by ~10x on multi-loop programs,
// and at the fixed point no pass invalidates it, so the cached run
// builds it once where the uncached run rebuilds it per fuse pass. The
// paper workloads are reported ungated for context: they are tiny and
// converge in one round, so fixed per-run costs (clone, solver) dilute
// the cache signal.
//
// The verifier is off: it is deliberately independent of the analysis
// layer (docs/VERIFY.md) and its instance-level replay would swamp the
// compile-time signal under measurement.
//
//   native_pipeline_throughput [--smoke] [--json]
//
// --smoke exits non-zero if cached/uncached outputs differ or the cache
// speedup on any gated workload falls below the regression floor -- CI
// runs this mode so perf regressions fail loudly. --json emits one JSON
// object of metrics for tools/check_bench_regression.py. Numbers are
// recorded in EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bwc/core/optimizer.h"
#include "bwc/ir/printer.h"
#include "bwc/support/prng.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace {

using namespace bwc;

// Regression floor for --smoke. Measured cache speedups are ~1.9-2.6x on
// the gated steady-state workloads; the floor proves the cache pays
// >= 1.5x while leaving headroom for timer noise on loaded hosts.
constexpr double kCacheSpeedupFloor = 1.5;

// The fuse/reduce-storage/eliminate-stores trio twice over: the pipeline
// a fixed-point driver runs. The second fuse pass is where the cache
// pays -- at the fixed point nothing between the two invalidates the
// fusion graph. Heuristic solver: its cost barely depends on the graph,
// so the timing is the pipeline machinery's, not the exact search's.
const char kTrio[] = "fuse(solver=greedy),reduce-storage,eliminate-stores";

double seconds_of(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Workload {
  std::string key;
  ir::Program program;
  std::string spec;
  /// Gated workloads enter the --smoke regression floor; the others are
  /// reported for context.
  bool gate = true;
};

/// A multi-loop stencil chain: the shape fusion sweeps exist for, and
/// large enough statically that analysis dominates optimize() cost.
ir::Program loop_chain(int loops, std::int64_t n, std::uint64_t seed) {
  Prng rng(seed);
  workloads::RandomProgramParams params;
  params.num_loops = loops;
  params.num_arrays = 2 + loops / 2;
  params.n = n;
  return workloads::random_program(rng, params);
}

/// Drives `program` to the fixed point of `spec`: re-optimizing no
/// longer changes it, so a timed run exercises pure analysis + pass
/// machinery with zero transform work in either arm.
ir::Program fixed_point(ir::Program program, const std::string& spec) {
  pass::PipelineOptions opts;
  opts.verify = false;
  for (int iter = 0; iter < 8; ++iter) {
    ir::Program next = core::optimize(program, spec, opts).program;
    const bool stable = ir::equal(program, next);
    program = std::move(next);
    if (stable) return program;
  }
  std::fprintf(stderr, "warning: no fixed point after 8 rounds\n");
  return program;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const int reps = smoke ? 3 : 5;
  const std::string trio2 = std::string(kTrio) + "," + kTrio;
  const std::string full_spec =
      std::string("interchange,") + kTrio + ",scalar-replace";

  std::vector<Workload> workloads;
  workloads.push_back(
      {"fig7", workloads::fig7_original(smoke ? 10000 : 100000), full_spec,
       /*gate=*/false});
  workloads.push_back({"fig6", workloads::fig6_original(smoke ? 256 : 2000),
                       full_spec, /*gate=*/false});
  workloads.push_back({"blur", workloads::blur_sharpen(smoke ? 64 : 256),
                       full_spec, /*gate=*/false});
  workloads.push_back({"steady24", fixed_point(loop_chain(24, 64, 7), trio2),
                       trio2, /*gate=*/true});
  workloads.push_back({"steady48", fixed_point(loop_chain(48, 64, 11), trio2),
                       trio2, /*gate=*/true});

  if (!json) {
    bench::print_header(
        "Optimizer-pipeline throughput: analysis cache on vs off" +
        std::string(smoke ? " (smoke)" : ""));
    std::printf("%-10s %-6s %12s %12s %9s\n", "workload", "gated",
                "cached ms", "uncached ms", "speedup");
  }

  bool exact = true;
  double min_gated = 1e300;
  std::vector<std::pair<std::string, double>> metrics;
  for (const Workload& w : workloads) {
    pass::PipelineOptions opts;
    opts.verify = false;
    opts.cache_analyses = true;
    const core::OptimizeResult cached =
        core::optimize(w.program, w.spec, opts);
    opts.cache_analyses = false;
    const core::OptimizeResult uncached =
        core::optimize(w.program, w.spec, opts);
    if (!ir::equal(cached.program, uncached.program)) {
      std::printf("!! cache on/off mismatch on %s\n", w.key.c_str());
      exact = false;
    }

    opts.cache_analyses = true;
    const double warm = seconds_of(
        [&] { (void)core::optimize(w.program, w.spec, opts); }, reps);
    opts.cache_analyses = false;
    const double cold = seconds_of(
        [&] { (void)core::optimize(w.program, w.spec, opts); }, reps);
    const double speedup = cold / warm;
    if (!json) {
      std::printf("%-10s %-6s %12.3f %12.3f %8.2fx\n", w.key.c_str(),
                  w.gate ? "yes" : "no", warm * 1e3, cold * 1e3, speedup);
    }
    metrics.emplace_back("cache_speedup_" + w.key, speedup);
    if (w.gate) min_gated = std::min(min_gated, speedup);
  }

  if (json) {
    std::printf("{\"bench\": \"native_pipeline_throughput\"");
    for (const auto& [key, value] : metrics)
      std::printf(", \"%s\": %.3f", key.c_str(), value);
    std::printf("}\n");
  } else {
    std::printf("\nexactness: %s, min gated cache speedup: %.2fx\n",
                exact ? "bit-identical" : "MISMATCH", min_gated);
  }
  if (!exact) return 1;
  if (smoke && min_gated < kCacheSpeedupFloor) {
    std::printf("FAIL: cache speedup below regression floor %.1fx\n",
                kCacheSpeedupFloor);
    return 1;
  }
  return 0;
}
