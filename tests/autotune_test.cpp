// Tests for the parallel pipeline autotuner (tune/autotune.h).
//
// The acceptance bar from the autotuner's introduction: on the bundled
// paper workloads the winner's memsim-measured traffic is never worse
// than the default core::optimize pipeline, strictly better on at least
// one workload, and a within-gap lower-bound optimality certificate is
// earned on at least two. Determinism is pinned separately: a fixed
// seed replays the identical search -- winner, certificate and
// validation set -- at any thread-pool width.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/pass/pipeline_spec.h"
#include "bwc/pass/report.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/tune/autotune.h"
#include "bwc/tune/search_space.h"
#include "bwc/verify/traffic_bound.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"

namespace bwc::tune {
namespace {

machine::MachineModel test_machine(std::uint64_t scale) {
  return machine::origin2000_r10k().scaled(scale).with_cores(1);
}

TuneOptions small_options(std::uint64_t scale) {
  TuneOptions o;
  o.budget = parse_budget("small");
  o.threads = 2;
  o.machine = test_machine(scale);
  return o;
}

std::uint64_t measured_bytes(const ir::Program& program,
                             const machine::MachineModel& machine) {
  return model::measure(program, machine, model::MeasureOptions{})
      .profile.memory_bytes();
}

TEST(AutotuneHelpers, ParsesStrategiesAndBudgets) {
  EXPECT_EQ(parse_strategy("beam"), Strategy::kBeam);
  EXPECT_EQ(parse_strategy("genetic"), Strategy::kGenetic);
  EXPECT_THROW(parse_strategy("annealing"), Error);
  EXPECT_EQ(parse_budget("small"), 16);
  EXPECT_EQ(parse_budget("medium"), 48);
  EXPECT_EQ(parse_budget("large"), 128);
  EXPECT_EQ(parse_budget("7"), 7);
  EXPECT_THROW(parse_budget("0"), Error);
  EXPECT_THROW(parse_budget("tiny"), Error);
}

TEST(AutotuneHelpers, StrategyNamesRoundTrip) {
  EXPECT_EQ(parse_strategy(strategy_name(Strategy::kBeam)), Strategy::kBeam);
  EXPECT_EQ(parse_strategy(strategy_name(Strategy::kGenetic)),
            Strategy::kGenetic);
}

// A daemon tune request may ask for 1024 cores; the scoring pool never
// outgrows the host or the candidates it may score. Only the width is
// computed here: no pool is started.
TEST(AutotuneHelpers, ScoringPoolWidthIsCapped) {
  EXPECT_EQ(scoring_threads(1024, 48, 4), 4);    // the host's threads
  EXPECT_EQ(scoring_threads(1024, 16, 64), 16);  // the budget
  EXPECT_EQ(scoring_threads(3, 48, 64), 3);      // the request
  EXPECT_EQ(scoring_threads(1024, 48, 0), 1);    // host count unknown
  EXPECT_EQ(scoring_threads(0, 48, 4), 1);
  EXPECT_EQ(scoring_threads(-5, 48, 4), 1);
}

// The data-movement floor chain the certificate rests on:
//   floor <= static bound <= memsim-measured traffic
// on a workload whose arrays are whole L2 lines (n = 128 doubles =
// 1 KB), so line quantization cannot open an artificial gap.
TEST(AutotuneFloor, ChainHoldsOnPaperWorkloads) {
  struct Case {
    const char* name;
    ir::Program program;
  };
  std::vector<Case> cases;
  cases.push_back({"fig7", workloads::fig7_original(128)});
  cases.push_back({"sec21", workloads::sec21_both_loops(128)});
  cases.push_back({"blur", workloads::blur_sharpen(128)});
  const machine::MachineModel machine = test_machine(16);
  for (const Case& c : cases) {
    const verify::DataFloor floor = verify::compute_data_floor(c.program);
    const verify::TrafficBound bound =
        verify::compute_traffic_bound(c.program);
    const std::uint64_t measured = measured_bytes(c.program, machine);
    EXPECT_GT(floor.floor_bytes, 0) << c.name;
    EXPECT_LE(floor.floor_bytes, bound.lower_bound_bytes) << c.name;
    EXPECT_LE(static_cast<std::uint64_t>(bound.lower_bound_bytes), measured)
        << c.name;
  }
}

// Fixed seed => identical search whatever the thread count, and across
// repeated runs. Everything observable must match: the winner, the
// certificate, the counters, and the whole validation set.
TEST(AutotuneSearch, DeterministicAcrossRunsAndThreadCounts) {
  const ir::Program program = workloads::transposed_sweep(128);
  std::vector<TuneResult> results;
  for (const int threads : {1, 4, 1}) {
    TuneOptions o = small_options(128);
    o.threads = threads;
    o.seed = 7;
    results.push_back(tune(program, o));
  }
  const TuneResult& a = results[0];
  for (std::size_t i = 1; i < results.size(); ++i) {
    const TuneResult& b = results[i];
    EXPECT_EQ(a.winner_spec, b.winner_spec);
    EXPECT_EQ(a.winner_predicted_bytes, b.winner_predicted_bytes);
    EXPECT_EQ(a.winner_measured_bytes, b.winner_measured_bytes);
    EXPECT_EQ(a.default_spec, b.default_spec);
    EXPECT_EQ(a.default_measured_bytes, b.default_measured_bytes);
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.infeasible, b.infeasible);
    EXPECT_EQ(a.early_stop, b.early_stop);
    EXPECT_EQ(a.certificate.within_gap, b.certificate.within_gap);
    EXPECT_EQ(a.certificate.floor_bytes, b.certificate.floor_bytes);
    EXPECT_EQ(a.certificate.measured_bytes, b.certificate.measured_bytes);
    EXPECT_DOUBLE_EQ(a.certificate.gap_percent, b.certificate.gap_percent);
    ASSERT_EQ(a.validated.size(), b.validated.size());
    for (std::size_t j = 0; j < a.validated.size(); ++j) {
      EXPECT_EQ(a.validated[j].spec, b.validated[j].spec);
      EXPECT_EQ(a.validated[j].predicted_bytes,
                b.validated[j].predicted_bytes);
      EXPECT_EQ(a.validated[j].measured_bytes, b.validated[j].measured_bytes);
    }
  }
  // Different seeds are allowed to (and here do) explore differently;
  // at minimum the search still ran.
  EXPECT_GT(a.evaluated, 0);
}

TEST(AutotuneSearch, GeneticStrategyIsDeterministicToo) {
  const ir::Program program = workloads::blur_sharpen(128);
  TuneResult results[2];
  for (TuneResult& r : results) {
    TuneOptions o = small_options(16);
    o.strategy = Strategy::kGenetic;
    o.seed = 11;
    o.threads = (&r == &results[0]) ? 1 : 3;
    r = tune(program, o);
  }
  EXPECT_EQ(results[0].winner_spec, results[1].winner_spec);
  EXPECT_EQ(results[0].winner_measured_bytes,
            results[1].winner_measured_bytes);
  EXPECT_EQ(results[0].evaluated, results[1].evaluated);
}

// The acceptance sweep: winner <= default everywhere, strictly better
// somewhere, certified within the gap on at least two workloads.
TEST(AutotuneSearch, WinnerBeatsOrMatchesDefaultWithCertificates) {
  struct Case {
    const char* name;
    ir::Program program;
    std::uint64_t scale;
  };
  std::vector<Case> cases;
  cases.push_back({"fig7", workloads::fig7_original(128), 16});
  cases.push_back({"sec21", workloads::sec21_both_loops(128), 16});
  cases.push_back({"blur", workloads::blur_sharpen(128), 16});
  cases.push_back({"cascade", workloads::reduction_cascade(128, 3), 16});
  // The transposed sweep is the strict-win workload: its default
  // pipeline leaves a column-major scan whose traffic interchange
  // removes, which only the search discovers.
  cases.push_back({"stride", workloads::transposed_sweep(256), 512});

  int strictly_better = 0;
  int certificates = 0;
  for (const Case& c : cases) {
    const TuneOptions o = small_options(c.scale);
    const TuneResult result = tune(c.program, o);
    EXPECT_LE(result.winner_measured_bytes, result.default_measured_bytes)
        << c.name;
    // The chain the certificate is built on holds unconditionally.
    EXPECT_LE(result.floor.floor_bytes, result.winner_predicted_bytes)
        << c.name;
    EXPECT_LE(result.winner_predicted_bytes, result.winner_measured_bytes)
        << c.name;
    if (result.winner_measured_bytes < result.default_measured_bytes)
      ++strictly_better;
    if (result.certificate.within_gap) {
      ++certificates;
      EXPECT_LE(static_cast<double>(result.certificate.measured_bytes),
                static_cast<double>(result.certificate.floor_bytes) *
                    (1.0 + result.certificate.tolerance_percent / 100.0))
          << c.name;
    }
  }
  EXPECT_GE(strictly_better, 1);
  EXPECT_GE(certificates, 2);
}

// Every gene is seeded in front of the default pipeline, so the stride
// win no longer depends on what the PRNG draws: each tune seed finds the
// best pipeline, which the static bound ties with bare interchange.
TEST(AutotuneSearch, StrideWinnerIsSeedIndependent) {
  const ir::Program program = workloads::transposed_sweep(256);
  const machine::MachineModel machine = test_machine(512);
  const std::uint64_t best = measured_bytes(
      core::optimize(program,
                     "interchange,fuse(solver=best),reduce-storage,"
                     "eliminate-stores")
          .program,
      machine);
  for (const char* budget : {"small", "medium"}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      TuneOptions o = small_options(512);
      o.budget = parse_budget(budget);
      o.seed = seed;
      const TuneResult result = tune(program, o);
      EXPECT_EQ(static_cast<std::uint64_t>(result.winner_measured_bytes), best)
          << "budget " << budget << ", seed " << seed << ": "
          << result.winner_spec;
    }
  }
}

// The winner's report renders as bwc-remarks-v1 records: the synthetic
// "tune" pass carries the certificate remark and the per-array floor
// breakdown under distinct keys.
TEST(AutotuneSearch, ReportCarriesCertificateAndFloorBreakdown) {
  const TuneResult result =
      tune(workloads::fig7_original(128), small_options(16));
  const pass::PassReport report = result.report();
  EXPECT_EQ(report.pass, "tune");
  bool saw_certificate = false;
  bool saw_breakdown = false;
  for (const pass::Remark& remark : report.remarks) {
    if (remark.code == "tune-certificate" ||
        remark.code == "tune-no-certificate") {
      saw_certificate = true;
      bool has_floor = false;
      bool has_gap = false;
      for (const auto& arg : remark.args) {
        has_floor = has_floor || arg.first == "floor_bytes";
        has_gap = has_gap || arg.first == "gap_percent";
      }
      EXPECT_TRUE(has_floor);
      EXPECT_TRUE(has_gap);
    }
    if (remark.code == "tune-floor-breakdown") {
      saw_breakdown = true;
      // Distinct per-array keys, one per floor region.
      EXPECT_EQ(remark.args.size(), result.floor.arrays.size());
      for (const auto& arg : remark.args)
        EXPECT_EQ(arg.first.rfind("array.", 0), 0u) << arg.first;
    }
  }
  EXPECT_TRUE(saw_certificate);
  EXPECT_TRUE(saw_breakdown);
}

// Seed specs steer the search but never break it: malformed or illegal
// entries are ignored, well-formed ones join the starting population.
TEST(AutotuneSearch, MalformedSeedSpecsAreIgnored) {
  TuneOptions o = small_options(16);
  o.seed_specs = {"fuse(solver=", "definitely-not-a-pass",
                  "interchange,fuse(solver=greedy)"};
  const TuneResult result = tune(workloads::sec21_both_loops(128), o);
  EXPECT_LE(result.winner_measured_bytes, result.default_measured_bytes);
  EXPECT_GT(result.evaluated, 0);
}

TEST(AutotuneSearch, RejectsUnusableOptions) {
  TuneOptions o = small_options(16);
  o.budget = 0;
  EXPECT_THROW(tune(workloads::fig7_original(64), o), Error);
  o = small_options(16);
  o.gap_percent = -1.0;
  EXPECT_THROW(tune(workloads::fig7_original(64), o), Error);
}

// The mutation/crossover space never renders an unparseable genome.
TEST(AutotuneSearchSpace, GenomesStayWithinTheGrammar) {
  Prng rng(3);
  std::vector<std::string> population = gene_pool();
  for (int step = 0; step < 200; ++step) {
    const std::string& a = population[rng.uniform(population.size())];
    const std::string& b = population[rng.uniform(population.size())];
    std::string child =
        (step % 2 == 0) ? mutate_spec(a, rng) : crossover_specs(a, b, rng);
    child = canonical_spec(child);
    EXPECT_NO_THROW(pass::parse_pipeline_spec(child)) << child;
    if (!child.empty()) population.push_back(child);
  }
}

}  // namespace
}  // namespace bwc::tune
