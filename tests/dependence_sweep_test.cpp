// Exhaustive parameterized sweeps over dependence offsets: the sign rules
// that drive fusion, shifting and distribution, checked against ground
// truth (the interpreter) for every (producer offset, consumer offset)
// combination in a window, at subscript coefficients 1 and 2.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "bwc/analysis/dependence.h"
#include "bwc/core/optimizer.h"
#include "bwc/fusion/solvers.h"
#include "bwc/ir/dsl.h"
#include "bwc/machine/machine_model.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/prng.h"
#include "bwc/transform/distribute.h"
#include "bwc/transform/fuse.h"
#include "bwc/verify/events.h"
#include "bwc/verify/static_dependence.h"
#include "bwc/verify/verify.h"
#include "bwc/workloads/random_programs.h"

namespace bwc {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::Program;

/// One sweep point: producer writes a[c*i + w], consumer reads a[c*i + r].
struct OffsetCase {
  int c = 1;  // subscript coefficient
  int w = 0;  // write offset
  int r = 0;  // read offset
};

/// Test names print the offsets; the instantiation name carries c.
void PrintTo(const OffsetCase& oc, std::ostream* os) {
  *os << "(" << oc.w << ", " << oc.r << ")";
}

/// Every (w, r) in the [-3, 3] window at coefficient c.
std::vector<OffsetCase> window(int c) {
  std::vector<OffsetCase> cases;
  for (int w = -3; w <= 3; ++w)
    for (int r = -3; r <= 3; ++r) cases.push_back({c, w, r});
  return cases;
}

/// Element e is written at iteration (e - w) / c and read at (e - r) / c:
/// the read outruns the write iff r > w and c divides r - w, and delaying
/// the reader by (r - w) / c iterations puts it back behind the write.
bool read_outruns_write(const OffsetCase& oc) {
  return oc.r > oc.w && (oc.r - oc.w) % oc.c == 0;
}

std::int64_t required_delay(const OffsetCase& oc) {
  return read_outruns_write(oc) ? (oc.r - oc.w) / oc.c : 0;
}

/// Producer writes a[c*i + w]; consumer reduction reads a[c*i + r].
Program make_pair(const OffsetCase& oc) {
  const std::int64_t n = 48;
  Program p("pair");
  const ArrayId a = p.add_array("a", {oc.c * n + 16});
  const ArrayId b = p.add_array("b", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, n,
                assign(a, {v("i") * oc.c + oc.w}, at(b, v("i")) + lvar("i"))));
  p.append(loop("i", 8, n,
                assign("s", sref("s") + at(a, v("i") * oc.c + oc.r))));
  return p;
}

std::string label(const OffsetCase& oc) {
  return "c=" + std::to_string(oc.c) + " w=" + std::to_string(oc.w) +
         " r=" + std::to_string(oc.r);
}

class OffsetSweep : public ::testing::TestWithParam<OffsetCase> {};

TEST_P(OffsetSweep, FusabilityMatchesSignRule) {
  const OffsetCase& oc = GetParam();
  const Program p = make_pair(oc);
  const auto s = analysis::summarize_program(p);
  const auto pa = analysis::analyze_pair(s[0], s[1]);
  EXPECT_EQ(pa.fusion_preventing, read_outruns_write(oc)) << label(oc);
}

TEST_P(OffsetSweep, FusedSemanticsWheneverDeclaredLegal) {
  const OffsetCase& oc = GetParam();
  const Program p = make_pair(oc);
  const auto g = fusion::build_fusion_graph(p);
  const auto plan = fusion::best_fusion(g);
  const Program fused = transform::apply_fusion(p, g, plan);
  const double before = runtime::execute(p).checksum;
  const double after = runtime::execute(fused).checksum;
  ASSERT_NEAR(before, after, 1e-9 * (std::abs(before) + 1.0))
      << label(oc) << " partitions=" << plan.num_partitions;
  // And when legal, the pair really fuses (the solver always profits).
  if (!read_outruns_write(oc)) {
    EXPECT_EQ(plan.num_partitions, 1) << label(oc);
  }
}

TEST_P(OffsetSweep, ShiftEqualsRequiredDelay) {
  const OffsetCase& oc = GetParam();
  const Program p = make_pair(oc);
  const auto s = analysis::summarize_program(p);
  const auto shift = analysis::min_fusion_shift(s[0], s[1]);
  ASSERT_TRUE(shift.has_value()) << label(oc);
  EXPECT_EQ(*shift, required_delay(oc)) << label(oc);
}

TEST_P(OffsetSweep, ShiftedFusionSemantics) {
  const OffsetCase& oc = GetParam();
  const Program p = make_pair(oc);
  fusion::FusionGraphOptions opts;
  opts.allow_shifted_fusion = true;
  const auto g = fusion::build_fusion_graph(p, opts);
  const auto plan = fusion::best_fusion(g);
  EXPECT_EQ(plan.num_partitions, 1) << label(oc);
  const Program fused = transform::apply_fusion(p, g, plan);
  const double before = runtime::execute(p).checksum;
  const double after = runtime::execute(fused).checksum;
  ASSERT_NEAR(before, after, 1e-9 * (std::abs(before) + 1.0)) << label(oc);
}

INSTANTIATE_TEST_SUITE_P(Window, OffsetSweep, ::testing::ValuesIn(window(1)));
INSTANTIATE_TEST_SUITE_P(Stride2Window, OffsetSweep,
                         ::testing::ValuesIn(window(2)));

/// Same sweep for distribution: one loop with write-then-read statements.
class DistributionSweep : public ::testing::TestWithParam<OffsetCase> {};

TEST_P(DistributionSweep, SplitDecisionMatchesSignRule) {
  const OffsetCase& oc = GetParam();
  const std::int64_t n = 48;
  Program p("t");
  const ArrayId a = p.add_array("a", {oc.c * n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, n,
                assign(a, {v("i") * oc.c + oc.w}, lvar("i") * lit(0.25)),
                assign("s", sref("s") + at(a, v("i") * oc.c + oc.r))));
  const auto result = transform::distribute_loops(p);
  // Sequencing the writer first is legal iff the read never outruns the
  // write (same rule as fusion, same derivation).
  EXPECT_EQ(result.loops_after, read_outruns_write(oc) ? 1 : 2) << label(oc);
  const double before = runtime::execute(p).checksum;
  const double after = runtime::execute(result.program).checksum;
  ASSERT_NEAR(before, after, 1e-9 * (std::abs(before) + 1.0)) << label(oc);
}

INSTANTIATE_TEST_SUITE_P(Window, DistributionSweep,
                         ::testing::ValuesIn(window(1)));
INSTANTIATE_TEST_SUITE_P(Stride2Window, DistributionSweep,
                         ::testing::ValuesIn(window(2)));

/// Randomized full-pipeline sweep: every fusion solver crossed with every
/// combination of {shifted fusion, interchange, storage reduction, store
/// elimination}. Each run is certified by the independent verifier (on
/// inside core::optimize), differentially executed against the
/// interpreter's checksum of the original program, and its compiled
/// replay's traffic measurement is checked against the static traffic
/// lower bound from bwc::verify. Seed 2 runs with static verification
/// off: the optimizer's legality queries and the static provers share one
/// dependence engine, so there the trace validator, which shares no code
/// with it, must certify every fusion, shift and interchange choice, with
/// no check skipped.
using PipelineParam = std::tuple<int /*solver*/, int /*option bitmask*/>;

class PipelineSweep : public ::testing::TestWithParam<PipelineParam> {};

/// Replay `p` with the compiled engine on a scaled-down hierarchy -- once
/// with steady-state fast-forward, once without. Both legs must agree
/// byte-for-byte (fast-forward is an exact macrosimulation, not an
/// approximation) and both must respect the verifier's static traffic
/// lower bound. Returns the checksum.
double run_with_bound_check(const Program& p, const std::string& label) {
  const verify::TrafficBound bound = verify::compute_traffic_bound(p);
  runtime::ExecResult runs[2];
  for (const bool fast_forward : {false, true}) {
    memsim::MemoryHierarchy h =
        machine::origin2000_r10k().scaled(16).make_hierarchy();
    runtime::ExecOptions exec_opts;
    exec_opts.hierarchy = &h;
    exec_opts.fast_forward = fast_forward;
    runtime::ExecResult run = runtime::execute_compiled(p, exec_opts);
    EXPECT_LE(static_cast<std::uint64_t>(bound.lower_bound_bytes),
              run.profile.memory_bytes())
        << label << " ff=" << fast_forward << "\n"
        << bound.render();
    runs[fast_forward ? 1 : 0] = std::move(run);
  }
  EXPECT_EQ(runs[0].checksum, runs[1].checksum) << label;
  EXPECT_EQ(runs[0].flops, runs[1].flops) << label;
  EXPECT_EQ(runs[0].loads, runs[1].loads) << label;
  EXPECT_EQ(runs[0].stores, runs[1].stores) << label;
  EXPECT_EQ(runs[0].profile.memory_bytes(), runs[1].profile.memory_bytes())
      << label;
  return runs[1].checksum;
}

/// Every verifier check of the run covered all its instances.
void expect_no_skipped_check(const core::OptimizeResult& result,
                             const std::string& label) {
  for (const auto& report : result.pipeline.passes) {
    EXPECT_FALSE(report.verify.skipped)
        << label << ": " << report.pass << " " << report.verify.check
        << " skipped: " << report.verify.skip_reason;
  }
}

TEST_P(PipelineSweep, RandomProgramsVerifiedAndChecksumPreserved) {
  const auto& [solver_index, mask] = GetParam();
  const char* const solvers[] = {"best", "exact", "greedy", "bisection",
                                 "edge-weighted"};
  // The mask's bits pick shifted fusion, interchange, storage reduction
  // and store elimination around the solver's fuse pass.
  std::string spec = (mask & 2) != 0 ? "interchange," : "";
  spec += std::string("fuse(solver=") + solvers[solver_index] +
          ((mask & 1) != 0 ? ",shift=1)" : ")");
  if ((mask & 4) != 0) spec += ",reduce-storage";
  if ((mask & 8) != 0) spec += ",eliminate-stores";
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    pass::PipelineOptions opts;
    if (seed == 2) opts.static_verify = pass::StaticVerifyMode::kOff;
    Prng rng(seed);
    const Program p = workloads::random_program(rng);
    // optimize() throws if any pass fails translation / observability /
    // structural validation.
    const core::OptimizeResult result = core::optimize(p, spec, opts);
    expect_no_skipped_check(result, "1d seed=" + std::to_string(seed));
    const double before = runtime::execute(p).checksum;
    const double after = runtime::execute(result.program).checksum;
    ASSERT_NEAR(before, after, 1e-9 * (std::abs(before) + 1.0))
        << "seed=" << seed << " solver=" << solver_index << " mask=" << mask
        << "\n" << result.pipeline.to_text();
    const double replayed = run_with_bound_check(result.program, "1d");
    ASSERT_NEAR(before, replayed, 1e-9 * (std::abs(before) + 1.0))
        << "compiled seed=" << seed;

    Prng rng2(seed);
    const Program p2 = workloads::random_program_2d(rng2, 10, 3);
    const core::OptimizeResult result2 = core::optimize(p2, spec, opts);
    expect_no_skipped_check(result2, "2d seed=" + std::to_string(seed));
    const double before2 = runtime::execute(p2).checksum;
    const double after2 = runtime::execute(result2.program).checksum;
    ASSERT_NEAR(before2, after2, 1e-9 * (std::abs(before2) + 1.0))
        << "2d seed=" << seed << " solver=" << solver_index
        << " mask=" << mask << "\n" << result2.pipeline.to_text();
    const double replayed2 = run_with_bound_check(result2.program, "2d");
    ASSERT_NEAR(before2, replayed2, 1e-9 * (std::abs(before2) + 1.0))
        << "2d compiled seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(SolversTimesOptions, PipelineSweep,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 16)));

// -- Static dependence oracle -------------------------------------------------
//
// Differential check of the symbolic dependence tests (verify::
// summarize_dependences) against the event tracer's ground truth: for each
// randomized program, derive the statement-pair dependences actually
// observed in a concrete trace and require that the static summary never
// claims independence for an observed dependence. The converse is fine --
// a static kDependent whose witness lives at a different iteration of the
// same bounds simply was not exercised by this trace. The undecided
// fraction is logged so precision regressions are visible in test output.

/// How one top-level statement touched one memory location in the trace.
struct TopTouch {
  int instances = 0;  // distinct dynamic instances touching the location
  int writes = 0;     // how many of those instances write it
  std::int64_t last_instance = -1;
};

void check_static_vs_trace(const Program& p, const std::string& label,
                           std::int64_t* pairs, std::int64_t* unknown) {
  const verify::DependenceSummary summary = verify::summarize_dependences(p);
  *pairs += static_cast<std::int64_t>(summary.pairs.size());
  for (const auto& d : summary.pairs)
    if (d.verdict == verify::Verdict::kUnknown) ++*unknown;

  verify::LocationSpace space;
  verify::Report report;
  const verify::EventTrace trace =
      verify::trace_program(p, space, 50'000'000, &report);
  ASSERT_FALSE(trace.truncated) << label;

  std::unordered_map<verify::Location, std::map<int, TopTouch>> touched;
  for (std::size_t idx = 0; idx < trace.instances.size(); ++idx) {
    const verify::Instance& inst = trace.instances[idx];
    const auto touch = [&](verify::Location loc, bool write) {
      TopTouch& t = touched[loc][inst.top_index];
      if (t.last_instance != static_cast<std::int64_t>(idx)) {
        ++t.instances;
        t.last_instance = static_cast<std::int64_t>(idx);
      }
      if (write) ++t.writes;
    };
    touch(inst.write, true);
    for (const verify::Location loc : inst.reads) touch(loc, false);
  }

  // Observed dependences, keyed like StmtDependence: (stmt_a <= stmt_b,
  // array, scalar). A self pair needs two distinct instances (the rhs
  // loads of one instance precede its own store, matching the static
  // model's same-iteration exclusion); a cross pair conflicts whenever
  // both statements touch the location and at least one writes.
  std::set<std::tuple<int, int, std::string, std::string>> observed;
  for (const auto& [loc, per_top] : touched) {
    std::string array, scalar;
    if (space.is_scalar(loc))
      scalar = space.scalar_name(space.slot_of(loc));
    else
      array = space.array_name(space.slot_of(loc));
    for (auto ia = per_top.begin(); ia != per_top.end(); ++ia) {
      if (ia->second.instances >= 2 && ia->second.writes >= 1)
        observed.emplace(ia->first, ia->first, array, scalar);
      for (auto ib = std::next(ia); ib != per_top.end(); ++ib) {
        if (ia->second.writes + ib->second.writes >= 1)
          observed.emplace(ia->first, ib->first, array, scalar);
      }
    }
  }

  for (const auto& [ta, tb, array, scalar] : observed) {
    const verify::StmtDependence* match = nullptr;
    for (const auto& d : summary.pairs) {
      if (d.stmt_a == ta && d.stmt_b == tb && d.array == array &&
          d.scalar == scalar) {
        match = &d;
        break;
      }
    }
    const std::string where = array.empty() ? scalar : array;
    ASSERT_NE(match, nullptr)
        << label << ": dependence between statements " << ta << " and " << tb
        << " on " << where << " was observed but the static summary has no "
        << "entry for the pair";
    ASSERT_NE(match->verdict, verify::Verdict::kIndependent)
        << label << ": statically proven independent (decided by "
        << match->decided_by << "), but a dependence between statements "
        << ta << " and " << tb << " on " << where
        << " was observed in the trace";
  }
}

TEST(StaticDependenceOracle, NeverContradictsTraceOn500RandomPrograms) {
  std::int64_t pairs = 0;
  std::int64_t unknown = 0;
  int programs = 0;
  for (std::uint64_t seed = 1; seed <= 260; ++seed) {
    {
      Prng rng(seed);
      const Program p = workloads::random_program(rng);
      check_static_vs_trace(p, "1d seed=" + std::to_string(seed), &pairs,
                            &unknown);
      ++programs;
    }
    if (::testing::Test::HasFatalFailure()) return;
    {
      Prng rng(seed);
      const Program p = workloads::random_program_2d(rng, 12, 3);
      check_static_vs_trace(p, "2d seed=" + std::to_string(seed), &pairs,
                            &unknown);
      ++programs;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_GE(programs, 500);
  ASSERT_GT(pairs, 0);
  const double rate = 100.0 * static_cast<double>(unknown) /
                      static_cast<double>(pairs);
  RecordProperty("dependence_pairs", static_cast<int>(pairs));
  RecordProperty("dependence_unknown", static_cast<int>(unknown));
  std::cout << "static dependence oracle: " << programs << " programs, "
            << pairs << " statement-pair tests, " << unknown
            << " undecided (" << rate << "%)\n";
}

}  // namespace
}  // namespace bwc
