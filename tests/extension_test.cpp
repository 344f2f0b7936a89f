// Tests for the extension components: latency-tolerance model, bandwidth
// prediction/tuning, inter-array regrouping, the k-way-cut reduction and
// byte-weighted fusion.
#include <gtest/gtest.h>

#include <cmath>

#include "bwc/fusion/kway_reduction.h"
#include "bwc/fusion/solvers.h"
#include "bwc/graph/random_graphs.h"
#include "bwc/ir/dsl.h"
#include "bwc/machine/latency_model.h"
#include "bwc/model/measure.h"
#include "bwc/model/prediction.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/transform/layout.h"
#include "bwc/verify/static_legality.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc {
namespace {

using namespace ir::dsl;  // NOLINT

// -- Latency model -----------------------------------------------------------

machine::ExecutionProfile streaming_profile() {
  return model::measure(workloads::sec21_read_loop(200000),
                        machine::origin2000_r10k().scaled(16))
      .profile;
}

TEST(LatencyModel, DefaultsCoverEveryBoundary) {
  const auto m = machine::origin2000_r10k();
  const auto lm = machine::default_latency(m);
  EXPECT_EQ(lm.miss_latency_s.size(), m.caches.size());
  for (double l : lm.miss_latency_s) EXPECT_GT(l, 0.0);
  // Memory is the farthest, hence the slowest.
  EXPECT_GT(lm.miss_latency_s.back(), lm.miss_latency_s.front());
}

TEST(LatencyModel, BlockingCacheIsLatencyBound) {
  const auto m = machine::origin2000_r10k();
  const auto lm = machine::default_latency(m);
  const auto p = machine::predict_time_with_latency(streaming_profile(), m, lm);
  EXPECT_FALSE(p.bandwidth_limited);
  EXPECT_GT(p.total_s, p.bandwidth_bound_s);
}

TEST(LatencyModel, ConvergesToBandwidthWall) {
  const auto m = machine::origin2000_r10k();
  const auto lm = machine::default_latency(m);
  const auto profile = streaming_profile();
  const auto sweep = machine::latency_tolerance_sweep(
      profile, m, lm, {1, 2, 4, 8, 64, 1024});
  // Monotone non-increasing, floored at the bandwidth bound.
  for (std::size_t i = 1; i < sweep.size(); ++i)
    EXPECT_LE(sweep[i].total_s, sweep[i - 1].total_s);
  EXPECT_TRUE(sweep.back().bandwidth_limited);
  EXPECT_DOUBLE_EQ(sweep.back().total_s, sweep.back().bandwidth_bound_s);
  // No overlap depth beats the bandwidth bound.
  for (const auto& p : sweep) EXPECT_GE(p.total_s, p.bandwidth_bound_s);
}

TEST(LatencyModel, MissCountsMatchBoundaryBytes) {
  const auto m = machine::origin2000_r10k();
  const auto profile = streaming_profile();
  const auto misses = machine::boundary_miss_counts(m, profile);
  ASSERT_EQ(misses.size(), 2u);
  EXPECT_EQ(misses[0] * m.caches[0].line_bytes,
            profile.boundaries[1].total());
  EXPECT_EQ(misses[1] * m.caches[1].line_bytes,
            profile.boundaries[2].total());
}

TEST(LatencyModel, RejectsBadOverlap) {
  const auto m = machine::origin2000_r10k();
  auto lm = machine::default_latency(m);
  lm.overlap = 0.5;
  EXPECT_THROW(
      machine::predict_time_with_latency(streaming_profile(), m, lm), Error);
}

// -- Prediction / tuning -------------------------------------------------------

TEST(Prediction, RequiredBandwidthScalesWithRatio) {
  const auto m = machine::origin2000_r10k();
  model::ProgramBalance b{"dmxpy", {8.3, 8.3, 8.4}};
  // ratio 10.5 -> needs 10.5x the machine's 320 MB/s.
  EXPECT_NEAR(model::required_memory_bandwidth_mbps(b, m), 10.5 * 320.0, 1.0);
  // A compute-bound program needs no upgrade.
  model::ProgramBalance light{"light", {0.1, 0.1, 0.1}};
  EXPECT_DOUBLE_EQ(model::required_memory_bandwidth_mbps(light, m), 320.0);
}

TEST(Prediction, UpgradeSpeedupSaturates) {
  const auto m = machine::origin2000_r10k().scaled(16);
  const auto profile = streaming_profile();
  const double s2 =
      model::speedup_from_memory_bandwidth(profile, machine::origin2000_r10k(),
                                           2 * 320.0);
  EXPECT_NEAR(s2, 2.0, 0.05);  // memory-bound: 2x bandwidth = 2x speed
  const double s100 = model::speedup_from_memory_bandwidth(
      profile, machine::origin2000_r10k(), 100 * 320.0);
  // Eventually another resource binds; speedup saturates below 100x.
  EXPECT_LT(s100, 20.0);
  EXPECT_GT(s100, s2);
}

TEST(Prediction, TuningReportNamesBindingBoundary) {
  const auto profile = streaming_profile();
  const auto advice =
      model::tuning_report(profile, machine::origin2000_r10k());
  ASSERT_EQ(advice.size(), 3u);
  EXPECT_TRUE(advice.back().binding);  // memory binds a streaming read
  EXPECT_FALSE(advice.front().binding);
  const std::string rendered = model::render_tuning_report(advice);
  EXPECT_NE(rendered.find("Mem-L2"), std::string::npos);
  EXPECT_NE(rendered.find("<- yes"), std::string::npos);
}

// -- Regrouping -----------------------------------------------------------------

ir::Program coaccessed_program(std::int64_t n) {
  ir::Program p("co");
  const ir::ArrayId a = p.add_array("a", {n});
  const ir::ArrayId b = p.add_array("b", {n});
  const ir::ArrayId c = p.add_array("c", {n});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, n,
                assign("s", sref("s") + (at(a, v("i")) + at(b, v("i")))),
                assign(c, {v("i")}, at(a, v("i")) * at(b, v("i")))));
  return p;
}

// regroup-arrays changes only ArrayLayout: co-accessed same-shape arrays
// share an interleave group.
TEST(Regrouping, CandidatesGroupCoaccessedSameShapeArrays) {
  const ir::Program p = coaccessed_program(64);
  const auto r = transform::regroup_layouts(p);
  ASSERT_EQ(r.actions.size(), 1u);
  // a and b are read-only co-accessed; the written c has no partner.
  const int group = r.program.array(r.program.array_id("a")).layout.group;
  EXPECT_GE(group, 0);
  EXPECT_EQ(r.program.array(r.program.array_id("b")).layout.group, group);
  EXPECT_LT(r.program.array(r.program.array_id("c")).layout.group, 0);
}

// A layout never moves a value, so the checksum is unchanged.
TEST(Regrouping, PreservesSemantics) {
  const ir::Program p = coaccessed_program(64);
  const auto r = transform::regroup_layouts(p);
  ASSERT_EQ(r.actions.size(), 1u);
  EXPECT_NEAR(runtime::execute(p).checksum,
              runtime::execute(r.program).checksum, 1e-9);
}

// The group is one allocation of 16 elements with a(i) and b(i) adjacent:
// subscripts interleave through the addressing, not through a rewrite.
TEST(Regrouping, InterleavesSubscripts) {
  const ir::Program p = coaccessed_program(8);
  const auto r = transform::regroup_layouts(p);
  const ir::ArrayId a = r.program.array_id("a");
  const ir::ArrayId b = r.program.array_id("b");
  const ir::ArrayAddressing ra = ir::resolve_addressing(r.program, a);
  const ir::ArrayAddressing rb = ir::resolve_addressing(r.program, b);
  EXPECT_EQ(ra.owner, a);
  EXPECT_EQ(rb.owner, a);
  EXPECT_TRUE(ra.owns_allocation);
  EXPECT_FALSE(rb.owns_allocation);
  EXPECT_EQ(ra.alloc_bytes, 16u * 8u);
  EXPECT_EQ(ra.addr_scale, 2u * 8u);
  EXPECT_EQ(rb.addr_scale, 2u * 8u);
  EXPECT_EQ(ra.member_offset, 0u);
  EXPECT_EQ(rb.member_offset, 8u);
  // Statements are untouched: a and b are still the arrays referenced.
  EXPECT_TRUE(ir::equal(r.program.top(), p.top()));
}

// Outputs may be grouped (a layout never changes a value); an array with
// no same-shape partner may not.
TEST(Regrouping, SkipsOutputsAndSingletons) {
  ir::Program p("t");
  const ir::ArrayId a = p.add_array("a", {16});
  const ir::ArrayId b = p.add_array("b", {32});  // same statement, other shape
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 16,
                assign("s", sref("s") + at(a, v("i")) + at(b, v("i")))));
  EXPECT_TRUE(transform::regroup_layouts(p).actions.empty());
}

// Group members must agree on shape and element size: the addressing
// refuses a malformed group, and so does the layout-change prover.
TEST(Regrouping, RejectsMalformedGroups) {
  ir::Program p("t");
  const ir::ArrayId a = p.add_array("a", {16});
  const ir::ArrayId b = p.add_array("b", {32});     // different shape
  const ir::ArrayId c = p.add_array("c", {16}, 4);  // different element size
  for (const ir::ArrayId partner : {b, c}) {
    ir::Program grouped = p.clone();
    grouped.mutable_array(a).layout.group = 0;
    grouped.mutable_array(partner).layout.group = 0;
    EXPECT_THROW(ir::resolve_addressing(grouped, a), Error);
    EXPECT_THROW(ir::resolve_addressing(grouped, partner), Error);
    const verify::LegalityResult res = verify::prove_layout_change(p, grouped);
    EXPECT_EQ(res.verdict, verify::LegalityVerdict::kRefuted);
    EXPECT_EQ(res.reason.rfind("invalid-layout", 0), 0u) << res.reason;
  }
}

TEST(Regrouping, RandomProgramsPreserveSemantics) {
  Prng rng(31415);
  for (int trial = 0; trial < 15; ++trial) {
    const ir::Program p = workloads::random_program(rng);
    const auto r = transform::regroup_layouts(p);
    const double before = runtime::execute(p).checksum;
    const double after = runtime::execute(r.program).checksum;
    EXPECT_NEAR(before, after, 1e-9 * (std::abs(before) + 1.0))
        << "trial " << trial;
  }
}

// -- k-way cut reduction (paper Section 3.1.3) ------------------------------------

TEST(KWayReduction, MatchesBruteForceOnRandomGraphs) {
  Prng rng(2718);
  for (int trial = 0; trial < 25; ++trial) {
    const auto g = graph::random_undirected(rng, 7, 0.45, 4);
    const std::vector<int> terminals = {0, 3, 6};
    const auto via_fusion = fusion::kway_cut_via_fusion(g, terminals);
    const auto brute = fusion::kway_cut_bruteforce(g, terminals);
    EXPECT_EQ(via_fusion.cut_weight, brute.cut_weight) << "trial " << trial;
    // Terminals separated.
    EXPECT_NE(via_fusion.assignment[0], via_fusion.assignment[3]);
    EXPECT_NE(via_fusion.assignment[0], via_fusion.assignment[6]);
    EXPECT_NE(via_fusion.assignment[3], via_fusion.assignment[6]);
  }
}

TEST(KWayReduction, TwoTerminalsIsMinCut) {
  // For k = 2 the reduction degenerates to ordinary min s-t cut.
  graph::UndirectedGraph g(4);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 3, 2);
  g.add_edge(0, 2, 1);
  g.add_edge(2, 3, 4);
  const auto r = fusion::kway_cut_via_fusion(g, {0, 3});
  EXPECT_EQ(r.cut_weight, 3);  // cut {1->3 (2), 0->2 (1)}
}

TEST(KWayReduction, ValidatesInput) {
  graph::UndirectedGraph g(3);
  EXPECT_THROW(fusion::kway_cut_via_fusion(g, {0}), Error);
  EXPECT_THROW(fusion::kway_cut_via_fusion(g, {0, 0}), Error);
  EXPECT_THROW(fusion::kway_cut_via_fusion(g, {0, 9}), Error);
}

// -- Byte-weighted fusion ----------------------------------------------------------

TEST(WeightedFusion, PrefersKeepingBigArraysWhole) {
  // Three loops; a huge array shared by loops 0 and 2, a small one by all.
  // Unit-cost fusion is indifferent between {0,1},{2} and {0,2},{1}; the
  // weighted objective must keep the huge array in one partition.
  const fusion::FusionGraph g = fusion::graph_from_spec(
      3, {{0, 2}, {0, 1, 2}}, /*deps=*/{},
      /*preventing=*/{{0, 1}},  // forces at least two partitions
      /*bytes=*/{1000000, 8});
  const auto weighted = fusion::exact_enumeration_weighted(g);
  // The huge array's loops 0 and 2 share a partition.
  EXPECT_EQ(weighted.assignment[0], weighted.assignment[2]);
  EXPECT_NE(weighted.assignment[0], weighted.assignment[1]);
}

TEST(WeightedFusion, CoincidesWithUnitWhenSizesEqual) {
  Prng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<int>> pins;
    for (int a = 0; a < 5; ++a) {
      std::vector<int> p;
      for (int l = 0; l < 5; ++l)
        if (rng.chance(0.5)) p.push_back(l);
      if (p.empty()) p.push_back(0);
      pins.push_back(p);
    }
    const auto g = fusion::graph_from_spec(5, pins, {}, {},
                                           {64, 64, 64, 64, 64});
    EXPECT_EQ(fusion::exact_enumeration(g).cost * 64,
              fusion::exact_enumeration_weighted(g).bytes_cost);
  }
}

}  // namespace
}  // namespace bwc
