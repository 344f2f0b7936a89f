#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <limits>

#include "bwc/core/optimizer.h"
#include "bwc/fusion/fusion_graph.h"
#include "bwc/fusion/solvers.h"
#include "bwc/graph/hypergraph.h"
#include "bwc/ir/dsl.h"
#include "bwc/machine/machine_model.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc::fusion {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::Program;

// -- Fusion graph construction -------------------------------------------------

TEST(FusionGraph, BuildsHyperedgesDepsAndPreventing) {
  Program p("t");
  const ArrayId a = p.add_array("a", {32});
  const ArrayId b = p.add_array("b", {32});
  p.add_scalar("s");
  // L0 writes a; L1 reads a writes b; L2 has incompatible bounds.
  p.append(loop("i", 2, 30, assign(a, {v("i")}, lit(1.0))));
  p.append(loop("i", 2, 30, assign(b, {v("i")}, at(a, v("i")))));
  p.append(loop("i", 1, 31, assign("s", sref("s") + at(b, v("i")))));

  const FusionGraph g = build_fusion_graph(p);
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.sharing.edge_count(), 2);  // arrays a, b
  EXPECT_TRUE(g.deps.has_edge(0, 1));
  EXPECT_TRUE(g.deps.has_edge(1, 2));
  EXPECT_TRUE(g.is_preventing(1, 2));  // bounds mismatch
  EXPECT_FALSE(g.is_preventing(0, 1));
}

TEST(FusionGraph, InterleavedScalarResetPinsLoops) {
  // loop (sum+=) ; sum = 0 ; loop (sum+=): fusing the loops across the
  // reset would be wrong.
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.add_scalar("sum");
  p.append(loop("i", 1, 16, assign("sum", sref("sum") + at(a, v("i")))));
  p.append(assign("sum", lit(0.0)));
  p.append(loop("i", 1, 16, assign("sum", sref("sum") + at(a, v("i")))));
  const FusionGraph g = build_fusion_graph(p);
  EXPECT_TRUE(g.is_preventing(0, 1));
  EXPECT_TRUE(g.deps.has_edge(0, 1));
}

TEST(FusionGraph, HarmlessInterleavedStatementDoesNotPin) {
  Program p("t");
  const ArrayId a = p.add_array("a", {16});
  p.add_scalar("sum");
  p.add_scalar("other");
  p.append(loop("i", 1, 16, assign("sum", sref("sum") + at(a, v("i")))));
  p.append(assign("other", lit(0.0)));
  p.append(loop("i", 1, 16, assign("sum", sref("sum") + at(a, v("i")))));
  const FusionGraph g = build_fusion_graph(p);
  EXPECT_FALSE(g.is_preventing(0, 1));
}

// -- Plan validity / normalization ------------------------------------------------

TEST(FusionPlan, ValidityChecksPreventingAndCycles) {
  const FusionGraph g = graph_from_spec(
      3, {{0, 1}, {1, 2}}, /*deps=*/{{0, 1}, {1, 2}},
      /*preventing=*/{{0, 2}});
  std::string why;
  EXPECT_TRUE(plan_is_valid(g, {0, 1, 2}, &why));
  EXPECT_TRUE(plan_is_valid(g, {0, 0, 1}, &why));
  EXPECT_FALSE(plan_is_valid(g, {0, 1, 0}, &why));  // preventing pair
  EXPECT_NE(why.find("fusion-preventing"), std::string::npos);
}

TEST(FusionPlan, CyclicContractionRejected) {
  // 0 -> 1 -> 2 with partition {0,2},{1} creates a partition cycle.
  const FusionGraph g =
      graph_from_spec(3, {{0, 1, 2}}, {{0, 1}, {1, 2}}, {});
  std::string why;
  EXPECT_FALSE(plan_is_valid(g, {0, 1, 0}, &why));
  EXPECT_NE(why.find("cyclic"), std::string::npos);
}

TEST(FusionPlan, NormalizeOrderRespectsDependences) {
  const FusionGraph g = graph_from_spec(3, {}, {{1, 2}}, {});
  // Partition ids given out of order: {2} must still come after {1}.
  const auto norm = normalize_order(g, {5, 9, 3});
  EXPECT_LT(norm[1], norm[2]);
}

TEST(FusionPlan, FinishPlanComputesCosts) {
  const FusionGraph g = graph_from_spec(
      2, {{0, 1}, {0}}, {}, {}, /*bytes=*/{100, 50});
  const FusionPlan fused = finish_plan(g, {0, 0}, "test");
  EXPECT_EQ(fused.cost, 2);          // both arrays once
  EXPECT_EQ(fused.bytes_cost, 150);  // 100 + 50
  const FusionPlan split = finish_plan(g, {0, 1}, "test");
  EXPECT_EQ(split.cost, 3);
  EXPECT_EQ(split.bytes_cost, 250);
}

// -- The paper's Figure 4 -----------------------------------------------------------

TEST(Figure4, NoFusionCosts20) {
  const FusionGraph g = workloads::fig4_graph();
  EXPECT_EQ(no_fusion(g).cost, workloads::kFig4NoFusionCost);
}

TEST(Figure4, BandwidthMinimalCosts7) {
  const FusionGraph g = workloads::fig4_graph();
  const FusionPlan plan = exact_enumeration(g);
  EXPECT_EQ(plan.cost, workloads::kFig4BandwidthMinimalCost);
  // The optimum leaves loop 5 (node 4) alone and fuses the rest.
  const auto groups = plan.groups();
  ASSERT_EQ(groups.size(), 2u);
  const auto& first = groups[0];
  EXPECT_EQ(first, (std::vector<int>{4}));
}

TEST(Figure4, TwoPartitionSolverMatchesExact) {
  const FusionGraph g = workloads::fig4_graph();
  const auto plan = exact_two_partition(g);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cost, workloads::kFig4BandwidthMinimalCost);
}

TEST(Figure4, EdgeWeightedBaselineCosts8) {
  const FusionGraph g = workloads::fig4_graph();
  const FusionPlan plan = edge_weighted_baseline(g);
  EXPECT_EQ(plan.cost, workloads::kFig4EdgeWeightedCost);
  // Their optimum fuses loops 1-5 and leaves loop 6 alone.
  const auto groups = plan.groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[1], (std::vector<int>{5}));
}

TEST(Figure4, HeuristicsAreValidAndBounded) {
  const FusionGraph g = workloads::fig4_graph();
  for (const FusionPlan& plan :
       {greedy_fusion(g), recursive_bisection(g), best_fusion(g)}) {
    EXPECT_TRUE(plan_is_valid(g, plan.assignment));
    EXPECT_GE(plan.cost, workloads::kFig4BandwidthMinimalCost);
    EXPECT_LE(plan.cost, workloads::kFig4NoFusionCost);
  }
  EXPECT_EQ(best_fusion(g).cost, workloads::kFig4BandwidthMinimalCost);
}

// -- Solver properties on random graphs ----------------------------------------------

FusionGraph random_spec(Prng& rng, int loops, int arrays) {
  std::vector<std::vector<int>> pins(static_cast<std::size_t>(arrays));
  for (auto& p : pins) {
    for (int l = 0; l < loops; ++l) {
      if (rng.chance(0.45)) p.push_back(l);
    }
    if (p.empty()) p.push_back(static_cast<int>(rng.uniform(
        static_cast<std::uint64_t>(loops))));
  }
  std::vector<std::pair<int, int>> deps, prevent;
  for (int i = 0; i < loops; ++i) {
    for (int j = i + 1; j < loops; ++j) {
      if (rng.chance(0.2)) deps.emplace_back(i, j);
      if (rng.chance(0.15)) prevent.emplace_back(i, j);
    }
  }
  return graph_from_spec(loops, pins, deps, prevent);
}

TEST(Solvers, HeuristicsNeverBeatExactAndAlwaysValid) {
  Prng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const FusionGraph g = random_spec(rng, 6, 5);
    const FusionPlan exact = exact_enumeration(g);
    for (const FusionPlan& plan :
         {greedy_fusion(g), recursive_bisection(g),
          edge_weighted_baseline(g)}) {
      EXPECT_TRUE(plan_is_valid(g, plan.assignment)) << plan.solver;
      EXPECT_GE(plan.cost, exact.cost) << plan.solver << " trial " << trial;
    }
    EXPECT_LE(exact.cost, no_fusion(g).cost);
  }
}

TEST(Solvers, TwoPartitionExactOnSingleConstraintGraphs) {
  Prng rng(31337);
  int applicable = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::vector<int>> pins;
    const int loops = 6;
    for (int a = 0; a < 6; ++a) {
      std::vector<int> p;
      for (int l = 0; l < loops; ++l)
        if (rng.chance(0.5)) p.push_back(l);
      if (p.empty()) p.push_back(0);
      pins.push_back(p);
    }
    // Exactly one preventing pair, no dependences (the paper's restricted
    // two-partitioning form).
    const FusionGraph g = graph_from_spec(loops, pins, {}, {{0, 5}});
    const auto two = exact_two_partition(g);
    ASSERT_TRUE(two.has_value());
    ++applicable;
    const FusionPlan exact = exact_enumeration(g);
    EXPECT_EQ(two->cost, exact.cost) << "trial " << trial;
  }
  EXPECT_EQ(applicable, 40);
}

TEST(Solvers, TwoPartitionRespectsDependences) {
  // s=0, t=3; dependence 2 -> 1 forces their order across the cut.
  const FusionGraph g = graph_from_spec(
      4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}}, {{2, 3}}, {{0, 3}});
  const auto plan = exact_two_partition(g);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan_is_valid(g, plan->assignment));
  EXPECT_LE(plan->assignment[2], plan->assignment[3]);
}

TEST(Solvers, ExactThrowsBeyondLimit) {
  Prng rng(1);
  const FusionGraph g = random_spec(rng, 14, 3);
  EXPECT_THROW(exact_enumeration(g), Error);
}

TEST(Solvers, CapacityErrorCarriesStructuredFields) {
  Prng rng(1);
  const FusionGraph g = random_spec(rng, 14, 3);
  try {
    exact_enumeration(g);
    FAIL() << "expected FusionCapacityError";
  } catch (const FusionCapacityError& e) {
    EXPECT_EQ(e.loop_count(), 14);
    EXPECT_EQ(e.max_nodes(), 12);
    EXPECT_EQ(e.solver(), "exact");
    EXPECT_EQ(e.suggested_solver(), "bisection");
    const std::string what = e.what();
    EXPECT_NE(what.find("14 loops"), std::string::npos) << what;
    EXPECT_NE(what.find("bisection"), std::string::npos) << what;
  }
  // The weighted variant reports its own solver name; best_fusion never
  // throws -- it applies the suggested fallback automatically.
  try {
    exact_enumeration_weighted(g);
    FAIL() << "expected FusionCapacityError";
  } catch (const FusionCapacityError& e) {
    EXPECT_EQ(e.solver(), "exact-weighted");
  }
  EXPECT_NO_THROW(best_fusion(g));
}

// -- The exact search against an exhaustive reference -------------------------

/// The exact search's specification without its bound: every set partition
/// in restricted-growth order (skipping early the placements that
/// co-partition a fusion-preventing pair), kept when plan_is_valid accepts
/// it and strictly cheaper than the best so far. Winners per objective
/// (arrays, bytes, cut edges); empty when no partitioning is valid.
std::array<std::vector<int>, 3> exhaustive_winners(const FusionGraph& g) {
  const int n = g.node_count();
  std::array<std::vector<int>, 3> winners;
  std::array<std::int64_t, 3> best;
  best.fill(std::numeric_limits<std::int64_t>::max());
  std::vector<int> a(static_cast<std::size_t>(n), 0);
  std::function<void(int, int)> visit = [&](int v, int used) {
    if (v == n) {
      if (!plan_is_valid(g, a)) return;
      std::int64_t cut = 0;
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          if (a[static_cast<std::size_t>(i)] != a[static_cast<std::size_t>(j)])
            cut += static_cast<std::int64_t>(g.pair(i, j).shared_arrays.size());
        }
      }
      const std::array<std::int64_t, 3> cost = {
          graph::partition_cost(g.sharing, a),
          graph::partition_cost(g.sharing_bytes, a),
          cut * 64 + *std::max_element(a.begin(), a.end())};
      for (std::size_t k = 0; k < 3; ++k) {
        if (cost[k] < best[k]) {
          best[k] = cost[k];
          winners[k] = a;
        }
      }
      return;
    }
    for (int p = 0; p <= used; ++p) {
      bool prevented = false;
      for (int u = 0; u < v; ++u) {
        prevented |=
            a[static_cast<std::size_t>(u)] == p && g.is_preventing(u, v);
      }
      if (prevented) continue;
      a[static_cast<std::size_t>(v)] = p;
      visit(v + 1, std::max(used, p + 1));
    }
  };
  visit(0, 0);
  return winners;
}

/// Random spec graph of 1-10 loops with byte-weighted arrays, mostly
/// forward and some backward dependences, and preventing pairs; some have
/// no valid partitioning at all.
FusionGraph random_weighted_spec(Prng& rng, int loops) {
  const int arrays = 1 + static_cast<int>(rng.uniform(8));
  std::vector<std::vector<int>> pins(static_cast<std::size_t>(arrays));
  std::vector<std::int64_t> bytes;
  for (auto& p : pins) {
    const double prob = 0.2 + 0.5 * rng.uniform_double();
    for (int l = 0; l < loops; ++l) {
      if (rng.chance(prob)) p.push_back(l);
    }
    if (p.empty())
      p.push_back(static_cast<int>(
          rng.uniform(static_cast<std::uint64_t>(loops))));
    bytes.push_back(1 + static_cast<std::int64_t>(rng.uniform(100)));
  }
  std::vector<std::pair<int, int>> deps, prevent;
  const double dep_prob = 0.3 * rng.uniform_double();
  const double prevent_prob = 0.3 * rng.uniform_double();
  for (int i = 0; i < loops; ++i) {
    for (int j = 0; j < loops; ++j) {
      if (i != j && rng.chance(i < j ? dep_prob : dep_prob / 4))
        deps.emplace_back(i, j);
      if (i < j && rng.chance(prevent_prob)) prevent.emplace_back(i, j);
    }
  }
  return graph_from_spec(loops, pins, deps, prevent, bytes);
}

/// The four exact entry points agree with the reference's `winners` on
/// `g`: the same plan after finish_plan, or an error on both sides.
void expect_matches_reference(const FusionGraph& g,
                              const std::array<std::vector<int>, 3>& winners,
                              const std::string& label) {
  const struct {
    std::size_t objective;
    const char* solver;
    FusionPlan (*solve)(const FusionGraph&);
  } cases[] = {{0, "exact", exact_enumeration},
               {1, "exact-weighted", exact_enumeration_weighted},
               {2, "edge-weighted", edge_weighted_baseline},
               {0, "best(exact)", best_fusion}};
  for (const auto& c : cases) {
    const std::vector<int>& winner = winners[c.objective];
    if (winner.empty()) {
      EXPECT_THROW(c.solve(g), Error) << label << " " << c.solver;
      continue;
    }
    const FusionPlan want = finish_plan(g, winner, c.solver);
    const FusionPlan got = c.solve(g);
    EXPECT_EQ(got.assignment, want.assignment) << label << " " << c.solver;
    EXPECT_EQ(got.cost, want.cost) << label << " " << c.solver;
    EXPECT_EQ(got.bytes_cost, want.bytes_cost) << label << " " << c.solver;
    EXPECT_EQ(got.solver, want.solver) << label;
  }
}

TEST(Solvers, BranchAndBoundMatchesExhaustiveReference) {
  Prng rng(20261018);
  int invalid = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    // 1-8 loops, and 9 or 10 in one trial of a hundred: the reference
    // visits Bell(10) = 115975 partitions of a 10-loop graph.
    const int loops = trial % 100 == 99 ? 9 + trial / 100 % 2 : 1 + trial % 8;
    const FusionGraph g = random_weighted_spec(rng, loops);
    const auto winners = exhaustive_winners(g);
    invalid += winners[0].empty() ? 1 : 0;
    expect_matches_reference(g, winners, "spec " + std::to_string(trial));
  }
  // The corpus must exercise the no-valid-partitioning path, not only
  // solvable graphs.
  EXPECT_GT(invalid, 0);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Prng r1(seed), r2(seed);
    for (const Program& p : {workloads::random_program(r1),
                             workloads::random_program_2d(r2)}) {
      for (bool shift : {false, true}) {
        FusionGraphOptions options;
        options.allow_shifted_fusion = shift;
        const FusionGraph g = build_fusion_graph(p, options);
        expect_matches_reference(g, exhaustive_winners(g),
                                 p.name() + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(Solvers, TwelveLoopWorstCasesStayFast) {
  // Graphs of kMaxExactLoops loops on which exhaustive enumeration took
  // 0.8-8.9 s per solve on a 4-vCPU 2.0 GHz x86-64 host. Costs were
  // computed once by that enumeration.
  const int n = kMaxExactLoops;
  std::vector<std::vector<int>> private_arrays;
  for (int i = 0; i < n; ++i) private_arrays.push_back({i});
  std::vector<std::vector<int>> mostly_private = private_arrays;
  for (int i : {0, 4, 8}) mostly_private.push_back({i, i + 1});
  // native_solver_scaling's make_graph(12, 12, 42).
  Prng rng(42);
  std::vector<std::vector<int>> random_pins(static_cast<std::size_t>(n));
  for (auto& p : random_pins) {
    for (int l = 0; l < n; ++l) {
      if (rng.chance(0.4)) p.push_back(l);
    }
    if (p.empty()) {
      p.push_back(
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n))));
    }
  }
  // A chain whose every adjacent pair depends and prevents fusion.
  std::vector<std::vector<int>> chain_pins;
  std::vector<std::pair<int, int>> chain;
  for (int i = 0; i <= n; ++i) {
    chain_pins.push_back({std::max(i - 1, 0), std::min(i, n - 1)});
    if (i + 1 < n) chain.emplace_back(i, i + 1);
  }
  const struct {
    const char* name;
    FusionGraph graph;
    std::int64_t cost, bytes_cost, edge_weighted_cost;
  } cases[] = {
      {"private arrays", graph_from_spec(n, private_arrays, {}, {}), 12, 12,
       12},
      {"private arrays, one preventing pair",
       graph_from_spec(n, private_arrays, {}, {{0, n - 1}}), 12, 12, 12},
      {"mostly private arrays",
       graph_from_spec(n, mostly_private, {}, {}), 15, 15, 15},
      {"make_graph(12, 12, 42)",
       graph_from_spec(n, random_pins, {}, {{0, n - 1}}), 15, 15, 15},
      {"preventing dependence chain",
       graph_from_spec(n, chain_pins, chain, chain), 24, 24, 24},
  };
  const auto start = std::chrono::steady_clock::now();
  for (const auto& c : cases) {
    EXPECT_EQ(exact_enumeration(c.graph).cost, c.cost) << c.name;
    EXPECT_EQ(exact_enumeration_weighted(c.graph).bytes_cost, c.bytes_cost)
        << c.name;
    EXPECT_EQ(edge_weighted_baseline(c.graph).cost, c.edge_weighted_cost)
        << c.name;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 2.0);
}

TEST(Solvers, NoFusionOnEmptyGraph) {
  const FusionGraph g = graph_from_spec(0, {}, {}, {});
  EXPECT_EQ(no_fusion(g).num_partitions, 0);
  EXPECT_EQ(greedy_fusion(g).num_partitions, 0);
}

TEST(Solvers, GreedyMergesObviousSharing) {
  // Two loops over the same array, no constraints: one partition.
  const FusionGraph g = graph_from_spec(2, {{0, 1}}, {}, {});
  const FusionPlan plan = greedy_fusion(g);
  EXPECT_EQ(plan.num_partitions, 1);
  EXPECT_EQ(plan.cost, 1);
}

TEST(Solvers, GreedyRespectsBackwardDependences) {
  // Loop 2 runs between loops 0 and 1 (0 -> 2 -> 1), and 0 and 1 share an
  // array. Placing the loops in index order joined 1 with 0 before 2 was
  // placed, leaving no acyclic place for 2: the plan was cyclic.
  const FusionGraph g = graph_from_spec(3, {{0, 1}, {2}}, {{0, 2}, {2, 1}}, {});
  EXPECT_EQ(exact_enumeration(g).cost, 2);
  const FusionPlan plan = greedy_fusion(g);
  EXPECT_TRUE(plan_is_valid(g, plan.assignment));
  EXPECT_GE(plan.cost, 2);

  // Past kMaxExactLoops both heuristics' callers lean on greedy.
  std::vector<std::vector<int>> pins = {{0, 1}, {2}};
  for (int l = 3; l < 13; ++l) pins.push_back({l - 1, l});
  const FusionGraph big =
      graph_from_spec(13, pins, {{0, 2}, {2, 1}, {5, 4}}, {{3, 4}});
  ASSERT_GT(big.node_count(), kMaxExactLoops);
  for (const FusionPlan& p : {best_fusion(big), edge_weighted_baseline(big)})
    EXPECT_TRUE(plan_is_valid(big, p.assignment)) << p.solver;

  // Loops on a dependence cycle share a partition; a preventing pair on
  // one admits no plan, in the exact search as in greedy.
  const FusionGraph cycle =
      graph_from_spec(3, {{0}, {1}, {2}}, {{0, 1}, {1, 0}}, {});
  EXPECT_EQ(greedy_fusion(cycle).assignment, (std::vector<int>{0, 0, 1}));
  const FusionGraph prevented =
      graph_from_spec(2, {{0, 1}}, {{0, 1}, {1, 0}}, {{0, 1}});
  EXPECT_THROW(exact_enumeration(prevented), Error);
  EXPECT_THROW(greedy_fusion(prevented), Error);
}

TEST(Solvers, GreedyPlansValidWithBackwardDependences) {
  Prng rng(4242);
  int solvable = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    const FusionGraph g = random_weighted_spec(rng, 1 + trial % 10);
    bool exact_found = true;
    try {
      exact_enumeration(g);
    } catch (const Error&) {
      exact_found = false;
    }
    if (!exact_found) {
      EXPECT_THROW(greedy_fusion(g), Error) << "spec " << trial;
      continue;
    }
    ++solvable;
    const FusionPlan plan = greedy_fusion(g);
    EXPECT_TRUE(plan_is_valid(g, plan.assignment)) << "spec " << trial;
  }
  EXPECT_GE(solvable, 2000);
}

TEST(Solvers, PreventingPairAlwaysSeparated) {
  Prng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const FusionGraph g = random_spec(rng, 7, 4);
    for (const FusionPlan& plan :
         {greedy_fusion(g), recursive_bisection(g), best_fusion(g)}) {
      for (const auto& [i, j] : g.preventing) {
        EXPECT_NE(plan.assignment[static_cast<std::size_t>(i)],
                  plan.assignment[static_cast<std::size_t>(j)])
            << plan.solver;
      }
    }
  }
}

// -- >12-loop exact-solver capacity fallback on a real program -------------

TEST(ParallelFusionFallback, ExactSolverThrowsBeyondCapacity) {
  // 14 sweeps + a norm reduction: beyond the exact search's 12-loop cap.
  const Program p = workloads::jacobi_chain(256, 14);
  const FusionGraph graph = build_fusion_graph(p);
  ASSERT_GT(graph.node_count(), 12);
  try {
    exact_enumeration(graph);
    FAIL() << "expected FusionCapacityError";
  } catch (const FusionCapacityError& e) {
    EXPECT_EQ(e.loop_count(), graph.node_count());
    EXPECT_EQ(e.max_nodes(), 12);
    EXPECT_EQ(e.suggested_solver(), "bisection");
  }
}

TEST(ParallelFusionFallback, MulticoreOptimizeDegradesToHeuristic) {
  // Asking the pipeline for kExact on a >12-loop program is a structured
  // failure...
  const Program p = workloads::jacobi_chain(256, 14);
  EXPECT_THROW(
      core::optimize(p, "fuse(solver=exact),reduce-storage,eliminate-stores"),
      FusionCapacityError);

  // ...while kBest degrades to the suggested heuristic, and the compiled
  // replay of its result matches the reference interpreter bit for bit,
  // with fast-forward on and off (docs/TRANSFORMS.md documents this
  // fallback).
  const core::OptimizeResult result = core::optimize(p);
  EXPECT_EQ(result.plan.solver.rfind("best(", 0), 0u) << result.plan.solver;
  const machine::MachineModel m = machine::origin2000_r10k().scaled(16);
  memsim::MemoryHierarchy href = m.make_hierarchy();
  runtime::ExecOptions ref_opts;
  ref_opts.hierarchy = &href;
  const runtime::ExecResult ref = runtime::execute(result.program, ref_opts);
  for (const bool fast_forward : {true, false}) {
    SCOPED_TRACE("ff=" + std::to_string(fast_forward));
    memsim::MemoryHierarchy h = m.make_hierarchy();
    runtime::ExecOptions opts;
    opts.hierarchy = &h;
    opts.fast_forward = fast_forward;
    const runtime::ExecResult got =
        runtime::execute_compiled(result.program, opts);
    EXPECT_EQ(ref.checksum, got.checksum);
    EXPECT_EQ(ref.flops, got.flops);
    EXPECT_EQ(ref.loads, got.loads);
    EXPECT_EQ(ref.stores, got.stores);
    EXPECT_EQ(ref.scalars, got.scalars);
    ASSERT_EQ(ref.profile.boundaries.size(), got.profile.boundaries.size());
    for (std::size_t b = 0; b < ref.profile.boundaries.size(); ++b) {
      EXPECT_EQ(ref.profile.boundaries[b].bytes_toward_cpu,
                got.profile.boundaries[b].bytes_toward_cpu);
      EXPECT_EQ(ref.profile.boundaries[b].bytes_from_cpu,
                got.profile.boundaries[b].bytes_from_cpu);
    }
    EXPECT_EQ(href.load_count(), h.load_count());
    EXPECT_EQ(href.store_count(), h.store_count());
  }
}

}  // namespace
}  // namespace bwc::fusion
