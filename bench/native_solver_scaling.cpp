// Complexity claims of Section 3.1, measured.
//
// The paper proves two-partitioning polynomial ("cubic to the number of
// arrays, linear to the number of loops") and general multi-partitioning
// NP-complete. This google-benchmark binary times the solvers as the
// graph grows: the exact branch-and-bound search, whose search space is
// the Bell number of the loop count, against the polynomial min-cut
// two-partitioning and the heuristics, up to the search's 12-loop cap.
//
// On a 4-vCPU 2.0 GHz x86-64 host the search took 1.5-5.7 us per graph
// from 4 to 10 loops, 62 us at 11 and 4.5 us at 12 (medians of 3);
// exhaustive enumeration of the same graphs grew ~7x per added loop, from
// 6.7 us at 4 loops to 1.34 s at 11. The bound, not the search space, sets
// the time: the private-arrays family, on which every partitioning costs
// the same, took enumeration ~5 s at 12 loops and takes the search 2.3 us.
// The worst case is still exponential, which is why the cap stays.
#include <benchmark/benchmark.h>

#include "bwc/fusion/solvers.h"
#include "bwc/support/prng.h"

namespace {

using namespace bwc;

/// Random fusion graph with exactly one fusion-preventing pair (the
/// paper's restricted two-partitioning form), so every solver applies.
fusion::FusionGraph make_graph(int loops, int arrays, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<std::vector<int>> pins(static_cast<std::size_t>(arrays));
  for (auto& p : pins) {
    for (int l = 0; l < loops; ++l) {
      if (rng.chance(0.4)) p.push_back(l);
    }
    if (p.empty())
      p.push_back(static_cast<int>(rng.uniform(
          static_cast<std::uint64_t>(loops))));
  }
  return fusion::graph_from_spec(loops, pins, /*deps=*/{},
                                 /*preventing=*/{{0, loops - 1}});
}

void BM_ExactEnumeration(benchmark::State& state) {
  const int loops = static_cast<int>(state.range(0));
  const auto g = make_graph(loops, loops, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fusion::exact_enumeration(g).cost);
  }
  state.SetLabel("search space Bell(" + std::to_string(loops) + ")");
}
BENCHMARK(BM_ExactEnumeration)
    ->DenseRange(4, fusion::kMaxExactLoops)
    ->Unit(benchmark::kMicrosecond);

/// Every loop touches only its own array: every partitioning costs the
/// same, so exhaustive enumeration gains nothing from the optimum it finds
/// first, while the bound cuts every branch after the first plan.
void BM_ExactEnumerationPrivateArrays(benchmark::State& state) {
  const int loops = static_cast<int>(state.range(0));
  std::vector<std::vector<int>> pins;
  for (int l = 0; l < loops; ++l) pins.push_back({l});
  const auto g = fusion::graph_from_spec(loops, pins, {}, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fusion::exact_enumeration(g).cost);
  }
}
BENCHMARK(BM_ExactEnumerationPrivateArrays)
    ->DenseRange(4, fusion::kMaxExactLoops, 4)
    ->Unit(benchmark::kMicrosecond);

void BM_TwoPartitionMinCut(benchmark::State& state) {
  const int loops = static_cast<int>(state.range(0));
  const auto g = make_graph(loops, loops, 42);
  for (auto _ : state) {
    auto plan = fusion::exact_two_partition(g);
    benchmark::DoNotOptimize(plan.has_value() ? plan->cost : -1);
  }
}
BENCHMARK(BM_TwoPartitionMinCut)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Unit(benchmark::kMicrosecond);

void BM_GreedyFusion(benchmark::State& state) {
  const int loops = static_cast<int>(state.range(0));
  const auto g = make_graph(loops, loops, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fusion::greedy_fusion(g).cost);
  }
}
BENCHMARK(BM_GreedyFusion)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Unit(benchmark::kMicrosecond);

void BM_RecursiveBisection(benchmark::State& state) {
  const int loops = static_cast<int>(state.range(0));
  const auto g = make_graph(loops, loops, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fusion::recursive_bisection(g).cost);
  }
}
BENCHMARK(BM_RecursiveBisection)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
