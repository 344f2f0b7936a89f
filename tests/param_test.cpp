// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// invariants that must hold across whole families of configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "bwc/core/optimizer.h"
#include "bwc/fusion/solvers.h"
#include "bwc/graph/hyper_cut.h"
#include "bwc/graph/random_graphs.h"
#include "bwc/machine/machine_model.h"
#include "bwc/memsim/hierarchy.h"
#include "bwc/model/measure.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/recorder.h"
#include "bwc/support/prng.h"
#include "bwc/transform/storage_reduction.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"
#include "bwc/workloads/stride_kernels.h"

namespace bwc {
namespace {

// ---------------------------------------------------------------------------
// Cache geometry sweep: invariants for every (size, line, assoc, policy).
// ---------------------------------------------------------------------------

using CacheParam = std::tuple<int /*size KB*/, int /*line*/, int /*assoc*/,
                              memsim::WritePolicy>;

class CacheGeometry : public ::testing::TestWithParam<CacheParam> {
 protected:
  memsim::CacheConfig config() const {
    const auto& [size_kb, line, assoc, policy] = GetParam();
    memsim::CacheConfig c;
    c.name = "L1";
    c.size_bytes = static_cast<std::uint64_t>(size_kb) * 1024;
    c.line_bytes = static_cast<std::uint64_t>(line);
    c.associativity = static_cast<std::uint32_t>(assoc);
    c.write_policy = policy;
    return c;
  }
};

TEST_P(CacheGeometry, SecondTouchAlwaysHits) {
  memsim::CacheLevel cache(config());
  cache.access(0, false);
  EXPECT_TRUE(cache.access(0, false).hit);
  EXPECT_TRUE(cache.access(0, true).hit);
}

TEST_P(CacheGeometry, WorkingSetWithinCapacityNeverEvicts) {
  memsim::CacheLevel cache(config());
  const std::uint64_t lines = config().num_lines();
  // Touch exactly the capacity in distinct lines twice; with a dense
  // sequential footprint every set receives exactly `ways` lines.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t l = 0; l < lines; ++l)
      cache.access(l * config().line_bytes, false);
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().read_misses, lines);
  EXPECT_EQ(cache.stats().read_hits, lines);
}

TEST_P(CacheGeometry, StreamingMissesEveryLineOnce) {
  memsim::CacheLevel cache(config());
  const std::uint64_t lines = 4 * config().num_lines();
  for (std::uint64_t l = 0; l < lines; ++l)
    cache.access(l * config().line_bytes, false);
  EXPECT_EQ(cache.stats().read_misses, lines);
}

TEST_P(CacheGeometry, WritebacksOnlyUnderWriteBack) {
  memsim::CacheLevel cache(config());
  const std::uint64_t lines = 4 * config().num_lines();
  for (std::uint64_t l = 0; l < lines; ++l)
    cache.access(l * config().line_bytes, true);
  if (config().write_policy == memsim::WritePolicy::kWriteBack) {
    EXPECT_GT(cache.stats().writebacks, 0u);
  } else {
    EXPECT_EQ(cache.stats().writebacks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(1, 4, 32),     // KB
                       ::testing::Values(32, 64, 128),  // line bytes
                       ::testing::Values(1, 2, 4, 0),   // ways (0 = full)
                       ::testing::Values(memsim::WritePolicy::kWriteBack,
                                         memsim::WritePolicy::kWriteThrough)));

// ---------------------------------------------------------------------------
// Hyper-graph min-cut: exactness across random graph families.
// ---------------------------------------------------------------------------

using HyperParam = std::tuple<int /*nodes*/, int /*edges*/, int /*max pins*/,
                              int /*seed*/>;

class HyperCutFamily : public ::testing::TestWithParam<HyperParam> {};

TEST_P(HyperCutFamily, AlgorithmMatchesBruteForce) {
  const auto& [nodes, edges, max_pins, seed] = GetParam();
  Prng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::Hypergraph g = graph::random_hypergraph(
        rng, nodes, edges, 1, std::min(max_pins, nodes), 3);
    const auto fast = graph::min_hyperedge_cut(g, 0, nodes - 1);
    const auto ref = graph::min_hyperedge_cut_bruteforce(g, 0, nodes - 1);
    ASSERT_EQ(fast.cut_weight, ref.cut_weight)
        << "nodes=" << nodes << " edges=" << edges << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, HyperCutFamily,
    ::testing::Combine(::testing::Values(4, 6, 8), ::testing::Values(4, 8, 12),
                       ::testing::Values(2, 3, 5), ::testing::Values(1, 2)));

// ---------------------------------------------------------------------------
// Optimizer semantics preservation across program families and solvers.
// ---------------------------------------------------------------------------

/// The fuse pass's solvers. A scoped enum without operator<<, so gtest
/// names each instance by the value's bytes.
enum class Solver { kBest, kExact, kGreedy, kBisection, kEdgeWeighted };

/// The default pipeline with the given fusion solver.
std::string pipeline_with(Solver solver) {
  static const char* const kNames[] = {"best", "exact", "greedy", "bisection",
                                       "edge-weighted"};
  return std::string("fuse(solver=") + kNames[static_cast<int>(solver)] +
         "),reduce-storage,eliminate-stores";
}

using OptimizeParam =
    std::tuple<int /*loops*/, int /*arrays*/, Solver, int /*seed*/>;

class OptimizerFamily : public ::testing::TestWithParam<OptimizeParam> {};

TEST_P(OptimizerFamily, ChecksumPreserved) {
  const auto& [loops, arrays, solver, seed] = GetParam();
  Prng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
  workloads::RandomProgramParams params;
  params.num_loops = loops;
  params.num_arrays = arrays;
  params.n = 40;
  for (int trial = 0; trial < 5; ++trial) {
    const ir::Program p = workloads::random_program(rng, params);
    const core::OptimizeResult r = core::optimize(p, pipeline_with(solver));
    const double before = runtime::execute(p).checksum;
    const double after = runtime::execute(r.program).checksum;
    ASSERT_NEAR(before, after, 1e-9 * (std::abs(before) + 1.0))
        << "loops=" << loops << " arrays=" << arrays << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, OptimizerFamily,
    ::testing::Combine(::testing::Values(2, 4, 6), ::testing::Values(2, 4),
                       ::testing::Values(Solver::kBest, Solver::kGreedy,
                                         Solver::kBisection,
                                         Solver::kEdgeWeighted),
                       ::testing::Values(11, 22)));

// ---------------------------------------------------------------------------
// Stride kernels: traffic accounting invariant for every kernel spec.
// ---------------------------------------------------------------------------

class EveryStrideKernel : public ::testing::TestWithParam<int> {};

TEST_P(EveryStrideKernel, SteadyStateTrafficMatchesUseful) {
  const auto& spec =
      workloads::figure3_kernels()[static_cast<std::size_t>(GetParam())];
  workloads::AddressSpace space;
  workloads::StrideKernel kernel(spec, 60000, space);
  memsim::MemoryHierarchy h(machine::origin2000_r10k().scaled(64).caches);
  {
    runtime::Recorder warmup(&h);
    kernel.run(warmup);
  }
  h.reset_stats();
  runtime::Recorder rec(&h);
  kernel.run(rec);
  const double ratio = static_cast<double>(h.memory_traffic_bytes()) /
                       static_cast<double>(kernel.useful_bytes());
  EXPECT_NEAR(ratio, 1.0, 0.05) << spec.name;
  // Flops are charged on every element.
  EXPECT_GE(rec.flop_count(), 60000u);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, EveryStrideKernel,
                         ::testing::Range(0, 13));

// ---------------------------------------------------------------------------
// Machines: the paper programs behave sanely on every preset.
// ---------------------------------------------------------------------------

class EveryMachine : public ::testing::TestWithParam<int> {
 protected:
  machine::MachineModel machine() const {
    return machine::all_presets()[static_cast<std::size_t>(GetParam())]
        .scaled(16);
  }
};

TEST_P(EveryMachine, WriteLoopCostsMoreThanReadLoop) {
  const auto rw = model::measure(workloads::sec21_write_loop(600000),
                                 machine());
  const auto ro = model::measure(workloads::sec21_read_loop(600000),
                                 machine());
  EXPECT_GT(rw.time.total_s, 1.5 * ro.time.total_s);
}

TEST_P(EveryMachine, OptimizedFig7NeverSlower) {
  const ir::Program p = workloads::fig7_original(400000);
  const auto opt = core::optimize(p);
  const double before = model::measure(p, machine()).time.total_s;
  const double after = model::measure(opt.program, machine()).time.total_s;
  EXPECT_LE(after, before);
  EXPECT_GT(before / after, 1.5);  // ~2x on bandwidth-bound machines
}

TEST_P(EveryMachine, BalanceRowsArePositive) {
  const auto m = machine();
  for (double b : m.machine_balance()) EXPECT_GT(b, 0.0);
  const auto r = model::measure(workloads::fig7_original(20000), m);
  for (double b : r.balance.bytes_per_flop) EXPECT_GE(b, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Presets, EveryMachine, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Fig6 pipeline across problem sizes: the N^2 -> N reduction is size-stable.
// ---------------------------------------------------------------------------

class Fig6Sizes : public ::testing::TestWithParam<int> {};

TEST_P(Fig6Sizes, SemanticsAndFootprint) {
  const std::int64_t n = GetParam();
  const ir::Program p = workloads::fig6_original(n);
  const core::OptimizeResult r = core::optimize(p);
  const double before = runtime::execute(p).checksum;
  const double after = runtime::execute(r.program).checksum;
  ASSERT_NEAR(before, after, 1e-9 * (std::abs(before) + 1.0));
  EXPECT_LE(transform::referenced_array_bytes(r.program),
            static_cast<std::uint64_t>(3 * n) * 8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fig6Sizes,
                         ::testing::Values(4, 8, 16, 33, 64, 100));

}  // namespace
}  // namespace bwc
