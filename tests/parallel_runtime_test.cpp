// Differential test holding the parallel compiled engine bit-identical to
// the serial compiled engine and the reference interpreter at every core
// count: checksums, flop/load/store counts, final scalars, array bases,
// per-boundary traffic bytes and the hierarchy's own access counters must
// all match for cores in {1, 2, 4, 8} on every paper, extra and random
// workload. Determinism is by construction (workers compute chunk values
// only, and the chunks' accesses replay in chunk-index order -- see
// docs/runtime.md), and this file is what holds the construction honest;
// the CI thread-sanitizer job runs exactly these tests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/fusion/fusion_graph.h"
#include "bwc/fusion/solvers.h"
#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/parallel.h"
#include "bwc/support/prng.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc::runtime {
namespace {

using ir::Program;

constexpr int kCoreCounts[] = {1, 2, 4, 8};

void expect_identical(const ExecResult& ref, const ExecResult& got,
                      const std::string& label) {
  SCOPED_TRACE(label);
  // Bitwise-equal checksums: chunked workers evaluate the same
  // floating-point operations on the same elements as the serial sweep
  // (writes are disjoint, reductions stay serial).
  EXPECT_EQ(ref.checksum, got.checksum);
  EXPECT_EQ(ref.flops, got.flops);
  EXPECT_EQ(ref.loads, got.loads);
  EXPECT_EQ(ref.stores, got.stores);
  EXPECT_EQ(ref.scalars, got.scalars);
  EXPECT_EQ(ref.array_bases, got.array_bases);
  EXPECT_EQ(ref.profile.flops, got.profile.flops);
  ASSERT_EQ(ref.profile.boundaries.size(), got.profile.boundaries.size());
  for (std::size_t b = 0; b < ref.profile.boundaries.size(); ++b) {
    SCOPED_TRACE("boundary " + ref.profile.boundaries[b].name);
    EXPECT_EQ(ref.profile.boundaries[b].bytes_toward_cpu,
              got.profile.boundaries[b].bytes_toward_cpu);
    EXPECT_EQ(ref.profile.boundaries[b].bytes_from_cpu,
              got.profile.boundaries[b].bytes_from_cpu);
  }
}

/// Run `p` at every core count on the given machine's hierarchy and
/// require all observables to match the reference interpreter and the
/// serial compiled engine, with coalescing both on and off.
void expect_parallel_identical(const Program& p,
                               const machine::MachineModel& machine) {
  memsim::MemoryHierarchy href = machine.make_hierarchy();
  ExecOptions ref_opts;
  ref_opts.hierarchy = &href;
  const ExecResult ref = execute(p, ref_opts);

  // Full cross of {coalescing} x {steady-state fast-forward}: both are
  // exactness-preserving replay accelerations and must be invisible in
  // every observable, serial or parallel.
  for (const bool coalesce : {true, false}) {
    for (const bool fast_forward : {true, false}) {
      const std::string tag = ", coalesce=" + std::to_string(coalesce) +
                              ", ff=" + std::to_string(fast_forward) + "]";
      memsim::MemoryHierarchy hser = machine.make_hierarchy();
      ExecOptions ser_opts;
      ser_opts.hierarchy = &hser;
      ser_opts.coalesce_accesses = coalesce;
      ser_opts.fast_forward = fast_forward;
      const ExecResult serial = execute_compiled(p, ser_opts);
      expect_identical(ref, serial, p.name() + " [serial" + tag);

      for (const int cores : kCoreCounts) {
        memsim::MemoryHierarchy hpar = machine.make_hierarchy();
        ExecOptions par_opts;
        par_opts.hierarchy = &hpar;
        par_opts.coalesce_accesses = coalesce;
        par_opts.cores = cores;
        par_opts.fast_forward = fast_forward;
        const ExecResult par = execute_compiled(p, par_opts);
        expect_identical(ref, par,
                         p.name() + " [parallel, cores=" +
                             std::to_string(cores) + tag);
        // The simulator's own access counters agree with the serial run:
        // chunk-order replay preserves the access stream, not just totals.
        EXPECT_EQ(hser.load_count(), hpar.load_count()) << p.name();
        EXPECT_EQ(hser.store_count(), hpar.store_count()) << p.name();
      }
    }
  }
}

void expect_parallel_identical(const Program& p) {
  expect_parallel_identical(p, machine::origin2000_r10k().scaled(16));
}

TEST(ParallelEngine, PaperPrograms) {
  expect_parallel_identical(workloads::sec21_write_loop(4096));
  expect_parallel_identical(workloads::sec21_read_loop(4096));
  expect_parallel_identical(workloads::sec21_both_loops(4096));
  expect_parallel_identical(workloads::fig6_original(48));
  expect_parallel_identical(workloads::fig7_original(4096));
}

TEST(ParallelEngine, ExtraPrograms) {
  expect_parallel_identical(workloads::jacobi_chain(512, 4));
  expect_parallel_identical(workloads::adi_like(48));
  expect_parallel_identical(workloads::blur_sharpen(1024));
  // Reductions are not parallelizable (FP fold order); they must run
  // serially inside the parallel engine and still match bit-for-bit.
  expect_parallel_identical(workloads::reduction_cascade(512, 5));
}

TEST(ParallelEngine, OptimizedPrograms) {
  // The fused/store-eliminated output of the optimizer is what a
  // multicore measurement actually replays; hold it identical too.
  expect_parallel_identical(
      core::optimize(workloads::fig7_original(4096)).program);
  expect_parallel_identical(
      core::optimize(workloads::sec21_both_loops(4096)).program);
}

TEST(ParallelEngine, AllMachinePresets) {
  for (const auto& m : machine::all_presets()) {
    SCOPED_TRACE(m.name);
    expect_parallel_identical(workloads::fig6_original(32), m.scaled(16));
    expect_parallel_identical(workloads::sec21_both_loops(2048),
                              m.scaled(16));
  }
}

TEST(ParallelEngine, RandomPrograms1D) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Prng rng(seed);
    expect_parallel_identical(workloads::random_program(rng));
  }
}

TEST(ParallelEngine, RandomPrograms2D) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Prng rng(seed);
    expect_parallel_identical(workloads::random_program_2d(rng, 16, 3));
  }
}

TEST(ParallelEngine, NoHierarchy) {
  // cores > 1 without a simulator: the chunks' accesses are only counted,
  // in bulk, but the computation and the totals must still match.
  const Program p = workloads::fig7_original(2048);
  const ExecResult ref = execute(p);
  ExecOptions opts;
  opts.cores = 4;
  const ExecResult par = execute_compiled(p, opts);
  EXPECT_EQ(ref.checksum, par.checksum);
  EXPECT_EQ(ref.flops, par.flops);
  EXPECT_EQ(ref.loads, par.loads);
  EXPECT_EQ(ref.stores, par.stores);
  EXPECT_EQ(ref.scalars, par.scalars);
}

TEST(ParallelEngine, SchedulerActuallyChunks) {
  // Observability: fig7's stream loops are parallelizable, so the
  // scheduler must chunk at least one of them at 4 cores.
  const LoweredProgram lowered = lower(workloads::fig7_original(4096));
  ExecOptions opts;
  opts.cores = 4;
  ParallelScheduler sched(/*cores=*/4, /*fast_forward=*/true);
  const ExecResult par = execute_lowered_with_scheduler(lowered, opts,
                                                        &sched);
  EXPECT_GT(sched.parallel_loops(), 0u);
  EXPECT_EQ(par.checksum, execute_lowered(lowered).checksum);
}

TEST(ParallelEngine, MeasureHonorsMachineCores) {
  // model::measure on a multicore machine runs the parallel engine;
  // traffic must equal the single-core measurement, and the multicore
  // prediction can only be faster.
  const Program p = workloads::fig7_original(4096);
  const machine::MachineModel m1 = machine::origin2000_r10k().scaled(16);
  const machine::MachineModel m4 = m1.with_cores(4);
  const model::Measurement serial = model::measure(p, m1);
  const model::Measurement par = model::measure(p, m4);
  EXPECT_EQ(serial.exec.checksum, par.exec.checksum);
  EXPECT_EQ(serial.profile.memory_bytes(), par.profile.memory_bytes());
  EXPECT_LE(par.time.total_s, serial.time.total_s);
}

// -- >12-loop exact-solver capacity fallback on the multicore path --------

TEST(ParallelFusionFallback, ExactSolverThrowsBeyondCapacity) {
  // 14 sweeps + a norm reduction: beyond exact_enumeration's 12-node cap.
  const Program p = workloads::jacobi_chain(256, 14);
  const fusion::FusionGraph graph = fusion::build_fusion_graph(p);
  ASSERT_GT(graph.node_count(), 12);
  try {
    fusion::exact_enumeration(graph);
    FAIL() << "expected FusionCapacityError";
  } catch (const fusion::FusionCapacityError& e) {
    EXPECT_EQ(e.loop_count(), graph.node_count());
    EXPECT_EQ(e.max_nodes(), 12);
    EXPECT_EQ(e.suggested_solver(), "bisection");
  }
}

TEST(ParallelFusionFallback, MulticoreOptimizeDegradesToHeuristic) {
  // Asking the multicore pipeline for kExact on a >12-loop program is a
  // structured failure...
  const Program p = workloads::jacobi_chain(256, 14);
  EXPECT_THROW(
      core::optimize(p, "fuse(solver=exact),reduce-storage,eliminate-stores"),
      fusion::FusionCapacityError);

  // ...while kBest degrades to the suggested heuristic and the result
  // stays bit-identical under parallel replay at every core count
  // (docs/TRANSFORMS.md documents this fallback).
  const core::OptimizeResult result = core::optimize(p);
  EXPECT_EQ(result.plan.solver.rfind("best(", 0), 0u) << result.plan.solver;
  expect_parallel_identical(result.program);
}

}  // namespace
}  // namespace bwc::runtime
