// Differential test holding the compiled engine (lowering + bytecode VM +
// coalesced cache access) bit-identical to the reference interpreter, the
// per-element oracle: checksums, flop/load/store counts, final scalar
// values, array bases and per-boundary traffic bytes must all match on
// every program.
#include <gtest/gtest.h>

#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/ir/dsl.h"
#include "bwc/machine/machine_model.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc::runtime {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::CmpOp;
using ir::Program;

ExecResult run_reference(const Program& p, memsim::MemoryHierarchy* h) {
  ExecOptions opts;
  opts.hierarchy = h;
  return execute(p, opts);
}

ExecResult run_compiled(const Program& p, memsim::MemoryHierarchy* h) {
  ExecOptions opts;
  opts.hierarchy = h;
  return execute_compiled(p, opts);
}

void expect_identical(const ExecResult& ref, const ExecResult& got,
                      const std::string& label) {
  SCOPED_TRACE(label);
  // Bitwise-equal checksums: both engines evaluate the same floating-point
  // operations in the same order.
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
    EXPECT_EQ(ref.profile.boundaries[b].name, got.profile.boundaries[b].name);
    EXPECT_EQ(ref.profile.boundaries[b].bytes_toward_cpu,
              got.profile.boundaries[b].bytes_toward_cpu);
    EXPECT_EQ(ref.profile.boundaries[b].bytes_from_cpu,
              got.profile.boundaries[b].bytes_from_cpu);
  }
}

/// Run `p` through the reference interpreter and the compiled engine on
/// the given machine's hierarchy, and require every observable to match.
/// Also checks the hierarchy's own access counters survive coalescing
/// unchanged.
void expect_engines_agree(const Program& p,
                          const machine::MachineModel& machine) {
  memsim::MemoryHierarchy href = machine.make_hierarchy();
  const ExecResult ref = run_reference(p, &href);

  memsim::MemoryHierarchy hco = machine.make_hierarchy();
  const ExecResult coalesced = run_compiled(p, &hco);
  expect_identical(ref, coalesced, p.name() + " [compiled, coalesced]");
  EXPECT_EQ(href.load_count(), hco.load_count()) << p.name();
  EXPECT_EQ(href.store_count(), hco.store_count()) << p.name();
}

void expect_engines_agree(const Program& p) {
  // Caches scaled down so modest arrays still generate capacity misses,
  // evictions and writebacks at every level.
  expect_engines_agree(p, machine::origin2000_r10k().scaled(16));
}

TEST(CompiledEngine, PaperPrograms) {
  expect_engines_agree(workloads::sec21_write_loop(4096));
  expect_engines_agree(workloads::sec21_read_loop(4096));
  expect_engines_agree(workloads::sec21_both_loops(4096));
  expect_engines_agree(workloads::fig6_original(48));
  expect_engines_agree(workloads::fig7_original(4096));
}

TEST(CompiledEngine, ExtraPrograms) {
  expect_engines_agree(workloads::jacobi_chain(512, 4));
  expect_engines_agree(workloads::adi_like(48));
  expect_engines_agree(workloads::blur_sharpen(1024));
  expect_engines_agree(workloads::reduction_cascade(512, 5));
}

TEST(CompiledEngine, AllMachinePresets) {
  // Exercise write-through/no-allocate variants, single-level and 3-level
  // hierarchies -- coalescing must stay byte-exact under every policy.
  for (const auto& m : machine::all_presets()) {
    SCOPED_TRACE(m.name);
    expect_engines_agree(workloads::fig6_original(32), m.scaled(16));
    expect_engines_agree(workloads::sec21_both_loops(2048), m.scaled(16));
  }
}

TEST(CompiledEngine, RandomPrograms1D) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Prng rng(seed);
    expect_engines_agree(workloads::random_program(rng));
  }
}

TEST(CompiledEngine, RandomPrograms2D) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Prng rng(seed);
    expect_engines_agree(workloads::random_program_2d(rng, 16, 3));
  }
}

/// The default pipeline's outputs: fused multi-statement bodies, guards
/// on outer variables and contracted storage, which lower to K-statement
/// stream loops.
TEST(CompiledEngine, OptimizedRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Prng rng(seed);
    expect_engines_agree(core::optimize(workloads::random_program(rng)).program);
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Prng rng(seed);
    expect_engines_agree(
        core::optimize(workloads::random_program_2d(rng, 16, 3)).program);
  }
}

TEST(CompiledEngine, ControlFlowAndShadowing) {
  Program p("control flow");
  const ArrayId a = p.add_array("a", {16});
  const ArrayId m = p.add_array("m", {4, 4});
  p.add_scalar("x");
  p.add_scalar("sum");
  p.mark_output_scalar("sum");
  p.mark_output_array(m);
  // Guard with else branch, min/max/div, constant subscripts.
  p.append(loop("i", 1, 16,
                if_else(CmpOp::kLe, v("i"), k(8),
                        block(assign(a, {v("i")},
                                     lvar("i") / lit(3.0))),
                        block(assign(a, {v("i")},
                              at(a, v("i", -8)) * lit(2.0))))));
  // 2-D input reads plus loop-variable reuse in sibling loops.
  p.append(loop("j", 1, 4,
                loop("i", 1, 4,
                     assign(m, {v("i"), v("j")},
                            input2(3, v("i"), v("j"), 4, 4)))));
  p.append(assign("x", at(a, k(1)) + at(m, k(2), k(3))));
  // Empty loop body never executes (upper < lower).
  p.append(loop("i", 5, 4, assign("x", lit(-1.0))));
  p.append(assign("sum", lit(0.0)));
  p.append(loop("i", 1, 16, assign("sum", sref("sum") + at(a, v("i")))));
  p.append(assign("sum", sref("sum") + sref("x")));
  expect_engines_agree(p);
}

TEST(CompiledEngine, NoHierarchyStillMatches) {
  const Program p = workloads::fig7_original(512);
  const ExecResult ref = execute(p);
  const ExecResult got = execute_compiled(p);
  EXPECT_EQ(ref.checksum, got.checksum);
  EXPECT_EQ(ref.flops, got.flops);
  EXPECT_EQ(ref.loads, got.loads);
  EXPECT_EQ(ref.stores, got.stores);
  EXPECT_EQ(ref.scalars, got.scalars);
}

TEST(CompiledEngine, ReusableLoweredProgram) {
  const Program p = workloads::fig7_original(256);
  const LoweredProgram lp = lower(p);
  const double first = execute_lowered(lp).checksum;
  const double second = execute_lowered(lp).checksum;
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, execute(p).checksum);
}

TEST(CompiledEngine, LoweringRejectsMalformedPrograms) {
  {
    Program p("unbound loop var");
    p.add_scalar("x");
    p.append(assign("x", lvar("i")));
    EXPECT_THROW(lower(p), Error);
  }
  {
    Program p("undeclared scalar");
    p.add_scalar("x");
    p.append(assign("x", sref("ghost")));
    EXPECT_THROW(lower(p), Error);
  }
}

TEST(CompiledEngine, OutOfBoundsSubscriptThrows) {
  Program p("oob");
  const ArrayId a = p.add_array("a", {4});
  p.add_scalar("x");
  p.append(loop("i", 1, 5, assign("x", at(a, v("i")))));
  EXPECT_THROW(execute_compiled(p), Error);
}

}  // namespace
}  // namespace bwc::runtime
