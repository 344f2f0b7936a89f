// Steady-state fast-forward: exactness and observability.
//
// Fast-forward is one fixpoint certifier (memsim::PeriodDetector) fed by
// three period sources: lowering's uniform step for the compiled engines'
// stream loops (runtime/fastforward.h), the rows of certified outer loops
// (Recorder::end_row), and online inference from raw access streams
// (memsim::AccessFastForward). It is an exact
// macrosimulation, not an approximation: every test here holds its
// observables bit-identical to full simulation -- checksums, flop/load/
// store counts, per-boundary traffic bytes, and the hierarchy's complete
// counter and final resident state. The sweeps also assert the
// accelerations *engage* where they should and *refuse* where they must
// (page-randomized hierarchies, aperiodic streams, reductions).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bwc/core/optimizer.h"
#include "bwc/ir/dsl.h"
#include "bwc/machine/machine_model.h"
#include "bwc/memsim/fastforward.h"
#include "bwc/memsim/hierarchy.h"
#include "bwc/model/measure.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/fastforward.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/lowering.h"
#include "bwc/runtime/recorder.h"
#include "bwc/support/prng.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc {
namespace {

using ir::Program;
using runtime::ExecOptions;
using runtime::ExecResult;

void expect_profile_eq(const machine::ExecutionProfile& a,
                       const machine::ExecutionProfile& b,
                       const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.flops, b.flops);
  ASSERT_EQ(a.boundaries.size(), b.boundaries.size());
  for (std::size_t i = 0; i < a.boundaries.size(); ++i) {
    SCOPED_TRACE("boundary " + a.boundaries[i].name);
    EXPECT_EQ(a.boundaries[i].bytes_toward_cpu,
              b.boundaries[i].bytes_toward_cpu);
    EXPECT_EQ(a.boundaries[i].bytes_from_cpu, b.boundaries[i].bytes_from_cpu);
  }
}

void expect_result_eq(const ExecResult& a, const ExecResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.scalars, b.scalars);
  expect_profile_eq(a.profile, b.profile, label);
}

/// Exact resident-state equality: tags, dirty bits and LRU order at every
/// level. Unlike state_equals_shifted() it needs no modulo set indexing,
/// so it also holds page-randomized hierarchies to full simulation.
void expect_same_resident_state(const memsim::MemoryHierarchy& want,
                                const memsim::MemoryHierarchy& got,
                                const std::string& label) {
  SCOPED_TRACE(label + " resident state");
  memsim::MemoryHierarchy::ResidentState a, b;
  want.snapshot_state(&a);
  got.snapshot_state(&b);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].set_begin, b.levels[i].set_begin) << "level " << i;
    EXPECT_EQ(a.levels[i].entries, b.levels[i].entries) << "level " << i;
  }
}

// -- Memsim layer: state snapshots and translation ------------------------

/// Feed `count` interleaved two-load-one-store stride-8 triples starting
/// at `base`, the shape of a fused a[i] = a[i] + b[i] loop.
void feed_stream(memsim::MemoryHierarchy& h, std::uint64_t base,
                 std::uint64_t count) {
  const std::uint64_t b2 = base + (8u << 20);
  for (std::uint64_t i = 0; i < count; ++i) {
    h.load(base + 8 * i, 8);
    h.load(b2 + 8 * i, 8);
    h.store(base + 8 * i, 8);
  }
}

TEST(MemsimState, TranslationInvariancePerMachine) {
  // Pure modulo indexing translates; page randomization must refuse.
  EXPECT_TRUE(bench::o2k().make_hierarchy().translation_invariant());
  EXPECT_FALSE(bench::exemplar().make_hierarchy().translation_invariant());
}

TEST(MemsimState, ShiftedStreamYieldsTranslatedState) {
  memsim::MemoryHierarchy h1 = bench::o2k().make_hierarchy();
  memsim::MemoryHierarchy h2 = bench::o2k().make_hierarchy();
  const std::int64_t shift =
      4 * static_cast<std::int64_t>(h1.max_line_bytes());
  const std::uint64_t base = 1u << 20;
  feed_stream(h1, base, 2000);
  feed_stream(h2, base + static_cast<std::uint64_t>(shift), 2000);

  memsim::MemoryHierarchy::ResidentState s1;
  h1.snapshot_state(&s1);
  // h2's state is exactly h1's translated by the shift...
  EXPECT_TRUE(h2.state_equals_shifted(s1, shift));
  // ...and by no other line-granular shift.
  EXPECT_FALSE(h2.state_equals_shifted(s1, 0));
  EXPECT_FALSE(h2.state_equals_shifted(
      s1, shift + static_cast<std::int64_t>(h1.max_line_bytes())));

  // Counters are identical: a pure address translation moves the same
  // bytes across every boundary.
  memsim::MemoryHierarchy::Counters c1, c2;
  h1.snapshot_counters(&c1);
  h2.snapshot_counters(&c2);
  EXPECT_TRUE(c1 == c2);
}

TEST(MemsimState, ShiftStateMatchesShiftedReplay) {
  memsim::MemoryHierarchy h1 = bench::o2k().make_hierarchy();
  memsim::MemoryHierarchy h2 = bench::o2k().make_hierarchy();
  const std::int64_t shift =
      -3 * static_cast<std::int64_t>(h1.max_line_bytes());
  const std::uint64_t base = 4u << 20;
  feed_stream(h1, base, 1500);
  feed_stream(h2, base + static_cast<std::uint64_t>(shift), 1500);

  // Analytically translating h1 must land exactly on h2's state.
  h1.shift_state(shift);
  memsim::MemoryHierarchy::ResidentState s2;
  h2.snapshot_state(&s2);
  EXPECT_TRUE(h1.state_equals_shifted(s2, 0));
}

// -- The fixpoint certifier -----------------------------------------------

/// Feed feed_stream() period by period through `d` until it certifies or
/// gives up; returns the number of periods fed. Period k starts at
/// iteration k * iters.
std::uint64_t feed_until_certified(memsim::MemoryHierarchy& h,
                                   memsim::PeriodDetector& d,
                                   std::uint64_t base, std::uint64_t iters,
                                   bool* certified) {
  *certified = false;
  std::uint64_t k = 0;
  while (!*certified && !d.exhausted()) {
    feed_stream(h, base + 8 * iters * k, iters);
    ++k;
    *certified = d.boundary();
  }
  return k;
}

TEST(PeriodDetector, CertifiesPeriodicStream) {
  memsim::MemoryHierarchy h = bench::o2k().make_hierarchy();
  // A stride-8 stream shifts by a whole line at every level after
  // max_line / 8 iterations.
  const std::uint64_t iters = memsim::line_granular_repeats(h, 8);
  EXPECT_EQ(iters, h.max_line_bytes() / 8);
  EXPECT_EQ(memsim::line_granular_repeats(h, -8), iters);
  memsim::PeriodDetector d(&h, static_cast<std::int64_t>(8 * iters));

  bool certified = false;
  feed_until_certified(h, d, 1u << 20, iters, &certified);
  EXPECT_TRUE(certified);
  EXPECT_FALSE(d.exhausted());
  // The certified delta is one period's traffic.
  EXPECT_EQ(d.delta().loads, 2 * iters);
  EXPECT_EQ(d.delta().stores, iters);
}

TEST(PeriodDetector, SkipEqualsSimulatingThePeriods) {
  memsim::MemoryHierarchy h_ref = bench::o2k().make_hierarchy();
  memsim::MemoryHierarchy h_ff = bench::o2k().make_hierarchy();
  const std::uint64_t iters = memsim::line_granular_repeats(h_ff, 8);
  const std::uint64_t base = 1u << 20;
  memsim::PeriodDetector d(&h_ff, static_cast<std::int64_t>(8 * iters));
  bool certified = false;
  const std::uint64_t periods =
      feed_until_certified(h_ff, d, base, iters, &certified);
  ASSERT_TRUE(certified);
  feed_stream(h_ref, base, periods * iters);

  // Skipping m periods analytically lands on the counters and resident
  // state of simulating them.
  const std::uint64_t m = 1000;
  d.skip(m);
  feed_stream(h_ref, base + 8 * iters * periods, m * iters);
  memsim::MemoryHierarchy::Counters cr, cf;
  h_ref.snapshot_counters(&cr);
  h_ff.snapshot_counters(&cf);
  EXPECT_TRUE(cr == cf);
  expect_same_resident_state(h_ref, h_ff, "skip");
}

TEST(PeriodDetector, ZeroShiftSkipEqualsSimulatingThePeriods) {
  // Periods that revisit the same lines, as the rows of a loop over
  // column buffers do: a sweep over a buffer larger than the L1.
  memsim::MemoryHierarchy h_ref = bench::o2k().make_hierarchy();
  memsim::MemoryHierarchy h_ff = bench::o2k().make_hierarchy();
  const std::uint64_t base = 1u << 20;
  const std::uint64_t iters = 3 * h_ff.level(0).config().size_bytes / 16;
  EXPECT_EQ(memsim::line_granular_repeats(h_ff, 0), 1u);
  memsim::PeriodDetector d(&h_ff, 0);
  std::uint64_t periods = 0;
  bool certified = false;
  while (!certified && !d.exhausted()) {
    feed_stream(h_ff, base, iters);
    ++periods;
    certified = d.boundary();
  }
  ASSERT_TRUE(certified);
  const std::uint64_t m = 500;
  d.skip(m);
  for (std::uint64_t k = 0; k < periods + m; ++k)
    feed_stream(h_ref, base, iters);
  memsim::MemoryHierarchy::Counters cr, cf;
  h_ref.snapshot_counters(&cr);
  h_ff.snapshot_counters(&cf);
  EXPECT_TRUE(cr == cf);
  expect_same_resident_state(h_ref, h_ff, "zero-shift skip");
}

TEST(PeriodDetector, AperiodicDeltaExhaustsAfterCapacityScaledBudget) {
  memsim::MemoryHierarchy h = bench::o2k().make_hierarchy();
  const auto shift = static_cast<std::int64_t>(32 * h.max_line_bytes());
  // 2 * total capacity / |period shift| periods, plus a slack of 64.
  const auto budget = static_cast<std::int64_t>(
      2 * h.total_capacity_bytes() / static_cast<std::uint64_t>(shift) + 64);
  memsim::PeriodDetector d(&h, shift);
  // Period k issues k loads, so the per-period counter delta never
  // repeats and the state protocol never starts.
  const auto feed_period = [&](std::int64_t k) {
    const auto first = static_cast<std::uint64_t>((1 << 20) + shift * k);
    for (std::int64_t j = 0; j < k; ++j)
      h.load(first + 8 * static_cast<std::uint64_t>(j), 8);
  };
  for (std::int64_t k = 1; k <= budget; ++k) {
    feed_period(k);
    ASSERT_FALSE(d.boundary()) << "period " << k;
    ASSERT_FALSE(d.exhausted()) << "period " << k;
  }
  feed_period(budget + 1);
  EXPECT_FALSE(d.boundary());
  EXPECT_TRUE(d.exhausted());
}

// -- Online detector (warm-up path) ---------------------------------------

TEST(OnlineFastForward, ExactOnPeriodicStream) {
  memsim::MemoryHierarchy h_ref = bench::o2k().make_hierarchy();
  memsim::MemoryHierarchy h_ff = bench::o2k().make_hierarchy();
  memsim::AccessFastForward ff(&h_ff);

  const std::uint64_t base = 1u << 20;
  const std::uint64_t b2 = base + (8u << 20);
  const std::uint64_t n = 100000;
  for (std::uint64_t i = 0; i < n; ++i) {
    h_ref.load(base + 8 * i, 8);
    h_ref.load(b2 + 8 * i, 8);
    h_ref.store(base + 8 * i, 8);
    ff.access(false, base + 8 * i, 8);
    ff.access(false, b2 + 8 * i, 8);
    ff.access(true, base + 8 * i, 8);
  }
  ff.settle();

  // The detector must have absorbed the bulk of the post-fill stream...
  EXPECT_GT(ff.skipped_accesses(), 3 * n / 2);
  // ...while reproducing full simulation exactly: counters and state.
  memsim::MemoryHierarchy::Counters cr, cf;
  h_ref.snapshot_counters(&cr);
  h_ff.snapshot_counters(&cf);
  EXPECT_TRUE(cr == cf);
  memsim::MemoryHierarchy::ResidentState sr;
  h_ref.snapshot_state(&sr);
  EXPECT_TRUE(h_ff.state_equals_shifted(sr, 0));
}

TEST(OnlineFastForward, ForwardsAperiodicStreamUnchanged) {
  memsim::MemoryHierarchy h_ref = bench::o2k().make_hierarchy();
  memsim::MemoryHierarchy h_ff = bench::o2k().make_hierarchy();
  memsim::AccessFastForward ff(&h_ff);

  Prng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t addr =
        (1u << 20) + 8 * static_cast<std::uint64_t>(rng.uniform_in(0, 1 << 16));
    const bool is_store = rng.uniform_in(0, 3) == 0;
    if (is_store) {
      h_ref.store(addr, 8);
    } else {
      h_ref.load(addr, 8);
    }
    ff.access(is_store, addr, 8);
  }
  ff.settle();

  EXPECT_EQ(ff.skipped_accesses(), 0u);
  memsim::MemoryHierarchy::Counters cr, cf;
  h_ref.snapshot_counters(&cr);
  h_ff.snapshot_counters(&cf);
  EXPECT_TRUE(cr == cf);
}

// -- Lowering metadata ----------------------------------------------------

TEST(LoweringMetadata, UniformStepBytes) {
  using namespace ir::dsl;  // NOLINT
  const std::int64_t n = 4096;

  {  // Stride-1 update: every access advances 8 bytes per iteration.
    const runtime::LoweredProgram lp =
        runtime::lower(workloads::sec21_write_loop(n));
    ASSERT_EQ(lp.stream_loops.size(), 1u);
    EXPECT_EQ(lp.stream_loops[0].uniform_step_bytes, 8);
  }
  {  // Reductions are excluded outright.
    const runtime::LoweredProgram lp =
        runtime::lower(workloads::sec21_read_loop(n));
    ASSERT_EQ(lp.stream_loops.size(), 1u);
    EXPECT_EQ(lp.stream_loops[0].uniform_step_bytes, 0);
  }
  {  // Reversed traversal: uniform step of -8 bytes.
    Program p("reversed");
    const ir::ArrayId a = p.add_array("A", {n});
    p.mark_output_array(a);
    p.append(loop("i", 1, n,
                  assign(a, {ir::Affine::var("i", -1, n + 1)},
                         at(a, ir::Affine::var("i", -1, n + 1)) + lit(0.5))));
    const runtime::LoweredProgram lp = runtime::lower(p);
    ASSERT_EQ(lp.stream_loops.size(), 1u);
    EXPECT_EQ(lp.stream_loops[0].uniform_step_bytes, -8);
  }
  {  // Mixed strides (a[i] vs b[2i]) have no uniform shift.
    Program p("mixed stride");
    const ir::ArrayId a = p.add_array("A", {n});
    const ir::ArrayId b = p.add_array("B", {2 * n + 1});
    p.mark_output_array(a);
    p.append(loop("i", 1, n,
                  assign(a, {v("i")},
                         at(a, v("i")) + at(b, ir::Affine::var("i", 2)))));
    const runtime::LoweredProgram lp = runtime::lower(p);
    ASSERT_EQ(lp.stream_loops.size(), 1u);
    EXPECT_EQ(lp.stream_loops[0].uniform_step_bytes, 0);
  }
}

TEST(LoweringMetadata, RowCertificates) {
  using namespace ir::dsl;  // NOLINT
  const std::int64_t n = 64;
  const auto row_count = [](const Program& p) {
    return runtime::lower(p).row_loops.size();
  };
  {  // Column-major a[i,j] in a j-outer nest: one column per row.
    const runtime::LoweredProgram lp =
        runtime::lower(workloads::adi_like(n));
    ASSERT_EQ(lp.row_loops.size(), 3u);
    for (const runtime::RowLoop& row : lp.row_loops) {
      EXPECT_EQ(row.step_bytes, 8 * n);
      EXPECT_TRUE(row.segment_starts.empty());
    }
    // The row sweep reads x and rhs, the column sweep and the sum x alone.
    EXPECT_EQ(lp.row_loops[0].footprint_bytes, 2u * 8 * n * n);
    EXPECT_EQ(lp.row_loops[1].footprint_bytes, 8u * n * n);
  }
  {  // A single-level loop has no row, even over a 2-D array.
    Program p("single level");
    const ir::ArrayId a = p.add_array("a", {n, n});
    p.mark_output_array(a);
    p.append(loop("i", 1, n, assign(a, {v("i"), k(2)}, at(a, v("i"), k(1)))));
    EXPECT_EQ(row_count(p), 0u);
  }
  {  // A guard reading both loop variables varies within a row.
    Program p("triangle");
    const ir::ArrayId a = p.add_array("a", {n, n});
    p.mark_output_array(a);
    p.append(loop("j", 1, n,
                  loop("i", 1, n,
                       when(ir::CmpOp::kGe, v("i"), v("j"),
                            assign(a, {v("i"), v("j")}, lit(1.0))))));
    EXPECT_EQ(row_count(p), 0u);
  }
  {  // a[i,j] moves a column per row, b[j,i] an element: no one step.
    Program p("transposed read");
    const ir::ArrayId a = p.add_array("a", {n, n});
    const ir::ArrayId b = p.add_array("b", {n, n});
    p.mark_output_array(a);
    p.append(loop("j", 1, n,
                  loop("i", 1, n,
                       assign(a, {v("i"), v("j")}, at(b, v("j"), v("i"))))));
    EXPECT_EQ(row_count(p), 0u);
  }
  {  // Guards on the row variable alone split the rows into segments at
     // exactly the rows where an outcome changes; the inner loop gets no
     // certificate of its own.
    Program p("guarded buffers");
    const ir::ArrayId cur = p.add_array("cur", {n});
    const ir::ArrayId prev = p.add_array("prev", {n});
    p.add_scalar("s");
    p.mark_output_scalar("s");
    p.append(loop(
        "j", 1, n,
        loop("i", 1, n, assign(cur, {v("i")}, at(prev, v("i")) + lit(1.0)),
             when(ir::CmpOp::kGe, v("j"), k(2),
                  assign("s", sref("s") + at(cur, v("i")))),
             when(ir::CmpOp::kEq, v("j"), k(n),
                  assign("s", sref("s") * lit(0.5))),
             when(ir::CmpOp::kGt, ir::Affine::var("j", 2), k(7),
                  assign(prev, {v("i")}, at(cur, v("i")))),
             when(ir::CmpOp::kNe, v("j"), k(5),
                  assign("s", sref("s") + lit(1.0))))));
    const runtime::LoweredProgram lp = runtime::lower(p);
    ASSERT_EQ(lp.row_loops.size(), 1u);
    const runtime::RowLoop& row = lp.row_loops[0];
    EXPECT_EQ(row.lower, 1);
    EXPECT_EQ(row.upper, n);
    EXPECT_EQ(row.step_bytes, 0);
    // j >= 2 from row 2, 2j > 7 from row 4, j != 5 off at row 5 and back
    // at row 6, j == n at row n.
    EXPECT_EQ(row.segment_starts,
              (std::vector<std::int64_t>{2, 4, 5, 6, n}));
  }
}

// -- Compiled engine: differential exactness ------------------------------

/// Run `p` with fast-forward off and on, and hold every observable
/// identical to the full simulation, the final resident state included;
/// returns the ff-on result for engagement checks.
ExecResult expect_fast_forward_exact(const Program& p,
                                     const machine::MachineModel& machine) {
  memsim::MemoryHierarchy h_off = machine.make_hierarchy();
  ExecOptions off;
  off.hierarchy = &h_off;
  off.fast_forward = false;
  const ExecResult r_off = runtime::execute_compiled(p, off);

  memsim::MemoryHierarchy h_on = machine.make_hierarchy();
  ExecOptions on;
  on.hierarchy = &h_on;
  on.fast_forward = true;
  const ExecResult r_on = runtime::execute_compiled(p, on);
  expect_result_eq(r_off, r_on, p.name() + " [ff]");
  // The final resident state must match too: a wrong shift_state() after
  // a program's last loop changes no counter.
  expect_same_resident_state(h_off, h_on, p.name() + " [ff]");
  return r_on;
}

TEST(FastForwardExact, PaperAndExtraWorkloads) {
  const machine::MachineModel m = bench::o2k();
  expect_fast_forward_exact(workloads::sec21_write_loop(65536), m);
  expect_fast_forward_exact(workloads::sec21_both_loops(65536), m);
  expect_fast_forward_exact(workloads::fig7_original(16384), m);
  expect_fast_forward_exact(workloads::jacobi_chain(8192, 4), m);
  expect_fast_forward_exact(workloads::blur_sharpen(8192), m);
  expect_fast_forward_exact(workloads::reduction_cascade(4096, 4), m);
}

TEST(FastForwardExact, OptimizedWorkloads) {
  const machine::MachineModel m = bench::o2k();
  expect_fast_forward_exact(
      core::optimize(workloads::fig7_original(16384)).program, m);
  expect_fast_forward_exact(
      core::optimize(workloads::sec21_both_loops(65536)).program, m);
}

TEST(FastForwardExact, RandomWorkloads) {
  const machine::MachineModel m = bench::o2k();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Prng rng(seed);
    expect_fast_forward_exact(workloads::random_program(rng), m);
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Prng rng(seed);
    expect_fast_forward_exact(workloads::random_program_2d(rng, 12, 3), m);
  }
}

TEST(FastForwardExact, AllMachinePresets) {
  for (const auto& m : machine::all_presets()) {
    SCOPED_TRACE(m.name);
    expect_fast_forward_exact(workloads::sec21_both_loops(32768),
                              m.scaled(16));
    expect_fast_forward_exact(workloads::fig7_original(8192), m.scaled(16));
  }
}

TEST(FastForwardExact, EngagesOnStride1Loops) {
  const ExecResult r =
      expect_fast_forward_exact(workloads::sec21_write_loop(100000),
                                bench::o2k());
  EXPECT_GT(r.fast_forward_events, 0u);
  // Certification can only happen after the cold fill (the stream must
  // sweep every level's capacity first), but the bulk of the trip space
  // past that point must be skipped, not simulated.
  EXPECT_GT(r.fast_forwarded_iterations, 50000u);
}

TEST(FastForwardExact, PageRandomizedMachineRefuses) {
  // Exemplar hashes page numbers into frame positions; resident state does
  // not commute with address shifts there, so the engine must refuse to
  // fast-forward -- and still match full simulation exactly (trivially,
  // since it *is* full simulation).
  const ExecResult r = expect_fast_forward_exact(
      workloads::sec21_write_loop(100000), bench::exemplar());
  EXPECT_EQ(r.fast_forward_events, 0u);
  EXPECT_EQ(r.fast_forwarded_iterations, 0u);
}

TEST(FastForwardExact, ReductionLoopsFallBack) {
  const ExecResult r = expect_fast_forward_exact(
      workloads::sec21_read_loop(100000), bench::o2k());
  EXPECT_EQ(r.fast_forwarded_iterations, 0u);
}

// -- Row fast-forward ------------------------------------------------------

/// The 2-D workloads and their optimized forms, at n = 256, where a row's
/// step is line-granular (one row per period), and at n = 263, where a
/// period is 16 rows.
TEST(RowFastForward, TwoDimensionalWorkloadsExact) {
  const machine::MachineModel m = bench::o2k();
  for (const std::int64_t n : {256, 263}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    for (auto make : {workloads::adi_like, workloads::fig6_original,
                      workloads::transposed_sweep}) {
      const Program p = make(n);
      expect_fast_forward_exact(p, m);
      expect_fast_forward_exact(core::optimize(p).program, m);
    }
  }
}

TEST(RowFastForward, SkipsMostRowsOfAdi) {
  const std::int64_t n = 256;
  const ExecResult r =
      expect_fast_forward_exact(workloads::adi_like(n), bench::o2k());
  // Three nests of n, n - 1 and n rows, and no stream loops.
  EXPECT_EQ(runtime::lower(workloads::adi_like(n)).stream_loops.size(), 0u);
  EXPECT_GT(r.fast_forwarded_iterations,
            static_cast<std::uint64_t>(3 * n - 1) / 2);
}

TEST(RowFastForward, PageRandomizedMachineRefuses) {
  const ExecResult r =
      expect_fast_forward_exact(workloads::adi_like(256), bench::exemplar());
  EXPECT_EQ(r.fast_forwarded_iterations, 0u);
}

TEST(FastForwardExact, MeasureOptionsToggle) {
  const Program p = workloads::fig7_original(16384);
  const machine::MachineModel m = bench::o2k().with_cores(4);
  model::MeasureOptions on, off;
  off.fast_forward = false;
  const model::Measurement a = model::measure(p, m, on);
  const model::Measurement b = model::measure(p, m, off);
  EXPECT_EQ(a.exec.checksum, b.exec.checksum);
  expect_profile_eq(a.profile, b.profile, "measure ff toggle");
  EXPECT_EQ(a.time.total_s, b.time.total_s);
}

// -- Descending (stride -1) run coalescing --------------------------------

TEST(DescendingRuns, ReversedTraversalExact) {
  using namespace ir::dsl;  // NOLINT
  const std::int64_t n = 32768;
  Program p("reversed sweep");
  const ir::ArrayId a = p.add_array("A", {n});
  const ir::ArrayId b = p.add_array("B", {n});
  p.mark_output_array(a);
  // Reversed update then a reversed copy: both stream loops walk their
  // arrays high-to-low.
  p.append(loop("i", 1, n,
                assign(a, {ir::Affine::var("i", -1, n + 1)},
                       at(a, ir::Affine::var("i", -1, n + 1)) + lit(0.25))));
  p.append(loop("i", 1, n,
                assign(b, {ir::Affine::var("i", -1, n + 1)},
                       at(a, ir::Affine::var("i", -1, n + 1)))));

  memsim::MemoryHierarchy href = bench::o2k().make_hierarchy();
  ExecOptions ref_opts;
  ref_opts.hierarchy = &href;
  const ExecResult ref = runtime::execute(p, ref_opts);

  for (const bool fast_forward : {true, false}) {
    memsim::MemoryHierarchy h = bench::o2k().make_hierarchy();
    ExecOptions opts;
    opts.hierarchy = &h;
    opts.fast_forward = fast_forward;
    const ExecResult got = runtime::execute_compiled(p, opts);
    expect_result_eq(ref, got,
                     "reversed [ff=" + std::to_string(fast_forward) + "]");
  }
  expect_fast_forward_exact(p, bench::o2k());
}

TEST(DescendingRuns, RecorderCoalescesDescendingStream) {
  // Elementwise descending stream vs coalesced: observables identical,
  // but the coalesced hierarchy touches each line once instead of once
  // per element.
  memsim::MemoryHierarchy h_el = bench::o2k().make_hierarchy();
  memsim::MemoryHierarchy h_co = bench::o2k().make_hierarchy();
  const std::uint64_t base = 1u << 20;
  const std::uint64_t n = 4096;
  {
    runtime::Recorder el(&h_el, /*coalesce=*/false);
    runtime::Recorder co(&h_co, /*coalesce=*/true);
    for (std::uint64_t i = n; i-- > 0;) {
      el.load(base + 8 * i, 8);
      co.load(base + 8 * i, 8);
    }
  }
  for (std::size_t bnd = 0; bnd < h_el.boundaries().size(); ++bnd) {
    EXPECT_EQ(h_el.boundaries()[bnd].bytes_toward_cpu,
              h_co.boundaries()[bnd].bytes_toward_cpu);
    EXPECT_EQ(h_el.boundaries()[bnd].bytes_from_cpu,
              h_co.boundaries()[bnd].bytes_from_cpu);
  }
  EXPECT_EQ(h_el.load_count(), h_co.load_count());
  EXPECT_LT(h_co.level(0).stats().accesses(), h_el.level(0).stats().accesses());
}

// -- Warm-up fast-forward in steady_state_profile -------------------------

TEST(WarmupFastForward, SteadyStateProfileUnchanged) {
  const auto workload = [](runtime::Recorder& rec) {
    const std::uint64_t a = 1u << 20;
    const std::uint64_t b = a + (8u << 20);
    for (std::uint64_t i = 0; i < 150000; ++i) {
      rec.load_double(a + 8 * i);
      rec.load_double(b + 8 * i);
      rec.store_double(a + 8 * i);
      rec.flops(1);
    }
  };
  for (const auto& machine : {bench::o2k(), bench::exemplar()}) {
    SCOPED_TRACE(machine.name);
    // Reference: warm up by full simulation, exactly the pre-fast-forward
    // recipe.
    memsim::MemoryHierarchy h = machine.make_hierarchy();
    {
      runtime::Recorder warmup(&h, /*coalesce=*/true);
      workload(warmup);
    }
    h.reset_stats();
    machine::ExecutionProfile want;
    {
      runtime::Recorder rec(&h, /*coalesce=*/true);
      workload(rec);
      want = rec.profile();
    }
    const machine::ExecutionProfile got =
        bench::steady_state_profile(machine, workload);
    expect_profile_eq(want, got, "steady_state_profile warm-up");
  }
}

}  // namespace
}  // namespace bwc
