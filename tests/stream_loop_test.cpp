// K-statement stream loops: the lowering decision each innermost-loop
// shape gets, and exactness of the kernels that run them. Every shape is
// held bit-identical to the reference interpreter (values, counts and
// boundary traffic, with fast-forward on and off), and the values-only
// pass (column kernels where the loop is order-free) to the per-iteration
// kernel on the same entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bwc/core/optimizer.h"
#include "bwc/ir/dsl.h"
#include "bwc/machine/machine_model.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/exec_state.h"
#include "bwc/runtime/fastforward.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/lowering.h"
#include "bwc/runtime/stream_exec.h"
#include "bwc/support/error.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"

namespace bwc::runtime {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::CmpOp;
using ir::Program;

void expect_same(const ExecResult& want, const ExecResult& got,
                 const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(want.checksum, got.checksum);
  EXPECT_EQ(want.flops, got.flops);
  EXPECT_EQ(want.loads, got.loads);
  EXPECT_EQ(want.stores, got.stores);
  EXPECT_EQ(want.scalars, got.scalars);
  ASSERT_EQ(want.profile.boundaries.size(), got.profile.boundaries.size());
  for (std::size_t b = 0; b < want.profile.boundaries.size(); ++b) {
    EXPECT_EQ(want.profile.boundaries[b].bytes_toward_cpu,
              got.profile.boundaries[b].bytes_toward_cpu);
    EXPECT_EQ(want.profile.boundaries[b].bytes_from_cpu,
              got.profile.boundaries[b].bytes_from_cpu);
  }
}

/// The reference interpreter against the VM with fast-forward on and off
/// (on, the stream loops with a uniform step run their values first),
/// with the o2k hierarchy and with none.
void expect_exact(const Program& p) {
  for (const bool with_hierarchy : {true, false}) {
    memsim::MemoryHierarchy href = bench::o2k().make_hierarchy();
    ExecOptions ref_opts;
    if (with_hierarchy) ref_opts.hierarchy = &href;
    const ExecResult ref = execute(p, ref_opts);
    for (const bool fast_forward : {true, false}) {
      memsim::MemoryHierarchy h = bench::o2k().make_hierarchy();
      ExecOptions opts;
      if (with_hierarchy) opts.hierarchy = &h;
      opts.fast_forward = fast_forward;
      expect_same(ref, execute_compiled(p, opts),
                   p.name() + " [h=" + std::to_string(with_hierarchy) +
                       " ff=" + std::to_string(fast_forward) + "]");
    }
  }
}

/// Run one entry (enclosing iteration values `iters`) of stream loop `k`
/// twice from the same state: values only, as the values-first pass does,
/// and through the per-iteration kernel. Every element and scalar must
/// match bit for bit.
void expect_values_match_range(const LoweredProgram& lp, std::size_t k,
                               std::vector<std::int64_t> iters) {
  SCOPED_TRACE("stream loop " + std::to_string(k) + " at outer " +
               std::to_string(iters.empty() ? 0 : iters.front()));
  ExecState a(lp), b(lp);
  for (std::size_t s = 0; s < a.scalars.size(); ++s)
    a.scalars[s] = b.scalars[s] = 0.25 * static_cast<double>(s + 1);
  const StreamLoop& sl = lp.stream_loops[k];
  run_stream_values(sl, sl.lower, sl.upper,
                    {a.data.data(), lp.bases.data(), a.scalars.data(),
                     iters.data()});
  NullRecorder null;
  run_stream_range(sl, sl.lower, sl.upper,
                   {b.data.data(), lp.bases.data(), b.scalars.data(),
                    iters.data()},
                   null);
  EXPECT_EQ(a.storage, b.storage);
  EXPECT_EQ(a.scalars, b.scalars);
}

TEST(StreamLoop, OuterGuardsSelectStatementSets) {
  const std::int64_t n = 300;
  {  // adi: the fused column sweep runs its update only at j >= 2.
    const Program p = core::optimize(workloads::adi_like(n)).program;
    const LoweredProgram lp = lower(p);
    ASSERT_EQ(lp.stream_loops.size(), 2u);
    const StreamLoop& sweep = lp.stream_loops[1];
    ASSERT_EQ(sweep.stmts.size(), 2u);
    EXPECT_EQ(sweep.stmts[0].guard_count, 1u);
    EXPECT_EQ(sweep.stmts[1].guard_count, 0u);
    EXPECT_TRUE(sweep.stmts[1].to_scalar);
    // x[i,j] and x[i,j-1] share their outer coefficient: order-free.
    EXPECT_EQ(sweep.parallel_safety, verify::Verdict::kIndependent);
    EXPECT_EQ(stream_active(sweep, std::vector<std::int64_t>{1}.data()), 2u);
    EXPECT_EQ(stream_active(sweep, std::vector<std::int64_t>{2}.data()), 3u);
    for (const std::int64_t j : {1, 2, 150})
      expect_values_match_range(lp, 1, {j});
    expect_exact(p);
  }
  {  // fig6: six statements under j == 1, j >= 2 and j == n.
    const Program p = core::optimize(workloads::fig6_original(n)).program;
    const LoweredProgram lp = lower(p);
    ASSERT_EQ(lp.stream_loops.size(), 1u);
    const StreamLoop& sl = lp.stream_loops[0];
    ASSERT_EQ(sl.stmts.size(), 6u);
    ASSERT_EQ(sl.inputs.size(), 1u);
    EXPECT_EQ(sl.parallel_safety, verify::Verdict::kIndependent);
    const std::vector<std::uint32_t> guards = {0, 1, 1, 1, 1, 0};
    for (std::size_t s = 0; s < guards.size(); ++s)
      EXPECT_EQ(sl.stmts[s].guard_count, guards[s]) << "statement " << s;
    for (const std::int64_t j : {std::int64_t{1}, std::int64_t{2}, std::int64_t{100}, n})
      expect_values_match_range(lp, 0, {j});
    expect_exact(p);
  }
}

TEST(StreamLoop, ScalarTemporariesAndCarriedScalars) {
  const std::int64_t n = 300;  // more than one column block per entry
  const auto nest = [&](const char* name, bool carried) {
    Program p(name);
    const ArrayId x = p.add_array("x", {n, 4});
    const ArrayId y = p.add_array("y", {n, 4});
    p.add_scalar("t");
    p.mark_output_scalar("t");
    p.mark_output_array(y);
    ir::ExprPtr value = at(x, v("i"), v("j")) * lit(2.0);
    if (carried) value = sref("t") * lit(0.5) + at(x, v("i"), v("j"));
    p.append(loop("j", 1, 4,
                  loop("i", 1, n, assign("t", std::move(value)),
                       assign(y, {v("i"), v("j")}, sref("t") + lit(1.0)))));
    return p;
  };
  // A temporary written before it is read runs as a column; a scalar
  // carried across iterations must keep the per-iteration kernel, though
  // the arrays alone are order-free in both.
  for (const bool carried : {false, true}) {
    const Program p = nest(carried ? "carried" : "temporary", carried);
    const LoweredProgram lp = lower(p);
    ASSERT_EQ(lp.stream_loops.size(), 1u);
    EXPECT_EQ(lp.stream_loops[0].parallel_safety,
              verify::Verdict::kIndependent);
    EXPECT_EQ(lp.stream_loops[0].uniform_step_bytes, 8);
    expect_values_match_range(lp, 0, {3});
    expect_exact(p);
  }
}

TEST(StreamLoop, TemporaryOutlivesAStoreToItsSource) {
  // t keeps x[i,j]'s value from before the next statement overwrites it,
  // though a unit-stride load is read in place.
  const std::int64_t n = 300;
  Program p("saved element");
  const ArrayId x = p.add_array("x", {n, 2});
  const ArrayId y = p.add_array("y", {n, 2});
  p.add_scalar("t");
  p.mark_output_array(x);
  p.mark_output_array(y);
  p.append(loop("j", 1, 2,
                loop("i", 1, n, assign("t", at(x, v("i"), v("j"))),
                     assign(x, {v("i"), v("j")}, lit(0.0)),
                     assign(y, {v("i"), v("j")}, sref("t") * lit(3.0)))));
  const LoweredProgram lp = lower(p);
  ASSERT_EQ(lp.stream_loops.size(), 1u);
  EXPECT_EQ(lp.stream_loops[0].parallel_safety, verify::Verdict::kIndependent);
  expect_values_match_range(lp, 0, {2});
  expect_exact(p);
}

TEST(StreamLoop, ReductionsFoldInOrder) {
  const std::int64_t n = 700;
  Program p("fold");
  const ArrayId x = p.add_array("x", {n, 3});
  const ArrayId z = p.add_array("z", {n, 3});
  p.add_scalar("s");
  p.add_scalar("m");
  p.mark_output_scalar("s");
  p.mark_output_scalar("m");
  p.mark_output_array(z);
  p.append(loop(
      "j", 1, 3,
      loop("i", 1, n, assign(z, {v("i"), v("j")}, at(x, v("i"), v("j")) + lit(1.0)),
           assign("s", sref("s") + at(z, v("i"), v("j")) * lit(0.1)),
           assign("m", ir::make_binary(ir::BinOp::kMax, sref("m"),
                                       at(x, v("i"), v("j")))))));
  const LoweredProgram lp = lower(p);
  ASSERT_EQ(lp.stream_loops.size(), 1u);
  EXPECT_EQ(lp.stream_loops[0].parallel_safety, verify::Verdict::kIndependent);
  expect_values_match_range(lp, 0, {2});
  expect_exact(p);
}

TEST(StreamLoop, InputReads) {
  const std::int64_t n = 200;
  Program p("inputs");
  const ArrayId a = p.add_array("a", {n, n});
  const ArrayId b = p.add_array("b", {n});
  p.mark_output_array(a);
  p.mark_output_array(b);
  p.append(loop("j", 1, n,
                loop("i", 1, n,
                     assign(a, {v("i"), v("j")},
                            input2(4, v("i"), v("j"), n, n) * lit(2.0)))));
  p.append(loop("i", 1, n, assign(b, {v("i")}, input1(5, v("i"), n) + lit(1.0))));
  const LoweredProgram lp = lower(p);
  ASSERT_EQ(lp.stream_loops.size(), 2u);
  EXPECT_EQ(lp.stream_loops[0].inputs.size(), 1u);
  EXPECT_EQ(lp.stream_loops[0].accesses.size(), 1u);  // an input is no access
  expect_values_match_range(lp, 0, {7});
  expect_exact(p);
}

TEST(StreamLoop, RecurrenceIsRefusedColumns) {
  // adi's row sweep reads x[i-1,j], which the previous iteration wrote.
  const Program p = workloads::adi_like(300);
  const LoweredProgram lp = lower(p);
  ASSERT_EQ(lp.stream_loops.size(), 3u);
  EXPECT_EQ(lp.stream_loops[0].parallel_safety, verify::Verdict::kDependent);
  EXPECT_EQ(lp.stream_loops[0].uniform_step_bytes, 8);
  expect_values_match_range(lp, 0, {5});
  expect_exact(p);
}

TEST(StreamLoop, DifferentOuterCoefficientsStayUndecided) {
  // a[i,j] moves a column per j and a[j,i] an element: their bases differ
  // by an amount that varies between entries, so no certificate.
  const std::int64_t n = 64;
  Program p("transposed pair");
  const ArrayId a = p.add_array("a", {n, n});
  const ArrayId b = p.add_array("b", {n, n});
  p.mark_output_array(a);
  p.mark_output_array(b);
  p.append(loop("j", 1, n,
                loop("i", 1, n,
                     assign(a, {v("i"), v("j")},
                            at(a, v("i"), v("j")) + at(a, v("j"), v("i"))),
                     assign(b, {v("i"), v("j")}, at(a, v("i"), v("j"))))));
  const LoweredProgram lp = lower(p);
  ASSERT_EQ(lp.stream_loops.size(), 1u);
  EXPECT_EQ(lp.stream_loops[0].parallel_safety, verify::Verdict::kUnknown);
  expect_values_match_range(lp, 0, {9});
  expect_exact(p);
}

TEST(StreamLoop, UnprovableBoundStaysGeneric) {
  {  // a[i,j+1] leaves the array at j = 8: the VM must raise its error.
    Program p("past the edge");
    const ArrayId a = p.add_array("a", {8, 8});
    p.mark_output_array(a);
    p.append(loop("j", 1, 8,
                  loop("i", 1, 8, assign(a, {v("i"), v("j", 1)}, lit(1.0)))));
    EXPECT_TRUE(lower(p).stream_loops.empty());
    try {
      execute_compiled(p);
      FAIL() << "expected an out-of-bounds error";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "index out of bounds for a dim 1: 9");
    }
  }
  {  // The same read under j <= 7 is proven by the guard's narrowing.
    Program p("guarded edge");
    const ArrayId a = p.add_array("a", {8, 8});
    p.mark_output_array(a);
    p.append(loop("j", 1, 8,
                  loop("i", 1, 8,
                       when(CmpOp::kLe, v("j"), k(7),
                            assign(a, {v("i"), v("j", 1)}, lit(1.0))))));
    EXPECT_EQ(lower(p).stream_loops.size(), 1u);
    expect_exact(p);
  }
}

TEST(StreamLoop, OutOfScopeShapesStayGeneric) {
  const std::int64_t n = 16;
  const auto nest = [&](ir::StmtPtr body) {
    Program p("generic");
    const ArrayId a = p.add_array("a", {n, n});
    p.mark_output_array(a);
    (void)a;
    p.append(loop("j", 1, n, loop("i", 1, n, std::move(body))));
    return p;
  };
  const auto store = [&] { return assign(0, {v("i"), v("j")}, lit(1.0)); };
  std::vector<Program> programs;
  programs.push_back(nest(when(CmpOp::kGe, v("i"), k(2), store())));
  programs.push_back(nest(when(CmpOp::kGe, v("i"), v("j"), store())));
  ir::StmtList then_body, else_body;
  then_body.push_back(store());
  else_body.push_back(assign(0, {v("i"), v("j")}, lit(2.0)));
  programs.push_back(nest(ir::make_if(CmpOp::kGe, v("j"), k(2),
                                      std::move(then_body),
                                      std::move(else_body))));
  for (const Program& p : programs) {
    EXPECT_TRUE(lower(p).stream_loops.empty());
    expect_exact(p);
  }
}

TEST(StreamLoop, EveryOptimizedBundledWorkloadStreams) {
  std::vector<Program> programs;
  programs.push_back(workloads::sec21_both_loops(4096));
  programs.push_back(workloads::fig7_original(4096));
  programs.push_back(workloads::jacobi_chain(4096, 4));
  programs.push_back(workloads::blur_sharpen(4096));
  programs.push_back(workloads::reduction_cascade(4096, 4));
  programs.push_back(workloads::fig6_original(64));
  programs.push_back(workloads::adi_like(64));
  programs.push_back(workloads::transposed_sweep(64));
  for (const Program& p : programs) {
    const Program opt = core::optimize(p).program;
    EXPECT_GE(lower(opt).stream_loops.size(), 1u) << p.name();
    expect_exact(opt);
  }
}

}  // namespace
}  // namespace bwc::runtime
