// Coverage tests: utility paths, degenerate configurations, and the 2-D
// guarded-program fuzz locked in as a regression suite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "bwc/core/optimizer.h"
#include "bwc/fusion/dot_export.h"
#include "bwc/fusion/solvers.h"
#include "bwc/ir/dsl.h"
#include "bwc/ir/printer.h"
#include "bwc/machine/latency_model.h"
#include "bwc/memsim/hierarchy.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/csv.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/transform/rewrite.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc {
namespace {

using namespace ir::dsl;  // NOLINT

// -- substitute_loop_var ---------------------------------------------------------

TEST(SubstituteLoopVar, RewritesSubscriptsGuardsAndValues) {
  ir::Program p("t");
  const ir::ArrayId a = p.add_array("a", {64});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 3, 10,
                when(ir::CmpOp::kGe, v("i"), k(3),
                     assign(a, {v("i")}, lvar("i") * lit(2.0))),
                assign("s", sref("s") + at(a, v("i")))));

  // Substitute i -> i - 2 inside the loop body; then widen the loop to
  // compensate: semantics of the stored values shifts accordingly.
  ir::Stmt& nest = *p.top()[0];
  transform::substitute_loop_var(nest.loop->body, "i",
                                 ir::Affine::var("i") - 2);
  nest.loop->lower += 2;
  nest.loop->upper += 2;
  const auto result = runtime::execute(p);
  // s = sum over original i of a[i] = 2i.
  double expect = 0;
  for (int i = 3; i <= 10; ++i) expect += 2.0 * i;
  EXPECT_DOUBLE_EQ(result.checksum, expect);
}

TEST(SubstituteLoopVar, RespectsShadowing) {
  ir::Program p("t");
  p.add_scalar("s");
  p.mark_output_scalar("s");
  // Outer i; inner loop redeclares i -- the inner uses must not change.
  p.append(loop("i", 1, 2,
                loop("i", 1, 3, assign("s", sref("s") + lvar("i")))));
  ir::Stmt& outer = *p.top()[0];
  transform::substitute_loop_var(outer.loop->body, "i",
                                 ir::Affine::var("i") + 100);
  // Inner loop shadows: sum unchanged = 2 * (1+2+3).
  EXPECT_DOUBLE_EQ(runtime::execute(p).checksum, 12.0);
}

TEST(SubstituteLoopVar, ValueUseBecomesArithmetic) {
  ir::Program p("t");
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, 4, assign("s", sref("s") + lvar("i"))));
  transform::substitute_loop_var(p.top()[0]->loop->body, "i",
                                 ir::Affine::var("i") * 2 + 1);
  // sum of (2i+1) for i=1..4 = 2*10 + 4 = 24.
  EXPECT_DOUBLE_EQ(runtime::execute(p).checksum, 24.0);
}

// -- Page-randomized cache indexing -----------------------------------------------

memsim::CacheConfig randomized_config() {
  memsim::CacheConfig c;
  c.name = "L1";
  c.size_bytes = 64 * 1024;
  c.line_bytes = 32;
  c.associativity = 1;
  c.page_randomization_seed = 0x1234;
  return c;
}

TEST(PageRandomization, SequentialWithinPageStillHits) {
  memsim::CacheLevel cache(randomized_config());
  // A full page of sequential doubles: one miss per 32B line.
  for (std::uint64_t a = 0; a < 4096; a += 8) cache.access(a & ~31ull, false);
  EXPECT_EQ(cache.stats().read_misses, 4096u / 32);
  EXPECT_EQ(cache.stats().read_hits, 3 * (4096u / 32));
}

TEST(PageRandomization, DeterministicInSeed) {
  memsim::CacheLevel c1(randomized_config());
  memsim::CacheLevel c2(randomized_config());
  for (std::uint64_t a = 0; a < 1 << 18; a += 4096) {
    c1.access(a, false);
    c2.access(a, false);
  }
  EXPECT_EQ(c1.stats().read_misses, c2.stats().read_misses);
  EXPECT_EQ(c1.valid_line_count(), c2.valid_line_count());
}

TEST(PageRandomization, DistinctLinesNeverAliasWithinPage) {
  memsim::CacheLevel cache(randomized_config());
  // All 128 lines of one page must coexist (no intra-page eviction).
  for (std::uint64_t a = 0; a < 4096; a += 32) cache.access(a, false);
  for (std::uint64_t a = 0; a < 4096; a += 32)
    EXPECT_TRUE(cache.contains(a)) << a;
}

TEST(PageRandomization, AlignedStreamsCanConflict) {
  // Two page-aligned streams in a direct-mapped cache collide whenever
  // their pages hash to the same frame; a non-randomized cache with the
  // same spacing (multiple of the cache size) collides on *every* page.
  memsim::CacheConfig plain = randomized_config();
  plain.page_randomization_seed = 0;
  memsim::CacheLevel aliased(plain);
  const std::uint64_t stride = plain.size_bytes;  // worst case alignment
  std::uint64_t misses_interleaved = 0;
  for (std::uint64_t a = 0; a < 1 << 16; a += 8) {
    if (!aliased.access(a & ~31ull, false).hit) ++misses_interleaved;
    if (!aliased.access((a + stride) & ~31ull, false).hit)
      ++misses_interleaved;
  }
  // Every access ping-pongs: all line touches miss.
  EXPECT_EQ(misses_interleaved, 2 * (1u << 16) / 8);
}

// -- Misc utility coverage ---------------------------------------------------------

TEST(Csv, WriteFileRoundTrip) {
  CsvWriter w({"a", "b"});
  w.add_row({"1", "x,y"});
  const std::string path = "/tmp/bwc_csv_test.csv";
  w.write_file(path);
  std::ifstream in(path);
  std::string l1, l2;
  std::getline(in, l1);
  std::getline(in, l2);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "1,\"x,y\"");
  std::remove(path.c_str());
  EXPECT_THROW(w.write_file("/nonexistent-dir/f.csv"), Error);
}

TEST(Interpreter, MinMaxAndDivision) {
  ir::Program p("t");
  p.add_scalar("x");
  p.mark_output_scalar("x");
  p.append(assign("x",
                  ir::make_binary(ir::BinOp::kMin, lit(3.0),
                                  ir::make_binary(ir::BinOp::kMax, lit(5.0),
                                                  lit(4.0))) /
                      lit(2.0)));
  EXPECT_DOUBLE_EQ(runtime::execute(p).checksum, 1.5);
}

TEST(Interpreter, UnknownIntrinsicThrows) {
  ir::Program p("t");
  p.add_scalar("x");
  std::vector<ir::ExprPtr> args;
  args.push_back(lit(1.0));
  p.append(assign("x", ir::make_call("mystery", 1, std::move(args))));
  EXPECT_THROW(runtime::execute(p), Error);
}

TEST(LatencyModel, SingleLevelMachine) {
  const auto m = machine::exemplar_pa8000();
  const auto lm = machine::default_latency(m);
  ASSERT_EQ(lm.miss_latency_s.size(), 1u);
  EXPECT_GT(lm.miss_latency_s[0], 0.0);
}

TEST(Printer, InputAndIntrinsicForms) {
  ir::Program p("t");
  const ir::ArrayId a = p.add_array("a", {4, 4});
  p.append(loop("j", 1, 4,
                loop("i", 1, 4,
                     assign(a, {v("i"), v("j")},
                            input2(3, v("i"), v("j"), 4, 4)))));
  const std::string s = ir::to_string(p);
  EXPECT_NE(s.find("input3<4,4>[i,j]"), std::string::npos);
}

// -- DOT export ---------------------------------------------------------------------

TEST(DotExport, GraphContainsAllElements) {
  const auto g = workloads::fig4_graph();
  const std::string dot = fusion::to_dot(g);
  EXPECT_NE(dot.find("graph fusion {"), std::string::npos);
  // 6 loops, 6 arrays, 1 preventing edge, 1 dependence.
  for (int v = 0; v < 6; ++v)
    EXPECT_NE(dot.find("loop" + std::to_string(v) + " ["), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("dir=forward"), std::string::npos);
}

TEST(DotExport, PlanClustersPartitions) {
  const auto g = workloads::fig4_graph();
  const auto plan = fusion::exact_enumeration(g);
  const std::vector<std::string> labels = {"loop1", "loop2", "loop3",
                                           "loop4", "loop5", "loop6"};
  const std::string dot = fusion::to_dot(g, plan, labels);
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_1"), std::string::npos);
  EXPECT_NE(dot.find("loop5"), std::string::npos);
  EXPECT_THROW(fusion::to_dot(g, plan, {"too", "few"}), Error);
}

// -- 2-D guarded-program fuzz, locked in -------------------------------------------

class TwoDFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TwoDFuzz, OptimizerPreservesSemantics) {
  Prng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  for (int trial = 0; trial < 8; ++trial) {
    const ir::Program p = workloads::random_program_2d(
        rng, 8 + static_cast<std::int64_t>(rng.uniform(10)),
        1 + static_cast<int>(rng.uniform(3)));
    const double base = runtime::execute(p).checksum;
    for (const std::string solver : {"best", "greedy"}) {
      const auto r = core::optimize(
          p, "fuse(solver=" + solver + "),reduce-storage,eliminate-stores");
      const double after = runtime::execute(r.program).checksum;
      ASSERT_NEAR(base, after, 1e-9 * (std::abs(base) + 1.0))
          << "seed " << GetParam() << " trial " << trial << "\n"
          << ir::to_string(p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoDFuzz, ::testing::Range(0, 10));

}  // namespace
}  // namespace bwc
