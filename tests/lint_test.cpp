// Tests for the bwc-lint diagnostics pass (pass/lint.h): graded findings
// for dead stores, unreachable guard arms, analysis-opaque contexts and
// loops already at the traffic lower bound, plus the severity plumbing
// through PipelineReport (error_findings, JSON rendering).
#include <gtest/gtest.h>

#include <string>

#include "bwc/core/optimizer.h"
#include "bwc/ir/dsl.h"
#include "bwc/ir/printer.h"
#include "bwc/workloads/paper_programs.h"

namespace bwc::pass {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::Program;

core::OptimizeResult run_lint(const Program& p) {
  return core::optimize(p, "lint");
}

/// The lint findings (severity, code) of a single-pass run.
const std::vector<Remark>& findings(const core::OptimizeResult& result) {
  EXPECT_EQ(result.pipeline.passes.size(), 1u);
  return result.pipeline.passes.at(0).remarks;
}

bool has_finding(const core::OptimizeResult& result, const std::string& code,
                 RemarkSeverity severity) {
  for (const Remark& r : findings(result))
    if (r.code == code && r.severity == severity) return true;
  return false;
}

TEST(Lint, DeadStoreIsAnErrorFinding) {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId d = p.add_array("dead", {n + 16});
  const ArrayId c = p.add_array("c", {n + 16});
  p.mark_output_array(c);
  p.append(loop("i", 1, n, assign(d, {v("i")}, lvar("i"))));
  p.append(loop("i", 1, n, assign(c, {v("i")}, lvar("i") * lit(2.0))));
  const core::OptimizeResult result = run_lint(p);
  EXPECT_TRUE(has_finding(result, "lint-dead-store", RemarkSeverity::kError));
  EXPECT_GT(result.pipeline.error_findings(), 0);
}

TEST(Lint, OutputArraysAreNeverDead) {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId c = p.add_array("c", {n + 16});
  p.mark_output_array(c);
  p.append(loop("i", 1, n, assign(c, {v("i")}, lvar("i"))));
  const core::OptimizeResult result = run_lint(p);
  for (const Remark& r : findings(result))
    EXPECT_NE(r.code, "lint-dead-store");
  EXPECT_EQ(result.pipeline.error_findings(), 0);
}

TEST(Lint, UnreachableGuardArmIsAWarning) {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId c = p.add_array("c", {n + 16});
  p.mark_output_array(c);
  p.append(loop("i", 1, n,
                assign(c, {v("i")}, lvar("i")),
                when(ir::CmpOp::kGe, v("i"), k(n + 100),
                     assign(c, {v("i")}, lit(0.0)))));
  const core::OptimizeResult result = run_lint(p);
  EXPECT_TRUE(has_finding(result, "lint-unreachable-guard",
                          RemarkSeverity::kWarning));
  // Warnings do not fail a lint run.
  EXPECT_EQ(result.pipeline.error_findings(), 0);
}

TEST(Lint, StreamLoopIsAtTrafficBound) {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId c = p.add_array("c", {n + 16});
  const ArrayId b = p.add_array("b", {n + 16});
  p.mark_output_array(c);
  p.append(loop("i", 1, n, assign(c, {v("i")}, at(b, v("i")) + lit(1.0))));
  const core::OptimizeResult result = run_lint(p);
  EXPECT_TRUE(has_finding(result, "lint-at-traffic-bound",
                          RemarkSeverity::kInfo));
}

TEST(Lint, RevisitingLoopIsNotAtTrafficBound) {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId c = p.add_array("c", {n + 16});
  p.mark_output_array(c);
  // c[i] reads c[i - 1]: every element is revisited by the next iteration.
  p.append(loop("i", 2, n,
                assign(c, {v("i")}, at(c, v("i", -1)) + lit(1.0))));
  const core::OptimizeResult result = run_lint(p);
  for (const Remark& r : findings(result))
    EXPECT_NE(r.code, "lint-at-traffic-bound");
}

TEST(Lint, DependenceSummaryIsAlwaysEmitted) {
  const core::OptimizeResult result =
      run_lint(workloads::fig7_original(200));
  EXPECT_TRUE(has_finding(result, "lint-dependence-summary",
                          RemarkSeverity::kInfo));
}

TEST(Lint, ProgramIsNeverModified) {
  const Program p = workloads::fig7_original(200);
  const core::OptimizeResult result = run_lint(p);
  EXPECT_EQ(ir::to_string(result.program), ir::to_string(p));
  EXPECT_FALSE(result.pipeline.passes.at(0).changed);
}

TEST(Lint, JsonRenderingCarriesSeverity) {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId d = p.add_array("dead", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 1, n, assign(d, {v("i")}, lvar("i"))));
  p.append(loop("i", 1, n, assign("s", sref("s") + lvar("i"))));
  const core::OptimizeResult result = run_lint(p);
  const std::string json = result.pipeline.to_json("t", "lint");
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\": \"info\""), std::string::npos) << json;
  EXPECT_NE(json.find("bwc-remarks-v1"), std::string::npos);
}

TEST(Lint, CleanWorkloadHasNoErrorFindings) {
  for (const auto* name : {"fig6", "fig7"}) {
    const Program p = std::string(name) == "fig6"
                          ? workloads::fig6_original(400)
                          : workloads::fig7_original(400);
    const core::OptimizeResult result = run_lint(p);
    EXPECT_EQ(result.pipeline.error_findings(), 0) << name;
  }
}

}  // namespace
}  // namespace bwc::pass
