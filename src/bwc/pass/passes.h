// The concrete passes: transform/ and fusion/ rewrites ported to the Pass
// interface, plus the create_pass registry that turns a parsed PassSpec
// into a pass instance. Spec names:
//
//   interchange       stride-1 loop interchange (transform/interchange)
//   fuse              bandwidth-minimal loop fusion; params:
//                       solver=best|exact|greedy|bisection|edge-weighted
//                       shift=0|1 (fusion with alignment), max-shift=<int>
//   reduce-storage    array contraction/shrinking/peeling
//   eliminate-stores  writeback elimination
//   scalar-replace    rotating-scalar register reuse
//   distribute        maximal loop distribution (fusion's inverse)
//   transpose-layout  storage-order permutation toward innermost access
//   regroup-arrays    inter-array data regrouping: SoA -> AoS interleave
//                     groups, a pure layout change
//   pad-arrays        conflict-breaking inter-dimension / base padding
//   lint              diagnostics only: bwc-lint findings (pass/lint.h)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bwc/fusion/fusion_graph.h"
#include "bwc/pass/pass.h"
#include "bwc/pass/pipeline_spec.h"

namespace bwc::pass {

class InterchangePass : public Pass {
 public:
  std::string name() const override { return "interchange"; }
  std::string label() const override { return "interchange"; }
  PassResult run(ir::Program& program, AnalysisManager& am,
                 PassReport& report) override;
  verify::Report check(const ir::Program& before, const ir::Program& after,
                       const CheckOptions& options) const override;
};

class FusePass : public Pass {
 public:
  struct Options {
    /// Solver name: best|exact|greedy|bisection|edge-weighted.
    std::string solver = "best";
    bool allow_shifted_fusion = false;
    std::int64_t max_shift = 8;
  };

  FusePass() : FusePass(Options()) {}
  explicit FusePass(Options options);

  std::string name() const override { return "fuse"; }
  std::string label() const override { return "fusion"; }
  PassResult run(ir::Program& program, AnalysisManager& am,
                 PassReport& report) override;
  verify::Report check(const ir::Program& before, const ir::Program& after,
                       const CheckOptions& options) const override;

  /// The plan the last run() computed (solved even when not applied).
  const fusion::FusionPlan& plan() const { return plan_; }

 private:
  Options options_;
  fusion::FusionPlan plan_;
};

class ReduceStoragePass : public Pass {
 public:
  std::string name() const override { return "reduce-storage"; }
  std::string label() const override { return "storage reduction"; }
  PassResult run(ir::Program& program, AnalysisManager& am,
                 PassReport& report) override;
  verify::Report check(const ir::Program& before, const ir::Program& after,
                       const CheckOptions& options) const override;
};

class EliminateStoresPass : public Pass {
 public:
  std::string name() const override { return "eliminate-stores"; }
  std::string label() const override { return "store elimination"; }
  PassResult run(ir::Program& program, AnalysisManager& am,
                 PassReport& report) override;
  verify::Report check(const ir::Program& before, const ir::Program& after,
                       const CheckOptions& options) const override;
};

class ScalarReplacePass : public Pass {
 public:
  std::string name() const override { return "scalar-replace"; }
  std::string label() const override { return "scalar replacement"; }
  PassResult run(ir::Program& program, AnalysisManager& am,
                 PassReport& report) override;
};

class DistributePass : public Pass {
 public:
  std::string name() const override { return "distribute"; }
  std::string label() const override { return "distribution"; }
  PassResult run(ir::Program& program, AnalysisManager& am,
                 PassReport& report) override;
  verify::Report check(const ir::Program& before, const ir::Program& after,
                       const CheckOptions& options) const override;
};

/// The layout-transform passes (transform/layout.h). They rewrite only
/// ArrayLayout declarations -- statements, values and checksums are
/// untouched -- and grade profitability with the layout-aware line-traffic
/// estimator, whose per-array before/after figures they publish as the
/// PassReport's per_array breakdown. Verified by prove_layout_change
/// (structural: layout-stripped programs must be identical), with trace
/// validation as the fallback.
class TransposeLayoutPass : public Pass {
 public:
  std::string name() const override { return "transpose-layout"; }
  std::string label() const override { return "layout transpose"; }
  PassResult run(ir::Program& program, AnalysisManager& am,
                 PassReport& report) override;
  verify::Report check(const ir::Program& before, const ir::Program& after,
                       const CheckOptions& options) const override;
};

class RegroupArraysPass : public Pass {
 public:
  std::string name() const override { return "regroup-arrays"; }
  std::string label() const override { return "layout regrouping"; }
  PassResult run(ir::Program& program, AnalysisManager& am,
                 PassReport& report) override;
  verify::Report check(const ir::Program& before, const ir::Program& after,
                       const CheckOptions& options) const override;
};

class PadArraysPass : public Pass {
 public:
  std::string name() const override { return "pad-arrays"; }
  std::string label() const override { return "layout padding"; }
  PassResult run(ir::Program& program, AnalysisManager& am,
                 PassReport& report) override;
  verify::Report check(const ir::Program& before, const ir::Program& after,
                       const CheckOptions& options) const override;
};

/// Instantiate the pass a spec names. Throws bwc::Error for an unknown
/// pass name, an unknown parameter, or a bad parameter value.
std::unique_ptr<Pass> create_pass(const PassSpec& spec);

/// Instantiate every pass of a pipeline, in order.
std::vector<std::unique_ptr<Pass>> build_pipeline(const PipelineSpec& spec);

}  // namespace bwc::pass
