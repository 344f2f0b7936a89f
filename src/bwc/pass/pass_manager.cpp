#include "bwc/pass/pass_manager.h"

#include <chrono>
#include <utility>

#include "bwc/support/error.h"
#include "bwc/verify/structure.h"

namespace bwc::pass {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

PassManager::PassManager(PipelineOptions options)
    : options_(std::move(options)) {}

void PassManager::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

void PassManager::add(std::vector<std::unique_ptr<Pass>> passes) {
  for (auto& pass : passes) passes_.push_back(std::move(pass));
}

PipelineReport PassManager::run(ir::Program& program) {
  if (options_.verify) {
    const verify::Report structure = verify::validate_structure(program);
    if (!structure.ok()) {
      throw Error("input program is structurally invalid:\n" +
                  structure.render());
    }
  }

  AnalysisManager::Options am_options;
  am_options.cache = options_.cache_analyses;
  am_options.audit = options_.audit_analyses;
  AnalysisManager am(am_options);

  PipelineReport pipeline;
  pipeline.passes.reserve(passes_.size());
  for (const std::unique_ptr<Pass>& pass : passes_) {
    PassReport report;
    report.pass = pass->name();
    report.label = pass->label();
    report.ir_before =
        compute_ir_stats(program, am.statement_summaries(program));
    report.traffic_bound_before = am.traffic_bound(program).lower_bound_bytes;

    // Snapshot for the pass-pair checks; maintained only when verifying.
    ir::Program before;
    if (options_.verify) before = program.clone();

    const auto start = std::chrono::steady_clock::now();
    const PassResult result = pass->run(program, am, report);
    report.wall_ms = ms_since(start);
    report.changed = result.changed;

    if (result.changed) {
      am.invalidate(result.preserved);
      report.ir_after =
          compute_ir_stats(program, am.statement_summaries(program));
      report.traffic_bound_after = am.traffic_bound(program).lower_bound_bytes;
    } else {
      report.ir_after = report.ir_before;
      report.traffic_bound_after = report.traffic_bound_before;
    }

    // Only passes that changed the program are checked: an unchanged
    // program is trivially equivalent to itself.
    if (result.changed && options_.verify) {
      const auto verify_start = std::chrono::steady_clock::now();
      const verify::Report checked =
          pass->check(before, program, {options_.static_verify});
      report.verify_ms = ms_since(verify_start);
      if (!checked.ok()) {
        throw Error("verification failed after " + pass->label() + ":\n" +
                    checked.render());
      }
      report.verify.ran = true;
      report.verify.check = checked.check;
      report.verify.skipped = checked.skipped;
      report.verify.skip_reason = checked.skip_reason;
      report.verify.instances_checked = checked.instances_checked;
    }

    pipeline.passes.push_back(std::move(report));
    if (options_.print_after) options_.print_after(*pass, program);
  }
  pipeline.analysis = am.stats();
  return pipeline;
}

}  // namespace bwc::pass
