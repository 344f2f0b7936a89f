#include "bwc/core/optimizer.h"

#include "bwc/pass/passes.h"
#include "bwc/pass/pipeline_spec.h"

namespace bwc::core {

OptimizeResult optimize(const ir::Program& program, const std::string& passes,
                        const pass::PipelineOptions& options) {
  pass::PassManager manager(options);
  manager.add(pass::build_pipeline(pass::parse_pipeline_spec(passes)));

  OptimizeResult result;
  result.program = program.clone();
  result.pipeline = manager.run(result.program);

  // The applied fusion plan, for callers inspecting partition structure.
  for (const auto& pass : manager.passes()) {
    if (const auto* fuse = dynamic_cast<const pass::FusePass*>(pass.get()))
      result.plan = fuse->plan();
  }
  return result;
}

}  // namespace bwc::core
