#include "bwc/model/measure.h"

#include <sstream>

#include "bwc/support/error.h"
#include "bwc/support/table.h"

namespace bwc::model {

ExecEngine engine_by_name(const std::string& name) {
  if (name == "compiled") return ExecEngine::kCompiled;
  if (name == "reference") return ExecEngine::kReference;
  if (name == "native") return ExecEngine::kNative;
  throw Error("unknown engine \"" + name +
              "\" (supported: compiled, reference, native)");
}

Measurement measure(const ir::Program& program,
                    const machine::MachineModel& machine,
                    const MeasureOptions& options) {
  memsim::MemoryHierarchy hierarchy = machine.make_hierarchy();
  runtime::ExecOptions opts;
  opts.hierarchy = &hierarchy;
  opts.fast_forward = options.fast_forward;
  Measurement m;
  // Every figure/ablation that measures programs goes through here, so the
  // compiled engine is the default; the reference interpreter stays
  // selectable for debugging and differential checks, and the native
  // engine (host-compiled kernels, VM fallback) rides the same options.
  switch (options.engine) {
    case ExecEngine::kCompiled:
      m.exec = runtime::execute_compiled(program, opts);
      break;
    case ExecEngine::kNative:
      m.exec = runtime::execute_native(program, opts, options.native,
                                       options.native_report);
      break;
    case ExecEngine::kReference:
      m.exec = runtime::execute(program, opts);
      break;
  }
  m.profile = m.exec.profile;
  m.time = machine::predict_time(m.profile, machine);
  m.balance = ProgramBalance::from_profile(program.name(), m.profile);
  return m;
}

Measurement measure(const ir::Program& program,
                    const machine::MachineModel& machine, ExecEngine engine) {
  MeasureOptions options;
  options.engine = engine;
  return measure(program, machine, options);
}

std::string summarize(const Measurement& m) {
  std::ostringstream os;
  os << m.balance.name << ": t=" << fmt_fixed(m.time.total_s * 1e3, 3)
     << " ms (bound: " << m.time.binding_resource
     << "), mem traffic=" << fmt_bytes(static_cast<double>(
                                 m.profile.memory_bytes()))
     << ", flops=" << m.profile.flops
     << ", checksum=" << m.exec.checksum;
  return os.str();
}

}  // namespace bwc::model
