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
  // A multicore machine is replayed by the parallel executor at its core
  // count; traffic and checksums are bit-identical to serial (held by
  // tests/parallel_runtime_test.cpp), so this only exercises the engine
  // the machine model implies. The reference interpreter is serial-only.
  opts.cores =
      options.engine == ExecEngine::kReference ? 1 : machine.core_count;
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

std::vector<Measurement> measure_scaling(
    const ir::Program& program, const machine::MachineModel& machine,
    const std::vector<int>& core_counts, const MeasureOptions& options) {
  std::vector<Measurement> curve;
  curve.reserve(core_counts.size());
  for (int cores : core_counts)
    curve.push_back(measure(program, machine.with_cores(cores), options));
  return curve;
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
