// Measurement glue: run an IR program against a machine model's simulated
// hierarchy and report profile, predicted time and balance in one call.
#pragma once

#include <string>

#include "bwc/ir/program.h"
#include "bwc/machine/machine_model.h"
#include "bwc/machine/timing.h"
#include "bwc/model/balance.h"
#include "bwc/runtime/codegen.h"
#include "bwc/runtime/compiled.h"

namespace bwc::model {

struct Measurement {
  runtime::ExecResult exec;
  machine::ExecutionProfile profile;
  machine::TimePrediction time;
  ProgramBalance balance;
};

/// Which replay engine performs the measurement. All are bit-identical
/// (held so by tests/compiled_runtime_test.cpp and tests/codegen_test.cpp);
/// the compiled bytecode VM is several times faster than the reference
/// interpreter and is the default everywhere. kNative compiles the
/// lowered program to host machine code (runtime/codegen.h) and falls
/// back to the VM when no host C compiler is available -- the fallback
/// reason lands in MeasureOptions::native_report.
enum class ExecEngine { kCompiled, kReference, kNative };

/// The engine a command line or a bwcd request names: "compiled",
/// "reference" or "native". Throws bwc::Error listing the supported names.
ExecEngine engine_by_name(const std::string& name);

/// Knobs for measure(). `fast_forward` controls the compiled engines'
/// steady-state fast-forward (see runtime::ExecOptions::fast_forward);
/// measured profiles are bit-identical either way, so this is purely a
/// replay-speed / A-B-debugging toggle. The reference interpreter ignores
/// it. `native` configures the kNative engine's compile step (cache
/// directory, compiler override) and is ignored by the other engines;
/// `native_report`, when non-null, receives what the native engine
/// actually did (including the VM-fallback warning).
struct MeasureOptions {
  ExecEngine engine = ExecEngine::kCompiled;
  bool fast_forward = true;
  runtime::NativeOptions native;
  runtime::NativeReport* native_report = nullptr;
};

/// Execute `program` on the machine's simulated hierarchy (caches start
/// cold) and evaluate the bandwidth-bound timing model. The replay is
/// serial at every core count, so the profile does not depend on
/// machine.core_count; the core count only enters the multicore
/// shared-bandwidth timing model (docs/MODEL.md section 7).
Measurement measure(const ir::Program& program,
                    const machine::MachineModel& machine,
                    const MeasureOptions& options);
Measurement measure(const ir::Program& program,
                    const machine::MachineModel& machine,
                    ExecEngine engine = ExecEngine::kCompiled);

/// One-line summary: predicted time, binding resource, memory traffic.
std::string summarize(const Measurement& m);

}  // namespace bwc::model
