// Shared runtime state for one execution of a lowered program: the array
// storage, the scalar file, and the ExecResult assembly (checksum over
// declared outputs, counters, profile). Array base addresses come with
// the lowered program (LoweredProgram::bases).
//
// Both executors of lowered bytecode -- the VM (compiled.cpp) and the
// native dlopen backend (codegen.cpp) -- build this identical state, so
// deterministic initial array contents and checksum composition can
// never drift between them. It mirrors the reference interpreter's
// Machine exactly for the same reason.
#pragma once

#include <cstdint>
#include <vector>

#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/lowering.h"
#include "bwc/runtime/recorder.h"

namespace bwc::runtime {

struct ExecState {
  explicit ExecState(const LoweredProgram& lp) : lp(lp) {
    storage.reserve(lp.arrays.size());
    for (const LoweredArray& decl : lp.arrays) {
      std::vector<double>& d = storage.emplace_back();
      d.resize(static_cast<std::size_t>(decl.element_count));
      for (std::int64_t k = 0; k < decl.element_count; ++k)
        d[static_cast<std::size_t>(k)] = ir::input_value(decl.initial_key, k);
    }
    scalars.assign(lp.scalar_names.size(), 0.0);
    for (auto& d : storage) data.push_back(d.data());
  }

  /// Assemble the ExecResult after a run: recorder counters, final
  /// scalars, array bases and the checksum over declared outputs.
  ExecResult result(const Recorder& rec) const {
    ExecResult r;
    r.flops = rec.flop_count();
    r.loads = rec.load_count();
    r.stores = rec.store_count();
    r.fast_forward_events = rec.fast_forward_events();
    r.fast_forwarded_iterations = rec.fast_forwarded_iterations();
    if (rec.hierarchy() != nullptr) r.profile = rec.profile();
    for (std::size_t s = 0; s < scalars.size(); ++s)
      r.scalars[lp.scalar_names[s]] = scalars[s];
    r.array_bases = lp.bases;
    double checksum = 0.0;
    for (std::int32_t slot : lp.output_scalar_slots)
      checksum += scalars[static_cast<std::size_t>(slot)];
    for (std::int32_t a : lp.output_arrays) {
      for (double x : storage[static_cast<std::size_t>(a)]) checksum += x;
    }
    r.checksum = checksum;
    return r;
  }

  const LoweredProgram& lp;
  std::vector<std::vector<double>> storage;
  std::vector<double*> data;  // storage[a].data(), hot-path flat view
  std::vector<double> scalars;
};

}  // namespace bwc::runtime
