// Stencil pipeline: write your own loop program with the IR DSL, run the
// full bandwidth-reduction pipeline, and compare machines.
//
// Scenario: a 1-D heat-flux chain — compute fluxes from a temperature
// field, apply them, then take two diagnostics. Naively that is four
// passes over memory; the optimizer fuses them, contracts the flux
// temporary, and eliminates the writeback of the updated field's scratch
// copy.
//
//   ./build/examples/stencil_pipeline
#include <cmath>
#include <iostream>

#include "bwc/core/optimizer.h"
#include "bwc/ir/dsl.h"
#include "bwc/ir/printer.h"
#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/support/table.h"

int main() {
  using namespace bwc;
  using namespace bwc::ir::dsl;

  const std::int64_t n = 250000;
  ir::Program p("heat-flux chain");
  const ir::ArrayId temp = p.add_array("temp", {n});
  const ir::ArrayId flux = p.add_array("flux", {n});
  const ir::ArrayId next = p.add_array("next", {n});
  p.add_scalar("total");
  p.add_scalar("peak");
  p.mark_output_scalar("total");
  p.mark_output_scalar("peak");

  // Pass 1: flux[i] = 0.5 * (temp[i+1] - temp[i])
  p.append(loop("i", 2, n - 1,
                assign(flux, {v("i")},
                       lit(0.5) * (at(temp, v("i", 1)) - at(temp, v("i"))))));
  // Pass 2: next[i] = temp[i] + flux[i] - flux[i-1]
  p.append(loop("i", 2, n - 1,
                assign(next, {v("i")},
                       at(temp, v("i")) +
                           (at(flux, v("i")) - at(flux, v("i", -1))))));
  // Pass 3: total = sum(next)
  p.append(assign("total", lit(0.0)));
  p.append(loop("i", 2, n - 1,
                assign("total", sref("total") + at(next, v("i")))));
  // Pass 4: peak-ish diagnostic (monotone reduction keeps it affine).
  p.append(assign("peak", lit(0.0)));
  p.append(loop("i", 2, n - 1,
                assign("peak",
                       sref("peak") + at(next, v("i")) * at(next, v("i")))));

  std::cout << "original program:\n" << ir::to_string(p) << "\n";

  const core::OptimizeResult opt = core::optimize(p);
  std::cout << "optimizer log:\n" << opt.pipeline.to_text() << "\n";
  std::cout << "optimized program:\n" << ir::to_string(opt.program) << "\n";

  TextTable t("Predicted time across machines (bandwidth-bound model)");
  t.set_header({"machine", "original ms", "optimized ms", "speedup",
                "mem traffic before", "after"});
  for (const auto& preset : machine::all_presets()) {
    const auto machine = preset.scaled(16);
    const auto before = model::measure(p, machine);
    const auto after = model::measure(opt.program, machine);
    t.add_row({preset.name, fmt_fixed(before.time.total_s * 1e3, 2),
               fmt_fixed(after.time.total_s * 1e3, 2),
               fmt_fixed(before.time.total_s / after.time.total_s, 2) + "x",
               fmt_bytes(static_cast<double>(before.profile.memory_bytes())),
               fmt_bytes(static_cast<double>(after.profile.memory_bytes()))});
    const double drift = std::abs(before.exec.checksum - after.exec.checksum);
    if (drift > 1e-9 * std::abs(before.exec.checksum)) {
      std::cout << "checksum mismatch on " << preset.name << "!\n";
      return 1;
    }
  }
  std::cout << t.render();
  std::cout << "\nall three machines are memory-bound on this chain, so the "
               "~3x traffic cut converts to a ~3x\nspeedup everywhere -- "
               "and the absolute seconds saved scale with how imbalanced "
               "the machine is.\n";
  return 0;
}
