// Ablation: contribution of each pipeline pass.
//
// DESIGN.md design-choice #3: run the Figure 6 and Figure 7 programs with
// every subset of {fusion, storage reduction, store elimination} and
// report memory traffic and predicted time, isolating each pass's share
// of the total win.
#include "bench_common.h"

#include <iostream>

#include "bwc/core/optimizer.h"
#include "bwc/model/measure.h"
#include "bwc/support/table.h"
#include "bwc/workloads/paper_programs.h"

int main() {
  using namespace bwc;
  bench::print_header("Ablation: pipeline pass subsets");

  const machine::MachineModel machine = bench::o2k();

  struct Variant {
    const char* name;
    const char* passes;
  };
  const Variant variants[] = {
      {"none", ""},
      {"fusion", "fuse(solver=best)"},
      {"fusion + storage reduction", "fuse(solver=best),reduce-storage"},
      {"fusion + store elimination", "fuse(solver=best),eliminate-stores"},
      {"full pipeline", core::kDefaultPipeline},
      {"storage reduction only", "reduce-storage"},
      {"store elimination only", "eliminate-stores"},
  };

  for (auto maker : {workloads::fig7_original, workloads::fig6_original}) {
    const std::int64_t n =
        maker == workloads::fig7_original ? 400000 : 400;
    const ir::Program original = maker(n);
    const double base_checksum =
        model::measure(original, machine).exec.checksum;

    TextTable t(original.name() + " (N = " + std::to_string(n) + ")");
    t.set_header({"passes", "mem traffic", "predicted ms", "speedup",
                  "semantics"});
    double base_time = 0.0;
    for (const auto& variant : variants) {
      const auto optimized = core::optimize(original, variant.passes);
      const auto m = model::measure(optimized.program, machine);
      if (base_time == 0.0) base_time = m.time.total_s;
      const bool same = std::abs(m.exec.checksum - base_checksum) <=
                        1e-9 * (std::abs(base_checksum) + 1.0);
      t.add_row({variant.name,
                 fmt_bytes(static_cast<double>(m.profile.memory_bytes())),
                 fmt_fixed(m.time.total_s * 1e3, 2),
                 fmt_fixed(base_time / m.time.total_s, 2) + "x",
                 same ? "preserved" : "BROKEN"});
    }
    std::cout << t.render() << "\n";
  }
  std::cout << "reading: storage passes depend on fusion having localized "
               "live ranges first -- alone they find nothing, matching the "
               "paper's pipeline ordering.\n";
  return 0;
}
