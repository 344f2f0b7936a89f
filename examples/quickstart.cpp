// Quickstart: run the paper's store-elimination example (Figure 7) and the
// array shrinking/peeling example (Figure 6) through the full
// bandwidth-reduction pipeline, and show the balance model's verdict.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "bwc/core/optimizer.h"
#include "bwc/ir/printer.h"
#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/support/table.h"
#include "bwc/transform/storage_reduction.h"
#include "bwc/workloads/paper_programs.h"

int main() {
  using namespace bwc;

  const machine::MachineModel o2k = machine::origin2000_r10k().scaled(16);

  for (auto maker : {workloads::fig7_original, workloads::fig6_original}) {
    const ir::Program original = maker(/*n=*/ maker == workloads::fig7_original
                                                  ? 200000
                                                  : 400);
    std::cout << "==== " << original.name() << " ====\n";
    std::cout << ir::to_string(original) << "\n";

    const model::Measurement before = model::measure(original, o2k);
    std::cout << "before: " << model::summarize(before) << "\n\n";

    const core::OptimizeResult opt = core::optimize(original);
    std::cout << "passes:\n" << opt.pipeline.to_text() << "\n";
    std::cout << ir::to_string(opt.program) << "\n";

    const model::Measurement after = model::measure(opt.program, o2k);
    std::cout << "after:  " << model::summarize(after) << "\n";
    const double speedup = before.time.total_s / after.time.total_s;
    std::cout << "model speedup: " << fmt_fixed(speedup, 2) << "x, checksum "
              << (std::abs(before.exec.checksum - after.exec.checksum) <=
                          1e-9 * std::abs(before.exec.checksum)
                      ? "preserved"
                      : "MISMATCH!")
              << "\n\n";
  }
  return 0;
}
