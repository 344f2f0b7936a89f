// Figure 8: effect of store elimination.
//
// Paper measurements for the Figure 7 program:
//                    original   fusion only   + store elimination
//   Origin2000        0.32 s      0.22 s           0.16 s
//   Exemplar          0.24 s      0.21 s           0.14 s
// "The combined effect is a speedup of almost 2 on both machines."
#include "bench_common.h"

#include <iostream>

#include "bwc/core/optimizer.h"
#include "bwc/model/measure.h"
#include "bwc/support/table.h"
#include "bwc/workloads/paper_programs.h"

int main() {
  using namespace bwc;
  bench::print_header("Figure 8: effect of store elimination (N = 2,000,000)");

  const std::int64_t n = 2000000;
  const ir::Program original = workloads::fig7_original(n);

  const ir::Program fused =
      core::optimize(original, "fuse(solver=best)").program;
  const ir::Program eliminated = core::optimize(original).program;

  struct MachineUnderTest {
    machine::MachineModel scaled;
    machine::MachineModel full;
  };
  const MachineUnderTest machines[] = {
      {bench::o2k(), machine::origin2000_r10k()},
      {bench::exemplar(), machine::exemplar_pa8000()},
  };

  TextTable t("Predicted execution time (bandwidth-bound model, seconds)");
  t.set_header({"machine", "original", "fusion only", "store elimination",
                "total speedup"});
  for (const auto& m : machines) {
    double times[3];
    const ir::Program* versions[] = {&original, &fused, &eliminated};
    for (int i = 0; i < 3; ++i) {
      memsim::MemoryHierarchy h = m.scaled.make_hierarchy();
      runtime::ExecOptions opts;
      opts.hierarchy = &h;
      const auto exec = runtime::execute(*versions[i], opts);
      times[i] = machine::predict_time(exec.profile, m.full).total_s;
    }
    t.add_row({m.full.name, fmt_fixed(times[0], 3), fmt_fixed(times[1], 3),
               fmt_fixed(times[2], 3),
               fmt_fixed(times[0] / times[2], 2) + "x"});
  }
  std::cout << t.render();
  std::cout << "\npaper: Origin2000 0.32 / 0.22 / 0.16 s (2.0x); "
               "Exemplar 0.24 / 0.21 / 0.14 s (1.7x)\n"
               "claim under reproduction: fusion alone helps; removing the "
               "writeback stacks to ~2x.\n";
  return 0;
}
