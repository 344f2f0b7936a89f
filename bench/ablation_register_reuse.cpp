// Ablation: register reuse and the register-bandwidth ceiling.
//
// The paper's balance study (Figure 2) ranks register bandwidth the second
// most critical resource after memory. Its reference [2] (Callahan, Cocke
// & Kennedy) restores register balance by keeping reused array elements in
// registers. This bench composes the two on the blur/sharpen chain: fusion
// + contraction fix the memory boundary, then scalar replacement rotates
// the remaining stencil reads through registers, cutting the L1-Reg
// bytes/flop -- each pass relieves the boundary the tuning report names
// next. (On guarded fused bodies -- e.g. after shifted fusion -- the
// rotation pass conservatively declines; hoisted loads must not evaluate
// subscripts a guard was protecting.)
#include "bench_common.h"

#include <iostream>

#include "bwc/core/optimizer.h"
#include "bwc/model/measure.h"
#include "bwc/support/table.h"
#include "bwc/workloads/extra_programs.h"

int main() {
  using namespace bwc;
  bench::print_header(
      "Ablation: register reuse after fusion (blur/sharpen, n = 200000)");

  const ir::Program p = workloads::blur_sharpen(200000);
  const machine::MachineModel machine = bench::o2k();

  struct Variant {
    const char* name;
    const char* passes;
  };
  TextTable t("Simulated Origin2000 (bytes per flop at each boundary)");
  t.set_header({"pipeline", "L1-Reg", "L2-L1", "Mem-L2", "predicted ms",
                "binding"});
  for (const Variant& variant :
       {Variant{"none", ""},
        Variant{"scalar replacement only", "scalar-replace"},
        Variant{"fusion + contraction", core::kDefaultPipeline},
        Variant{"fusion + contraction + scalar repl.",
                "fuse(solver=best),reduce-storage,eliminate-stores,"
                "scalar-replace"}}) {
    const auto r = core::optimize(p, variant.passes);
    const auto m = model::measure(r.program, machine);
    std::vector<std::string> row = {variant.name};
    for (double b : m.balance.bytes_per_flop) row.push_back(fmt_fixed(b, 2));
    row.push_back(fmt_fixed(m.time.total_s * 1e3, 2));
    row.push_back(m.time.binding_resource);
    t.add_row(row);
  }
  std::cout << t.render();
  std::cout << "\nreading: fusion/contraction fix the memory boundary but "
               "leave register demand alone;\nscalar replacement then cuts "
               "L1-Reg bytes/flop -- the [2] transformation composing with "
               "the\npaper's, one hierarchy level apart.\n";
  return 0;
}
