// Figure 6: array shrinking and peeling.
//
// The paper's running example: after fusion, the two N^2 arrays a and b
// collapse to two N-sized arrays plus two scalars ("a dramatic reduction
// in storage space"), cutting bandwidth consumption at every hierarchy
// level. This binary runs the original, fused, and storage-reduced
// programs on the simulated Origin2000 and reports footprint, per-level
// traffic and predicted time.
#include "bench_common.h"

#include <iostream>

#include "bwc/core/optimizer.h"
#include "bwc/ir/printer.h"
#include "bwc/model/measure.h"
#include "bwc/support/table.h"
#include "bwc/transform/storage_reduction.h"
#include "bwc/workloads/paper_programs.h"

int main() {
  using namespace bwc;
  bench::print_header("Figure 6: array shrinking and peeling (N = 512)");

  const std::int64_t n = 512;
  const machine::MachineModel machine = bench::o2k();
  const ir::Program original = workloads::fig6_original(n);

  const ir::Program fused =
      core::optimize(original, "fuse(solver=best)").program;
  const core::OptimizeResult full = core::optimize(original);

  TextTable t("Simulated Origin2000 (caches/16)");
  t.set_header({"version", "referenced bytes", "L1-Reg", "L2-L1", "Mem-L2",
                "predicted ms", "checksum"});
  const ir::Program* versions[] = {&original, &fused, &full.program};
  const char* names[] = {"original", "after fusion",
                         "after shrinking+peeling"};
  for (int i = 0; i < 3; ++i) {
    const auto m = model::measure(*versions[i], machine);
    std::vector<std::string> row = {
        names[i],
        fmt_bytes(static_cast<double>(
            transform::referenced_array_bytes(*versions[i])))};
    for (const auto& b : m.profile.boundaries)
      row.push_back(fmt_bytes(static_cast<double>(b.total())));
    row.push_back(fmt_fixed(m.time.total_s * 1e3, 2));
    row.push_back(fmt_fixed(m.exec.checksum, 3));
    t.add_row(row);
  }
  std::cout << t.render();

  std::cout << "\npass log:\n" << full.pipeline.to_text();
  std::cout << "\npaper: two N^2 arrays -> two N arrays + two scalars.\n"
            << "here:  two N^2 arrays -> three N buffers + one scalar\n"
            << "       (cur/prev column pair instead of scalar+column;\n"
            << "       same N^2 -> N asymptotics).\n";
  std::cout << "\nstorage-reduced program:\n"
            << ir::to_string(full.program);
  return 0;
}
