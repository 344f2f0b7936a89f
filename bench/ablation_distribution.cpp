// Ablation: loop distribution as the inverse of fusion.
//
// Distribution (fission) is the bandwidth *pessimization* the paper's
// fusion undoes: each split loop re-streams its arrays. This bench walks a
// blur/sharpen image chain through distribute -> fuse -> full pipeline and
// shows the traffic moving both directions, plus the normalization
// property: maximal distribution followed by bandwidth-minimal fusion is
// never worse than fusing the original loop structure directly.
#include "bench_common.h"

#include <iostream>

#include "bwc/core/optimizer.h"
#include "bwc/fusion/solvers.h"
#include "bwc/model/measure.h"
#include "bwc/support/table.h"
#include "bwc/transform/distribute.h"
#include "bwc/workloads/extra_programs.h"

int main() {
  using namespace bwc;
  bench::print_header(
      "Ablation: distribution vs fusion on the blur/sharpen chain "
      "(n = 400000)");

  const ir::Program original = workloads::blur_sharpen(400000);
  const machine::MachineModel machine = bench::o2k();

  const ir::Program fused =
      core::optimize(original, "fuse(solver=best)").program;
  const ir::Program full = core::optimize(original).program;
  const ir::Program refissioned =
      transform::distribute_loops(fused).program;

  TextTable t("Simulated Origin2000");
  t.set_header({"version", "loops", "mem traffic", "predicted ms"});
  struct Row {
    const char* name;
    const ir::Program* p;
  };
  for (const Row& row : {Row{"original (4 loops)", &original},
                         Row{"fused", &fused},
                         Row{"fused, then re-distributed", &refissioned},
                         Row{"full pipeline (fuse+contract)", &full}}) {
    const auto m = model::measure(*row.p, machine);
    t.add_row({row.name,
               std::to_string(row.p->top_loop_indices().size()),
               fmt_bytes(static_cast<double>(m.profile.memory_bytes())),
               fmt_fixed(m.time.total_s * 1e3, 2)});
  }
  std::cout << t.render();

  // Normalization: distribute first, then fuse.
  const auto direct =
      fusion::best_fusion(fusion::build_fusion_graph(original));
  const auto d = transform::distribute_loops(original);
  const auto renorm =
      fusion::best_fusion(fusion::build_fusion_graph(d.program));
  std::cout << "\nnormalization: direct fusion cost " << direct.cost
            << ", distribute-then-fuse cost " << renorm.cost
            << " (never worse; distribution gives the solver a clean "
               "slate).\n";
  return 0;
}
