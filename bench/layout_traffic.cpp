// Layout-transform line traffic: what the fourth transform family buys.
//
//   layout_traffic [--smoke] [--json]
//
// Replays each workload against a single-level cache with the layout
// estimator's reference geometry (32 KiB, 32-byte lines, 2-way -- the
// memsim L1 default) before and after the layout passes, and reports the
// line-traffic ratio plus the per-array breakdown the passes publish in
// their PassReport (the per_array remark field). The simulation is
// deterministic, so every ratio is exactly reproducible and pinned in
// BENCH_baseline.json via tools/check_bench_regression.py.
//
//   stride            bwcopt's --program stride (transposed_sweep 256)
//                     under the full layout pipeline: transpose fixes the
//                     input image's column walk, padding de-conflicts the
//                     output that is swept in both orders.
//   transposed_sweep  the same program at 512 x 512 (column stride 4 KiB:
//                     every sweep maps onto 4 of 512 sets).
//   conflict_streams  three 16 KiB read streams whose bases share one
//                     set phase; regroup-arrays interleaves them into a
//                     single stream.
//
// --smoke enforces the acceptance floors and exits non-zero when any
// fails:
//   - every workload's checksum is bit-identical before and after;
//   - every layout pipeline is verified (core::optimize runs with
//     verification on; a refuted pass would throw);
//   - line traffic shrinks >= 1.5x on stride and transposed_sweep, and
//     on conflict_streams;
//   - the layout passes publish a non-empty per-array breakdown.
// --json emits one JSON object for the regression checker.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bwc/core/optimizer.h"
#include "bwc/ir/program.h"
#include "bwc/memsim/cache_config.h"
#include "bwc/memsim/hierarchy.h"
#include "bwc/pass/report.h"
#include "bwc/runtime/compiled.h"
#include "bwc/workloads/extra_programs.h"

namespace {

using namespace bwc;

constexpr double kRatioFloor = 1.5;

struct Case {
  std::string key;
  ir::Program program;
  std::string passes;
};

struct Measured {
  std::uint64_t line_bytes = 0;
  double checksum = 0.0;
};

/// Cold replay against one default-geometry cache level: the boundary
/// behind it sees exactly the line traffic the layout estimator models.
Measured measure(const ir::Program& program) {
  memsim::MemoryHierarchy h({memsim::CacheConfig{}});
  runtime::ExecOptions opts;
  opts.hierarchy = &h;
  const runtime::ExecResult r = runtime::execute_compiled(program, opts);
  return {h.memory_traffic_bytes(), r.checksum};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const std::string full = "transpose-layout,regroup-arrays,pad-arrays";
  std::vector<Case> cases;
  cases.push_back({"stride", workloads::transposed_sweep(256), full});
  cases.push_back(
      {"transposed_sweep", workloads::transposed_sweep(512), full});
  cases.push_back(
      {"conflict_streams", workloads::conflict_streams(2048, 3),
       "regroup-arrays"});

  if (!json) {
    bench::print_header("Layout passes: line traffic before/after" +
                        std::string(smoke ? " (smoke)" : ""));
    std::printf("%-18s %14s %14s %8s\n", "workload", "before B", "after B",
                "ratio");
  }

  bool ok = true;
  std::vector<std::pair<std::string, double>> metrics;
  for (const Case& c : cases) {
    const Measured before = measure(c.program);

    // Verification stays on (the PipelineOptions default).
    const core::OptimizeResult result = core::optimize(c.program, c.passes);
    const Measured after = measure(result.program);

    const double ratio = static_cast<double>(before.line_bytes) /
                         static_cast<double>(after.line_bytes > 0
                                                 ? after.line_bytes
                                                 : 1);
    metrics.emplace_back("line_ratio_" + c.key, ratio);

    bool breakdown = false;
    for (const pass::PassReport& p : result.pipeline.passes)
      if (!p.per_array.empty()) breakdown = true;

    if (!json) {
      std::printf("%-18s %14llu %14llu %7.2fx\n", c.key.c_str(),
                  static_cast<unsigned long long>(before.line_bytes),
                  static_cast<unsigned long long>(after.line_bytes), ratio);
      for (const pass::PassReport& p : result.pipeline.passes) {
        if (!p.changed) continue;
        for (const pass::ArrayTraffic& t : p.per_array) {
          if (t.bytes_before == t.bytes_after) continue;
          std::printf("    %s: %s estimated %lld -> %lld bytes\n",
                      p.pass.c_str(), t.name.c_str(),
                      static_cast<long long>(t.bytes_before),
                      static_cast<long long>(t.bytes_after));
        }
      }
    }

    if (before.checksum != after.checksum) {
      std::printf("FAIL: %s checksum changed (%.17g -> %.17g)\n",
                  c.key.c_str(), before.checksum, after.checksum);
      ok = false;
    }
    if (smoke && ratio < kRatioFloor) {
      std::printf("FAIL: %s line-traffic ratio %.2fx below the %.1fx floor\n",
                  c.key.c_str(), ratio, kRatioFloor);
      ok = false;
    }
    if (smoke && !breakdown) {
      std::printf("FAIL: %s pipeline published no per-array breakdown\n",
                  c.key.c_str());
      ok = false;
    }
  }

  if (json) {
    std::printf("{\"bench\": \"layout_traffic\"");
    for (const auto& [key, value] : metrics)
      std::printf(", \"%s\": %.3f", key.c_str(), value);
    std::printf("}\n");
  }
  return ok ? 0 : 1;
}
