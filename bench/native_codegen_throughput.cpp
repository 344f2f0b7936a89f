// Native codegen throughput: wall-clock of the dlopen'ed specialized-C
// engine (runtime/codegen.h) against the bytecode VM it replaces, on
// stride-1 stream kernels at fig3 scale.
//
// Two legs per kernel. The `values` leg replays without a memory
// hierarchy: both engines compute the same values and counters (the VM
// counts access by access, the native kernels in bulk), so the ratio
// isolates loop-kernel quality -- the VM's per-iteration stream
// interpreter vs a host-compiled plain `for` loop -- and carries the hard
// >= 2x regression floor in --smoke. The `sim` leg replays against the
// O2K hierarchy with coalescing and fast-forward in the measurement
// configuration; per-access simulation dominates there, so its speedup
// is modest and is guarded by the 20% regression check against
// BENCH_baseline.json rather than an absolute floor. The reduce kernel
// is the non-periodic representative: store-free reductions are never
// fast-forwarded, so its sim leg is honest end-to-end replay.
//
//   native_codegen_throughput [--smoke] [--json]
//
// --smoke shrinks sizes and exits non-zero if any engine pair disagrees
// on any observable or the median values-leg speedup falls below the
// floor -- CI runs this mode. --json emits one JSON object of metrics
// for tools/check_bench_regression.py. Numbers are in EXPERIMENTS.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bwc/ir/dsl.h"
#include "bwc/runtime/codegen.h"
#include "bwc/runtime/compiled.h"

namespace {

using namespace bwc;

// Median of the values-leg speedups must clear this in --smoke. Measured
// ratios are well above (see EXPERIMENTS.md); a broken emitter or a
// silently engaged fallback collapses the ratio to ~1x and trips it.
constexpr double kValuesSpeedupFloor = 2.0;

ir::Program stride1_update(std::int64_t n, std::int64_t reps) {
  using namespace ir::dsl;  // NOLINT
  ir::Program p("stride1 update x" + std::to_string(reps));
  const ir::ArrayId a = p.add_array("A", {n});
  p.mark_output_array(a);
  p.append(loop("r", 1, reps,
                loop("i", 1, n,
                     assign(a, {v("i")}, at(a, v("i")) + lit(0.4)))));
  return p;
}

ir::Program stride1_1w2r(std::int64_t n, std::int64_t reps) {
  using namespace ir::dsl;  // NOLINT
  ir::Program p("stride1 1w2r x" + std::to_string(reps));
  const ir::ArrayId a = p.add_array("A", {n});
  const ir::ArrayId b = p.add_array("B", {n});
  p.mark_output_array(a);
  p.append(loop("r", 1, reps,
                loop("i", 1, n,
                     assign(a, {v("i")},
                            at(a, v("i")) + at(b, v("i"))))));
  return p;
}

/// Repeated full-array sum into a scalar: a one-statement reduction
/// stream loop, which has no store, so it never fast-forwards and always
/// replays per iteration.
ir::Program stride1_reduce(std::int64_t n, std::int64_t reps) {
  using namespace ir::dsl;  // NOLINT
  ir::Program p("stride1 reduce x" + std::to_string(reps));
  const ir::ArrayId a = p.add_array("A", {n});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("r", 1, reps,
                loop("i", 1, n, assign("s", sref("s") + at(a, v("i"))))));
  return p;
}

double seconds_of(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

bool results_match(const runtime::ExecResult& a, const runtime::ExecResult& b,
                   const char* label) {
  bool ok = a.checksum == b.checksum && a.flops == b.flops &&
            a.loads == b.loads && a.stores == b.stores &&
            a.scalars == b.scalars &&
            a.profile.boundaries.size() == b.profile.boundaries.size();
  if (ok) {
    for (std::size_t i = 0; i < a.profile.boundaries.size(); ++i) {
      ok = ok &&
           a.profile.boundaries[i].bytes_toward_cpu ==
               b.profile.boundaries[i].bytes_toward_cpu &&
           a.profile.boundaries[i].bytes_from_cpu ==
               b.profile.boundaries[i].bytes_from_cpu;
    }
  }
  if (!ok) std::printf("!! native/VM mismatch on %s\n", label);
  return ok;
}

struct Row {
  double vm_s = 0.0;
  double native_s = 0.0;
  double speedup() const { return vm_s / native_s; }
};

/// Time the VM and the precompiled native workload on identical options
/// (compile/dlopen cost stays outside the timed region; the cache makes
/// it a one-time cost in real use too). `run(use_native)` owns the
/// per-run hierarchy so every replay starts cold.
Row time_pair(const std::function<runtime::ExecResult(bool)>& run, int reps,
              const char* label, bool* exact) {
  *exact = results_match(run(false), run(true), label) && *exact;
  Row row;
  row.vm_s = seconds_of([&] { run(false); }, reps);
  row.native_s = seconds_of([&] { run(true); }, reps);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  if (!runtime::host_compiler_available({})) {
    std::printf("SKIP: no host C compiler for --engine native\n");
    // Nothing to gate without a toolchain; the codegen CI job installs
    // one, so a silent skip there would fail the differential tests
    // first.
    return 0;
  }

  const std::int64_t n = smoke ? 2000000 : 6000000;
  const std::int64_t sweeps = smoke ? 4 : 8;
  const int reps = smoke ? 3 : 5;
  const machine::MachineModel o2k = bench::o2k();

  if (!json) {
    bench::print_header(
        "Native codegen: dlopen'ed kernels vs bytecode VM" +
        std::string(smoke ? " (smoke)" : ""));
    std::printf("%-24s %6s %10s %10s %9s\n", "program", "leg", "vm s",
                "native s", "speedup");
  }

  bool exact = true;
  std::vector<double> values_speedups;
  std::vector<std::pair<std::string, double>> metrics;
  // `emit_sim` only for the reduce kernel: the update/1w2r sim legs are
  // fast-forwarded down to milliseconds, so their ratios hover near 1x
  // with scheduler-level noise -- printed for humans, not baselined.
  const auto bench_one = [&](const ir::Program& p, const char* key,
                             bool emit_sim) {
    const runtime::LoweredProgram lowered = runtime::lower(p);
    const runtime::CompiledWorkload native = runtime::compile_workload(lowered);

    // Values leg: no hierarchy, bulk counters only. This is the gated
    // ratio -- pure kernel throughput.
    const Row values = time_pair(
        [&](bool use_native) {
          runtime::ExecOptions opts;
          return use_native
                     ? runtime::execute_lowered_native(lowered, opts, native)
                     : runtime::execute_lowered(lowered, opts);
        },
        reps, p.name().c_str(), &exact);
    values_speedups.push_back(values.speedup());
    metrics.emplace_back(std::string("speedup_values_") + key,
                         values.speedup());
    if (!json)
      std::printf("%-24s %6s %10.4f %10.4f %8.2fx\n", p.name().c_str(),
                  "values", values.vm_s, values.native_s, values.speedup());

    // Sim leg: full measurement configuration (hierarchy, coalescing,
    // fast-forward). Baseline-tracked, no absolute floor.
    const Row sim = time_pair(
        [&](bool use_native) {
          memsim::MemoryHierarchy h = o2k.make_hierarchy();
          runtime::ExecOptions opts;
          opts.hierarchy = &h;
          return use_native
                     ? runtime::execute_lowered_native(lowered, opts, native)
                     : runtime::execute_lowered(lowered, opts);
        },
        reps, p.name().c_str(), &exact);
    if (emit_sim)
      metrics.emplace_back(std::string("speedup_sim_") + key, sim.speedup());
    if (!json)
      std::printf("%-24s %6s %10.4f %10.4f %8.2fx\n", p.name().c_str(), "sim",
                  sim.vm_s, sim.native_s, sim.speedup());
  };

  bench_one(stride1_reduce(n, sweeps), "reduce", /*emit_sim=*/true);
  bench_one(stride1_update(n, sweeps), "update", /*emit_sim=*/false);
  bench_one(stride1_1w2r(n, sweeps), "1w2r", /*emit_sim=*/false);

  std::sort(values_speedups.begin(), values_speedups.end());
  const double median = values_speedups[values_speedups.size() / 2];
  metrics.emplace_back("speedup_values_median", median);

  if (json) {
    std::printf("{\"bench\": \"native_codegen_throughput\"");
    for (const auto& [key, value] : metrics)
      std::printf(", \"%s\": %.3f", key.c_str(), value);
    std::printf("}\n");
  } else {
    std::printf("\nexactness: %s, median values speedup: %.2fx\n",
                exact ? "byte-identical" : "MISMATCH", median);
  }
  if (!exact) return 1;
  if (smoke && median < kValuesSpeedupFloor) {
    std::printf("FAIL: median values speedup below floor %.1fx\n",
                kValuesSpeedupFloor);
    return 1;
  }
  return 0;
}
