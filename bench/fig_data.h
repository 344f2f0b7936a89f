// Row computation shared between the figure binaries and the golden-file
// regression tests (tests/bench_golden_test.cpp).
//
// Everything here is deterministic simulation: traffic comes from the
// memory-hierarchy simulator (bit-stable by construction) and times from
// the analytic bandwidth-bound model, so the same rows can be checked
// into tests/golden/ and diffed on every CI run. The binaries own the
// presentation (tables, commentary, CSV files); this header owns the
// numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bwc/core/optimizer.h"
#include "bwc/support/csv.h"
#include "bwc/support/table.h"
#include "bwc/machine/timing.h"
#include "bwc/model/measure.h"
#include "bwc/model/prediction.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/stride_kernels.h"

namespace bwc::bench {

// ---- Figure 3: stride-1 kernel effective bandwidth ----------------------

struct Fig3Row {
  std::string kernel;
  double o2k_mbps = 0.0;
  double exemplar_mbps = 0.0;
};

/// Steady-state effective bandwidth of one kernel: traffic measured on the
/// scaled-cache machine (paper-scale working-set/cache ratio), time
/// evaluated on the full machine's bandwidths.
inline double fig3_effective_mbps(const machine::MachineModel& scaled_machine,
                                  const machine::MachineModel& full_machine,
                                  const workloads::StrideKernelSpec& spec,
                                  std::int64_t n) {
  workloads::AddressSpace space;
  workloads::StrideKernel kernel(spec, n, space);
  const auto profile = steady_state_profile(
      scaled_machine, [&](auto& rec) { kernel.run(rec); });
  const auto t = machine::predict_time(profile, full_machine);
  return machine::effective_bandwidth_mbps(kernel.useful_bytes(), t.total_s);
}

inline constexpr std::int64_t kFig3N = 150000;  // ~1.2 MB arrays vs 256 KB

inline std::vector<Fig3Row> fig3_rows(std::int64_t n = kFig3N) {
  std::vector<Fig3Row> rows;
  for (const auto& spec : workloads::figure3_kernels()) {
    Fig3Row r;
    r.kernel = spec.name;
    r.o2k_mbps =
        fig3_effective_mbps(o2k(), machine::origin2000_r10k(), spec, n);
    r.exemplar_mbps =
        fig3_effective_mbps(exemplar(), machine::exemplar_pa8000(), spec, n);
    rows.push_back(r);
  }
  return rows;
}

/// The exact CSV the fig3 binary writes; the golden test compares this
/// (cell for cell, numeric cells under tolerance) against
/// tests/golden/fig3_kernel_bandwidth.csv.
inline CsvWriter fig3_csv(const std::vector<Fig3Row>& rows) {
  CsvWriter csv({"kernel", "o2k_mbps", "exemplar_mbps"});
  for (const auto& r : rows)
    csv.add_row({r.kernel, fmt_fixed(r.o2k_mbps, 2),
                 fmt_fixed(r.exemplar_mbps, 2)});
  return csv;
}

// ---- Multicore scaling: speedup vs cores, original vs optimized ---------

struct ScalingRow {
  std::string workload;  // fig7 | sec21
  std::string variant;   // original | optimized
  int cores = 1;
  double predicted_ms = 0.0;
  double speedup = 1.0;  // T(1) / T(cores), same variant
  std::string binding;
  /// Bus-saturation prediction for this (workload, variant); repeated on
  /// every row of the group so the CSV is self-contained.
  int saturation_cores = 0;
};

inline constexpr int kScalingMaxCores = 8;
inline constexpr std::int64_t kScalingN = 100000;

/// Machine for the scaling figure: the Origin2000 with the memory bus
/// upgraded 8x -- inside the 3.4-10.5x range Section 2.3 of the paper
/// says these codes need to reach full single-core utilization. On the
/// stock O2K every workload is bus-bound already at one core (the
/// paper's point; the curve is flat at speedup 1), so the multicore knee
/// only becomes visible once the single-core bottleneck is relieved:
/// cores then re-saturate the shared bus, and the compiler's traffic
/// reduction is what pushes the knee out.
inline machine::MachineModel scaling_machine() {
  machine::MachineModel m = o2k();
  m.name += " (8x bus)";
  m.boundary_bandwidth_mbps.back() *= 8.0;
  return m;
}

/// Speedup-vs-cores rows for the paper workloads on the Origin2000 model,
/// before and after the bandwidth optimizer. The profile is measured once
/// per variant (replay is serial, so traffic does not depend on the core
/// count) and the multicore shared-bandwidth timing model is evaluated at
/// each core count. Optimization lowers shared-bus traffic, so the
/// optimized curves saturate later and plateau higher (gated in
/// fig_multicore_scaling and in the golden test).
inline std::vector<ScalingRow> multicore_scaling_rows(
    int max_cores = kScalingMaxCores) {
  const machine::MachineModel machine = scaling_machine();
  struct Workload {
    std::string name;
    ir::Program program;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"fig7", bwc::workloads::fig7_original(kScalingN)});
  workloads.push_back({"sec21", bwc::workloads::sec21_both_loops(kScalingN)});

  std::vector<ScalingRow> rows;
  for (const Workload& w : workloads) {
    const core::OptimizeResult opt = core::optimize(w.program);
    const struct {
      const char* variant;
      const ir::Program& program;
    } variants[] = {{"original", w.program}, {"optimized", opt.program}};
    for (const auto& v : variants) {
      const model::Measurement m = model::measure(v.program, machine);
      const model::ScalingCurve curve =
          model::scaling_curve(w.name + "/" + v.variant, m.profile, machine,
                               max_cores);
      for (const model::ScalingPoint& p : curve.points) {
        ScalingRow r;
        r.workload = w.name;
        r.variant = v.variant;
        r.cores = p.cores;
        r.predicted_ms = p.seconds * 1e3;
        r.speedup = p.speedup;
        r.binding = p.binding_resource;
        r.saturation_cores = curve.saturation_cores;
        rows.push_back(r);
      }
    }
  }
  return rows;
}

/// The exact CSV the fig_multicore_scaling binary writes; golden-locked
/// against tests/golden/fig_multicore_scaling.csv.
inline CsvWriter multicore_scaling_csv(const std::vector<ScalingRow>& rows) {
  CsvWriter csv({"workload", "variant", "cores", "predicted_ms", "speedup",
                 "binding", "saturation_cores"});
  for (const auto& r : rows)
    csv.add_row({r.workload, r.variant, std::to_string(r.cores),
                 fmt_fixed(r.predicted_ms, 4), fmt_fixed(r.speedup, 3),
                 r.binding, std::to_string(r.saturation_cores)});
  return csv;
}

}  // namespace bwc::bench
