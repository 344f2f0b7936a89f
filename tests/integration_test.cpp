// Cross-module integration tests: each one walks a full paper experiment
// end-to-end at reduced size and asserts the paper's qualitative result
// (the "shape": who wins, by roughly what factor).
#include <gtest/gtest.h>

#include <cmath>

#include "bwc/core/optimizer.h"
#include "bwc/machine/machine_model.h"
#include "bwc/machine/timing.h"
#include "bwc/model/balance.h"
#include "bwc/model/measure.h"
#include "bwc/runtime/recorder.h"
#include "bwc/support/stats.h"
#include "bwc/workloads/kernels.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/sp_proxy.h"
#include "bwc/workloads/stride_kernels.h"
#include "bwc/workloads/stream.h"

namespace bwc {
namespace {

const machine::MachineModel& o2k_scaled() {
  static const machine::MachineModel m = machine::origin2000_r10k().scaled(16);
  return m;
}

// Section 2.1: the write loop takes about twice as long as the read loop.
TEST(Integration, Sec21WriteLoopTwiceAsSlow) {
  const auto rw = model::measure(workloads::sec21_write_loop(200000),
                                 o2k_scaled());
  const auto ro = model::measure(workloads::sec21_read_loop(200000),
                                 o2k_scaled());
  const double ratio = rw.time.total_s / ro.time.total_s;
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 2.2);
  EXPECT_EQ(rw.time.binding_resource, "Mem-L2");
}

// Figure 1/2 shape: the memory boundary is the worst-provisioned level for
// a bandwidth-hungry kernel, and its ratio exceeds the cache levels'.
TEST(Integration, MemoryIsTheWorstLevelForDmxpy) {
  workloads::AddressSpace space;
  workloads::Dmxpy dmxpy(60000, 16, space);
  memsim::MemoryHierarchy h(o2k_scaled().caches);
  runtime::Recorder rec(&h);
  dmxpy.run(rec);
  const auto balance =
      model::ProgramBalance::from_profile("dmxpy", rec.profile());
  const auto ratios =
      model::demand_supply_ratios(balance, machine::origin2000_r10k());
  ASSERT_EQ(ratios.size(), 3u);
  EXPECT_GT(ratios[2], ratios[0]);
  EXPECT_GT(ratios[2], ratios[1]);
  EXPECT_GT(ratios[2], 3.0);  // the paper reports 3.4..10.5 across apps
  EXPECT_LT(model::cpu_utilization_bound(ratios), 0.25);
}

// Figure 1's mm(-O2) vs mm(-O3): blocking collapses the memory balance.
TEST(Integration, BlockingCollapsesMatMulMemoryBalance) {
  workloads::AddressSpace space;
  workloads::MatMul mm(192, space);  // arrays larger than the scaled L2
  memsim::MemoryHierarchy h1(o2k_scaled().caches);
  runtime::Recorder r1(&h1);
  mm.run_jki(r1);
  const auto naive =
      model::ProgramBalance::from_profile("mm-jki", r1.profile());

  mm.reset_c();
  memsim::MemoryHierarchy h2(o2k_scaled().caches);
  runtime::Recorder r2(&h2);
  mm.run_blocked(r2, 16);
  const auto blocked =
      model::ProgramBalance::from_profile("mm-blocked", r2.profile());

  EXPECT_GT(naive.bytes_per_flop[2], 5.0 * blocked.bytes_per_flop[2]);
}

// Figure 3 shape: stride-1 kernels all saturate the memory bandwidth on
// the (set-associative) Origin2000; spread is small.
TEST(Integration, KernelsSaturateMemoryBandwidth) {
  std::vector<double> effective;
  for (const auto& spec : workloads::figure3_kernels()) {
    workloads::AddressSpace space;
    // Arrays several times the scaled L2, like the paper's 16 MB arrays
    // against a 4 MB cache: no reuse across passes.
    workloads::StrideKernel kernel(spec, 150000, space);
    memsim::MemoryHierarchy h(o2k_scaled().caches);
    {
      runtime::Recorder warmup(&h);
      kernel.run(warmup);  // reach steady state (writebacks in flight)
    }
    h.reset_stats();
    runtime::Recorder rec(&h);
    kernel.run(rec);
    const auto t = machine::predict_time(rec.profile(),
                                         machine::origin2000_r10k());
    effective.push_back(machine::effective_bandwidth_mbps(
        kernel.useful_bytes(), t.total_s));
  }
  const Summary s = summarize(effective);
  // All near the 320 MB/s machine limit, within ~25%.
  EXPECT_GT(s.min, 0.75 * 320.0);
  EXPECT_LE(s.max, 320.0 * 1.01);
  EXPECT_LT(relative_spread(effective), 0.35);
}

// Section 2.3: most SP subroutines run at >= 84% memory-bandwidth
// utilization; the flop-heavy line solves sit below.
TEST(Integration, SpSubroutineUtilizationShape) {
  workloads::AddressSpace space;
  workloads::SpProxy sp(12, space);
  int saturated = 0;
  for (int s = 0; s < workloads::SpProxy::kSubroutines; ++s) {
    memsim::MemoryHierarchy h(o2k_scaled().caches);
    runtime::Recorder rec(&h);
    sp.run_subroutine(s, rec);
    const double util = machine::memory_bandwidth_utilization(
        rec.profile(), machine::origin2000_r10k());
    if (util >= 0.84) ++saturated;
  }
  EXPECT_GE(saturated, 4);
  EXPECT_LE(saturated, 6);  // the x/y solves must NOT saturate
}

// Figure 8: fusion alone helps; store elimination stacks to ~2x total.
TEST(Integration, Fig8StoreEliminationStacksToTwoX) {
  const ir::Program original = workloads::fig7_original(150000);

  const auto fused = core::optimize(original, "fuse(solver=best)");
  const auto full = core::optimize(original);

  const auto t0 = model::measure(original, o2k_scaled()).time.total_s;
  const auto t1 = model::measure(fused.program, o2k_scaled()).time.total_s;
  const auto t2 = model::measure(full.program, o2k_scaled()).time.total_s;

  EXPECT_LT(t1, t0);            // fusion helps
  EXPECT_LT(t2, t1);            // store elimination helps further
  EXPECT_NEAR(t0 / t2, 2.0, 0.25);  // combined ~2x (paper: 0.32 -> 0.16 s)
}

// STREAM against the simulated machine recovers the machine's memory
// bandwidth (footnote 2's measurement protocol).
TEST(Integration, StreamMeasuresMachineBandwidth) {
  workloads::AddressSpace space;
  workloads::Stream stream(100000, space);
  memsim::MemoryHierarchy h(o2k_scaled().caches);
  {
    runtime::Recorder warmup(&h);
    stream.run(workloads::StreamOp::kTriad, warmup);
  }
  h.reset_stats();
  runtime::Recorder rec(&h);
  stream.run(workloads::StreamOp::kTriad, rec);
  const auto t =
      machine::predict_time(rec.profile(), machine::origin2000_r10k());
  const double bw = machine::effective_bandwidth_mbps(
      stream.useful_bytes(workloads::StreamOp::kTriad), t.total_s);
  // STREAM counts 24 bytes per triad element while a write-allocate cache
  // moves 32 (the target line is fetched before being overwritten), so the
  // reported number sits at ~3/4 of the raw machine bandwidth -- exactly
  // the gap real STREAM shows on write-allocate machines.
  const double ratio = bw / machine::origin2000_r10k().memory_bandwidth_mbps();
  EXPECT_GT(ratio, 0.70);
  EXPECT_LE(ratio, 1.01);
}

// The full pipeline keeps Figure 6 semantics while slashing both footprint
// and predicted time.
TEST(Integration, Fig6PipelineReducesTrafficAndTime) {
  const ir::Program p = workloads::fig6_original(200);
  const auto opt = core::optimize(p);
  const auto before = model::measure(p, o2k_scaled());
  const auto after = model::measure(opt.program, o2k_scaled());
  EXPECT_NEAR(before.exec.checksum, after.exec.checksum,
              1e-9 * std::abs(before.exec.checksum));
  EXPECT_LT(after.profile.memory_bytes(),
            before.profile.memory_bytes() / 10);
  EXPECT_LT(after.time.total_s, before.time.total_s / 2);
}

}  // namespace
}  // namespace bwc
