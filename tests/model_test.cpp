#include <gtest/gtest.h>

#include <cmath>

#include "bwc/machine/machine_model.h"
#include "bwc/model/balance.h"
#include "bwc/model/measure.h"
#include "bwc/model/prediction.h"
#include "bwc/support/error.h"
#include "bwc/workloads/paper_programs.h"

namespace bwc::model {
namespace {

machine::ExecutionProfile make_profile(std::uint64_t flops,
                                       std::vector<std::uint64_t> bytes) {
  machine::ExecutionProfile p;
  p.flops = flops;
  const char* names[] = {"L1-Reg", "L2-L1", "Mem-L2"};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    memsim::BoundaryTraffic b;
    b.name = names[i];
    b.bytes_toward_cpu = bytes[i];
    p.boundaries.push_back(b);
  }
  return p;
}

TEST(Balance, FromProfileDividesByFlops) {
  const auto p = make_profile(1000, {8000, 4000, 800});
  const ProgramBalance b = ProgramBalance::from_profile("x", p);
  ASSERT_EQ(b.bytes_per_flop.size(), 3u);
  EXPECT_DOUBLE_EQ(b.bytes_per_flop[0], 8.0);
  EXPECT_DOUBLE_EQ(b.bytes_per_flop[1], 4.0);
  EXPECT_DOUBLE_EQ(b.bytes_per_flop[2], 0.8);
}

TEST(Balance, ZeroFlopsRejected) {
  const auto p = make_profile(0, {100});
  EXPECT_THROW(ProgramBalance::from_profile("x", p), Error);
}

TEST(Balance, DemandSupplyRatios) {
  const machine::MachineModel m = machine::origin2000_r10k();
  ProgramBalance b;
  b.name = "dmxpy";
  b.bytes_per_flop = {8.3, 8.3, 8.4};  // the paper's dmxpy row
  const auto ratios = demand_supply_ratios(b, m);
  EXPECT_NEAR(ratios[0], 2.075, 1e-9);
  EXPECT_NEAR(ratios[2], 10.5, 1e-9);
  // CPU utilization bound ~ 9.5% (the paper's number for dmxpy).
  EXPECT_NEAR(cpu_utilization_bound(ratios), 1.0 / 10.5, 1e-9);
}

TEST(Balance, UtilizationClampedAtFull) {
  EXPECT_DOUBLE_EQ(cpu_utilization_bound({0.5, 0.2}), 1.0);
}

TEST(Balance, RatioTableDepthMismatchThrows) {
  ProgramBalance b;
  b.name = "x";
  b.bytes_per_flop = {1.0};  // one boundary vs machine's three
  EXPECT_THROW(demand_supply_ratios(b, machine::origin2000_r10k()), Error);
}

TEST(Balance, TablesRenderPaperShape) {
  const machine::MachineModel m = machine::origin2000_r10k();
  ProgramBalance conv{"convolution", {6.4, 5.1, 5.2}};
  ProgramBalance dmxpy{"dmxpy", {8.3, 8.3, 8.4}};
  const std::string t1 = render_balance_table({conv, dmxpy}, m);
  EXPECT_NE(t1.find("convolution"), std::string::npos);
  EXPECT_NE(t1.find("L1-Reg"), std::string::npos);
  EXPECT_NE(t1.find("Mem-L2"), std::string::npos);
  EXPECT_NE(t1.find("0.80"), std::string::npos);  // machine row
  const std::string t2 = render_ratio_table({conv, dmxpy}, m);
  EXPECT_NE(t2.find("10.5"), std::string::npos);
  EXPECT_NE(t2.find("%"), std::string::npos);
}

TEST(Measure, RunsProgramOnMachineModel) {
  const machine::MachineModel m = machine::origin2000_r10k().scaled(64);
  const Measurement r =
      measure(workloads::sec21_read_loop(20000), m);
  EXPECT_GT(r.profile.flops, 0u);
  // Streaming read of 160 KB through 64 KB of L2: memory-bound.
  EXPECT_EQ(r.time.binding_resource, "Mem-L2");
  EXPECT_EQ(r.balance.bytes_per_flop.size(), 3u);
  const std::string s = summarize(r);
  EXPECT_NE(s.find("Mem-L2"), std::string::npos);
}

TEST(Measure, WriteLoopVsReadLoopParity) {
  // The Section 2.1 observation as a model property: the RW loop consumes
  // ~2x the memory traffic and so ~2x the predicted time of the R loop.
  const machine::MachineModel m = machine::origin2000_r10k().scaled(16);
  const auto rw = measure(workloads::sec21_write_loop(600000), m);
  const auto ro = measure(workloads::sec21_read_loop(600000), m);
  const double traffic_ratio =
      static_cast<double>(rw.profile.memory_bytes()) /
      static_cast<double>(ro.profile.memory_bytes());
  EXPECT_NEAR(traffic_ratio, 2.0, 0.1);
  EXPECT_NEAR(rw.time.total_s / ro.time.total_s, 2.0, 0.2);
}

// -- Multicore scaling prediction (docs/MODEL.md section 7) ---------------

TEST(Scaling, SaturationCoreCountMatchesHandComputation) {
  // Origin2000: peak 400 MFLOPS, bandwidths 1600/1600/320 MB/s.
  const machine::MachineModel m = machine::origin2000_r10k();
  // 4e8 flops = 1.0 s of compute at one core; 32 MB of memory traffic =
  // 0.1 s on the 320 MB/s bus; cache boundaries negligible. The bus
  // saturates at ceil(1.0 / 0.1) = 10 cores.
  const auto p = make_profile(400000000, {64, 64, 32000000});
  EXPECT_EQ(saturation_core_count(p, m), 10);
}

TEST(Scaling, NoSharedTrafficNeverSaturates) {
  const machine::MachineModel m = machine::origin2000_r10k();
  const auto p = make_profile(1000, {8000, 4000, 0});
  EXPECT_EQ(saturation_core_count(p, m), 0);
}

TEST(Scaling, BusBoundAtOneCoreSaturatesImmediately) {
  // The paper's regime: memory time exceeds every private resource
  // already on a uniprocessor, so more cores buy nothing.
  const machine::MachineModel m = machine::origin2000_r10k();
  const auto p = make_profile(1000, {64, 64, 32000000});
  EXPECT_EQ(saturation_core_count(p, m), 1);
}

TEST(Scaling, CurveKneesAtTheSaturationPoint) {
  const machine::MachineModel m = machine::origin2000_r10k();
  const auto p = make_profile(400000000, {64, 64, 32000000});
  const ScalingCurve curve = scaling_curve("synthetic", p, m, 16);
  ASSERT_EQ(curve.points.size(), 16u);
  EXPECT_EQ(curve.saturation_cores, 10);
  EXPECT_DOUBLE_EQ(curve.points[0].speedup, 1.0);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_LE(curve.points[i].seconds, curve.points[i - 1].seconds);
    EXPECT_GE(curve.points[i].speedup, curve.points[i - 1].speedup);
  }
  // Below the knee compute binds and scaling is ideal; past it the bus
  // binds and the curve is flat at the plateau.
  EXPECT_NEAR(curve.points[4].speedup, 5.0, 1e-9);
  EXPECT_EQ(curve.points[4].binding_resource, "flops");
  EXPECT_EQ(curve.points[15].binding_resource, "Mem-L2");
  EXPECT_DOUBLE_EQ(curve.points[15].seconds, curve.points[10].seconds);
  // Plateau speedup: T(1)=1.0 s over T_shared=0.1 s.
  EXPECT_NEAR(curve.plateau_speedup, 10.0, 1e-9);
  const std::string rendered = render_scaling_curve(curve);
  EXPECT_NE(rendered.find("saturates at 10 cores"), std::string::npos);
}

TEST(Scaling, MeasureHonorsMachineCores) {
  // model::measure replays serially at every core count: the profile,
  // the checksum and the fast-forward engagement must equal the
  // single-core measurement exactly, and the multicore prediction can
  // only be faster.
  const ir::Program p = workloads::fig7_original(20000);
  const machine::MachineModel m1 = machine::origin2000_r10k().scaled(16);
  const machine::MachineModel m8 = m1.with_cores(8);
  const Measurement one = measure(p, m1);
  const Measurement eight = measure(p, m8);
  ASSERT_GT(one.exec.fast_forward_events, 0u);
  EXPECT_EQ(one.exec.checksum, eight.exec.checksum);
  EXPECT_EQ(one.exec.fast_forward_events, eight.exec.fast_forward_events);
  EXPECT_EQ(one.exec.fast_forwarded_iterations,
            eight.exec.fast_forwarded_iterations);
  EXPECT_EQ(one.profile.flops, eight.profile.flops);
  ASSERT_EQ(one.profile.boundaries.size(), eight.profile.boundaries.size());
  for (std::size_t b = 0; b < one.profile.boundaries.size(); ++b) {
    EXPECT_EQ(one.profile.boundaries[b].bytes_toward_cpu,
              eight.profile.boundaries[b].bytes_toward_cpu);
    EXPECT_EQ(one.profile.boundaries[b].bytes_from_cpu,
              eight.profile.boundaries[b].bytes_from_cpu);
  }
  EXPECT_LE(eight.time.total_s, one.time.total_s);
}

}  // namespace
}  // namespace bwc::model
