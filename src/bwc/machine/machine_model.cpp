#include "bwc/machine/machine_model.h"

#include <algorithm>

#include "bwc/support/error.h"

namespace bwc::machine {

void MachineModel::validate() const {
  BWC_CHECK(peak_mflops > 0.0, "peak flop rate must be positive");
  BWC_CHECK(boundary_bandwidth_mbps.size() == caches.size() + 1,
            "need one bandwidth per hierarchy boundary");
  for (double bw : boundary_bandwidth_mbps)
    BWC_CHECK(bw > 0.0, "bandwidths must be positive");
  BWC_CHECK(core_count >= 1, "core count must be at least 1");
  BWC_CHECK(boundary_shared.empty() ||
                boundary_shared.size() == boundary_bandwidth_mbps.size(),
            "need one sharing flag per hierarchy boundary (or none)");
  for (const auto& c : caches) c.validate();
}

bool MachineModel::is_shared(std::size_t b) const {
  BWC_CHECK(b < boundary_bandwidth_mbps.size(), "boundary out of range");
  if (boundary_shared.empty())
    return b + 1 == boundary_bandwidth_mbps.size();
  return boundary_shared[b];
}

double MachineModel::aggregate_bandwidth_mbps(std::size_t b) const {
  const double bw = boundary_bandwidth_mbps[b];
  return is_shared(b) ? bw : bw * core_count;
}

double MachineModel::aggregate_peak_mflops() const {
  return peak_mflops * core_count;
}

MachineModel MachineModel::with_cores(int cores) const {
  BWC_CHECK(cores >= 1, "core count must be at least 1");
  MachineModel m = *this;
  m.core_count = cores;
  return m;
}

std::vector<double> MachineModel::machine_balance() const {
  validate();
  std::vector<double> balance;
  balance.reserve(boundary_bandwidth_mbps.size());
  for (std::size_t b = 0; b < boundary_bandwidth_mbps.size(); ++b)
    balance.push_back(aggregate_bandwidth_mbps(b) / aggregate_peak_mflops());
  return balance;
}

double MachineModel::memory_bandwidth_mbps() const {
  BWC_CHECK(!boundary_bandwidth_mbps.empty(), "model has no bandwidths");
  return boundary_bandwidth_mbps.back();
}

memsim::MemoryHierarchy MachineModel::make_hierarchy() const {
  validate();
  return memsim::MemoryHierarchy(caches);
}

MachineModel MachineModel::scaled(std::uint64_t divisor) const {
  BWC_CHECK(divisor >= 1, "scale divisor must be at least 1");
  MachineModel m = *this;
  if (divisor == 1) return m;
  m.name += " (caches/" + std::to_string(divisor) + ")";
  for (auto& c : m.caches) {
    const std::uint64_t min_size = c.line_bytes * std::max<std::uint64_t>(
                                                      4, c.ways());
    c.size_bytes = std::max(c.size_bytes / divisor, min_size);
  }
  return m;
}

MachineModel origin2000_r10k() {
  MachineModel m;
  m.name = "Origin2000 (R10K)";
  m.peak_mflops = 400.0;  // 200 MHz x 2 flops/cycle (fused multiply-add)
  // Machine balance 4 / 4 / 0.8 bytes per flop => 1600 / 1600 / 320 MB/s.
  m.boundary_bandwidth_mbps = {1600.0, 1600.0, 320.0};
  m.caches = {
      {.name = "L1",
       .size_bytes = 32 * 1024,
       .line_bytes = 32,
       .associativity = 2},
      {.name = "L2",
       .size_bytes = 4 * 1024 * 1024,
       .line_bytes = 128,
       .associativity = 2},
  };
  m.startup_overhead_s = 0.0;
  m.validate();
  return m;
}

MachineModel exemplar_pa8000() {
  MachineModel m;
  m.name = "Exemplar (PA-8000)";
  m.peak_mflops = 720.0;  // 180 MHz x 2 flops/cycle
  // Registers<->cache ~4 B/flop; memory ~0.78 B/flop (560 MB/s).
  m.boundary_bandwidth_mbps = {2880.0, 560.0};
  m.caches = {
      {.name = "L1",
       .size_bytes = 1024 * 1024,
       .line_bytes = 32,
       .associativity = 1,  // direct-mapped off-chip data cache
       // Physically indexed: random page placement produces the
       // stream-count-dependent conflicts of the paper's Figure 3.
       .page_randomization_seed = 0x5eed5eed},
  };
  m.startup_overhead_s = 0.0;
  m.validate();
  return m;
}

MachineModel generic_modern() {
  MachineModel m;
  m.name = "Generic modern core";
  m.peak_mflops = 16000.0;  // 4 GHz x 4 flops/cycle (scalar FMA x2 ports)
  // ~12 / 6 / 1.25 bytes per flop: faster in absolute terms, but an even
  // worse memory balance than the Origin2000 -- the paper's projection.
  m.boundary_bandwidth_mbps = {192000.0, 96000.0, 20000.0};
  m.caches = {
      {.name = "L1",
       .size_bytes = 32 * 1024,
       .line_bytes = 64,
       .associativity = 8},
      {.name = "L2",
       .size_bytes = 2 * 1024 * 1024,
       .line_bytes = 64,
       .associativity = 16},
  };
  m.validate();
  return m;
}

MachineModel generic_modern_l3() {
  MachineModel m = generic_modern();
  m.name = "Generic modern core (L1/L2/L3)";
  m.caches.push_back({.name = "L3",
                      .size_bytes = 32 * 1024 * 1024,
                      .line_bytes = 64,
                      .associativity = 16});
  // Insert an L3 bandwidth between L2's and memory's.
  m.boundary_bandwidth_mbps = {192000.0, 96000.0, 48000.0, 20000.0};
  m.validate();
  return m;
}

std::vector<MachineModel> all_presets() {
  return {origin2000_r10k(), exemplar_pa8000(), generic_modern(),
          generic_modern_l3()};
}

MachineModel machine_by_name(const std::string& name) {
  if (name == "o2k") return origin2000_r10k();
  if (name == "exemplar") return exemplar_pa8000();
  if (name == "modern") return generic_modern();
  throw Error("unknown machine \"" + name +
              "\" (supported: o2k, exemplar, modern)");
}

}  // namespace bwc::machine
