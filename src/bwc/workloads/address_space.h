// Simulated address-space allocator for native instrumented workloads.
//
// Workloads keep their data in ordinary std::vector<double> buffers for the
// arithmetic, and report accesses against simulated addresses handed out
// here. Bases are aligned and laid out contiguously, like a Fortran
// runtime's static allocation.
#pragma once

#include <cstdint>

namespace bwc::workloads {

class AddressSpace {
 public:
  /// Large arrays are page-aligned, as Fortran runtimes and allocators do;
  /// combined with a physically-indexed cache model this reproduces the
  /// page-collision conflicts of direct-mapped caches.
  explicit AddressSpace(std::uint64_t base = 1 << 20,
                        std::uint64_t alignment = 4096)
      : next_(base), alignment_(alignment) {}

  /// Reserve a block of `bytes` and return its base address.
  std::uint64_t allocate(std::uint64_t bytes) {
    next_ = (next_ + alignment_ - 1) / alignment_ * alignment_;
    const std::uint64_t addr = next_;
    next_ += bytes;
    return addr;
  }

  /// Reserve `count` doubles.
  std::uint64_t allocate_doubles(std::uint64_t count) {
    return allocate(count * 8);
  }

 private:
  std::uint64_t next_;
  std::uint64_t alignment_;
};

}  // namespace bwc::workloads
