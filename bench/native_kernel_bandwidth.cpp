// Figure 3 on the host machine: wall-clock effective bandwidth of the 13
// stride-1 kernels (NullRecorder instantiation = plain computation).
// bytes_per_second is the paper's useful-traffic metric.
#include <benchmark/benchmark.h>

#include "bwc/runtime/recorder.h"
#include "bwc/workloads/stride_kernels.h"

namespace {

using bwc::runtime::NullRecorder;
using bwc::workloads::AddressSpace;
using bwc::workloads::figure3_kernels;
using bwc::workloads::StrideKernel;

constexpr std::int64_t kN = 2000000;

void BM_StrideKernel(benchmark::State& state) {
  const auto& spec = figure3_kernels()[static_cast<std::size_t>(state.range(0))];
  AddressSpace space;
  StrideKernel kernel(spec, kN, space);
  NullRecorder rec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.run(rec));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kernel.useful_bytes()));
  state.SetLabel(spec.name);
}
BENCHMARK(BM_StrideKernel)->DenseRange(0, 12)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
