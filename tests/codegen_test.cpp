// Differential test holding the native codegen engine bit-identical to
// the bytecode VM and the reference interpreter: checksums, flop/load/
// store counts, final scalars, array bases, per-boundary traffic bytes,
// fast-forward event counts and the hierarchy's own access counters must
// all match on every paper, extra, optimized and random workload, with
// steady-state fast-forward both on and off. Also covers the backend's
// operational envelope: the content-addressed object cache (second
// execution is a pure dlopen; stale entries are evicted), the graceful
// VM fallback when the host compiler is broken or missing, and
// out-of-bounds errors surfacing with the VM's exact message instead of
// falling back. The CI sanitize job runs everything over the dlopen'ed
// objects.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/ir/dsl.h"
#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/runtime/codegen.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/error.h"
#include "bwc/support/files.h"
#include "bwc/support/prng.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc::runtime {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::Program;

/// Shared cache for this test process: every program compiles exactly
/// once, all later configurations are pure dlopen reuses -- which is
/// itself part of what the test exercises.
NativeOptions test_native_opts() {
  static const std::string dir = ::testing::TempDir() +
                                 "bwc-codegen-test-cache." +
                                 std::to_string(::getpid());
  NativeOptions opts;
  opts.cache_dir = dir;
  return opts;
}

/// A private cache directory for tests that assert on hit/miss behavior.
std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "bwc-codegen-" + tag + "." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_identical(const ExecResult& ref, const ExecResult& got,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(ref.checksum, got.checksum);
  EXPECT_EQ(ref.flops, got.flops);
  EXPECT_EQ(ref.loads, got.loads);
  EXPECT_EQ(ref.stores, got.stores);
  EXPECT_EQ(ref.scalars, got.scalars);
  EXPECT_EQ(ref.array_bases, got.array_bases);
  EXPECT_EQ(ref.profile.flops, got.profile.flops);
  ASSERT_EQ(ref.profile.boundaries.size(), got.profile.boundaries.size());
  for (std::size_t b = 0; b < ref.profile.boundaries.size(); ++b) {
    SCOPED_TRACE("boundary " + ref.profile.boundaries[b].name);
    EXPECT_EQ(ref.profile.boundaries[b].bytes_toward_cpu,
              got.profile.boundaries[b].bytes_toward_cpu);
    EXPECT_EQ(ref.profile.boundaries[b].bytes_from_cpu,
              got.profile.boundaries[b].bytes_from_cpu);
  }
}

/// Run `p` natively on the given machine's hierarchy and require all
/// observables to match the reference interpreter and the bytecode VM,
/// with fast-forward both on and off. Fast-forward *event counts* must
/// also match the VM's: the native engine runs the same period-detection
/// protocol, just with dlopen'ed kernels under it.
void expect_native_identical(const Program& p,
                             const machine::MachineModel& machine) {
  memsim::MemoryHierarchy href = machine.make_hierarchy();
  ExecOptions ref_opts;
  ref_opts.hierarchy = &href;
  const ExecResult ref = execute(p, ref_opts);

  for (const bool fast_forward : {true, false}) {
    const std::string tag = " [ff=" + std::to_string(fast_forward) + "]";
    memsim::MemoryHierarchy hvm = machine.make_hierarchy();
    ExecOptions vm_opts;
    vm_opts.hierarchy = &hvm;
    vm_opts.fast_forward = fast_forward;
    const ExecResult vm = execute_compiled(p, vm_opts);
    expect_identical(ref, vm, p.name() + " [vm]" + tag);

    memsim::MemoryHierarchy hnat = machine.make_hierarchy();
    ExecOptions nat_opts;
    nat_opts.hierarchy = &hnat;
    nat_opts.fast_forward = fast_forward;
    NativeReport report;
    const ExecResult nat =
        execute_native(p, nat_opts, test_native_opts(), &report);
    ASSERT_TRUE(report.native) << report.warning;
    expect_identical(ref, nat, p.name() + " [native]" + tag);
    // Same fast-forward engagement as the VM, not merely the same totals.
    EXPECT_EQ(vm.fast_forward_events, nat.fast_forward_events)
        << p.name() << tag;
    EXPECT_EQ(vm.fast_forwarded_iterations, nat.fast_forwarded_iterations)
        << p.name() << tag;
    // The simulator's own access counters agree with the VM: the native
    // engine produces the same access stream, not just the same counter
    // totals.
    EXPECT_EQ(hvm.load_count(), hnat.load_count()) << p.name() << tag;
    EXPECT_EQ(hvm.store_count(), hnat.store_count()) << p.name() << tag;
  }
}

void expect_native_identical(const Program& p) {
  expect_native_identical(p, machine::origin2000_r10k().scaled(16));
}

bool compiler_available() { return host_compiler_available({}); }

TEST(NativeEngine, PaperPrograms) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  expect_native_identical(workloads::sec21_write_loop(4096));
  expect_native_identical(workloads::sec21_read_loop(4096));
  expect_native_identical(workloads::sec21_both_loops(4096));
  expect_native_identical(workloads::fig6_original(48));
  expect_native_identical(workloads::fig7_original(4096));
}

TEST(NativeEngine, ExtraPrograms) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  expect_native_identical(workloads::jacobi_chain(512, 4));
  expect_native_identical(workloads::adi_like(48));
  expect_native_identical(workloads::blur_sharpen(1024));
  // Reductions: register-accumulator loops, never fast-forwarded -- the
  // native reduce kernel must still fold in the VM's exact order.
  expect_native_identical(workloads::reduction_cascade(512, 5));
}

TEST(NativeEngine, OptimizedPrograms) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  expect_native_identical(
      core::optimize(workloads::fig7_original(4096)).program);
  expect_native_identical(
      core::optimize(workloads::sec21_both_loops(4096)).program);
}

TEST(NativeEngine, AllMachinePresets) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  for (const auto& m : machine::all_presets()) {
    SCOPED_TRACE(m.name);
    expect_native_identical(workloads::fig6_original(32), m.scaled(16));
    expect_native_identical(workloads::sec21_both_loops(2048), m.scaled(16));
  }
}

TEST(NativeEngine, RandomPrograms1D) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Prng rng(seed);
    expect_native_identical(workloads::random_program(rng));
  }
}

TEST(NativeEngine, RandomPrograms2D) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Prng rng(seed);
    expect_native_identical(workloads::random_program_2d(rng, 16, 3));
  }
}

TEST(NativeEngine, RowFastForward2D) {
  // The 16-48-wide nests above never arm row fast-forward; at n = 256 the
  // rows certify, so the native engine's row hook must skip exactly the
  // rows the VM's does.
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  const machine::MachineModel m = machine::origin2000_r10k().scaled(16);
  for (auto make : {workloads::adi_like, workloads::fig6_original}) {
    const Program p = make(256);
    const Program optimized = core::optimize(p).program;
    for (const Program* q : {&p, &optimized}) {
      memsim::MemoryHierarchy h = m.make_hierarchy();
      ExecOptions opts;
      opts.hierarchy = &h;
      EXPECT_GT(execute_compiled(*q, opts).fast_forwarded_iterations, 0u)
          << q->name();
      expect_native_identical(*q, m);
    }
  }
}

TEST(NativeEngine, NoHierarchy) {
  // Without a simulator the native engine takes its bulk-counting fast
  // path (bare values kernels, one counter charge per range); totals
  // must still match the interpreter exactly.
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  const Program p = workloads::fig7_original(2048);
  const ExecResult ref = execute(p);
  NativeReport report;
  const ExecResult nat = execute_native(p, {}, test_native_opts(), &report);
  ASSERT_TRUE(report.native) << report.warning;
  EXPECT_EQ(ref.checksum, nat.checksum);
  EXPECT_EQ(ref.flops, nat.flops);
  EXPECT_EQ(ref.loads, nat.loads);
  EXPECT_EQ(ref.stores, nat.stores);
  EXPECT_EQ(ref.scalars, nat.scalars);
}

TEST(NativeEngine, FastForwardEngagesIdentically) {
  // A size where the steady-state detector actually certifies and skips:
  // the native engine must fast-forward the same loops by the same
  // iteration counts as the VM (the protocol is shared; only the kernels
  // under it differ).
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  const Program p = workloads::sec21_both_loops(65536);
  const machine::MachineModel m = machine::origin2000_r10k().scaled(16);
  memsim::MemoryHierarchy hvm = m.make_hierarchy();
  ExecOptions opts;
  opts.hierarchy = &hvm;
  const ExecResult vm = execute_compiled(p, opts);
  ASSERT_GT(vm.fast_forward_events, 0u);

  memsim::MemoryHierarchy hnat = m.make_hierarchy();
  opts.hierarchy = &hnat;
  NativeReport report;
  const ExecResult nat = execute_native(p, opts, test_native_opts(), &report);
  ASSERT_TRUE(report.native) << report.warning;
  EXPECT_EQ(vm.fast_forward_events, nat.fast_forward_events);
  EXPECT_EQ(vm.fast_forwarded_iterations, nat.fast_forwarded_iterations);
  EXPECT_EQ(vm.checksum, nat.checksum);
  EXPECT_EQ(vm.loads, nat.loads);
  EXPECT_EQ(vm.stores, nat.stores);
  EXPECT_EQ(vm.profile.memory_bytes(), nat.profile.memory_bytes());
}

TEST(NativeFallback, BrokenCompilerFallsBackToVm) {
  const Program p = workloads::fig7_original(1024);
  const ExecResult vm = execute_compiled(p);

  // A compiler override is honored as-is; a nonexistent one fails the
  // compile step and the engine degrades to the VM with a structured
  // warning -- same results, flagged provenance.
  NativeOptions opts = test_native_opts();
  opts.cache_dir = fresh_cache_dir("fallback");
  opts.compiler = "/nonexistent/bwc-test-cc";
  NativeReport report;
  const ExecResult nat = execute_native(p, {}, opts, &report);
  EXPECT_FALSE(report.native);
  EXPECT_FALSE(report.cache_hit);
  EXPECT_NE(report.warning.find("native-codegen-fallback"),
            std::string::npos)
      << report.warning;
  EXPECT_NE(report.warning.find("[compile-failed]"), std::string::npos)
      << report.warning;
  EXPECT_EQ(vm.checksum, nat.checksum);
  EXPECT_EQ(vm.flops, nat.flops);
  EXPECT_EQ(vm.loads, nat.loads);
  EXPECT_EQ(vm.stores, nat.stores);

  // A compiler that runs but fails (exit status, no object) reports the
  // same structured reason.
  opts.compiler = "/bin/false";
  const ExecResult nat2 = execute_native(p, {}, opts, &report);
  EXPECT_FALSE(report.native);
  EXPECT_NE(report.warning.find("[compile-failed]"), std::string::npos)
      << report.warning;
  EXPECT_EQ(vm.checksum, nat2.checksum);
}

TEST(NativeFallback, OutOfBoundsThrowsVmErrorNoFallback) {
  // Runtime errors are not toolchain errors: the native engine must
  // throw the VM's exact out-of-bounds message, never silently degrade.
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  Program p("oob_native");
  const ArrayId a = p.add_array("a", {4});
  p.add_scalar("x");
  p.append(loop("i", 1, 5, assign("x", at(a, v("i")))));

  std::string vm_message;
  try {
    execute_compiled(p);
    FAIL() << "VM did not throw";
  } catch (const Error& e) {
    vm_message = e.what();
  }
  try {
    execute_native(p, {}, test_native_opts());
    FAIL() << "native engine did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(vm_message, std::string(e.what()));
  }

  // Multi-dimensional subscripts take the generic locate path; same
  // contract.
  Program p2("oob_native_2d");
  const ArrayId b = p2.add_array("b", {4, 4});
  p2.add_scalar("y");
  p2.append(loop("i", 1, 5, assign("y", at(b, v("i"), v("i")))));
  std::string vm2;
  try {
    execute_compiled(p2);
    FAIL() << "VM did not throw";
  } catch (const Error& e) {
    vm2 = e.what();
  }
  try {
    execute_native(p2, {}, test_native_opts());
    FAIL() << "native engine did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(vm2, std::string(e.what()));
  }
}

TEST(NativeCache, SecondRunIsPureDlopen) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  const Program p = workloads::sec21_both_loops(2048);
  NativeOptions opts = test_native_opts();
  opts.cache_dir = fresh_cache_dir("cache-hit");

  NativeReport first;
  const ExecResult r1 = execute_native(p, {}, opts, &first);
  ASSERT_TRUE(first.native) << first.warning;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.compiler.empty());
  ASSERT_TRUE(std::filesystem::exists(first.object_path));

  NativeReport second;
  const ExecResult r2 = execute_native(p, {}, opts, &second);
  ASSERT_TRUE(second.native) << second.warning;
  EXPECT_TRUE(second.cache_hit);
  // No compiler ran: a hit is dlopen only.
  EXPECT_TRUE(second.compiler.empty());
  EXPECT_EQ(first.object_path, second.object_path);
  EXPECT_EQ(r1.checksum, r2.checksum);
  EXPECT_EQ(r1.flops, r2.flops);
  EXPECT_EQ(r1.loads, r2.loads);
  EXPECT_EQ(r1.stores, r2.stores);
}

TEST(NativeCache, StaleEntryEvictedAndRecompiled) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  const Program p = workloads::sec21_both_loops(1024);
  NativeOptions opts = test_native_opts();
  opts.cache_dir = fresh_cache_dir("cache-evict");

  NativeReport first;
  const ExecResult r1 = execute_native(p, {}, opts, &first);
  ASSERT_TRUE(first.native) << first.warning;

  // Tamper with the cached source: the object no longer corresponds to
  // its recorded source, so the next lookup must evict and recompile
  // rather than trust the fingerprint-named file.
  const std::string c_path =
      first.object_path.substr(0, first.object_path.size() - 3) + ".c";
  ASSERT_TRUE(std::filesystem::exists(c_path));
  {
    std::ofstream out(c_path, std::ios::app);
    out << "/* tampered */\n";
  }
  NativeReport second;
  const ExecResult r2 = execute_native(p, {}, opts, &second);
  ASSERT_TRUE(second.native) << second.warning;
  EXPECT_FALSE(second.cache_hit);
  EXPECT_FALSE(second.compiler.empty());
  EXPECT_EQ(r1.checksum, r2.checksum);

  // The cache is healthy again: content restored, next run hits.
  std::ifstream in(c_path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), emit_c_source(lower(p)));
  NativeReport third;
  execute_native(p, {}, opts, &third);
  EXPECT_TRUE(third.cache_hit);
}

TEST(NativeCache, EmissionAndFingerprintDeterministic) {
  const LoweredProgram lowered = lower(workloads::fig7_original(512));
  const std::string s1 = emit_c_source(lowered);
  const std::string s2 = emit_c_source(lowered);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(content_fingerprint(s1), content_fingerprint(s2));
  EXPECT_EQ(content_fingerprint(s1).size(), 32u);
  // The fingerprint covers the ABI version and compile flags through the
  // emitted header, so either changing invalidates every cached object.
  EXPECT_NE(s1.find("abi: "), std::string::npos);
  EXPECT_NE(s1.find("cflags: "), std::string::npos);
  EXPECT_NE(content_fingerprint(s1), content_fingerprint(s1 + " "));
}

TEST(NativeEngine, MeasureEngineNativeMatchesCompiled) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler";
  const Program p = workloads::fig7_original(4096);
  const machine::MachineModel m =
      machine::origin2000_r10k().scaled(16).with_cores(4);
  const model::Measurement compiled = model::measure(p, m);
  model::MeasureOptions opts;
  opts.engine = model::ExecEngine::kNative;
  opts.native = test_native_opts();
  NativeReport report;
  opts.native_report = &report;
  const model::Measurement native = model::measure(p, m, opts);
  ASSERT_TRUE(report.native) << report.warning;
  EXPECT_EQ(compiled.exec.checksum, native.exec.checksum);
  EXPECT_EQ(compiled.profile.memory_bytes(), native.profile.memory_bytes());
  EXPECT_EQ(compiled.time.total_s, native.time.total_s);
  EXPECT_EQ(compiled.balance.bytes_per_flop, native.balance.bytes_per_flop);
}

}  // namespace
}  // namespace bwc::runtime
