// Native code generation backend: compile a lowered program to host
// machine code and run it, instead of interpreting bytecode.
//
// The backend walks the slot-resolved bytecode (runtime/lowering.h) and
// emits one self-contained C translation unit per workload: the generic
// op sequence becomes labeled straight-line C driven by gotos, and every
// fused stream loop becomes a pair of plain `for` loops over raw slot
// arrays -- a `range` kernel with the Recorder hooks compiled in as
// direct calls through the context struct (the instrumented access
// stream, byte-for-byte the VM's), and a bare `values` kernel that the
// host C compiler can vectorize. The TU is compiled out of process with
// the host C compiler, dlopen'ed, and cached in a content-addressed
// on-disk cache keyed by bwc::content_fingerprint (support/files.h) of
// the generated source (which embeds the ABI version and compile flags),
// so the second execution of the same lowered program is a pure dlopen.
//
// The native engine composes with every existing tier: it plugs into the
// stream driver's fast-forward protocol as a StreamRangeExec
// (fastforward.h), so `--engine=native` still fast-forwards periodic
// loops -- the `values` kernels compute the values first, and the
// accesses replay through the same replay_stream_accesses as the VM.
// A certified loop's kLoopEnd calls back into the host at each row end
// (Recorder::end_row), so rows fast-forward exactly as in the VM.
// Observables are bit-identical to the VM by the StreamRangeExec
// contract; tests/codegen_test.cpp enforces this differentially across
// every bundled workload with fast-forward on and off.
//
// When no host C compiler is available (or compilation fails),
// execute_native() falls back to the bytecode VM and reports a
// structured warning -- callers never lose the result.
#pragma once

#include <memory>
#include <string>

#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/lowering.h"

namespace bwc::runtime {

/// Options for the native backend's compile step.
struct NativeOptions {
  /// On-disk cache directory for generated .c/.so pairs. Empty selects
  /// default_codegen_cache_dir().
  std::string cache_dir;
  /// Host C compiler command. Empty resolves $BWC_CC, then $CC, then
  /// probes `cc`, `gcc`, `clang` on PATH. A non-empty value (or env
  /// override) is used as-is and is allowed to fail -- that is how the
  /// fallback path is tested.
  std::string compiler;
};

/// What the native engine actually did, for callers that surface it
/// (bwcopt prints the warning; tests assert on cache_hit/native).
struct NativeReport {
  bool native = false;     ///< false: fell back to the bytecode VM
  bool cache_hit = false;  ///< shared object reused, no compiler run
  std::string compiler;    ///< resolved compiler command ("" on cache hit)
  std::string object_path;  ///< cached .so actually dlopen'ed
  std::string warning;  ///< fallback reason, "native-codegen-fallback ..."
};

/// A compiled-and-loaded workload: owns the dlopen handle and the
/// resolved entry points. Reusable across any number of executions and
/// ExecOptions (state, recorder and hierarchy are per-execution); the
/// handle is dlclose'd on destruction.
class CompiledWorkload {
 public:
  struct Impl;

  ~CompiledWorkload();
  CompiledWorkload(CompiledWorkload&&) noexcept;
  CompiledWorkload& operator=(CompiledWorkload&&) noexcept;
  CompiledWorkload(const CompiledWorkload&) = delete;
  CompiledWorkload& operator=(const CompiledWorkload&) = delete;

  /// True when the cached shared object was reused without running the
  /// compiler (the cache hit verified the full cached source text, not
  /// just the fingerprint).
  bool from_cache() const;
  /// Compiler command that produced the object ("" on a cache hit).
  const std::string& compiler() const;
  /// Path of the dlopen'ed shared object inside the cache directory.
  const std::string& object_path() const;
  /// Content fingerprint of the generated source (cache key).
  const std::string& fingerprint() const;

  const Impl& impl() const { return *impl_; }

 private:
  friend CompiledWorkload compile_workload(const LoweredProgram&,
                                           const NativeOptions&);
  explicit CompiledWorkload(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Emit the complete C translation unit for `lowered`. Deterministic:
/// the same lowered program always yields the same text, which is what
/// the content-addressed cache keys on. (codegen_emit.cpp)
std::string emit_c_source(const LoweredProgram& lowered);

/// $BWC_CODEGEN_CACHE_DIR, or `.bwc-codegen-cache` under the current
/// working directory (so builds keep their scratch under the build
/// tree; the directory is created on demand and is gitignored).
std::string default_codegen_cache_dir();

/// True when a host C compiler can be resolved (explicit option, env
/// override, or PATH probe) and exists. Cheap; does not compile.
bool host_compiler_available(const NativeOptions& opts = {});

/// Emit, cache-lookup, (re)compile and dlopen `lowered`. Throws
/// bwc::Error with a bracketed reason prefix on any toolchain failure:
/// [compiler-unavailable], [compile-failed], [dlopen-failed],
/// [abi-mismatch]. Stale cache entries (fingerprint file exists but its
/// source no longer matches) are evicted and recompiled.
CompiledWorkload compile_workload(const LoweredProgram& lowered,
                                  const NativeOptions& opts = {});

/// Execute `lowered` through an already-compiled workload. Bit-identical
/// to execute_lowered() under the same options, including access
/// coalescing, steady-state fast-forward and out-of-bounds errors (both
/// build the same ExecState). Throws exactly what the VM would.
ExecResult execute_lowered_native(const LoweredProgram& lowered,
                                  const ExecOptions& opts,
                                  const CompiledWorkload& workload);

/// Compile (or reuse from cache) and execute. On toolchain failure this
/// falls back to the bytecode VM, recording the reason in
/// `report->warning`; runtime errors (out of bounds) propagate and
/// never fall back. `report` may be null.
ExecResult execute_native(const LoweredProgram& lowered,
                          const ExecOptions& opts,
                          const NativeOptions& native_opts = {},
                          NativeReport* report = nullptr);

/// Lower then execute_native().
ExecResult execute_native(const ir::Program& program, const ExecOptions& opts,
                          const NativeOptions& native_opts = {},
                          NativeReport* report = nullptr);

namespace detail {
/// Flags the generated TU is compiled with; embedded in the emitted
/// source header so the fingerprint covers them.
inline constexpr char kNativeCFlags[] =
    "-O2 -fPIC -shared -ffp-contract=off -w";
/// Bumped whenever the emitted ABI (context struct, entry-point
/// signatures) changes; embedded in the source and checked after dlopen.
inline constexpr int kNativeAbiVersion = 2;
}  // namespace detail

}  // namespace bwc::runtime
