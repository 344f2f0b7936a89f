// Host side of the native backend (runtime/codegen.h): the
// content-addressed object cache (support/files.h), out-of-process
// compilation, dlopen plumbing, and the StreamRangeExec adapter that plugs
// the dlopen'ed kernels into the serial stream driver and its
// fast-forward protocol.
#include "bwc/runtime/codegen.h"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bwc/runtime/compiled.h"
#include "bwc/runtime/exec_state.h"
#include "bwc/runtime/fastforward.h"
#include "bwc/runtime/recorder.h"
#include "bwc/runtime/stream_exec.h"
#include "bwc/support/error.h"
#include "bwc/support/files.h"

namespace fs = std::filesystem;

namespace bwc::runtime {

namespace {

// Mirror of the `bwc_native_ctx` struct the emitter writes into every
// generated TU (codegen_emit.cpp). Field order and types are the ABI;
// bump detail::kNativeAbiVersion when changing either side.
extern "C" {
struct BwcNativeCtx {
  double* const* data;
  const std::uint64_t* bases;
  double* scalars;
  const long long* iters;
  void* sink;
  void (*rec_load)(void* sink, std::uint64_t addr, std::uint64_t bytes);
  void (*rec_store)(void* sink, std::uint64_t addr, std::uint64_t bytes);
  void (*rec_flops)(void* sink, std::uint64_t n);
  double (*input)(int key, long long linear);
  double (*call_f)(double x, double y);
  double (*call_g)(double x, double y);
  int (*stream)(void* host, int loop_id, const long long* iters);
  int (*row_end)(void* host, int row, long long v);
  void* host;
  int err_array;
  int err_dim;
  long long err_index;
};
}

using RunFn = int (*)(BwcNativeCtx*);
using RangeFn = void (*)(BwcNativeCtx*, long long, long long);

// -- Hook trampolines ------------------------------------------------------
// The generated code records through plain function pointers; these
// adapt them to the live Recorder. The bare values kernels carry no hooks
// at all.

void recorder_load(void* sink, std::uint64_t addr, std::uint64_t bytes) {
  static_cast<Recorder*>(sink)->load(addr, bytes);
}
void recorder_store(void* sink, std::uint64_t addr, std::uint64_t bytes) {
  static_cast<Recorder*>(sink)->store(addr, bytes);
}
void recorder_flops(void* sink, std::uint64_t n) {
  static_cast<Recorder*>(sink)->flops(n);
}
double input_tramp(int key, long long linear) {
  return ir::input_value(key, linear);
}
double call_f_tramp(double x, double y) { return intrinsic_f(x, y); }
double call_g_tramp(double x, double y) { return intrinsic_g(x, y); }

// -- Process helpers ---------------------------------------------------------

std::string shell_quote(const std::string& s) {
  std::string r = "'";
  for (char c : s) {
    if (c == '\'') {
      r += "'\\''";
    } else {
      r += c;
    }
  }
  r += "'";
  return r;
}

bool command_exists(const std::string& name) {
  const std::string cmd =
      "command -v " + shell_quote(name) + " >/dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;  // NOLINT(cert-env33-c)
}

/// Resolve the compiler command per the NativeOptions contract: an
/// explicit choice (option or env) is honored as-is -- even a broken one,
/// which is how the VM-fallback path is exercised -- otherwise the
/// standard names are probed on PATH.
std::string resolve_compiler(const NativeOptions& opts) {
  if (!opts.compiler.empty()) return opts.compiler;
  if (const char* e = std::getenv("BWC_CC"); e != nullptr && *e != '\0')
    return e;
  if (const char* e = std::getenv("CC"); e != nullptr && *e != '\0') return e;
  for (const char* cand : {"cc", "gcc", "clang"}) {
    if (command_exists(cand)) return cand;
  }
  throw Error(
      "[compiler-unavailable] no host C compiler found "
      "(tried $BWC_CC, $CC, cc, gcc, clang)");
}

}  // namespace

// -- CompiledWorkload -------------------------------------------------------

struct CompiledWorkload::Impl {
  void* handle = nullptr;
  RunFn run = nullptr;
  std::vector<RangeFn> range_fns;
  std::vector<RangeFn> values_fns;
  std::string object_path;
  std::string compiler;
  std::string fingerprint;
  bool from_cache = false;

  Impl() = default;
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;
  ~Impl() {
    if (handle != nullptr) dlclose(handle);
  }
};

CompiledWorkload::CompiledWorkload(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
CompiledWorkload::~CompiledWorkload() = default;
CompiledWorkload::CompiledWorkload(CompiledWorkload&&) noexcept = default;
CompiledWorkload& CompiledWorkload::operator=(CompiledWorkload&&) noexcept =
    default;

bool CompiledWorkload::from_cache() const { return impl_->from_cache; }
const std::string& CompiledWorkload::compiler() const {
  return impl_->compiler;
}
const std::string& CompiledWorkload::object_path() const {
  return impl_->object_path;
}
const std::string& CompiledWorkload::fingerprint() const {
  return impl_->fingerprint;
}

// -- Cache / compile ---------------------------------------------------------

std::string default_codegen_cache_dir() {
  if (const char* e = std::getenv("BWC_CODEGEN_CACHE_DIR");
      e != nullptr && *e != '\0')
    return e;
  return ".bwc-codegen-cache";
}

bool host_compiler_available(const NativeOptions& opts) {
  try {
    const std::string cc = resolve_compiler(opts);
    // An explicit/env compiler is used as-is by compile_workload, but
    // availability still means "exists": check the command word.
    return command_exists(cc.substr(0, cc.find(' ')));
  } catch (const Error&) {
    return false;
  }
}

CompiledWorkload compile_workload(const LoweredProgram& lowered,
                                  const NativeOptions& opts) {
  const std::string source = emit_c_source(lowered);
  const std::string fp = content_fingerprint(source);
  const fs::path dir =
      opts.cache_dir.empty() ? fs::path(default_codegen_cache_dir())
                             : fs::path(opts.cache_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw Error("[compile-failed] cannot create cache dir " + dir.string() +
                ": " + ec.message());
  }
  const fs::path c_path = dir / ("bwc_" + fp + ".c");
  const fs::path so_path = dir / ("bwc_" + fp + ".so");

  auto impl = std::make_unique<CompiledWorkload::Impl>();
  impl->fingerprint = fp;
  impl->object_path = so_path.string();

  // Cache hit means the object exists *and* its cached source is exactly
  // the text we just emitted -- the fingerprint only names the files, the
  // content check decides. Anything else (missing .c, tampered .c, hash
  // collision) evicts the pair and recompiles.
  const bool hit =
      fs::exists(so_path) && read_file_or_empty(c_path) == source;
  if (hit) {
    impl->from_cache = true;
  } else {
    fs::remove(so_path, ec);
    fs::remove(c_path, ec);
    const std::string compiler = resolve_compiler(opts);
    if (!write_file_atomic(c_path, source))
      throw Error("[compile-failed] cannot write " + c_path.string());
    const fs::path so_tmp =
        so_path.string() + ".tmp." + std::to_string(::getpid());
    const fs::path log_path =
        so_path.string() + ".log." + std::to_string(::getpid());
    const std::string cmd = compiler + " " + detail::kNativeCFlags + " -o " +
                            shell_quote(so_tmp.string()) + " " +
                            shell_quote(c_path.string()) + " 2> " +
                            shell_quote(log_path.string());
    const int rc = std::system(cmd.c_str());  // NOLINT(cert-env33-c)
    std::string log = read_file_or_empty(log_path);
    fs::remove(log_path, ec);
    if (rc != 0) {
      fs::remove(so_tmp, ec);
      fs::remove(c_path, ec);
      if (log.size() > 500) log.resize(500);
      throw Error("[compile-failed] '" + compiler + "' exited with status " +
                  std::to_string(rc) + (log.empty() ? "" : ": " + log));
    }
    fs::rename(so_tmp, so_path, ec);
    if (ec) {
      fs::remove(so_tmp, ec);
      throw Error("[compile-failed] cannot move object into cache: " +
                  so_path.string());
    }
    impl->compiler = compiler;
  }

  void* handle = dlopen(fs::absolute(so_path).c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = dlerror();
    throw Error(std::string("[dlopen-failed] ") +
                (err != nullptr ? err : so_path.string()));
  }
  impl->handle = handle;

  const auto require = [&](const std::string& name) {
    void* sym = dlsym(handle, name.c_str());
    if (sym == nullptr) {
      throw Error("[dlopen-failed] missing symbol '" + name + "' in " +
                  so_path.string());
    }
    return sym;
  };
  const int* abi = static_cast<const int*>(require("bwc_abi_version"));
  if (*abi != detail::kNativeAbiVersion) {
    throw Error("[abi-mismatch] object reports abi " + std::to_string(*abi) +
                ", host expects " +
                std::to_string(detail::kNativeAbiVersion));
  }
  impl->run = reinterpret_cast<RunFn>(require("bwc_run"));
  impl->range_fns.reserve(lowered.stream_loops.size());
  impl->values_fns.reserve(lowered.stream_loops.size());
  for (std::size_t k = 0; k < lowered.stream_loops.size(); ++k) {
    impl->range_fns.push_back(reinterpret_cast<RangeFn>(
        require("bwc_stream_range_" + std::to_string(k))));
    impl->values_fns.push_back(reinterpret_cast<RangeFn>(
        require("bwc_stream_values_" + std::to_string(k))));
  }
  return CompiledWorkload(std::move(impl));
}

// -- Execution --------------------------------------------------------------

namespace {

BwcNativeCtx make_base_ctx(const StreamContext& ctx) {
  BwcNativeCtx c{};
  c.data = ctx.data;
  c.bases = ctx.bases;
  c.scalars = ctx.scalars;
  c.iters = reinterpret_cast<const long long*>(ctx.iters);
  c.input = input_tramp;
  c.call_f = call_f_tramp;
  c.call_g = call_g_tramp;
  return c;
}

/// StreamRangeExec over the dlopen'ed kernels: run_stream_serial and its
/// fast-forward protocol drive this exactly as they drive the VM's
/// run_stream_range/run_stream_values. Without a hierarchy a range takes
/// the fast path -- the bare values kernel, the flops in one charge and
/// the accesses counted in bulk by replay_stream_accesses -- which is
/// where the native engine's throughput win on non-periodic loops comes
/// from.
class NativeRangeExec final : public StreamRangeExec {
 public:
  NativeRangeExec(const LoweredProgram& lp, const CompiledWorkload::Impl& impl)
      : lp_(lp), impl_(impl) {}

  void range(const StreamLoop& sl, std::int64_t lower, std::int64_t upper,
             const StreamContext& ctx, Recorder& rec) override {
    if (rec.hierarchy() == nullptr) {
      if (upper < lower) return;
      values(sl, lower, upper, ctx);
      rec.flops(stream_flops_per_iter(sl, stream_active(sl, ctx.iters)) *
                static_cast<std::uint64_t>(upper - lower + 1));
      replay_stream_accesses(sl, lower, upper, ctx, rec);
      return;
    }
    BwcNativeCtx c = make_base_ctx(ctx);
    c.sink = &rec;
    c.rec_load = recorder_load;
    c.rec_store = recorder_store;
    c.rec_flops = recorder_flops;
    impl_.range_fns[loop_index(sl)](&c, lower, upper);
  }

  void values(const StreamLoop& sl, std::int64_t lower, std::int64_t upper,
              const StreamContext& ctx) override {
    BwcNativeCtx c = make_base_ctx(ctx);
    impl_.values_fns[loop_index(sl)](&c, lower, upper);
  }

 private:
  std::size_t loop_index(const StreamLoop& sl) const {
    return static_cast<std::size_t>(&sl - lp_.stream_loops.data());
  }

  const LoweredProgram& lp_;
  const CompiledWorkload::Impl& impl_;
};

/// Everything the generated code's stream callback needs to dispatch a
/// stream loop back through the host engine tiers. C++ exceptions must
/// not unwind through the generated C frames, so the callback catches
/// everything, parks the exception here, and aborts bwc_run with a
/// nonzero status; the driver rethrows after bwc_run returns.
struct HostDriver {
  const LoweredProgram* lp = nullptr;
  ExecState* st = nullptr;
  Recorder* rec = nullptr;
  NativeRangeExec* exec = nullptr;
  bool fast_forward = true;
  std::exception_ptr error;
};

int stream_callback(void* host, int loop_id, const long long* iters) {
  auto* d = static_cast<HostDriver*>(host);
  try {
    const StreamLoop& sl =
        d->lp->stream_loops[static_cast<std::size_t>(loop_id)];
    const StreamContext ctx{d->st->data.data(), d->st->lp.bases.data(),
                            d->st->scalars.data(),
                            reinterpret_cast<const std::int64_t*>(iters)};
    run_stream_serial(sl, ctx, *d->rec, d->fast_forward, *d->exec);
    return 0;
  } catch (...) {
    d->error = std::current_exception();
    return 2;
  }
}

/// The row hook of a certified loop's kLoopEnd (Recorder::end_row).
int row_end_callback(void* host, int row, long long v) {
  auto* d = static_cast<HostDriver*>(host);
  try {
    if (d->fast_forward)
      d->rec->end_row(d->lp->row_loops[static_cast<std::size_t>(row)], v);
    return 0;
  } catch (...) {
    d->error = std::current_exception();
    return 2;
  }
}

}  // namespace

ExecResult execute_lowered_native(const LoweredProgram& lowered,
                                  const ExecOptions& opts,
                                  const CompiledWorkload& workload) {
  ExecState st(lowered);
  Recorder rec(opts.hierarchy, /*coalesce=*/true);
  NativeRangeExec exec(lowered, workload.impl());

  HostDriver driver;
  driver.lp = &lowered;
  driver.st = &st;
  driver.rec = &rec;
  driver.exec = &exec;
  driver.fast_forward = opts.fast_forward;

  BwcNativeCtx c{};
  c.data = st.data.data();
  c.bases = st.lp.bases.data();
  c.scalars = st.scalars.data();
  c.sink = &rec;
  c.rec_load = recorder_load;
  c.rec_store = recorder_store;
  c.rec_flops = recorder_flops;
  c.input = input_tramp;
  c.call_f = call_f_tramp;
  c.call_g = call_g_tramp;
  c.stream = stream_callback;
  c.row_end = row_end_callback;
  c.host = &driver;
  c.err_array = 0;

  const int rc = workload.impl().run(&c);
  if (rc == 2 && driver.error != nullptr)
    std::rethrow_exception(driver.error);
  if (rc != 0) {
    const std::string what =
        c.err_array < 0
            ? std::string("input stream")
            : lowered.arrays[static_cast<std::size_t>(c.err_array)].name;
    throw Error("index out of bounds for " + what + " dim " +
                std::to_string(c.err_dim) + ": " +
                std::to_string(c.err_index));
  }
  return st.result(rec);
}

ExecResult execute_native(const LoweredProgram& lowered,
                          const ExecOptions& opts,
                          const NativeOptions& native_opts,
                          NativeReport* report) {
  std::unique_ptr<CompiledWorkload> workload;
  try {
    workload =
        std::make_unique<CompiledWorkload>(compile_workload(lowered,
                                                            native_opts));
  } catch (const Error& e) {
    // Toolchain trouble degrades to the bytecode VM with a structured
    // warning; the caller still gets the exact result.
    if (report != nullptr) {
      *report = NativeReport{};
      report->warning = std::string("native-codegen-fallback ") + e.what();
    }
    return execute_lowered(lowered, opts);
  }
  if (report != nullptr) {
    *report = NativeReport{};
    report->native = true;
    report->cache_hit = workload->from_cache();
    report->compiler = workload->compiler();
    report->object_path = workload->object_path();
  }
  return execute_lowered_native(lowered, opts, *workload);
}

ExecResult execute_native(const ir::Program& program, const ExecOptions& opts,
                          const NativeOptions& native_opts,
                          NativeReport* report) {
  return execute_native(lower(program), opts, native_opts, report);
}

}  // namespace bwc::runtime
