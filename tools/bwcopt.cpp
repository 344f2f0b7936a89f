// bwcopt — command-line driver for the bandwidth optimizer.
//
// Runs the pass pipeline over a workload, measures original vs optimized
// on a machine model, and reports: the pass log, before/after traffic +
// predicted time, scaling curves (--cores), the tuning report, and a
// semantics check. `bwcopt --help` documents every flag.
//
// Exit status: 0 on success, 1 when the traffic-bound or semantics check
// fails (a bug), 2 on bad usage or any error.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bwc/core/optimizer.h"
#include "bwc/ir/parser.h"
#include "bwc/ir/printer.h"
#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/model/prediction.h"
#include "bwc/server/client.h"
#include "bwc/server/protocol.h"
#include "bwc/server/record_log.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/support/table.h"
#include "bwc/verify/verify.h"
#include "bwc/tune/autotune.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"
#include "cli_flags.h"

namespace {

using namespace bwc;

struct Options {
  std::string program = "fig7";
  std::string file;
  std::int64_t n = 100000;
  std::string machine = "o2k";
  int cores = 1;
  std::uint64_t scale = 16;
  std::string engine = "compiled";
  bool fast_forward = true;
  std::string codegen_cache_dir;
  std::string passes = core::kDefaultPipeline;
  /// Verification, static-first policy, analysis auditing, print-after.
  pass::PipelineOptions pipeline_options;
  std::uint64_t seed = 1;
  bool print = false;
  /// Print the structured pass reports as JSON as the only stdout output.
  bool remarks = false;
  /// Print the traffic-bound report and assert bound <= measured traffic.
  bool verify_report = false;
  /// Run the bwc-lint diagnostics pass over the input program instead of
  /// optimizing; exit 1 on any error-severity finding.
  bool lint = false;
  /// Search the pipeline space instead of running one pipeline.
  bool tune = false;
  std::string tune_strategy = "beam";
  double tune_gap = 5.0;
  std::string tune_budget = "medium";
  std::uint64_t tune_seed = 0;
  /// bwcd record log whose pipeline-spec records seed the population.
  std::string tune_seed_log;

  /// `bwcopt bwcd-client` only; the workload fields above are shared.
  struct Client {
    std::string host = "127.0.0.1";
    int port = 0;
    std::string op = "optimize";
    std::string pipeline;  // empty: the daemon's default pipeline
    bool measure = true;
    std::int64_t timeout_ms = 0;
    std::string strategy = "beam";
    double gap = 5.0;
    std::string budget = "small";
    std::uint64_t tune_seed = 0;
    /// Print the raw response payload instead of the human summary.
    bool json = false;
  } client;
};

using cli::number;
using Flag = cli::Flag<Options>;
using Command = cli::Command<Options>;

const Flag kFlags[] = {
    // Workload selection.
    {"--program", "<fig6|fig7|sec21|jacobi|adi|blur|cascade|stride|random>",
     "workload to optimize (default fig7)",
     [](Options& o, const std::string& v) { o.program = v; }},
    {"--file", "<path>",
     "parse the program from a text file (printer format) instead",
     [](Options& o, const std::string& v) { o.file = v; }},
    {"--n", "<int>",
     "problem size (default 100000; fig6 uses a 2-D n x n, capped at 2000)",
     [](Options& o, const std::string& v) { o.n = number<std::int64_t>(v); }},
    {"--seed", "<int>", "PRNG seed for --program random (default 1)",
     [](Options& o, const std::string& v) {
       o.seed = number<std::uint64_t>(v);
     }},
    // Machine model and measurement.
    {"--machine", "<o2k|exemplar|modern>", "machine model (default o2k)",
     [](Options& o, const std::string& v) {
       machine::machine_by_name(v);
       o.machine = v;
     }},
    {"--cores", "<int>",
     "core count for the multicore shared-bandwidth model (default 1); "
     "the replay stays serial, and the model prints the scaling curve with "
     "the bus-saturation point",
     [](Options& o, const std::string& v) {
       o.cores = number<int>(v);
       if (o.cores < 1) throw Error("--cores must be >= 1");
     }},
    {"--scale", "<int>", "cache scale divisor (default 16)",
     [](Options& o, const std::string& v) {
       o.scale = number<std::uint64_t>(v);
     }},
    {"--engine", "<compiled|reference|native>",
     "replay engine for measurement (default compiled; all are "
     "bit-identical; native compiles each lowered workload to host "
     "machine code via the system C compiler and falls back to the "
     "compiled VM with a warning when none is available)",
     [](Options& o, const std::string& v) {
       model::engine_by_name(v);
       o.engine = v;
     }},
    {"--codegen-cache-dir", "<path>",
     "on-disk cache for --engine native objects (default "
     "$BWC_CODEGEN_CACHE_DIR or ./.bwc-codegen-cache)",
     [](Options& o, const std::string& v) { o.codegen_cache_dir = v; }},
    {"--no-fast-forward", "",
     "disable the compiled replay's steady-state fast-forward (exact "
     "macrosimulation, on by default; all observables are bit-identical "
     "either way) for timing comparisons and debugging",
     [](Options& o, const std::string&) { o.fast_forward = false; }},
    // Pipeline selection.
    {"--passes", "<spec>",
     std::string("pass pipeline (default \"") + core::kDefaultPipeline +
         "\"; \"\" runs no passes), e.g. "
         "\"interchange,fuse(solver=exact,shift=1),scalar-replace\"; grammar "
         "and pass catalogue in docs/PIPELINE.md",
     [](Options& o, const std::string& v) { o.passes = v; }},
    // Verification and reporting.
    {"--verify", "",
     "print the static traffic lower-bound report and assert bound <= "
     "measured traffic",
     [](Options& o, const std::string&) { o.verify_report = true; }},
    {"--no-verify", "",
     "skip the in-pipeline verifier (translation validation and "
     "observability certification run after every pass by default)",
     [](Options& o, const std::string&) { o.pipeline_options.verify = false; }},
    {"--static-verify", "<on|off|only>",
     "static-prover-first checking (default on): the symbolic legality "
     "provers run before any trace replay and a proof skips the replay; "
     "off is trace-only; only never replays (a static refutation fails, "
     "an undecided check is reported as skipped)",
     [](Options& o, const std::string& v) {
       if (v == "on") {
         o.pipeline_options.static_verify = pass::StaticVerifyMode::kOn;
       } else if (v == "off") {
         o.pipeline_options.static_verify = pass::StaticVerifyMode::kOff;
       } else if (v == "only") {
         o.pipeline_options.static_verify = pass::StaticVerifyMode::kOnly;
       } else {
         throw Error("unknown static-verify mode: " + v +
                     " (supported: on, off, only)");
       }
     }},
    {"--lint", "",
     "run the bwc-lint diagnostics pass over the input program instead of "
     "optimizing: dead stores, unreachable guard arms, analysis-opaque "
     "contexts, loops already at the traffic lower bound; exit 1 on any "
     "error-severity finding (combine with --remarks=json for the "
     "machine-readable report)",
     [](Options& o, const std::string&) { o.lint = true; }},
    {"--audit-analyses", "",
     "fingerprint analysis-cache entries against the IR they were "
     "computed from and fail on a stale hit -- catches passes that "
     "mutate the program without declaring the invalidation",
     [](Options& o, const std::string&) {
       o.pipeline_options.audit_analyses = true;
     }},
    // Autotuning.
    {"--tune", "[=beam|genetic]",
     "search the pipeline space for this workload instead of running one "
     "pipeline: seeded parallel beam (default) or genetic search over "
     "PipelineSpec strings, scored by the static traffic bound with full "
     "per-pass verification, top candidates validated in the machine "
     "model; prints the winner, the default-pipeline comparison and the "
     "lower-bound optimality certificate when one is earned "
     "(docs/AUTOTUNE.md; the scoring pool uses --cores threads)",
     [](Options& o, const std::string& v) {
       o.tune = true;
       if (v.empty()) return;
       tune::parse_strategy(v);
       o.tune_strategy = v;
     }},
    {"--tune-gap", "<percent>",
     "certificate tolerance: stop the search early and certify the winner "
     "when its traffic is within this percentage of the data-movement "
     "floor (default 5)",
     [](Options& o, const std::string& v) {
       o.tune_gap = number<double>(v);
       if (!(o.tune_gap >= 0.0 && o.tune_gap <= 1000.0))
         throw Error("--tune-gap must be in [0, 1000]");
     }},
    {"--tune-budget", "<small|medium|large|int>",
     "maximum candidates scored: small=16, medium=48, large=128, or an "
     "explicit count (default medium)",
     [](Options& o, const std::string& v) {
       tune::parse_budget(v);
       o.tune_budget = v;
     }},
    {"--tune-seed", "<int>",
     "search PRNG seed (default 0); a fixed seed replays the identical "
     "search and winner at any --cores value",
     [](Options& o, const std::string& v) {
       o.tune_seed = number<std::uint64_t>(v);
     }},
    {"--tune-seed-log", "<path>",
     "seed the starting population with the pipeline-spec records of a "
     "bwcd record log (docs/SERVER.md); missing file seeds nothing",
     [](Options& o, const std::string& v) { o.tune_seed_log = v; }},
    {"--remarks", "<json>",
     "print the structured per-pass reports (remarks, timing, predicted "
     "traffic deltas) in the given format as the only output; skips "
     "measurement (schema bwc-remarks-v1, docs/PIPELINE.md)",
     [](Options& o, const std::string& v) {
       if (v != "json")
         throw Error("unknown remarks format: " + v + " (supported: json)");
       o.remarks = true;
     }},
    {"--print", "", "print the original and optimized programs",
     [](Options& o, const std::string&) { o.print = true; }},
    {"--print-after-all", "", "print the program after every pass",
     [](Options& o, const std::string&) {
       o.pipeline_options.print_after = [](const pass::Pass& pass,
                                           const ir::Program& program) {
         std::cout << "---- after " << pass.name() << " ----\n"
                   << ir::to_string(program) << "\n";
       };
     }},
};

/// The bwcd-client flags. Values the daemon validates (machine, engine,
/// strategy, budget) pass through unchecked, so a bad one comes back as
/// the daemon's status="error" response.
const Flag kClientFlags[] = {
    {"--host", "<addr>", "daemon address (default 127.0.0.1)",
     [](Options& o, const std::string& v) { o.client.host = v; }},
    {"--port", "<int>", "daemon port (required)",
     [](Options& o, const std::string& v) { o.client.port = number<int>(v); }},
    {"--op", "<optimize|tune|stats|ping>", "request kind (default optimize)",
     [](Options& o, const std::string& v) {
       if (v != "optimize" && v != "tune" && v != "stats" && v != "ping")
         throw Error("unknown op: " + v +
                     " (supported: optimize, tune, stats, ping)");
       o.client.op = v;
     }},
    {"--program", "<fig6|fig7|sec21|jacobi|adi|blur|cascade|stride|random>",
     "workload to submit (default fig7)",
     [](Options& o, const std::string& v) { o.program = v; }},
    {"--file", "<path>", "submit the program from a text file instead",
     [](Options& o, const std::string& v) { o.file = v; }},
    {"--n", "<int>", "problem size (default 100000)",
     [](Options& o, const std::string& v) { o.n = number<std::int64_t>(v); }},
    {"--seed", "<int>", "PRNG seed for --program random (default 1)",
     [](Options& o, const std::string& v) {
       o.seed = number<std::uint64_t>(v);
     }},
    {"--passes", "<spec>", "pipeline spec (default: the daemon default)",
     [](Options& o, const std::string& v) { o.client.pipeline = v; }},
    {"--machine", "<o2k|exemplar|modern>", "machine model (default o2k)",
     [](Options& o, const std::string& v) { o.machine = v; }},
    {"--cores", "<int>", "core count (default 1)",
     [](Options& o, const std::string& v) { o.cores = number<int>(v); }},
    {"--scale", "<int>", "cache scale divisor (default 16)",
     [](Options& o, const std::string& v) {
       o.scale = number<std::uint64_t>(v);
     }},
    {"--engine", "<compiled|reference|native>",
     "replay engine for the measurement (default compiled)",
     [](Options& o, const std::string& v) { o.engine = v; }},
    {"--no-measure", "", "skip the machine-model measurement",
     [](Options& o, const std::string&) { o.client.measure = false; }},
    {"--strategy", "<beam|genetic>",
     "tune-op search strategy (default beam)",
     [](Options& o, const std::string& v) { o.client.strategy = v; }},
    {"--gap", "<percent>", "tune-op certificate tolerance (default 5)",
     [](Options& o, const std::string& v) {
       o.client.gap = number<double>(v);
     }},
    {"--budget", "<small|medium|large|int>",
     "tune-op evaluation budget (default small; the daemon keeps tune "
     "requests comparable to optimize in service time)",
     [](Options& o, const std::string& v) { o.client.budget = v; }},
    {"--tune-seed", "<int>", "tune-op search seed (default 0)",
     [](Options& o, const std::string& v) {
       o.client.tune_seed = number<std::uint64_t>(v);
     }},
    {"--timeout-ms", "<int>",
     "queue-wait deadline for this request (default: daemon default)",
     [](Options& o, const std::string& v) {
       o.client.timeout_ms = number<std::int64_t>(v);
     }},
    {"--json", "", "print the raw response payload",
     [](Options& o, const std::string&) { o.client.json = true; }},
};

const char kMainAbout[] =
    "bwcopt -- drive the bandwidth optimizer over a workload and measure "
    "it\n\nusage: bwcopt [options]\n\n"
    "Output: the pass log, before/after memory traffic and predicted time "
    "on the\nchosen machine model, scaling curves (--cores > 1), the "
    "tuning report, and a\nsemantics check. Exit 0 on success, 1 when a "
    "bound or the semantics check is\nviolated, 2 on bad usage or any "
    "error.\n";

const char kClientAbout[] =
    "bwcopt bwcd-client -- submit one request to a running bwcd\n\n"
    "usage: bwcopt bwcd-client --port <port> [options]\n\n"
    "Exit 0 when the response status is \"ok\" (or \"pong\"), 1 on any "
    "error\nstatus, 2 on bad usage or a transport failure.\n";

const Command kMain = {"bwcopt", "[options]", kMainAbout, kFlags, 1};
const Command kClient = {"bwcopt bwcd-client", "--port <port> [options]",
                         kClientAbout, kClientFlags, 2};

using cli::parse;
using cli::usage_error;

ir::Program make_program(const Options& o) {
  if (!o.file.empty()) {
    std::ifstream in(o.file);
    if (!in.good()) throw Error("cannot open program file: " + o.file);
    std::ostringstream text;
    text << in.rdbuf();
    return ir::parse_program(text.str());
  }
  if (o.program == "fig6")
    return workloads::fig6_original(std::min<std::int64_t>(o.n, 2000));
  if (o.program == "fig7") return workloads::fig7_original(o.n);
  if (o.program == "sec21") return workloads::sec21_both_loops(o.n);
  if (o.program == "jacobi")
    return workloads::jacobi_chain(std::min<std::int64_t>(o.n, 100000), 4);
  if (o.program == "adi")
    return workloads::adi_like(std::min<std::int64_t>(o.n, 2000));
  if (o.program == "blur")
    return workloads::blur_sharpen(std::min<std::int64_t>(o.n, 100000));
  if (o.program == "cascade")
    return workloads::reduction_cascade(std::min<std::int64_t>(o.n, 100000),
                                        3);
  if (o.program == "stride")
    return workloads::transposed_sweep(std::min<std::int64_t>(o.n, 2000));
  if (o.program == "random") {
    Prng rng(o.seed);
    workloads::RandomProgramParams params;
    params.n = std::min<std::int64_t>(o.n, 4096);
    return workloads::random_program(rng, params);
  }
  throw Error("unknown program: " + o.program);
}

machine::MachineModel make_machine(const Options& o) {
  const machine::MachineModel m = machine::machine_by_name(o.machine);
  return m.scaled(o.scale).with_cores(o.cores);
}

// ---- autotune mode: search the pipeline space for the workload ----

int run_tune(const Options& o, const ir::Program& original) {
  tune::TuneOptions topts;
  topts.strategy = tune::parse_strategy(o.tune_strategy);
  topts.gap_percent = o.tune_gap;
  topts.budget = tune::parse_budget(o.tune_budget);
  topts.seed = o.tune_seed;
  topts.threads = o.cores;
  topts.machine = make_machine(o);
  topts.engine = model::engine_by_name(o.engine);
  if (!o.tune_seed_log.empty())
    topts.seed_specs = server::read_pipeline_specs(o.tune_seed_log);
  const tune::TuneResult result = tune::tune(original, topts);

  if (o.remarks) {
    // Winner's per-pass reports plus the synthetic tune record carrying
    // the certificate, as one schema-valid bwc-remarks-v1 document.
    pass::PipelineReport report = result.winner_pipeline;
    report.passes.push_back(result.report());
    const std::string name = o.file.empty() ? o.program : o.file;
    std::cout << report.to_json(name, result.winner_spec) << "\n";
    return 0;
  }

  std::cout << "autotune: " << tune::strategy_name(topts.strategy)
            << " search, budget " << topts.budget << ", gap "
            << o.tune_gap << "%, seed " << o.tune_seed << ", "
            << result.threads
            << (result.threads == 1 ? " thread\n" : " threads\n");
  std::cout << "evaluated " << result.evaluated << " candidates ("
            << result.infeasible << " infeasible)"
            << (result.early_stop ? "; stopped early within the gap"
                                  : "")
            << "\n\n";

  TextTable t("validated on " + topts.machine.name);
  t.set_header({"", "pipeline", "predicted", "measured"});
  for (const tune::Validated& v : result.validated) {
    const char* mark = v.spec == result.winner_spec    ? "winner"
                       : v.spec == result.default_spec ? "default"
                                                       : "";
    t.add_row({mark, v.spec.empty() ? "(no passes)" : v.spec,
               fmt_bytes(static_cast<double>(v.predicted_bytes)),
               fmt_bytes(static_cast<double>(v.measured_bytes))});
  }
  std::cout << t.render() << "\n";

  std::cout << "data-movement floor: " << result.floor.floor_bytes
            << " bytes\n";
  for (const verify::FloorRegion& region : result.floor.arrays)
    std::cout << "  " << region.name << ": " << region.bytes
              << " bytes\n";
  const tune::Certificate& cert = result.certificate;
  if (cert.within_gap) {
    std::cout << "certificate: winner is OPTIMAL within " << o.tune_gap
              << "% -- measured " << cert.measured_bytes << " bytes is "
              << fmt_fixed(cert.gap_percent, 2) << "% above the floor\n";
  } else if (cert.gap_percent < 0) {
    std::cout << "certificate: none (zero floor: the program moves no "
                 "mandatory data)\n";
  } else {
    std::cout << "certificate: none -- measured " << cert.measured_bytes
              << " bytes is " << fmt_fixed(cert.gap_percent, 2)
              << "% above the floor (tolerance " << o.tune_gap << "%)\n";
  }

  // The default pipeline is always in the validated set, so this can
  // only fire on an autotuner bug.
  const bool ok = result.winner_measured_bytes <= result.default_measured_bytes;
  if (!ok)
    std::cout << "winner vs default: WORSE -- please report a bug\n";
  return ok ? 0 : 1;
}

// ---- bwcd-client: speak the bwcd-v1 protocol to a running daemon ----

int bwcd_client_main(int argc, char** argv) {
  const Options o = parse(kClient, argc, argv);
  const Options::Client& c = o.client;
  if (c.port < 1 || c.port > 65535)
    usage_error(kClient, "--port is required (1..65535)");
  try {
    server::Request request;
    if (c.op == "stats") {
      request.op = server::Request::Op::kStats;
    } else if (c.op == "ping") {
      request.op = server::Request::Op::kPing;
    } else {
      const bool is_tune = c.op == "tune";
      request.op = is_tune ? server::Request::Op::kTune
                           : server::Request::Op::kOptimize;
      request.program = ir::to_string(make_program(o));
      request.machine = o.machine;
      request.cores = o.cores;
      request.scale = o.scale;
      request.engine = o.engine;
      request.timeout_ms = c.timeout_ms;
      if (is_tune) {
        request.strategy = c.strategy;
        request.gap = c.gap;
        request.budget = c.budget;
        request.tune_seed = c.tune_seed;
      } else {
        request.pipeline = c.pipeline;
        request.measure = c.measure;
      }
    }
    server::Client client(c.host, c.port);
    const server::Response response = client.call(request);
    if (c.json) {
      std::cout << server::render_response(response) << "\n";
    } else if (response.status == "ok") {
      std::cout << "status: ok"
                << (response.cache_hit ? " (cache hit)" : "") << " in "
                << response.elapsed_us << " us\n";
      if (!response.result_json.empty())
        std::cout << response.result_json << "\n";
    } else {
      std::cout << "status: " << response.status << "\n";
      if (!response.error.empty())
        std::cout << "error: " << response.error << "\n";
    }
    return response.status == "ok" ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bwcopt bwcd-client: error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "bwcd-client")
    return bwcd_client_main(argc, argv);
  const Options o = parse(kMain, argc, argv);
  if (o.tune && o.lint)
    usage_error(kMain, "--tune and --lint are mutually exclusive");
  try {
    const ir::Program original = make_program(o);
    if (o.tune) return run_tune(o, original);

    const std::string spec = o.lint ? "lint" : o.passes;
    const core::OptimizeResult result =
        core::optimize(original, spec, o.pipeline_options);
    const std::string name = o.file.empty() ? o.program : o.file;

    if (o.lint) {
      // Diagnostics mode: findings are the only product; exit 1 when any
      // error-severity finding was emitted.
      const int errors = result.pipeline.error_findings();
      if (o.remarks) {
        std::cout << result.pipeline.to_json(name, spec) << "\n";
      } else {
        for (const auto& pass_report : result.pipeline.passes) {
          for (const auto& remark : pass_report.remarks) {
            std::cout << "lint: [" << pass::remark_severity_name(
                             remark.severity)
                      << "] " << remark.code << ": " << remark.message
                      << "\n";
          }
        }
      }
      return errors > 0 ? 1 : 0;
    }

    if (o.remarks) {
      // Machine-readable mode: the JSON document is the only stdout
      // output, so CI can pipe it straight into the schema validator.
      std::cout << result.pipeline.to_json(name, spec) << "\n";
      return 0;
    }

    const machine::MachineModel machine = make_machine(o);
    if (o.print) {
      std::cout << "---- original ----\n" << ir::to_string(original)
                << "\n---- optimized ----\n" << ir::to_string(result.program)
                << "\n";
    }
    std::cout << "passes:\n" << result.pipeline.to_text() << "\n";

    model::MeasureOptions measure_opts;
    measure_opts.engine = model::engine_by_name(o.engine);
    measure_opts.fast_forward = o.fast_forward;
    measure_opts.native.cache_dir = o.codegen_cache_dir;
    runtime::NativeReport native_report;
    if (measure_opts.engine == model::ExecEngine::kNative)
      measure_opts.native_report = &native_report;
    const auto before = model::measure(original, machine, measure_opts);
    if (!native_report.warning.empty()) {
      // Native fell back to the VM; say so once (results are identical).
      std::cerr << "warning: " << native_report.warning << "\n";
      measure_opts.native_report = nullptr;
    }
    const auto after = model::measure(result.program, machine, measure_opts);
    TextTable t("on " + machine.name);
    t.set_header({"", "mem traffic", "predicted ms", "binding"});
    t.add_row({"original",
               fmt_bytes(static_cast<double>(before.profile.memory_bytes())),
               fmt_fixed(before.time.total_s * 1e3, 3),
               before.time.binding_resource});
    t.add_row({"optimized",
               fmt_bytes(static_cast<double>(after.profile.memory_bytes())),
               fmt_fixed(after.time.total_s * 1e3, 3),
               after.time.binding_resource});
    std::cout << t.render();
    std::cout << "speedup: "
              << fmt_fixed(before.time.total_s / after.time.total_s, 2)
              << "x\n";

    if (o.cores > 1) {
      // Scaling curves up to the requested core count: optimization lowers
      // shared-bus traffic, so the optimized program should saturate the
      // bus at strictly more cores (or plateau higher).
      std::cout << "\n"
                << model::render_scaling_curve(model::scaling_curve(
                       "original", before.profile, machine, o.cores))
                << model::render_scaling_curve(model::scaling_curve(
                       "optimized", after.profile, machine, o.cores));
    }

    bool bounds_ok = true;
    if (o.verify_report) {
      const struct {
        const char* label;
        const ir::Program& program;
        std::uint64_t measured;
      } sides[] = {
          {"original", original, before.profile.memory_bytes()},
          {"optimized", result.program, after.profile.memory_bytes()},
      };
      for (const auto& side : sides) {
        const verify::TrafficBound bound =
            verify::compute_traffic_bound(side.program);
        std::cout << "\n[" << side.label << "] " << bound.render();
        const bool holds =
            static_cast<std::uint64_t>(bound.lower_bound_bytes) <=
            side.measured;
        std::cout << "  bound <= measured " << side.measured << " bytes: "
                  << (holds ? "holds" : "VIOLATED -- please report a bug")
                  << "\n";
        bounds_ok = bounds_ok && holds;
      }
      std::cout << "\n";
    }

    const double drift =
        std::abs(before.exec.checksum - after.exec.checksum);
    const bool ok = bounds_ok &&
        drift <= 1e-9 * (std::abs(before.exec.checksum) + 1.0);
    std::cout << "semantics: "
              << (ok ? "preserved" : "MISMATCH -- please report a bug")
              << " (checksum " << before.exec.checksum << ")\n\n";
    std::cout << model::render_tuning_report(
        model::tuning_report(after.profile, machine));
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
