// perfbench: closed-loop end-to-end benchmark of the bwc library.
//
//   perfbench --workload <replay_2d|replay_1d|compile_generated|daemon_hits>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file>]
//
// One process runs one workload: it sets up several times (setup_s is
// the median), then `nproc` client threads send requests in a closed
// loop for --seconds, each waiting for its reply before sending the
// next. Every response is checked. The last stdout line is one JSON
// object: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1 (which also runs the timed phase untraced first, to
// report the tracing overhead, and writes a Chrome trace-event file).
// perfbench/README.md describes the workloads and every metric.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/ir/parser.h"
#include "bwc/ir/printer.h"
#include "bwc/machine/machine_model.h"
#include "bwc/machine/timing.h"
#include "bwc/model/balance.h"
#include "bwc/model/measure.h"
#include "bwc/runtime/compiled.h"
#include "bwc/runtime/lowering.h"
#include "bwc/server/cache.h"
#include "bwc/server/client.h"
#include "bwc/server/daemon.h"
#include "bwc/server/json.h"
#include "bwc/server/protocol.h"
#include "checks.h"
#include "corpus.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;
namespace server = bwc::server;

/// Set-ups per untraced run; setup_s reports their median.
constexpr int kSetups = 5;
/// Every timed phase completes at least this many requests, so p90 has
/// at least ten samples beyond it.
constexpr std::uint64_t kMinRequests = 100;

constexpr char kUsage[] =
    "usage: perfbench --workload <replay_2d|replay_1d|compile_generated|"
    "daemon_hits> --seed <n> --seconds <s> --trace <0|1> "
    "[--work-dir <dir>] [--trace-out <file>]\n";

struct Args {
  Workload workload = Workload::kReplay2d;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path work_dir = ".bench_build/perfbench-work";
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n" << kUsage;
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = parse_workload(value);
        if (!w) usage_error("unknown workload: " + value);
        a.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        a.seed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        if (!(a.seconds > 0.0 && a.seconds <= 600.0))
          usage_error("--seconds must be in (0, 600]");
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        a.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work-dir") {
        a.work_dir = value;
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage_error("unknown flag: " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value \"" + value + "\" for " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage_error("--workload, --seed, --seconds and --trace are required");
  if (a.trace_out.empty())
    a.trace_out = (a.work_dir.parent_path() /
                   (std::string("perfbench-trace-") +
                    workload_name(a.workload) + ".json"))
                      .string();
  return a;
}

int cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double mean_ms(const SpanTotals& t) {
  return ratio(static_cast<double>(t.total_ns) / 1e6,
               static_cast<double>(t.calls));
}

// ---- per-client state ----

/// Counters the layers already return (PassReport, ExecResult,
/// LoweredProgram), summed over a client's requests.
struct LayerCounters {
  std::uint64_t pipelines = 0;
  std::uint64_t passes_run = 0;
  std::uint64_t passes_changed = 0;
  std::uint64_t analysis_hits = 0;
  std::uint64_t analysis_misses = 0;
  double fuse_ms = 0.0;
  double reduce_storage_ms = 0.0;
  double eliminate_stores_ms = 0.0;
  double verify_ms = 0.0;
  std::uint64_t verify_checks = 0;
  std::uint64_t verify_static = 0;
  std::uint64_t verify_instances = 0;
  std::uint64_t verify_skipped = 0;
  std::uint64_t lowered = 0;
  std::uint64_t stream_loops = 0;
  std::uint64_t replays = 0;
  std::uint64_t accesses = 0;
  std::uint64_t ff_iterations = 0;
  double memory_bytes = 0.0;
  /// Keeps results of calls made only to be timed observable.
  double sink = 0.0;

  void add_pipeline(const bwc::pass::PipelineReport& report) {
    pipelines += 1;
    analysis_hits += report.analysis.hits;
    analysis_misses += report.analysis.misses;
    for (const bwc::pass::PassReport& p : report.passes) {
      passes_run += 1;
      passes_changed += p.changed ? 1 : 0;
      if (p.pass == "fuse") fuse_ms += p.wall_ms;
      if (p.pass == "reduce-storage") reduce_storage_ms += p.wall_ms;
      if (p.pass == "eliminate-stores") eliminate_stores_ms += p.wall_ms;
      verify_ms += p.verify_ms;
      if (p.verify.ran) {
        verify_checks += 1;
        verify_static += p.verify.check.rfind("static-", 0) == 0 ? 1 : 0;
        verify_instances += p.verify.instances_checked;
        verify_skipped += p.verify.skipped ? 1 : 0;
      }
    }
  }

  void add(const LayerCounters& o) {
    pipelines += o.pipelines;
    passes_run += o.passes_run;
    passes_changed += o.passes_changed;
    analysis_hits += o.analysis_hits;
    analysis_misses += o.analysis_misses;
    fuse_ms += o.fuse_ms;
    reduce_storage_ms += o.reduce_storage_ms;
    eliminate_stores_ms += o.eliminate_stores_ms;
    verify_ms += o.verify_ms;
    verify_checks += o.verify_checks;
    verify_static += o.verify_static;
    verify_instances += o.verify_instances;
    verify_skipped += o.verify_skipped;
    lowered += o.lowered;
    stream_loops += o.stream_loops;
    replays += o.replays;
    accesses += o.accesses;
    ff_iterations += o.ff_iterations;
    memory_bytes += o.memory_bytes;
    sink += o.sink;
  }
};

/// Deterministic quality facts of one corpus program: bytes moved between
/// memory and L2, and the static traffic bound, before and after the
/// default pipeline.
struct Quality {
  double original_bytes = 0.0;
  double optimized_bytes = 0.0;
  double bound_before = 0.0;
  double bound_after = 0.0;
};

struct ClientState {
  ClientState(bool trace, int id) : spans(trace, id) {}

  SpanBuffer spans;
  LayerCounters counters;
  std::vector<double> latencies_ms;
  std::map<std::string, std::uint64_t> failures;  // by code
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::set<std::size_t> rejected_programs;  // by the verifier
  std::map<std::size_t, Quality> quality;  // by corpus program
  /// compile_generated: the text of each program's first optimized
  /// result, replayed in the quality pass instead of optimizing again.
  std::map<std::size_t, std::string> optimized;
  std::unique_ptr<server::Client> client;  // daemon_hits only

  void record(const std::string& failure, std::size_t program) {
    attempted += 1;
    if (failure.empty()) return;
    failures[failure] += 1;
    if (!is_verifier_rejection(failure)) {
      failed += 1;
      return;
    }
    rejected_programs.insert(program);
  }
};

struct Bench {
  Args args;
  int clients = 1;  // nproc closed-loop client threads
  bwc::machine::MachineModel machine;
  fs::path work_dir;  // private to this process

  // The current set-up.
  Corpus corpus;
  std::unique_ptr<server::Daemon> daemon;
  /// A second cache instance over the daemon's directory, for the traced
  /// run's cache-lookup probe.
  std::unique_ptr<server::CompileCache> probe_cache;
  std::vector<server::Request> requests;  // daemon_hits: one per program
  std::vector<std::string> bodies;        // daemon_hits: stored at priming
  std::vector<double> prime_ms;           // latency of every priming miss
  /// compile_generated quality pass: optimized program text by index.
  std::map<std::size_t, std::string> optimized;

  void tear_down() {
    daemon.reset();
    probe_cache.reset();
  }
};

// ---- one request of each workload ----

struct Replayed {
  double checksum = 0.0;
  std::uint64_t memory_bytes = 0;
};

/// model::measure of one program. The traced run calls its public parts
/// one at a time -- the same work -- so each gets its own span.
Replayed replay(const Bench& b, ClientState& c, const bwc::ir::Program& p,
                std::uint64_t rid) {
  bwc::runtime::ExecResult exec;
  if (!c.spans.enabled()) {
    exec = bwc::model::measure(p, b.machine).exec;
  } else {
    std::optional<bwc::memsim::MemoryHierarchy> hierarchy;
    {
      ScopedSpan span(c.spans, "memsim.make_hierarchy", rid);
      hierarchy.emplace(b.machine.make_hierarchy());
    }
    bwc::runtime::LoweredProgram lowered;
    {
      ScopedSpan span(c.spans, "runtime.lower", rid);
      lowered = bwc::runtime::lower(p);
    }
    c.counters.lowered += 1;
    c.counters.stream_loops += lowered.stream_loops.size();
    bwc::runtime::ExecOptions opts;
    opts.hierarchy = &*hierarchy;
    opts.cores = b.machine.core_count;
    {
      ScopedSpan span(c.spans, "runtime.replay", rid);
      exec = bwc::runtime::execute_lowered(lowered, opts);
    }
    ScopedSpan span(c.spans, "model.predict", rid);
    const bwc::machine::TimePrediction time =
        bwc::machine::predict_time(exec.profile, b.machine);
    const bwc::model::ProgramBalance balance =
        bwc::model::ProgramBalance::from_profile(p.name(), exec.profile);
    c.counters.sink +=
        time.total_s + static_cast<double>(balance.bytes_per_flop.size());
  }
  c.counters.replays += 1;
  c.counters.accesses += exec.loads + exec.stores;
  c.counters.ff_iterations += exec.fast_forwarded_iterations;
  c.counters.memory_bytes += static_cast<double>(exec.profile.memory_bytes());
  return {exec.checksum, exec.profile.memory_bytes()};
}

/// First pass's bound before and last computed bound after, as bwcd
/// reports them in its result body.
std::pair<double, double> pipeline_bounds(
    const bwc::pass::PipelineReport& report) {
  std::int64_t first = -1, last = -1;
  for (const bwc::pass::PassReport& p : report.passes) {
    if (first < 0) first = p.traffic_bound_before;
    if (p.traffic_bound_after >= 0) last = p.traffic_bound_after;
  }
  return {static_cast<double>(first), static_cast<double>(last)};
}

bwc::core::OptimizeResult parse_and_optimize(ClientState& c,
                                             const std::string& text,
                                             std::uint64_t rid,
                                             bwc::ir::Program& original) {
  {
    ScopedSpan span(c.spans, "ir.parse", rid);
    original = bwc::ir::parse_program(text);
  }
  bwc::core::OptimizeResult result;
  {
    ScopedSpan span(c.spans, "pass.optimize", rid);
    result = bwc::core::optimize(original);
  }
  c.counters.add_pipeline(result.pipeline);
  return result;
}

/// replay_2d / replay_1d: parse, optimize, measure both programs, and
/// require equal checksums.
std::string replay_request(Bench& b, ClientState& c, std::size_t index,
                           std::uint64_t rid) {
  ScopedSpan root(c.spans, "request", rid);
  bwc::ir::Program original;
  const bwc::core::OptimizeResult result =
      parse_and_optimize(c, b.corpus.programs[index].text, rid, original);
  const Replayed before = replay(b, c, original, rid);
  const Replayed after = replay(b, c, result.program, rid);
  const auto [bound_before, bound_after] = pipeline_bounds(result.pipeline);
  c.quality[index] = {static_cast<double>(before.memory_bytes),
                      static_cast<double>(after.memory_bytes), bound_before,
                      bound_after};
  return check_checksums(before.checksum, after.checksum);
}

/// Values-only checksum on the compiled engine (no cache hierarchy).
double values_checksum(ClientState& c, const bwc::ir::Program& p,
                       std::uint64_t rid) {
  ScopedSpan check(c.spans, "runtime.check", rid);
  if (!c.spans.enabled()) return bwc::runtime::execute_compiled(p).checksum;
  bwc::runtime::LoweredProgram lowered;
  {
    ScopedSpan span(c.spans, "runtime.lower", rid);
    lowered = bwc::runtime::lower(p);
  }
  c.counters.lowered += 1;
  c.counters.stream_loops += lowered.stream_loops.size();
  ScopedSpan span(c.spans, "runtime.execute", rid);
  return bwc::runtime::execute_lowered(lowered).checksum;
}

/// compile_generated: parse, optimize with verification, and compare
/// values-only checksums of the original and the optimized program.
std::string compile_request(Bench& b, ClientState& c, std::size_t index,
                            std::uint64_t rid) {
  ScopedSpan root(c.spans, "request", rid);
  bwc::ir::Program original;
  const bwc::core::OptimizeResult result =
      parse_and_optimize(c, b.corpus.programs[index].text, rid, original);
  const double before = values_checksum(c, original, rid);
  const double after = values_checksum(c, result.program, rid);
  if (!c.quality.count(index)) {
    const auto [bound_before, bound_after] = pipeline_bounds(result.pipeline);
    c.quality[index] = {0.0, 0.0, bound_before, bound_after};
    c.optimized.emplace(index, bwc::ir::to_string(result.program));
  }
  return check_checksums(before, after);
}

/// compile_generated quality pass: replay a program and its stored
/// optimized form through the cache hierarchy to get their traffic.
std::string measure_request(Bench& b, ClientState& c, std::size_t index,
                            std::uint64_t rid) {
  const bwc::ir::Program original =
      bwc::ir::parse_program(b.corpus.programs[index].text);
  const Replayed before = replay(b, c, original, rid);
  const Replayed after =
      replay(b, c, bwc::ir::parse_program(b.optimized.at(index)), rid);
  c.quality[index] = {static_cast<double>(before.memory_bytes),
                      static_cast<double>(after.memory_bytes), 0.0, 0.0};
  return check_checksums(before.checksum, after.checksum);
}

/// The traced daemon_hits run times, on the same request, the client-side
/// and server-side steps a hit goes through; transport is what remains
/// of the round trip.
void probe_hit(Bench& b, ClientState& c, const server::Request& request,
               const server::Response& response, std::uint64_t rid) {
  {
    ScopedSpan span(c.spans, "server.request_codec", rid);
    const server::Request parsed =
        server::parse_request(server::render_request(request));
    c.counters.sink += static_cast<double>(parsed.program.size());
  }
  std::string key;
  {
    ScopedSpan span(c.spans, "server.canonicalize", rid);
    key = b.daemon->service().cache_key_text(request);
  }
  {
    ScopedSpan span(c.spans, "server.cache_get", rid);
    const server::CompileCache::Lookup lookup = b.probe_cache->get(key);
    c.counters.sink += lookup.hit ? 1.0 : 0.0;
  }
  const std::string payload = server::render_response(response);
  {
    ScopedSpan span(c.spans, "server.parse_response", rid);
    const server::Response parsed = server::parse_response(payload);
    c.counters.sink += static_cast<double>(parsed.result_json.size());
  }
  bwc::ir::Program program;
  {
    ScopedSpan span(c.spans, "ir.parse", rid);
    program = bwc::ir::parse_program(request.program);
  }
  ScopedSpan span(c.spans, "ir.print", rid);
  c.counters.sink +=
      static_cast<double>(bwc::ir::to_string(program).size());
}

/// daemon_hits: one optimize request that must be served from the cache
/// with the body stored when it was primed.
std::string hit_request(Bench& b, ClientState& c, std::size_t index,
                        std::uint64_t rid) {
  ScopedSpan root(c.spans, "request", rid);
  const server::Request& request = b.requests[index];
  server::Response response;
  {
    ScopedSpan span(c.spans, "server.roundtrip", rid);
    response = c.client->call(request);
  }
  if (c.spans.enabled()) probe_hit(b, c, request, response, rid);
  return check_hit(response, b.bodies[index]);
}

/// daemon_hits set-up: the first request for a program is a miss whose
/// body is stored for the timed phase's check.
std::string prime_request(Bench& b, ClientState& c, std::size_t index,
                          std::uint64_t) {
  const server::Response response = c.client->call(b.requests[index]);
  if (response.status != "ok") return "status-" + response.status;
  if (response.cache_hit) return "unexpected-hit";
  b.bodies[index] = response.result_json;
  return "";
}

using ServeFn = std::string (*)(Bench&, ClientState&, std::size_t,
                                std::uint64_t);

ServeFn timed_request(Workload w) {
  switch (w) {
    case Workload::kCompileGenerated: return compile_request;
    case Workload::kDaemonHits: return hit_request;
    default: return replay_request;
  }
}

// ---- the closed loop ----

std::vector<ClientState> make_clients(Bench& b, bool trace) {
  std::vector<ClientState> clients;
  clients.reserve(static_cast<std::size_t>(b.clients));
  for (int i = 0; i < b.clients; ++i) {
    clients.emplace_back(trace, i + 1);
    if (b.daemon)
      clients.back().client =
          std::make_unique<server::Client>("127.0.0.1", b.daemon->port());
  }
  return clients;
}

/// Every client takes the next sequence number and serves
/// order[(first + seq) % size], sending its next request only when the
/// previous one returned. With count > 0 exactly `count` requests run;
/// otherwise requests start until `seconds` passed and at least
/// kMinRequests started. Returns the phase's wall time in seconds.
double closed_loop(Bench& b, std::vector<ClientState>& clients, ServeFn serve,
                   const std::vector<std::size_t>& order, std::size_t first,
                   std::uint64_t count, double seconds) {
  std::atomic<std::uint64_t> next{0};
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  auto client_loop = [&](ClientState& c) {
    for (;;) {
      const std::uint64_t seq = next.fetch_add(1);
      const bool admit = count > 0
                             ? seq < count
                             : seq < kMinRequests || now_ns() < deadline;
      if (!admit) return;
      const std::size_t index = order[(first + seq) % order.size()];
      const std::int64_t t0 = now_ns();
      std::string failure;
      try {
        failure = serve(b, c, index, seq + 1);
      } catch (const std::exception& e) {
        failure = exception_code(e);
      }
      c.latencies_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      c.record(failure, index);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (ClientState& c : clients) threads.emplace_back(client_loop, std::ref(c));
  for (std::thread& t : threads) t.join();
  return static_cast<double>(now_ns() - start) / 1e9;
}

std::string describe_failures(const std::vector<ClientState>& clients) {
  std::map<std::string, std::uint64_t> merged;
  for (const ClientState& c : clients)
    for (const auto& [code, n] : c.failures) merged[code] += n;
  std::string out;
  for (const auto& [code, n] : merged)
    out += " " + code + "=" + std::to_string(n);
  return out.empty() ? " none" : out;
}

/// Generate the corpus and make the workload ready to serve: start and
/// prime the daemon (daemon_hits), or run the warm-up slice. Returns the
/// set-up's wall time in seconds.
double set_up(Bench& b, int index, SpanBuffer& spans) {
  const std::int64_t start = now_ns();
  b.corpus = make_corpus(b.args.workload, b.args.seed, &spans);
  std::vector<ClientState> clients;
  if (b.args.workload == Workload::kDaemonHits) {
    const fs::path dir = b.work_dir / ("setup-" + std::to_string(index));
    fs::create_directories(dir);
    server::DaemonOptions options;
    options.threads = b.clients;
    options.service.cache_dir = (dir / "cache").string();
    options.service.record_log_path = (dir / "records.log").string();
    b.daemon = std::make_unique<server::Daemon>(options);
    b.daemon->start();
    b.probe_cache =
        std::make_unique<server::CompileCache>(options.service.cache_dir);
    b.requests.assign(b.corpus.programs.size(), server::Request{});
    for (std::size_t i = 0; i < b.requests.size(); ++i)
      b.requests[i].program = b.corpus.programs[i].text;
    b.bodies.assign(b.corpus.programs.size(), std::string());
    clients = make_clients(b, false);
    closed_loop(b, clients, prime_request, b.corpus.order, 0,
                b.corpus.order.size(), 0.0);
    for (const ClientState& c : clients)
      b.prime_ms.insert(b.prime_ms.end(), c.latencies_ms.begin(),
                        c.latencies_ms.end());
  } else {
    clients = make_clients(b, false);
    closed_loop(b, clients, timed_request(b.args.workload), b.corpus.order,
                0, b.corpus.warmup, 0.0);
  }
  for (const ClientState& c : clients) {
    if (c.failed > 0)
      throw std::runtime_error("set-up request failed:" +
                               describe_failures(clients));
  }
  return static_cast<double>(now_ns() - start) / 1e9;
}

// ---- metrics ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed in the table only
};

struct PhaseSummary {
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies_ms;
  LayerCounters counters;
  double requests_per_s() const {
    return ratio(static_cast<double>(attempted), wall_s);
  }
};

PhaseSummary summarize(const std::vector<ClientState>& clients,
                       double wall_s) {
  PhaseSummary s;
  s.wall_s = wall_s;
  for (const ClientState& c : clients) {
    s.attempted += c.attempted;
    s.failed += c.failed;
    s.latencies_ms.insert(s.latencies_ms.end(), c.latencies_ms.begin(),
                          c.latencies_ms.end());
    s.counters.add(c.counters);
  }
  return s;
}

Quality quality_from_body(const std::string& body) {
  const server::JsonValue v = server::parse_json(body);
  const server::JsonValue& bound = *v.find("traffic_bound");
  const server::JsonValue& machine = *v.find("machine");
  return {machine.find("original")->number_or("memory_bytes", 0.0),
          machine.find("optimized")->number_or("memory_bytes", 0.0),
          bound.number_or("original_bytes", 0.0),
          bound.number_or("optimized_bytes", 0.0)};
}

/// Geometric means of the per-program reductions over the corpus.
/// Programs the verifier rejected, or whose bound is 0, are left out.
std::pair<double, double> reductions(const std::vector<Quality>& quality) {
  std::vector<double> traffic, bound;
  for (const Quality& q : quality) {
    if (q.original_bytes > 0.0 && q.optimized_bytes > 0.0)
      traffic.push_back(q.original_bytes / q.optimized_bytes);
    if (q.bound_before > 0.0 && q.bound_after > 0.0)
      bound.push_back(q.bound_before / q.bound_after);
  }
  return {geometric_mean(traffic), geometric_mean(bound)};
}

/// Deterministic facts about the whole corpus: per-program quality, the
/// programs the verifier rejects, and failures the untimed pass found.
struct CorpusFacts {
  std::vector<Quality> quality;
  std::set<std::size_t> rejected;
  std::uint64_t failed = 0;
};

/// Runs `serve` untimed over `indices` and merges what it learns into
/// `facts` (traffic only when `traffic_only`).
void quality_pass(Bench& b, ServeFn serve,
                  const std::vector<std::size_t>& indices, bool traffic_only,
                  CorpusFacts& facts) {
  if (indices.empty()) return;
  std::vector<ClientState> clients = make_clients(b, false);
  closed_loop(b, clients, serve, indices, 0, indices.size(), 0.0);
  std::vector<Quality>& quality = facts.quality;
  for (const ClientState& c : clients) {
    facts.failed += c.failed;
    facts.rejected.insert(c.rejected_programs.begin(),
                          c.rejected_programs.end());
    for (const auto& [index, q] : c.quality) {
      if (!traffic_only) {
        quality[index] = q;
        continue;
      }
      quality[index].original_bytes = q.original_bytes;
      quality[index].optimized_bytes = q.optimized_bytes;
    }
  }
}

/// Facts for every corpus program. Replay requests measured most of them
/// already and the rest are replayed here, untimed. On compile_generated,
/// whose requests do not simulate the cache hierarchy, the stored
/// optimized programs are replayed here.
CorpusFacts collect_facts(Bench& b, const std::vector<ClientState>& timed) {
  CorpusFacts facts;
  std::vector<Quality>& quality = facts.quality;
  quality.assign(b.corpus.programs.size(), Quality{});
  if (b.args.workload == Workload::kDaemonHits) {
    for (std::size_t i = 0; i < quality.size(); ++i)
      quality[i] = quality_from_body(b.bodies[i]);
    return facts;
  }
  std::vector<bool> known(quality.size(), false);
  for (const ClientState& c : timed) {
    facts.rejected.insert(c.rejected_programs.begin(),
                          c.rejected_programs.end());
    for (const auto& [index, q] : c.quality) {
      quality[index] = q;
      known[index] = true;
    }
  }
  b.optimized.clear();
  for (const ClientState& c : timed)
    b.optimized.insert(c.optimized.begin(), c.optimized.end());
  std::vector<std::size_t> missing, stored;
  for (std::size_t i = 0; i < quality.size(); ++i) {
    if (facts.rejected.count(i) == 0)
      (known[i] ? stored : missing).push_back(i);
  }
  if (b.args.workload != Workload::kCompileGenerated) stored.clear();
  quality_pass(b, replay_request, missing, false, facts);
  quality_pass(b, measure_request, stored, true, facts);
  return facts;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("%-30s %16s  %-9s %s\n", "metric", "value", "unit", "note");
  for (const Metric& m : metrics)
    std::printf("%-30s %16.6g  %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result_line(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

std::vector<Metric> end_to_end_metrics(const PhaseSummary& timed,
                                       const std::vector<double>& setups,
                                       std::uint64_t failed,
                                       const CorpusFacts& facts) {
  const Percentile p50 = nearest_rank(timed.latencies_ms, 50);
  const Percentile p90 = nearest_rank(timed.latencies_ms, 90);
  const auto [traffic, bound] = reductions(facts.quality);
  // Rejections are a property of a program, so they are counted over the
  // corpus, which keeps the ratio identical from run to run at one seed;
  // failures are counted over the requests attempted.
  const double programs = static_cast<double>(facts.quality.size());
  const double ok_ratio =
      1.0 - static_cast<double>(facts.rejected.size()) / programs -
      ratio(static_cast<double>(failed), static_cast<double>(timed.attempted));
  const std::string n = std::to_string(p50.samples) + " samples";
  return {
      {"requests_per_s", timed.requests_per_s(), "1/s",
       std::to_string(timed.attempted) + " requests"},
      {"latency_p50_ms", p50.value, "ms", n},
      {"latency_p90_ms", p90.value, "ms",
       n + ", " + std::to_string(p90.beyond()) + " beyond"},
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"peak_rss_mb", peak_rss_mb(), "MB", ""},
      {"ok_ratio", ok_ratio, "fraction",
       std::to_string(facts.rejected.size()) + " of " +
           std::to_string(facts.quality.size()) +
           " programs rejected by the verifier"},
      {"traffic_reduction", traffic, "x", "geomean over accepted programs"},
      {"bound_reduction", bound, "x", "static traffic bound"},
  };
}

struct DaemonSnapshot {
  server::Daemon::Counters counters;
  server::Service::Stats stats;
};

DaemonSnapshot snapshot(const Bench& b) {
  if (!b.daemon) return {};
  return {b.daemon->counters(), b.daemon->service().stats()};
}

std::vector<Metric> per_layer_metrics(
    const Bench& b, const PhaseSummary& untraced, const PhaseSummary& traced,
    const std::map<std::string, SpanTotals>& spans,
    const std::map<std::string, SpanTotals>& setup_spans,
    const DaemonSnapshot& before, const DaemonSnapshot& after) {
  auto span = [&](const std::map<std::string, SpanTotals>& m,
                  const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? SpanTotals{} : it->second;
  };
  const LayerCounters& k = traced.counters;
  const double pipelines = static_cast<double>(k.pipelines);
  const double requests = static_cast<double>(traced.attempted);
  SpanTotals print = span(setup_spans, "ir.print");
  print.calls += span(spans, "ir.print").calls;
  print.total_ns += span(spans, "ir.print").total_ns;
  const double roundtrip = mean_ms(span(spans, "server.roundtrip"));
  const double codec = mean_ms(span(spans, "server.request_codec"));
  const double canonicalize = mean_ms(span(spans, "server.canonicalize"));
  const double cache_get = mean_ms(span(spans, "server.cache_get"));
  const double parse_response = mean_ms(span(spans, "server.parse_response"));
  const double batches =
      static_cast<double>(after.counters.batches - before.counters.batches);
  const double hits =
      static_cast<double>(after.stats.cache_hits - before.stats.cache_hits);
  const double misses = static_cast<double>(after.stats.cache_misses -
                                            before.stats.cache_misses);
  const double replay_s =
      static_cast<double>(span(spans, "runtime.replay").total_ns) / 1e9;
  return {
      {"workloads.generate_ms", mean_ms(span(setup_spans, "workloads.generate")),
       "ms", "per corpus"},
      {"ir.parse_ms", mean_ms(span(spans, "ir.parse")), "ms", "per call"},
      {"ir.print_ms", mean_ms(print), "ms", "per call"},
      {"pass.optimize_ms", mean_ms(span(spans, "pass.optimize")), "ms",
       "per call"},
      {"fusion.fuse_ms", ratio(k.fuse_ms, pipelines), "ms", "per pipeline"},
      {"transform.reduce_storage_ms", ratio(k.reduce_storage_ms, pipelines),
       "ms", "per pipeline"},
      {"transform.eliminate_stores_ms",
       ratio(k.eliminate_stores_ms, pipelines), "ms", "per pipeline"},
      {"pass.changed_ratio",
       ratio(static_cast<double>(k.passes_changed),
             static_cast<double>(k.passes_run)),
       "fraction", ""},
      {"analysis.cache_hit_ratio",
       ratio(static_cast<double>(k.analysis_hits),
             static_cast<double>(k.analysis_hits + k.analysis_misses)),
       "fraction", ""},
      {"verify.check_ms", ratio(k.verify_ms, pipelines), "ms",
       "per pipeline"},
      {"verify.static_ratio",
       ratio(static_cast<double>(k.verify_static),
             static_cast<double>(k.verify_checks)),
       "fraction", std::to_string(k.verify_checks) + " checks"},
      {"verify.instances",
       ratio(static_cast<double>(k.verify_instances), pipelines), "count",
       "per pipeline"},
      {"verify.skipped",
       ratio(static_cast<double>(k.verify_skipped), pipelines), "count",
       "per pipeline"},
      {"runtime.lower_ms", mean_ms(span(spans, "runtime.lower")), "ms",
       "per program"},
      {"runtime.stream_loops",
       ratio(static_cast<double>(k.stream_loops),
             static_cast<double>(k.lowered)),
       "count", "per program"},
      {"runtime.replay_ms", mean_ms(span(spans, "runtime.replay")), "ms",
       "per program"},
      {"runtime.accesses", ratio(static_cast<double>(k.accesses), requests),
       "count", "per request"},
      {"runtime.access_rate",
       ratio(static_cast<double>(k.accesses) / 1e6, replay_s), "M/s", ""},
      {"runtime.ff_iterations",
       ratio(static_cast<double>(k.ff_iterations), requests), "count",
       "per request"},
      {"runtime.check_ms", mean_ms(span(spans, "runtime.check")), "ms",
       "per program"},
      {"memsim.memory_bytes",
       ratio(k.memory_bytes, static_cast<double>(k.replays)), "bytes",
       "per program"},
      {"model.predict_ms", mean_ms(span(spans, "model.predict")), "ms",
       "per program"},
      {"server.roundtrip_ms", roundtrip, "ms", "per call"},
      {"server.request_codec_ms", codec, "ms", "per request"},
      {"server.canonicalize_ms", canonicalize, "ms", "per request"},
      {"server.cache_get_ms", cache_get, "ms", "per request"},
      {"server.parse_response_ms", parse_response, "ms", "per request"},
      {"server.transport_ms",
       b.daemon ? roundtrip - codec - canonicalize - cache_get - parse_response
                : 0.0,
       "ms", "round trip minus the four rows above"},
      {"server.batch_size",
       ratio(static_cast<double>(after.counters.batched_jobs -
                                 before.counters.batched_jobs),
             batches),
       "count", "jobs per batch"},
      {"server.cache_hit_ratio", ratio(hits, hits + misses), "fraction",
       "timed phase"},
      {"server.rejected",
       static_cast<double>(
           (after.counters.overloaded - before.counters.overloaded) +
           (after.counters.timeouts - before.counters.timeouts)),
       "count", "overloaded + timeouts"},
      {"server.prime_ms",
       ratio(std::accumulate(b.prime_ms.begin(), b.prime_ms.end(), 0.0),
             static_cast<double>(b.prime_ms.size())),
       "ms", "per set-up miss"},
      {"trace.overhead_pct",
       100.0 * ratio(untraced.requests_per_s() - traced.requests_per_s(),
                     untraced.requests_per_s()),
       "%", "requests_per_s, traced vs untraced"},
  };
}

void print_self_times(const std::map<std::string, SpanTotals>& spans,
                      std::uint64_t requests) {
  const double n = static_cast<double>(std::max<std::uint64_t>(requests, 1));
  std::printf("%-24s %12s %14s %16s\n", "span (timed phase)", "calls/req",
              "ms/call", "self ms/req");
  for (const auto& [name, t] : spans) {
    std::printf("%-24s %12.3f %14.4f %16.4f\n", name.c_str(),
                static_cast<double>(t.calls) / n, mean_ms(t),
                static_cast<double>(t.self_ns) / 1e6 / n);
  }
}

int run(Bench& b) {
  const Args& a = b.args;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d clients=%d\n",
              workload_name(a.workload),
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, b.clients);
  const std::int64_t origin = now_ns();
  SpanBuffer setup_spans(a.trace, 0);
  std::vector<double> setups;
  for (int i = 0; i < (a.trace ? 1 : kSetups); ++i) {
    b.tear_down();
    setups.push_back(set_up(b, i, setup_spans));
  }
  std::printf("set-up: %zu programs, %zu runs, seconds:", b.corpus.programs.size(),
              setups.size());
  for (double s : setups) std::printf(" %.3f", s);
  std::printf("\n");

  const std::size_t first =
      a.workload == Workload::kDaemonHits ? 0 : b.corpus.warmup;
  const ServeFn serve = timed_request(a.workload);
  std::vector<ClientState> timed = make_clients(b, false);
  const double wall = closed_loop(b, timed, serve, b.corpus.order, first, 0,
                                  a.seconds);
  const PhaseSummary untraced = summarize(timed, wall);
  std::printf("timed: %llu requests in %.3f s; failures by code:%s\n",
              static_cast<unsigned long long>(untraced.attempted), wall,
              describe_failures(timed).c_str());

  std::vector<Metric> metrics;
  std::uint64_t failed = untraced.failed;
  std::uint64_t attempted = untraced.attempted;
  if (!a.trace) {
    const CorpusFacts facts = collect_facts(b, timed);
    failed += facts.failed;
    metrics = end_to_end_metrics(untraced, setups, failed, facts);
  } else {
    const DaemonSnapshot before = snapshot(b);
    std::vector<ClientState> traced = make_clients(b, true);
    const double traced_wall = closed_loop(b, traced, serve, b.corpus.order,
                                           first, 0, a.seconds);
    const DaemonSnapshot after = snapshot(b);
    const PhaseSummary summary = summarize(traced, traced_wall);
    std::printf("traced: %llu requests in %.3f s; failures by code:%s\n",
                static_cast<unsigned long long>(summary.attempted),
                traced_wall, describe_failures(traced).c_str());
    failed += summary.failed;
    attempted += summary.attempted;
    std::vector<const SpanBuffer*> buffers{&setup_spans};
    for (const ClientState& c : traced) buffers.push_back(&c.spans);
    const std::vector<const SpanBuffer*> timed_buffers(buffers.begin() + 1,
                                                       buffers.end());
    const auto totals = merge_totals(timed_buffers);
    print_self_times(totals, summary.attempted);
    metrics = per_layer_metrics(b, untraced, summary, totals,
                                merge_totals({&setup_spans}), before, after);
    std::ofstream out(a.trace_out);
    write_chrome_trace(out, buffers, origin);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + a.trace_out);
    std::printf("chrome trace: %s\n", a.trace_out.c_str());
  }
  print_metrics(metrics);
  const bool correct = failed == 0;
  print_result_line(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Bench b;
  b.args = parse_args(argc, argv);
  b.clients = cpu_count();
  b.machine = bwc::machine::origin2000_r10k().scaled(16).with_cores(1);
  b.work_dir = b.args.work_dir / std::to_string(::getpid());
  int status = 1;
  try {
    fs::create_directories(b.work_dir);
    status = run(b);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
  }
  b.tear_down();
  std::error_code ignored;
  fs::remove_all(b.work_dir, ignored);
  return status;
}
