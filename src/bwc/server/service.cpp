#include "bwc/server/service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "bwc/core/optimizer.h"
#include "bwc/ir/parser.h"
#include "bwc/ir/printer.h"
#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/pass/pipeline_spec.h"
#include "bwc/support/error.h"
#include "bwc/support/files.h"
#include "bwc/tune/autotune.h"
#include "bwc/verify/traffic_bound.h"

#include <algorithm>
#include <cstdio>

namespace bwc::server {

namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t unix_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Canonical pipeline spec for a request: the explicit spec re-rendered
/// through the parser; an absent or blank spec means the default
/// pipeline. Throws on a bad spec.
std::string canonical_pipeline(const Request& request) {
  const std::string spec =
      pass::parse_pipeline_spec(request.pipeline).to_string();
  return spec.empty() ? core::kDefaultPipeline : spec;
}

machine::MachineModel make_machine(const Request& request) {
  const machine::MachineModel m = machine::machine_by_name(request.machine);
  return m.scaled(request.scale).with_cores(request.cores);
}

JsonValue ir_stats_json(const pass::IrStats& s) {
  JsonValue o = JsonValue::object();
  o.set("loops", JsonValue::number(s.loops));
  o.set("statements", JsonValue::number(s.statements));
  o.set("arrays_referenced", JsonValue::number(s.arrays_referenced));
  o.set("referenced_bytes",
        JsonValue::number(static_cast<double>(s.referenced_bytes)));
  return o;
}

/// The deterministic subset of a PassReport: everything except wall
/// clocks and analysis-cache counters, which vary run to run and would
/// break the cold-vs-hit bit-identity contract.
JsonValue pass_report_json(const pass::PassReport& p) {
  JsonValue o = JsonValue::object();
  o.set("pass", JsonValue::string(p.pass));
  o.set("label", JsonValue::string(p.label));
  o.set("changed", JsonValue::boolean(p.changed));
  o.set("ir_before", ir_stats_json(p.ir_before));
  o.set("ir_after", ir_stats_json(p.ir_after));
  o.set("traffic_bound_before",
        JsonValue::number(static_cast<double>(p.traffic_bound_before)));
  o.set("traffic_bound_after",
        JsonValue::number(static_cast<double>(p.traffic_bound_after)));
  if (p.verify.ran) {
    JsonValue v = JsonValue::object();
    v.set("check", JsonValue::string(p.verify.check));
    v.set("skipped", JsonValue::boolean(p.verify.skipped));
    if (p.verify.skipped)
      v.set("skip_reason", JsonValue::string(p.verify.skip_reason));
    v.set("instances_checked",
          JsonValue::number(static_cast<double>(p.verify.instances_checked)));
    o.set("verify", std::move(v));
  }
  JsonValue remarks = JsonValue::array();
  for (const pass::Remark& r : p.remarks) {
    JsonValue m = JsonValue::object();
    m.set("kind", JsonValue::string(pass::remark_kind_name(r.kind)));
    m.set("code", JsonValue::string(r.code));
    m.set("message", JsonValue::string(r.message));
    m.set("severity",
          JsonValue::string(pass::remark_severity_name(r.severity)));
    if (!r.args.empty()) {
      // Pairs, not an object: remark args may repeat keys.
      JsonValue args = JsonValue::array();
      for (const auto& [k, v] : r.args) {
        JsonValue pair = JsonValue::array();
        pair.push_back(JsonValue::string(k));
        pair.push_back(JsonValue::string(v));
        args.push_back(std::move(pair));
      }
      m.set("args", std::move(args));
    }
    remarks.push_back(std::move(m));
  }
  o.set("remarks", std::move(remarks));
  return o;
}

JsonValue measurement_json(const model::Measurement& m) {
  JsonValue o = JsonValue::object();
  o.set("memory_bytes",
        JsonValue::number(static_cast<double>(m.profile.memory_bytes())));
  o.set("register_bytes",
        JsonValue::number(static_cast<double>(m.profile.register_bytes())));
  o.set("flops", JsonValue::number(static_cast<double>(m.profile.flops)));
  o.set("predicted_ms", JsonValue::number(m.time.total_s * 1e3));
  o.set("binding", JsonValue::string(m.time.binding_resource));
  o.set("checksum", JsonValue::number(m.exec.checksum));
  return o;
}

}  // namespace

class Service::InflightGuard {
 public:
  InflightGuard(Service& service, std::string key_fp)
      : service_(service), key_fp_(std::move(key_fp)) {
    std::unique_lock<std::mutex> lock(service_.inflight_mutex_);
    service_.inflight_done_.wait(
        lock, [&] { return service_.inflight_.count(key_fp_) == 0; });
    service_.inflight_.insert(key_fp_);
  }
  ~InflightGuard() {
    {
      std::lock_guard<std::mutex> lock(service_.inflight_mutex_);
      service_.inflight_.erase(key_fp_);
    }
    service_.inflight_done_.notify_all();
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  Service& service_;
  const std::string key_fp_;
};

Service::Service(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_dir),
      log_(std::make_unique<RecordLogWriter>(options.record_log_path)) {}

Service::~Service() = default;

std::string Service::cache_key_text(const Request& request) const {
  const ir::Program program = ir::parse_program(request.program);
  const std::string canonical_text = ir::to_string(program);
  const std::string spec = canonical_pipeline(request);
  std::string key = "bwcd-key-v" + std::to_string(kProtocolVersion) + "\n";
  key += "machine=" + request.machine + "\n";
  key += "cores=" + std::to_string(request.cores) + "\n";
  key += "scale=" + std::to_string(request.scale) + "\n";
  key += std::string("measure=") + (request.measure ? "1" : "0") + "\n";
  key += "pipeline=" + spec + "\n";
  key += "program:\n" + canonical_text;
  return key;
}

std::string Service::compute_result_body(const Request& request) {
  const ir::Program original = ir::parse_program(request.program);
  const std::string canonical_text = ir::to_string(original);
  const std::string spec = canonical_pipeline(request);

  const core::OptimizeResult result = core::optimize(original, spec);

  JsonValue body = JsonValue::object();
  body.set("schema", JsonValue::string(kSchemaName));
  body.set("protocol_version", JsonValue::number(kProtocolVersion));
  body.set("program", JsonValue::string(canonical_text));
  body.set("pipeline", JsonValue::string(spec));
  body.set("optimized", JsonValue::string(ir::to_string(result.program)));

  JsonValue passes = JsonValue::array();
  std::int64_t bound_first = -1;
  std::int64_t bound_last = -1;
  for (const pass::PassReport& p : result.pipeline.passes) {
    if (bound_first < 0) bound_first = p.traffic_bound_before;
    if (p.traffic_bound_after >= 0) bound_last = p.traffic_bound_after;
    passes.push_back(pass_report_json(p));
  }
  body.set("passes", std::move(passes));
  JsonValue bound = JsonValue::object();
  bound.set("original_bytes",
            JsonValue::number(static_cast<double>(bound_first)));
  bound.set("optimized_bytes",
            JsonValue::number(static_cast<double>(bound_last)));
  body.set("traffic_bound", std::move(bound));

  if (request.measure) {
    const machine::MachineModel machine = make_machine(request);
    model::MeasureOptions measure_opts;
    measure_opts.engine = model::engine_by_name(request.engine);
    const model::Measurement before =
        model::measure(original, machine, measure_opts);
    const model::Measurement after =
        model::measure(result.program, machine, measure_opts);
    JsonValue m = JsonValue::object();
    m.set("name", JsonValue::string(machine.name));
    m.set("cores", JsonValue::number(request.cores));
    m.set("scale", JsonValue::number(static_cast<double>(request.scale)));
    m.set("original", measurement_json(before));
    m.set("optimized", measurement_json(after));
    m.set("traffic_ratio",
          JsonValue::number(
              after.profile.memory_bytes() == 0
                  ? 0.0
                  : static_cast<double>(before.profile.memory_bytes()) /
                        static_cast<double>(after.profile.memory_bytes())));
    m.set("speedup", JsonValue::number(after.time.total_s == 0.0
                                           ? 0.0
                                           : before.time.total_s /
                                                 after.time.total_s));
    body.set("machine", std::move(m));
  }
  return body.render();
}

std::string Service::tune_cache_key_text(
    const Request& request, const std::vector<std::string>& seed_specs) {
  const ir::Program program = ir::parse_program(request.program);
  const std::string canonical_text = ir::to_string(program);
  std::string key = "bwcd-tune-key-v" + std::to_string(kProtocolVersion) + "\n";
  key += "machine=" + request.machine + "\n";
  key += "cores=" + std::to_string(request.cores) + "\n";
  key += "scale=" + std::to_string(request.scale) + "\n";
  key += "strategy=" + request.strategy + "\n";
  char gap[32];
  std::snprintf(gap, sizeof(gap), "%.6g", request.gap);
  key += std::string("gap=") + gap + "\n";
  key += "budget=" + std::to_string(tune::parse_budget(request.budget)) + "\n";
  key += "tune_seed=" + std::to_string(request.tune_seed) + "\n";
  // The seed population steers the search, so it is part of the key:
  // callers pass it sorted and deduped (tune_seed_specs), keeping the
  // key order-independent of log history.
  for (const std::string& spec : seed_specs) key += "seed-spec=" + spec + "\n";
  key += "program:\n" + canonical_text;
  return key;
}

std::string Service::compute_tune_result_body(
    const Request& request, const std::vector<std::string>& seed_specs,
    std::string* winner_spec) {
  const ir::Program original = ir::parse_program(request.program);
  const std::string canonical_text = ir::to_string(original);

  tune::TuneOptions topts;
  topts.strategy = tune::parse_strategy(request.strategy);
  topts.gap_percent = request.gap;
  topts.budget = tune::parse_budget(request.budget);
  topts.seed = request.tune_seed;
  topts.threads = request.cores;
  topts.seed_specs = seed_specs;
  topts.machine = make_machine(request);
  topts.engine = model::engine_by_name(request.engine);
  const tune::TuneResult result = tune::tune(original, topts);
  if (winner_spec != nullptr) *winner_spec = result.winner_spec;

  JsonValue body = JsonValue::object();
  body.set("schema", JsonValue::string(kSchemaName));
  body.set("protocol_version", JsonValue::number(kProtocolVersion));
  body.set("program", JsonValue::string(canonical_text));
  body.set("strategy", JsonValue::string(request.strategy));
  body.set("budget", JsonValue::number(topts.budget));
  body.set("tune_seed",
           JsonValue::number(static_cast<double>(request.tune_seed)));

  JsonValue winner = JsonValue::object();
  winner.set("pipeline", JsonValue::string(result.winner_spec));
  winner.set("predicted_bytes",
             JsonValue::number(
                 static_cast<double>(result.winner_predicted_bytes)));
  winner.set("measured_bytes",
             JsonValue::number(
                 static_cast<double>(result.winner_measured_bytes)));
  body.set("winner", std::move(winner));

  JsonValue fallback = JsonValue::object();
  fallback.set("pipeline", JsonValue::string(result.default_spec));
  fallback.set("measured_bytes",
               JsonValue::number(
                   static_cast<double>(result.default_measured_bytes)));
  body.set("default", std::move(fallback));

  JsonValue cert = JsonValue::object();
  cert.set("within_gap", JsonValue::boolean(result.certificate.within_gap));
  cert.set("floor_bytes",
           JsonValue::number(
               static_cast<double>(result.certificate.floor_bytes)));
  cert.set("predicted_bytes",
           JsonValue::number(
               static_cast<double>(result.certificate.predicted_bytes)));
  cert.set("measured_bytes",
           JsonValue::number(
               static_cast<double>(result.certificate.measured_bytes)));
  cert.set("gap_percent", JsonValue::number(result.certificate.gap_percent));
  cert.set("tolerance_percent",
           JsonValue::number(result.certificate.tolerance_percent));
  body.set("certificate", std::move(cert));

  JsonValue floor = JsonValue::object();
  floor.set("floor_bytes",
            JsonValue::number(static_cast<double>(result.floor.floor_bytes)));
  JsonValue regions = JsonValue::array();
  for (const verify::FloorRegion& region : result.floor.arrays) {
    JsonValue r = JsonValue::object();
    r.set("array", JsonValue::string(region.name));
    r.set("floor_bytes",
          JsonValue::number(static_cast<double>(region.bytes)));
    regions.push_back(std::move(r));
  }
  floor.set("arrays", std::move(regions));
  body.set("floor", std::move(floor));

  body.set("evaluated", JsonValue::number(result.evaluated));
  body.set("infeasible", JsonValue::number(result.infeasible));
  body.set("early_stop", JsonValue::boolean(result.early_stop));

  JsonValue validated = JsonValue::array();
  for (const tune::Validated& v : result.validated) {
    JsonValue entry = JsonValue::object();
    entry.set("pipeline", JsonValue::string(v.spec));
    entry.set("predicted_bytes",
              JsonValue::number(static_cast<double>(v.predicted_bytes)));
    entry.set("measured_bytes",
              JsonValue::number(static_cast<double>(v.measured_bytes)));
    validated.push_back(std::move(entry));
  }
  body.set("validated", std::move(validated));

  JsonValue seeds = JsonValue::array();
  for (const std::string& spec : seed_specs)
    seeds.push_back(JsonValue::string(spec));
  body.set("seed_specs", std::move(seeds));

  // The winner's per-pass reports plus the synthetic tune record with
  // the certificate remark, same deterministic subset as optimize.
  JsonValue passes = JsonValue::array();
  for (const pass::PassReport& p : result.winner_pipeline.passes)
    passes.push_back(pass_report_json(p));
  passes.push_back(pass_report_json(result.report()));
  body.set("passes", std::move(passes));
  return body.render();
}

std::vector<std::string> Service::tune_seed_specs() const {
  if (options_.record_log_path.empty()) return {};
  std::vector<std::string> specs;
  try {
    specs = read_pipeline_specs(options_.record_log_path);
  } catch (const Error&) {
    return {};  // unreadable log: search simply starts unseeded
  }
  std::sort(specs.begin(), specs.end());
  specs.erase(std::unique(specs.begin(), specs.end()), specs.end());
  return specs;
}

Response Service::handle(const Request& request) {
  ++requests_;
  const std::int64_t t0 = now_us();
  Response response;
  std::string key_fp;
  switch (request.op) {
    case Request::Op::kPing: {
      response.result_json = "{\"pong\":true}";
      break;
    }
    case Request::Op::kStats: {
      response = stats_response();
      break;
    }
    case Request::Op::kOptimize: {
      if (options_.debug_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.debug_delay_ms));
      }
      try {
        const std::string key = cache_key_text(request);
        key_fp = content_fingerprint(key);
        const InflightGuard guard(*this, key_fp);
        CompileCache::Lookup lookup = cache_.get(key);
        if (lookup.hit) {
          response.cache_hit = true;
          response.result_json = std::move(lookup.value);
        } else {
          ++pipeline_runs_;
          response.result_json = compute_result_body(request);
          cache_.put(key, response.result_json);
          // Remember the pipeline that served: future tune ops seed
          // their search population from these records.
          log_->append_pipeline_spec(canonical_pipeline(request));
        }
      } catch (const std::exception& e) {
        response.status = "error";
        response.error = e.what();
        response.result_json.clear();
      }
      break;
    }
    case Request::Op::kTune: {
      try {
        const std::vector<std::string> seeds = tune_seed_specs();
        const std::string key = tune_cache_key_text(request, seeds);
        key_fp = content_fingerprint(key);
        const InflightGuard guard(*this, key_fp);
        CompileCache::Lookup lookup = cache_.get(key);
        if (lookup.hit) {
          response.cache_hit = true;
          response.result_json = std::move(lookup.value);
        } else {
          ++pipeline_runs_;
          std::string winner;
          response.result_json =
              compute_tune_result_body(request, seeds, &winner);
          cache_.put(key, response.result_json);
          log_->append_pipeline_spec(winner);
        }
      } catch (const std::exception& e) {
        response.status = "error";
        response.error = e.what();
        response.result_json.clear();
      }
      break;
    }
  }
  response.elapsed_us = now_us() - t0;
  if (response.status == "ok") {
    ++ok_;
  } else {
    ++errors_;
  }
  log_served(request, response, key_fp);
  return response;
}

Response Service::stats_response() const {
  const Stats s = stats();
  JsonValue o = JsonValue::object();
  o.set("requests", JsonValue::number(static_cast<double>(s.requests)));
  o.set("ok", JsonValue::number(static_cast<double>(s.ok)));
  o.set("errors", JsonValue::number(static_cast<double>(s.errors)));
  o.set("cache_hits", JsonValue::number(static_cast<double>(s.cache_hits)));
  o.set("cache_misses",
        JsonValue::number(static_cast<double>(s.cache_misses)));
  o.set("cache_evictions",
        JsonValue::number(static_cast<double>(s.cache_evictions)));
  o.set("cache_store_failures",
        JsonValue::number(static_cast<double>(s.cache_store_failures)));
  o.set("pipeline_runs",
        JsonValue::number(static_cast<double>(s.pipeline_runs)));
  o.set("record_log_records",
        JsonValue::number(static_cast<double>(s.record_log_records)));
  Response r;
  r.result_json = o.render();
  return r;
}

Service::Stats Service::stats() const {
  Stats s;
  s.requests = requests_.load();
  s.ok = ok_.load();
  s.errors = errors_.load();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.cache_store_failures = cache_.store_failures();
  s.pipeline_runs = pipeline_runs_.load();
  s.record_log_records = log_->records_written();
  return s;
}

void Service::record_rejection(const std::string& status,
                               const std::string& detail,
                               std::uint64_t request_bytes,
                               std::uint64_t response_bytes) {
  ++requests_;
  ++errors_;
  ServedRecord rec;
  rec.unix_micros = unix_micros();
  rec.status = status == "overloaded"  ? kRecordOverloaded
               : status == "timeout"   ? kRecordTimeout
                                       : kRecordError;
  rec.request_bytes = request_bytes;
  rec.response_bytes = response_bytes;
  rec.detail = detail;
  log_->append(rec);
}

void Service::log_served(const Request& request, const Response& response,
                         const std::string& key_fp) {
  ServedRecord rec;
  rec.unix_micros = unix_micros();
  rec.status = response.status == "ok" ? kRecordOk : kRecordError;
  rec.cache_hit = response.cache_hit;
  rec.elapsed_us = static_cast<std::uint64_t>(response.elapsed_us);
  rec.request_bytes = request.program.size();
  rec.response_bytes = response.result_json.size();
  rec.key_fp = key_fp;
  rec.detail = response.status == "ok"
                   ? (request.op == Request::Op::kOptimize ? "optimize"
                      : request.op == Request::Op::kTune   ? "tune"
                      : request.op == Request::Op::kStats  ? "stats"
                                                           : "ping")
                   : response.error.substr(0, 200);
  log_->append(rec);
}

}  // namespace bwc::server
