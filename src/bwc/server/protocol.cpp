#include "bwc/server/protocol.h"

#include <cmath>

#include "bwc/machine/machine_model.h"
#include "bwc/model/measure.h"
#include "bwc/support/error.h"
#include "bwc/tune/autotune.h"

namespace bwc::server {

namespace {

[[noreturn]] void bad_request(const std::string& why) {
  throw Error("[bad-request] " + why);
}

/// Integer field with range checking: JSON numbers are doubles, so a
/// fractional or out-of-range value is a schema violation, not a trunc.
std::int64_t int_field(const JsonValue& doc, const std::string& key,
                       std::int64_t fallback, std::int64_t lo,
                       std::int64_t hi) {
  const double v = doc.number_or(key, static_cast<double>(fallback));
  if (std::floor(v) != v) bad_request("field \"" + key + "\" must be an integer");
  if (v < static_cast<double>(lo) || v > static_cast<double>(hi))
    bad_request("field \"" + key + "\" out of range [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "]");
  return static_cast<std::int64_t>(v);
}

Request parse_request_schema(const JsonValue& doc);

}  // namespace

Request parse_request(const std::string& payload) {
  // Malformed JSON throws "[bad-json]" from here; everything after is a
  // schema question, so wrong-kind field errors from the typed lookups
  // are re-coded "[bad-request]".
  const JsonValue doc = parse_json(payload);
  try {
    return parse_request_schema(doc);
  } catch (const Error& e) {
    const std::string what = e.what();
    if (what.rfind("[bad-request]", 0) == 0) throw;
    const std::size_t cut = what.rfind("] ");
    bad_request(cut == std::string::npos ? what : what.substr(cut + 2));
  }
}

namespace {

Request parse_request_schema(const JsonValue& doc) {
  if (!doc.is_object()) bad_request("request must be a JSON object");
  // Strict schema: an unknown key is a misspelled option the client
  // thinks is in effect -- reject instead of silently ignoring.
  static const char* const kKnownKeys[] = {
      "op",       "program", "pipeline", "machine", "cores",     "scale",
      "engine",   "measure", "timeout_ms", "strategy", "gap",    "budget",
      "tune_seed",
  };
  for (const auto& member : doc.members()) {
    bool known = false;
    for (const char* key : kKnownKeys) known = known || member.first == key;
    if (!known) bad_request("unknown field \"" + member.first + "\"");
  }
  Request r;
  const std::string op = doc.string_or("op", "");
  if (op == "optimize") {
    r.op = Request::Op::kOptimize;
  } else if (op == "tune") {
    r.op = Request::Op::kTune;
  } else if (op == "stats") {
    r.op = Request::Op::kStats;
  } else if (op == "ping") {
    r.op = Request::Op::kPing;
  } else if (op.empty()) {
    bad_request("missing required field \"op\"");
  } else {
    bad_request("unknown op \"" + op + "\"");
  }
  if (r.op == Request::Op::kStats || r.op == Request::Op::kPing) return r;

  // Tune-only fields on optimize (and vice versa) are client confusion
  // about what the op does -- reject like any other unknown key.
  if (r.op == Request::Op::kOptimize) {
    for (const char* key : {"strategy", "gap", "budget", "tune_seed"}) {
      if (doc.find(key) != nullptr)
        bad_request(std::string("field \"") + key +
                    "\" is only valid for op \"tune\"");
    }
  } else {
    // timeout_ms stays valid (the queue deadline is op-independent).
    for (const char* key : {"pipeline", "measure"}) {
      if (doc.find(key) != nullptr)
        bad_request(std::string("field \"") + key +
                    "\" is not valid for op \"tune\"");
    }
  }

  r.program = doc.string_or("program", "");
  if (r.program.empty())
    bad_request("op \"" + op + "\" requires a non-empty \"program\"");
  r.pipeline = doc.string_or("pipeline", "");
  r.machine = doc.string_or("machine", "o2k");
  r.engine = doc.string_or("engine", "compiled");
  try {
    machine::machine_by_name(r.machine);
    model::engine_by_name(r.engine);
  } catch (const Error& e) {
    bad_request(e.what());
  }
  r.cores = static_cast<int>(int_field(doc, "cores", 1, 1, 1024));
  r.scale =
      static_cast<std::uint64_t>(int_field(doc, "scale", 16, 1, 1 << 20));
  r.measure = doc.bool_or("measure", true);
  r.timeout_ms = int_field(doc, "timeout_ms", 0, 0, 86'400'000);
  if (r.op == Request::Op::kTune) {
    r.strategy = doc.string_or("strategy", "beam");
    try {
      tune::parse_strategy(r.strategy);
    } catch (const Error& e) {
      bad_request(e.what());
    }
    r.gap = doc.number_or("gap", 5.0);
    if (!(r.gap >= 0.0 && r.gap <= 1000.0))
      bad_request("field \"gap\" out of range [0, 1000]");
    r.budget = doc.string_or("budget", "small");
    try {
      tune::parse_budget(r.budget);
    } catch (const Error& e) {
      bad_request(e.what());
    }
    r.tune_seed = static_cast<std::uint64_t>(
        int_field(doc, "tune_seed", 0, 0, (std::int64_t{1} << 53)));
  }
  return r;
}

}  // namespace

std::string render_request(const Request& request) {
  JsonValue doc = JsonValue::object();
  switch (request.op) {
    case Request::Op::kStats:
      doc.set("op", JsonValue::string("stats"));
      return doc.render();
    case Request::Op::kPing:
      doc.set("op", JsonValue::string("ping"));
      return doc.render();
    case Request::Op::kOptimize:
    case Request::Op::kTune:
      break;
  }
  const bool is_tune = request.op == Request::Op::kTune;
  doc.set("op", JsonValue::string(is_tune ? "tune" : "optimize"));
  doc.set("program", JsonValue::string(request.program));
  if (!is_tune && !request.pipeline.empty())
    doc.set("pipeline", JsonValue::string(request.pipeline));
  doc.set("machine", JsonValue::string(request.machine));
  doc.set("cores", JsonValue::number(request.cores));
  doc.set("scale", JsonValue::number(static_cast<double>(request.scale)));
  doc.set("engine", JsonValue::string(request.engine));
  if (is_tune) {
    doc.set("strategy", JsonValue::string(request.strategy));
    doc.set("gap", JsonValue::number(request.gap));
    doc.set("budget", JsonValue::string(request.budget));
    doc.set("tune_seed",
            JsonValue::number(static_cast<double>(request.tune_seed)));
  } else {
    doc.set("measure", JsonValue::boolean(request.measure));
  }
  if (request.timeout_ms > 0)
    doc.set("timeout_ms",
            JsonValue::number(static_cast<double>(request.timeout_ms)));
  return doc.render();
}

std::string render_response(const Response& response) {
  std::string out = "{\"schema\":";
  out += json_quote(kSchemaName);
  out += ",\"status\":" + json_quote(response.status);
  out += ",\"cache_hit\":";
  out += response.cache_hit ? "true" : "false";
  out += ",\"elapsed_us\":" + std::to_string(response.elapsed_us);
  if (!response.error.empty()) out += ",\"error\":" + json_quote(response.error);
  if (!response.result_json.empty())
    out += ",\"result\":" + response.result_json;
  out += "}";
  return out;
}

Response parse_response(const std::string& payload) {
  const JsonValue doc = parse_json(payload);
  if (!doc.is_object()) throw Error("[bad-response] not a JSON object");
  const std::string schema = doc.string_or("schema", "");
  if (schema != kSchemaName)
    throw Error("[bad-response] schema \"" + schema + "\", expected \"" +
                kSchemaName + "\"");
  Response r;
  r.status = doc.string_or("status", "");
  if (r.status != "ok" && r.status != "error" && r.status != "overloaded" &&
      r.status != "timeout")
    throw Error("[bad-response] unknown status \"" + r.status + "\"");
  r.cache_hit = doc.bool_or("cache_hit", false);
  r.elapsed_us = static_cast<std::int64_t>(doc.number_or("elapsed_us", 0));
  r.error = doc.string_or("error", "");
  if (const JsonValue* result = doc.find("result"); result != nullptr)
    r.result_json = result->render();
  return r;
}

}  // namespace bwc::server
