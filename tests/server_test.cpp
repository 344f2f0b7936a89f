// Unit tests for the bwcd server subsystem: the JSON reader/writer, the
// frame codec, the content-addressed compile cache, the binary record
// log, the request/response protocol, and the transport-free Service.
// The golden test at the bottom freezes the deterministic result schema
// against tests/golden/server_protocol.json.
//
// To regenerate the golden after an intentional schema change:
//   BWC_REGEN_GOLDEN=1 build/tests/server_test \
//     --gtest_filter=ServerGolden.ProtocolResult
// and bump kProtocolVersion in src/bwc/server/protocol.h.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bwc/ir/printer.h"
#include "bwc/server/cache.h"
#include "bwc/server/frame.h"
#include "bwc/server/json.h"
#include "bwc/server/protocol.h"
#include "bwc/server/record_log.h"
#include "bwc/server/service.h"
#include "bwc/support/error.h"
#include "bwc/support/files.h"
#include "bwc/workloads/paper_programs.h"

namespace bwc::server {
namespace {

// ---- JSON ----

TEST(ServerJson, RoundTripsScalarsAndContainers) {
  const std::string text =
      R"({"a":1,"b":-2.5,"c":"hi","d":true,"e":null,"f":[1,2,3],"g":{"x":"y"}})";
  const JsonValue v = parse_json(text);
  EXPECT_EQ(v.render(), text);
  EXPECT_EQ(v.number_or("a", 0), 1.0);
  EXPECT_EQ(v.number_or("b", 0), -2.5);
  EXPECT_EQ(v.string_or("c", ""), "hi");
  EXPECT_TRUE(v.bool_or("d", false));
  EXPECT_TRUE(v.find("e")->is_null());
  EXPECT_EQ(v.find("f")->items().size(), 3u);
  EXPECT_EQ(v.find("g")->string_or("x", ""), "y");
}

TEST(ServerJson, PreservesKeyOrderAndRendersIntegersExactly) {
  JsonValue obj = JsonValue::object();
  obj.set("zeta", JsonValue::number(16000));
  obj.set("alpha", JsonValue::number(0.0504));
  obj.set("neg", JsonValue::number(-7));
  EXPECT_EQ(obj.render(), R"({"zeta":16000,"alpha":0.0504,"neg":-7})");
}

TEST(ServerJson, DoubleRenderingRoundTripsExactly) {
  // %.17g must reproduce the exact same IEEE double after a
  // render -> parse cycle; this is what makes cached result bodies
  // bit-identical to recomputed ones.
  const double values[] = {1991.2477982910009, 1.0 / 3.0, 1e-300, 6.02e23,
                           0.1};
  for (const double d : values) {
    const JsonValue v = parse_json(JsonValue::number(d).render());
    EXPECT_EQ(v.as_number(), d);
  }
}

TEST(ServerJson, EscapesAndUnescapes) {
  const std::string raw = "line1\nline2\ttab \"quoted\" back\\slash";
  const JsonValue v = parse_json(json_quote(raw));
  EXPECT_EQ(v.as_string(), raw);
  // \u escapes incl. a surrogate pair (U+1F600).
  EXPECT_EQ(parse_json("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  EXPECT_EQ(parse_json("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(ServerJson, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",         "[1,]",        "{\"a\":}",
      "tru",        "01",        "1.",          "+1",
      "\"\\x\"",    "\"\\ud83d\"",              // lone high surrogate
      "{\"a\":1,\"a\":2}",                      // duplicate key
      "{} trailing",                            // whole-input rule
      "'single'",   "{\"a\" 1}", "[1 2]",       "nul",
  };
  for (const char* text : bad) {
    EXPECT_THROW(parse_json(text), Error) << "input: " << text;
    try {
      parse_json(text);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("[bad-json]"), std::string::npos)
          << "input: " << text;
    }
  }
}

TEST(ServerJson, CapsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  EXPECT_THROW(parse_json(deep), Error);
  std::string ok;
  for (int i = 0; i < 32; ++i) ok += "[";
  for (int i = 0; i < 32; ++i) ok += "]";
  EXPECT_NO_THROW(parse_json(ok));
}

TEST(ServerJson, WrongKindAccessThrows) {
  const JsonValue v = parse_json(R"({"n":1})");
  EXPECT_THROW(v.find("n")->as_string(), Error);
  EXPECT_THROW(v.string_or("n", "x"), Error);  // present but wrong kind
  EXPECT_EQ(v.string_or("absent", "x"), "x");
}

// ---- Framing ----

TEST(ServerFrame, EncodesBigEndianLengthPrefix) {
  const std::string frame = encode_frame("abc");
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(frame[0], '\0');
  EXPECT_EQ(frame[1], '\0');
  EXPECT_EQ(frame[2], '\0');
  EXPECT_EQ(frame[3], '\x03');
  EXPECT_EQ(frame.substr(4), "abc");
}

TEST(ServerFrame, ReassemblesByteAtATime) {
  const std::string wire = encode_frame("hello") + encode_frame("") +
                           encode_frame("world");
  FrameReader reader;
  std::vector<std::string> payloads;
  for (const char c : wire) {
    reader.feed(&c, 1);
    std::string payload;
    while (reader.next(&payload) == FrameStatus::kFrame)
      payloads.push_back(payload);
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "hello");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], "world");
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(ServerFrame, OversizedPrefixIsSticky) {
  FrameReader reader;
  const std::string huge = "\xff\xff\xff\xff";
  reader.feed(huge.data(), huge.size());
  std::string payload;
  EXPECT_EQ(reader.next(&payload), FrameStatus::kOversized);
  // Still poisoned even after more (individually valid) bytes arrive.
  reader.feed(encode_frame("x"));
  EXPECT_EQ(reader.next(&payload), FrameStatus::kOversized);
}

TEST(ServerFrame, ReportsPendingBytesForTruncatedFrames) {
  FrameReader reader;
  const std::string partial = encode_frame("full payload").substr(0, 9);
  reader.feed(partial);
  std::string payload;
  EXPECT_EQ(reader.next(&payload), FrameStatus::kNeedMore);
  EXPECT_EQ(reader.pending_bytes(), 9u);
}

// ---- Compile cache ----

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "/tmp/bwc-server-test-%s-%d", tag,
                  static_cast<int>(::getpid()));
    path_ = buf;
    std::system(("rm -rf " + path_).c_str());
  }
  ~TempDir() { std::system(("rm -rf " + path_).c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ServerCache, MissThenPutThenHit) {
  TempDir dir("cache");
  CompileCache cache(dir.path());
  EXPECT_FALSE(cache.get("key-1").hit);
  cache.put("key-1", "value-1");
  const CompileCache::Lookup lookup = cache.get("key-1");
  ASSERT_TRUE(lookup.hit);
  EXPECT_EQ(lookup.value, "value-1");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.store_failures(), 0u);
}

TEST(ServerCache, DisabledWhenDirEmpty) {
  CompileCache cache("");
  EXPECT_FALSE(cache.enabled());
  cache.put("k", "v");
  EXPECT_FALSE(cache.get("k").hit);
}

TEST(ServerCache, EvictsTamperedValue) {
  TempDir dir("evict");
  CompileCache cache(dir.path());
  cache.put("key", "value");
  const std::string fp = content_fingerprint("key");
  {
    std::ofstream out(dir.path() + "/" + fp + ".val",
                      std::ios::binary | std::ios::trunc);
    out << "bwcd-cache-v1 0000000000000000zzzzzzzzzzzzzzzz\ncorrupted";
  }
  EXPECT_FALSE(cache.get("key").hit);
  EXPECT_EQ(cache.evictions(), 1u);
  // Evicted means gone: re-publish works and hits again.
  cache.put("key", "value");
  EXPECT_TRUE(cache.get("key").hit);
}

TEST(ServerCache, FingerprintCollisionCannotServeWrongValue) {
  TempDir dir("collide");
  CompileCache cache(dir.path());
  cache.put("key-a", "value-a");
  // Simulate a fingerprint collision: key-b's files already exist but
  // hold key-a's text. The content check must refuse the hit.
  const std::string fp_a = content_fingerprint("key-a");
  const std::string fp_b = content_fingerprint("key-b");
  std::system(("cp " + dir.path() + "/" + fp_a + ".key " + dir.path() + "/" +
               fp_b + ".key")
                  .c_str());
  std::system(("cp " + dir.path() + "/" + fp_a + ".val " + dir.path() + "/" +
               fp_b + ".val")
                  .c_str());
  EXPECT_FALSE(cache.get("key-b").hit);
}

TEST(ServerCache, UnwritableDirCountsStoreFailures) {
  // A path that cannot be a directory (parent is a regular file).
  TempDir dir("unwritable");
  std::system(("mkdir -p " + dir.path()).c_str());
  { std::ofstream out(dir.path() + "/file"); out << "x"; }
  CompileCache cache(dir.path() + "/file/subdir");
  cache.put("k", "v");
  EXPECT_GE(cache.store_failures(), 1u);
  EXPECT_FALSE(cache.get("k").hit);
}

// ---- Record log ----

TEST(ServerRecordLog, WritesAndReadsBack) {
  TempDir dir("reclog");
  std::system(("mkdir -p " + dir.path()).c_str());
  const std::string path = dir.path() + "/rec.log";
  {
    RecordLogWriter writer(path);
    ASSERT_TRUE(writer.enabled());
    ServedRecord r;
    r.unix_micros = 123456789;
    r.status = kRecordOk;
    r.cache_hit = true;
    r.elapsed_us = 42;
    r.request_bytes = 100;
    r.response_bytes = 2000;
    r.key_fp = "abcd";
    r.detail = "optimize";
    writer.append(r);
    r.status = kRecordOverloaded;
    r.cache_hit = false;
    r.detail = "[overloaded]";
    writer.append(r);
    EXPECT_EQ(writer.records_written(), 2u);
  }
  const std::vector<ServedRecord> records = read_record_log(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].unix_micros, 123456789u);
  EXPECT_EQ(records[0].status, kRecordOk);
  EXPECT_TRUE(records[0].cache_hit);
  EXPECT_EQ(records[0].elapsed_us, 42u);
  EXPECT_EQ(records[0].request_bytes, 100u);
  EXPECT_EQ(records[0].response_bytes, 2000u);
  EXPECT_EQ(records[0].key_fp, "abcd");
  EXPECT_EQ(records[0].detail, "optimize");
  EXPECT_EQ(records[1].status, kRecordOverloaded);
  EXPECT_EQ(records[1].detail, "[overloaded]");
}

TEST(ServerRecordLog, SurvivesTruncatedTail) {
  TempDir dir("rectrunc");
  std::system(("mkdir -p " + dir.path()).c_str());
  const std::string path = dir.path() + "/rec.log";
  {
    RecordLogWriter writer(path);
    ServedRecord r;
    r.detail = "optimize";
    writer.append(r);
    writer.append(r);
  }
  // Chop bytes off the tail: the reader returns the intact prefix.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream all;
  all << in.rdbuf();
  const std::string bytes = all.str();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 5);
  }
  EXPECT_EQ(read_record_log(path).size(), 1u);
}

TEST(ServerRecordLog, RefusesForeignMagic) {
  TempDir dir("recmagic");
  std::system(("mkdir -p " + dir.path()).c_str());
  const std::string path = dir.path() + "/notrec.log";
  { std::ofstream out(path, std::ios::binary); out << "NOTMYLOG"; }
  RecordLogWriter writer(path);
  EXPECT_FALSE(writer.enabled());
  EXPECT_GE(writer.failures(), 1u);
  EXPECT_THROW(read_record_log(path), Error);
}

TEST(ServerRecordLog, AppendsAcrossReopens) {
  TempDir dir("recappend");
  std::system(("mkdir -p " + dir.path()).c_str());
  const std::string path = dir.path() + "/rec.log";
  for (int i = 0; i < 3; ++i) {
    RecordLogWriter writer(path);
    ServedRecord r;
    r.elapsed_us = static_cast<std::uint64_t>(i);
    writer.append(r);
  }
  const std::vector<ServedRecord> records = read_record_log(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].elapsed_us, 2u);
}

// ---- Protocol ----

TEST(ServerProtocol, ParsesMinimalOptimizeRequestWithDefaults) {
  const Request r =
      parse_request(R"({"op":"optimize","program":"double x\n"})");
  EXPECT_EQ(r.op, Request::Op::kOptimize);
  EXPECT_EQ(r.program, "double x\n");
  EXPECT_EQ(r.pipeline, "");
  EXPECT_EQ(r.machine, "o2k");
  EXPECT_EQ(r.cores, 1);
  EXPECT_EQ(r.scale, 16u);
  EXPECT_EQ(r.engine, "compiled");
  EXPECT_TRUE(r.measure);
  EXPECT_EQ(r.timeout_ms, 0);
}

TEST(ServerProtocol, RequestRoundTrips) {
  Request r;
  r.op = Request::Op::kOptimize;
  r.program = "double a[10]\n";
  r.pipeline = "fuse(solver=exact)";
  r.machine = "exemplar";
  r.cores = 4;
  r.scale = 8;
  r.engine = "reference";
  r.measure = false;
  r.timeout_ms = 500;
  const Request back = parse_request(render_request(r));
  EXPECT_EQ(back.program, r.program);
  EXPECT_EQ(back.pipeline, r.pipeline);
  EXPECT_EQ(back.machine, r.machine);
  EXPECT_EQ(back.cores, r.cores);
  EXPECT_EQ(back.scale, r.scale);
  EXPECT_EQ(back.engine, r.engine);
  EXPECT_EQ(back.measure, r.measure);
  EXPECT_EQ(back.timeout_ms, r.timeout_ms);
}

TEST(ServerProtocol, TuneRequestRoundTripsWithDefaults) {
  const Request minimal =
      parse_request(R"({"op":"tune","program":"double x\n"})");
  EXPECT_EQ(minimal.op, Request::Op::kTune);
  EXPECT_EQ(minimal.strategy, "beam");
  EXPECT_DOUBLE_EQ(minimal.gap, 5.0);
  EXPECT_EQ(minimal.budget, "small");
  EXPECT_EQ(minimal.tune_seed, 0u);

  Request r;
  r.op = Request::Op::kTune;
  r.program = "double a[10]\n";
  r.strategy = "genetic";
  r.gap = 2.5;
  r.budget = "32";
  r.tune_seed = 99;
  r.machine = "modern";
  r.cores = 2;
  r.scale = 8;
  const Request back = parse_request(render_request(r));
  EXPECT_EQ(back.op, Request::Op::kTune);
  EXPECT_EQ(back.strategy, r.strategy);
  EXPECT_DOUBLE_EQ(back.gap, r.gap);
  EXPECT_EQ(back.budget, r.budget);
  EXPECT_EQ(back.tune_seed, r.tune_seed);
  EXPECT_EQ(back.machine, r.machine);
  EXPECT_EQ(back.cores, r.cores);
}

TEST(ServerProtocol, RejectsSchemaViolations) {
  const char* bad[] = {
      R"({"program":"x"})",                              // missing op
      R"({"op":"transmogrify"})",                        // unknown op
      R"({"op":"optimize"})",                            // missing program
      R"({"op":"optimize","program":""})",               // empty program
      R"({"op":"optimize","program":"x","machine":"pdp11"})",
      R"({"op":"optimize","program":"x","engine":"quantum"})",
      R"({"op":"optimize","program":"x","cores":0})",
      R"({"op":"optimize","program":"x","cores":1.5})",
      R"({"op":"optimize","program":"x","scale":-1})",
      R"({"op":"optimize","program":"x","timeout_ms":-5})",
      R"({"op":"optimize","program":"x","bogus_key":1})",
      R"({"op":1})",
      R"([])",
      // Cross-op confusion: tune-only knobs on optimize and vice versa.
      R"({"op":"optimize","program":"x","strategy":"beam"})",
      R"({"op":"optimize","program":"x","budget":"small"})",
      R"({"op":"tune","program":"x","pipeline":"fuse"})",
      R"({"op":"tune","program":"x","measure":false})",
      R"({"op":"tune","program":"x","strategy":"annealing"})",
      R"({"op":"tune","program":"x","budget":"gigantic"})",
      R"({"op":"tune","program":"x","gap":-1})",
      R"({"op":"tune","program":"x","tune_seed":0.5})",
  };
  for (const char* text : bad) {
    EXPECT_THROW(parse_request(text), Error) << "input: " << text;
    try {
      parse_request(text);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("[bad-request]"),
                std::string::npos)
          << "input: " << text << " error: " << e.what();
    }
  }
}

TEST(ServerProtocol, ResponseRoundTripsWithEmbeddedResult) {
  Response r;
  r.status = "ok";
  r.cache_hit = true;
  r.elapsed_us = 1234;
  r.result_json = R"({"schema":"bwcd-v1","value":[1,2.5,"three"]})";
  const std::string payload = render_response(r);
  const Response back = parse_response(payload);
  EXPECT_EQ(back.status, "ok");
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.elapsed_us, 1234);
  EXPECT_EQ(back.result_json, r.result_json);
  // And the re-rendered payload is byte-identical -- the client does not
  // perturb what the daemon said.
  EXPECT_EQ(render_response(back), payload);
}

TEST(ServerProtocol, ErrorResponseRoundTrips) {
  Response r;
  r.status = "error";
  r.error = "[bad-json] unexpected character at byte 0";
  const Response back = parse_response(render_response(r));
  EXPECT_EQ(back.status, "error");
  EXPECT_EQ(back.error, r.error);
  EXPECT_TRUE(back.result_json.empty());
}

// ---- Service ----

std::string small_program_text() {
  return ir::to_string(workloads::fig7_original(512));
}

Request small_request() {
  Request r;
  r.op = Request::Op::kOptimize;
  r.program = small_program_text();
  return r;
}

TEST(ServerService, PingAndStats) {
  Service service(ServiceOptions{});
  Request ping;
  ping.op = Request::Op::kPing;
  const Response pong = service.handle(ping);
  EXPECT_EQ(pong.status, "ok");
  EXPECT_EQ(pong.result_json, R"({"pong":true})");

  Request stats;
  stats.op = Request::Op::kStats;
  const Response s = service.handle(stats);
  EXPECT_EQ(s.status, "ok");
  const JsonValue v = parse_json(s.result_json);
  // The stats request itself is counted before the snapshot is taken.
  EXPECT_EQ(v.number_or("requests", -1), 2.0);
}

TEST(ServerService, ColdResponseMatchesReferenceComputation) {
  Service service(ServiceOptions{});
  const Request request = small_request();
  const Response response = service.handle(request);
  ASSERT_EQ(response.status, "ok") << response.error;
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.result_json, Service::compute_result_body(request));
}

TEST(ServerService, CacheHitIsBitIdenticalAndSkipsPipeline) {
  TempDir dir("service-cache");
  ServiceOptions options;
  options.cache_dir = dir.path();
  Service service(options);
  const Request request = small_request();

  const Response cold = service.handle(request);
  ASSERT_EQ(cold.status, "ok") << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(service.stats().pipeline_runs, 1u);

  const Response warm = service.handle(request);
  ASSERT_EQ(warm.status, "ok") << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  // THE contract: byte-for-byte identical result, no pipeline re-run.
  EXPECT_EQ(warm.result_json, cold.result_json);
  EXPECT_EQ(service.stats().pipeline_runs, 1u);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(ServerService, CacheKeyCanonicalizesSpelling) {
  Service service(ServiceOptions{});
  Request a = small_request();
  Request b = a;
  // Same program, noisier spelling: extra blank lines parse away.
  b.program = "\n" + b.program + "\n\n";
  // Default pipeline spelled explicitly.
  Request c = a;
  c.pipeline = "fuse(solver=best),reduce-storage,eliminate-stores";
  // Different engine: deliberately NOT part of the key (engines are
  // bit-identical by the differential guarantee).
  Request d = a;
  d.engine = "reference";
  EXPECT_EQ(service.cache_key_text(a), service.cache_key_text(b));
  EXPECT_EQ(service.cache_key_text(a), service.cache_key_text(c));
  EXPECT_EQ(service.cache_key_text(a), service.cache_key_text(d));
  // Anything that changes the result changes the key.
  Request e = a;
  e.machine = "modern";
  Request f = a;
  f.cores = 4;
  Request g = a;
  g.measure = false;
  EXPECT_NE(service.cache_key_text(a), service.cache_key_text(e));
  EXPECT_NE(service.cache_key_text(a), service.cache_key_text(f));
  EXPECT_NE(service.cache_key_text(a), service.cache_key_text(g));
}

TEST(ServerService, InvalidProgramBecomesStructuredError) {
  Service service(ServiceOptions{});
  Request request;
  request.op = Request::Op::kOptimize;
  request.program = "for i = without end\n";
  const Response response = service.handle(request);
  EXPECT_EQ(response.status, "error");
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST(ServerService, MeasureOffOmitsMachineSection) {
  Service service(ServiceOptions{});
  Request request = small_request();
  request.measure = false;
  const Response response = service.handle(request);
  ASSERT_EQ(response.status, "ok") << response.error;
  const JsonValue v = parse_json(response.result_json);
  EXPECT_EQ(v.find("machine"), nullptr);
  EXPECT_NE(v.find("passes"), nullptr);
}

Request small_tune_request() {
  Request r;
  r.op = Request::Op::kTune;
  r.program = small_program_text();
  r.budget = "6";  // keep the search tiny: this is a protocol test
  return r;
}

TEST(ServerService, TuneResponseCarriesWinnerAndCertificate) {
  Service service(ServiceOptions{});
  const Request request = small_tune_request();
  const Response response = service.handle(request);
  ASSERT_EQ(response.status, "ok") << response.error;
  EXPECT_EQ(response.result_json,
            Service::compute_tune_result_body(request, {}, nullptr));
  const JsonValue v = parse_json(response.result_json);
  ASSERT_NE(v.find("winner"), nullptr);
  ASSERT_NE(v.find("default"), nullptr);
  ASSERT_NE(v.find("certificate"), nullptr);
  ASSERT_NE(v.find("floor"), nullptr);
  ASSERT_NE(v.find("validated"), nullptr);
  // The winner is never worse than the default pipeline: the default is
  // always in the validated set.
  const double winner =
      v.find("winner")->number_or("measured_bytes", -1);
  const double fallback =
      v.find("default")->number_or("measured_bytes", -2);
  EXPECT_GE(winner, 0);
  EXPECT_LE(winner, fallback);
  // The certificate chain: floor <= predicted <= measured.
  const JsonValue* cert = v.find("certificate");
  EXPECT_LE(cert->number_or("floor_bytes", 1e18),
            cert->number_or("predicted_bytes", -1));
  EXPECT_LE(cert->number_or("predicted_bytes", 1e18),
            cert->number_or("measured_bytes", -1));
}

TEST(ServerService, TuneCacheHitIsBitIdenticalAndSkipsSearch) {
  TempDir dir("tune-cache");
  ServiceOptions options;
  options.cache_dir = dir.path();
  Service service(options);
  const Request request = small_tune_request();

  const Response cold = service.handle(request);
  ASSERT_EQ(cold.status, "ok") << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(service.stats().pipeline_runs, 1u);

  const Response warm = service.handle(request);
  ASSERT_EQ(warm.status, "ok") << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.result_json, cold.result_json);
  EXPECT_EQ(service.stats().pipeline_runs, 1u);
}

TEST(ServerService, TuneKeyTracksKnobsAndSeedPopulation) {
  const Request a = small_tune_request();
  Request b = a;
  b.strategy = "genetic";
  Request c = a;
  c.gap = 1.0;
  Request d = a;
  d.tune_seed = 3;
  EXPECT_NE(Service::tune_cache_key_text(a, {}),
            Service::tune_cache_key_text(b, {}));
  EXPECT_NE(Service::tune_cache_key_text(a, {}),
            Service::tune_cache_key_text(c, {}));
  EXPECT_NE(Service::tune_cache_key_text(a, {}),
            Service::tune_cache_key_text(d, {}));
  // The seed population steers the search, so it is part of the key --
  // a log that has learned a new pipeline is a different computation.
  EXPECT_NE(Service::tune_cache_key_text(a, {}),
            Service::tune_cache_key_text(a, {"interchange"}));
  // The replay engine stays excluded (engines are bit-identical).
  Request e = a;
  e.engine = "reference";
  EXPECT_EQ(Service::tune_cache_key_text(a, {}),
            Service::tune_cache_key_text(e, {}));
}

TEST(ServerService, OptimizePipelinesSeedTheTunePopulation) {
  TempDir dir("tune-seeds");
  std::system(("mkdir -p " + dir.path()).c_str());
  ServiceOptions options;
  options.record_log_path = dir.path() + "/rec.log";
  Service service(options);
  EXPECT_TRUE(service.tune_seed_specs().empty());
  const Response served = service.handle(small_request());
  ASSERT_EQ(served.status, "ok") << served.error;
  // The served optimize's canonical pipeline is now in the log, ready
  // to seed the next tune search.
  const std::vector<std::string> seeds = service.tune_seed_specs();
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0], "fuse(solver=best),reduce-storage,eliminate-stores");
  // And read_record_log still sees only the type-1 serving record:
  // readers skip record types they do not know.
  EXPECT_EQ(read_record_log(options.record_log_path).size(), 1u);
}

TEST(ServerService, RecordsServedRequestsAndRejections) {
  TempDir dir("service-log");
  std::system(("mkdir -p " + dir.path()).c_str());
  ServiceOptions options;
  options.record_log_path = dir.path() + "/rec.log";
  {
    Service service(options);
    service.handle(small_request());
    service.record_rejection("overloaded", "[overloaded] queue full", 64, 80);
  }
  const std::vector<ServedRecord> records =
      read_record_log(options.record_log_path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, kRecordOk);
  EXPECT_EQ(records[0].detail, "optimize");
  EXPECT_GT(records[0].response_bytes, 0u);
  EXPECT_EQ(records[1].status, kRecordOverloaded);
  EXPECT_EQ(records[1].detail, "[overloaded] queue full");
}

// ---- Golden protocol schema ----

/// Structural comparison: objects must agree on key order and kinds,
/// strings exactly; numbers within a relative tolerance so a last-ulp
/// difference across compilers does not trip the schema gate.
void expect_same_shape(const JsonValue& got, const JsonValue& want,
                       const std::string& at) {
  ASSERT_EQ(static_cast<int>(got.kind()), static_cast<int>(want.kind()))
      << "kind mismatch at " << at;
  switch (want.kind()) {
    case JsonValue::Kind::kObject: {
      ASSERT_EQ(got.members().size(), want.members().size())
          << "member count at " << at;
      for (std::size_t i = 0; i < want.members().size(); ++i) {
        EXPECT_EQ(got.members()[i].first, want.members()[i].first)
            << "key order at " << at;
        expect_same_shape(got.members()[i].second, want.members()[i].second,
                          at + "." + want.members()[i].first);
      }
      break;
    }
    case JsonValue::Kind::kArray: {
      ASSERT_EQ(got.items().size(), want.items().size())
          << "array length at " << at;
      for (std::size_t i = 0; i < want.items().size(); ++i)
        expect_same_shape(got.items()[i], want.items()[i],
                          at + "[" + std::to_string(i) + "]");
      break;
    }
    case JsonValue::Kind::kString:
      EXPECT_EQ(got.as_string(), want.as_string()) << "at " << at;
      break;
    case JsonValue::Kind::kNumber:
      EXPECT_NEAR(got.as_number(), want.as_number(),
                  1e-9 * (std::abs(want.as_number()) + 1.0))
          << "at " << at;
      break;
    case JsonValue::Kind::kBool:
      EXPECT_EQ(got.as_bool(), want.as_bool()) << "at " << at;
      break;
    case JsonValue::Kind::kNull:
      break;
  }
}

TEST(ServerGolden, ProtocolResult) {
  // The frozen request: small fig7, default pipeline, measured on the
  // default machine. Any change to the result schema shows up here.
  const Request request = small_request();
  const std::string body = Service::compute_result_body(request);
  const std::string path =
      std::string(BWC_TEST_GOLDEN_DIR) + "/server_protocol.json";

  if (std::getenv("BWC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << body << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream golden_text;
  golden_text << in.rdbuf();

  const JsonValue got = parse_json(body);
  std::string want_text = golden_text.str();
  while (!want_text.empty() && want_text.back() == '\n') want_text.pop_back();
  const JsonValue want = parse_json(want_text);
  expect_same_shape(got, want, "result");

  // Schema invariants independent of the golden bytes.
  EXPECT_EQ(got.string_or("schema", ""), kSchemaName);
  EXPECT_EQ(got.number_or("protocol_version", 0), kProtocolVersion);
  ASSERT_NE(got.find("passes"), nullptr);
  for (const JsonValue& pass : got.find("passes")->items()) {
    EXPECT_NE(pass.find("pass"), nullptr);
    EXPECT_NE(pass.find("remarks"), nullptr);
    // Wall-clock fields must NOT appear: the result body is
    // deterministic by construction.
    EXPECT_EQ(pass.find("wall_ms"), nullptr);
    EXPECT_EQ(pass.find("verify_ms"), nullptr);
  }
}

}  // namespace
}  // namespace bwc::server
