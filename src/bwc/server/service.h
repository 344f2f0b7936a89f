// The bwcd service core: one request in, one response out.
//
// Service is transport-free -- the TCP daemon (server/daemon.h), the
// tests and the bench all call handle() directly -- and thread-safe, so
// the daemon's worker pool runs many handles concurrently.
//
// An optimize request is canonicalized first (program parsed and
// re-printed, pipeline spec parsed and re-rendered, defaults filled),
// so every spelling of the same computation -- whitespace, key order,
// an explicit spec equal to the default -- maps to the same
// content-addressed cache key. A hit replays the stored result object
// byte-for-byte without touching the pass pipeline (pipeline_runs is
// the counter the acceptance test watches); a miss runs
// core::optimize + model::measure, renders the deterministic result
// body, and publishes it.
//
// The replay engine is deliberately NOT part of the cache key: all
// engines are bit-identical by the differential guarantee
// (tests/codegen_test.cpp, tests/compiled_runtime_test.cpp), so a
// result computed under one engine is the correct answer for every
// other. docs/SERVER.md states this contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bwc/server/cache.h"
#include "bwc/server/protocol.h"
#include "bwc/server/record_log.h"

namespace bwc::server {

struct ServiceOptions {
  /// Content-addressed result cache directory; empty disables caching.
  std::string cache_dir;
  /// Append-only binary record log path; empty disables logging.
  std::string record_log_path;
  /// Artificial per-optimize-request delay in milliseconds, applied
  /// before any work. Zero in production; the fault tests and the
  /// throughput bench use it to shape queue pressure deterministically.
  std::int64_t debug_delay_ms = 0;
};

class Service {
 public:
  explicit Service(const ServiceOptions& options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Serve one request. Never throws: every failure becomes a
  /// status="error" response with a coded message.
  Response handle(const Request& request);

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_store_failures = 0;
    /// Full pass-pipeline executions (cache misses that ran
    /// core::optimize). requests - pipeline_runs = work the cache saved.
    std::uint64_t pipeline_runs = 0;
    std::uint64_t record_log_records = 0;
  };
  Stats stats() const;

  const CompileCache& cache() const { return cache_; }

  /// The canonical cache-key text for an optimize request (everything
  /// that determines the result body). Throws on an invalid request.
  std::string cache_key_text(const Request& request) const;

  /// Compute the deterministic result body for an optimize request,
  /// bypassing the cache -- the reference the stress test compares
  /// daemon responses against bit-for-bit. Throws bwc::Error on an
  /// invalid program/spec.
  static std::string compute_result_body(const Request& request);

  /// The canonical cache-key text for a tune request. Includes the
  /// sorted, deduped seed-spec population (`seed_specs`), because the
  /// seeds steer the search: the same request against a log that has
  /// since learned new pipelines is a different computation.
  static std::string tune_cache_key_text(
      const Request& request, const std::vector<std::string>& seed_specs);

  /// Compute the deterministic result body for a tune request with the
  /// given seed population (no timestamps, no wall clocks). The winning
  /// spec is also written to `*winner_spec` when non-null.
  static std::string compute_tune_result_body(
      const Request& request, const std::vector<std::string>& seed_specs,
      std::string* winner_spec);

  /// The seed population the next tune request would use: canonical
  /// pipeline-spec records from this service's record log, sorted and
  /// deduped (empty when logging is off).
  std::vector<std::string> tune_seed_specs() const;

  /// Record a response the daemon produced without reaching handle()
  /// (overloaded, timeout, frame/JSON errors), so the record log and
  /// the error counters still see it.
  void record_rejection(const std::string& status, const std::string& detail,
                        std::uint64_t request_bytes,
                        std::uint64_t response_bytes);

 private:
  /// Marks one cache key as being computed for as long as it lives; a
  /// second guard on the same key waits until the first is gone. So
  /// concurrent identical requests run the pipeline once, and the others
  /// are then served from the cache.
  class InflightGuard;

  Response handle_optimize(const Request& request);
  Response stats_response() const;
  void log_served(const Request& request, const Response& response,
                  const std::string& key_fp);

  ServiceOptions options_;
  CompileCache cache_;
  std::unique_ptr<RecordLogWriter> log_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> pipeline_runs_{0};
  std::mutex inflight_mutex_;
  std::condition_variable inflight_done_;
  std::set<std::string> inflight_;  // fingerprints of keys being computed
};

}  // namespace bwc::server
