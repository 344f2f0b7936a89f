// bwcd: the optimizer-as-a-service daemon (plain TCP, framed JSON).
//
// Threading shape:
//   - one accept thread (poll on the listen socket + a wake pipe),
//   - one reader thread per connection (frame reassembly, request
//     parsing, cheap ops inline),
//   - one dispatcher thread draining a bounded job queue in batches of
//     up to batch_max onto a runtime::ThreadPool -- one parallel_for
//     per batch, the same fork/join pool the autotuner scores on.
//
// Robustness contract (tests/server_fault_test.cpp):
//   - a malformed payload (bad JSON, bad request schema) gets a
//     structured error response and the connection STAYS OPEN -- the
//     frame boundary is intact, so the stream is still synchronized;
//   - an oversized length prefix means the stream is NOT synchronized:
//     one structured error response, then the connection is closed;
//   - a full job queue answers "overloaded" immediately -- the daemon
//     never blocks a reader on queue space, and never hangs a client;
//   - a request still queued past its deadline answers "timeout"
//     without running;
//   - a client that disconnects mid-request just loses its response:
//     the write fails, the connection is reaped, nothing else is
//     affected (SIGPIPE is never raised; writes use MSG_NOSIGNAL).
//
// stop() -- wired to SIGTERM/SIGINT by tools/bwcd.cpp -- drains
// gracefully: stop accepting, reject new optimize jobs with
// "[shutting-down]", finish and answer everything already queued, then
// close connections and join every thread. Destruction implies stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "bwc/server/service.h"

namespace bwc::server {

struct DaemonOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back from port() -- how the tests and bench avoid collisions).
  int port = 0;
  /// Worker threads for the optimize pool.
  int threads = 4;
  /// Bounded job-queue capacity; a request arriving on a full queue is
  /// answered "overloaded" immediately.
  int queue_max = 64;
  /// Jobs drained per dispatcher batch (one ThreadPool parallel_for).
  int batch_max = 8;
  /// Soft cap on live connections; one above it is answered with a
  /// structured error frame and closed.
  int max_connections = 256;
  /// Queue-wait deadline applied when a request carries timeout_ms=0.
  std::int64_t default_timeout_ms = 30'000;
  ServiceOptions service;
};

class Daemon {
 public:
  explicit Daemon(const DaemonOptions& options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind, listen, and spawn the accept/dispatch threads. Throws
  /// bwc::Error when the port cannot be bound.
  void start();

  /// The bound port (valid after start()).
  int port() const { return port_; }

  /// Graceful drain; idempotent, safe from a signal-notified thread.
  void stop();

  const Service& service() const;
  Service& service();

  struct Counters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_rejected = 0;
    std::uint64_t frames = 0;
    std::uint64_t malformed_frames = 0;
    std::uint64_t truncated_frames = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_jobs = 0;
  };
  Counters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int port_ = 0;
};

}  // namespace bwc::server
