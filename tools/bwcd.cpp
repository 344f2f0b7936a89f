// bwcd — the optimizer-as-a-service daemon.
//
// Listens on 127.0.0.1, accepts length-prefixed JSON frames carrying
// optimize/stats/ping requests (schema bwcd-v1, docs/SERVER.md),
// schedules optimize jobs as batches on the runtime thread pool, and
// serves repeated requests from an on-disk content-addressed compile
// cache. SIGTERM/SIGINT trigger a graceful drain: queued requests are
// answered, new ones are rejected, then the process exits 0.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <string>

#include "bwc/server/daemon.h"
#include "cli_flags.h"

namespace {

using namespace bwc;

struct Options {
  server::DaemonOptions daemon;
};

using Flag = cli::Flag<Options>;
using cli::number;

const Flag kFlags[] = {
    {"--port", "<int>",
     "TCP port to bind on 127.0.0.1 (default 0 = pick an ephemeral port "
     "and print it)",
     [](Options& o, const std::string& v) { o.daemon.port = number<int>(v); }},
    {"--threads", "<int>", "optimize worker threads (default 4)",
     [](Options& o, const std::string& v) {
       o.daemon.threads = number<int>(v);
     }},
    {"--queue-max", "<int>",
     "bounded job-queue capacity; a request arriving on a full queue is "
     "answered \"overloaded\" immediately, never queued blind (default 64)",
     [](Options& o, const std::string& v) {
       o.daemon.queue_max = number<int>(v);
     }},
    {"--batch-max", "<int>",
     "max jobs drained per dispatcher batch -- one thread-pool "
     "parallel_for per batch (default 8)",
     [](Options& o, const std::string& v) {
       o.daemon.batch_max = number<int>(v);
     }},
    {"--max-connections", "<int>", "live-connection cap (default 256)",
     [](Options& o, const std::string& v) {
       o.daemon.max_connections = number<int>(v);
     }},
    {"--timeout-ms", "<int>",
     "default queue-wait deadline for requests that do not carry their "
     "own timeout_ms (default 30000)",
     [](Options& o, const std::string& v) {
       o.daemon.default_timeout_ms = number<std::int64_t>(v);
     }},
    {"--cache-dir", "<path>",
     "content-addressed compile cache directory; repeated identical "
     "requests are served from disk without re-running the pipeline "
     "(default off)",
     [](Options& o, const std::string& v) {
       o.daemon.service.cache_dir = v;
     }},
    {"--record-log", "<path>",
     "append-only binary record log of every served request (format in "
     "docs/SERVER.md; default off)",
     [](Options& o, const std::string& v) {
       o.daemon.service.record_log_path = v;
     }},
};

const cli::Command<Options> kBwcd = {
    "bwcd", "[options]",
    "bwcd -- serve the bandwidth optimizer over plain TCP\n\n"
    "usage: bwcd [options]\n\n"
    "Prints \"bwcd: listening on port N\" once ready. Speak the protocol "
    "with\n`bwcopt bwcd-client` or any client that frames JSON per "
    "docs/SERVER.md.\nSIGTERM/SIGINT drain gracefully.\n",
    kFlags, 1};

Options parse(int argc, char** argv) {
  const Options o = cli::parse(kBwcd, argc, argv);
  if (o.daemon.port < 0 || o.daemon.port > 65535)
    cli::usage_error(kBwcd, "--port must be in [0, 65535]");
  if (o.daemon.threads < 1) cli::usage_error(kBwcd, "--threads must be >= 1");
  if (o.daemon.queue_max < 1)
    cli::usage_error(kBwcd, "--queue-max must be >= 1");
  if (o.daemon.batch_max < 1)
    cli::usage_error(kBwcd, "--batch-max must be >= 1");
  if (o.daemon.max_connections < 1)
    cli::usage_error(kBwcd, "--max-connections must be >= 1");
  return o;
}

// Self-pipe: the signal handler does the only async-signal-safe thing
// (write one byte); the main thread blocks on the read end and runs the
// actual drain outside signal context.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (::pipe(g_signal_pipe) != 0) {
      std::cerr << "bwcd: cannot create signal pipe: " << std::strerror(errno)
                << "\n";
      return 2;
    }
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    server::Daemon daemon(o.daemon);
    daemon.start();
    std::cout << "bwcd: listening on port " << daemon.port() << std::endl;

    // Block until SIGTERM/SIGINT.
    char byte;
    while (true) {
      const ssize_t n = ::read(g_signal_pipe[0], &byte, 1);
      if (n == 1) break;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
    }
    std::cout << "bwcd: draining" << std::endl;
    daemon.stop();

    const server::Service::Stats stats = daemon.service().stats();
    std::cout << "bwcd: served " << stats.requests << " requests ("
              << stats.cache_hits << " cache hits, " << stats.pipeline_runs
              << " pipeline runs)" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bwcd: error: " << e.what() << "\n";
    return 2;
  }
}
