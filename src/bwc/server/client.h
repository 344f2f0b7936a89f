// Blocking TCP client for the bwcd protocol: one connection, framed
// request/response pairs. Used by `bwcopt bwcd-client`, the stress and
// fault tests, and the throughput bench.
#pragma once

#include <cstdint>
#include <string>

#include "bwc/server/frame.h"
#include "bwc/server/protocol.h"

namespace bwc::server {

class Client {
 public:
  /// Connect to host:port. Throws bwc::Error ("[connect-failed] ...")
  /// when the daemon is unreachable. `timeout_ms` bounds connect and
  /// every subsequent read/write.
  Client(const std::string& host, int port, std::int64_t timeout_ms = 30'000);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Send one request and wait for its response. Throws bwc::Error on a
  /// transport failure ("[connection-lost]", "[timeout] ...") or a
  /// malformed response. Responses with error statuses are returned,
  /// not thrown -- the caller decides.
  Response call(const Request& request);

  /// Raw variant: send an arbitrary payload, return the raw response
  /// payload. What the fault tests use to speak malformed dialects.
  std::string call_raw(const std::string& payload);

  /// Send raw bytes as-is (no framing) -- truncated/garbage frames.
  void send_bytes(const std::string& bytes);

  /// Read one framed response payload (after send_bytes).
  std::string read_frame();

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::int64_t timeout_ms_ = 30'000;
  /// Bytes received but not yet returned: one recv can carry the next
  /// response too (pipelined requests), which the next read_frame owns.
  FrameReader reader_;
};

}  // namespace bwc::server
