#include "bwc/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "bwc/server/frame.h"
#include "bwc/support/error.h"

namespace bwc::server {

Client::Client(const std::string& host, int port, std::int64_t timeout_ms)
    : timeout_ms_(timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error("[connect-failed] cannot create socket");
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw Error("[connect-failed] bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error("[connect-failed] " + host + ":" + std::to_string(port) +
                ": " + why);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      timeout_ms_(other.timeout_ms_),
      reader_(std::move(other.reader_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    timeout_ms_ = other.timeout_ms_;
    reader_ = std::move(other.reader_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::send_bytes(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw Error("[connection-lost] send failed");
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string Client::read_frame() {
  char buf[16384];
  std::string payload;
  while (true) {
    switch (reader_.next(&payload)) {
      case FrameStatus::kFrame: return payload;
      case FrameStatus::kOversized:
        throw Error("[bad-response] oversized response frame");
      case FrameStatus::kNeedMore: break;
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(timeout_ms_));
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw Error("[connection-lost] poll failed");
    }
    if (pr == 0)
      throw Error("[timeout] no response within " +
                  std::to_string(timeout_ms_) + " ms");
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) throw Error("[connection-lost] daemon closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("[connection-lost] recv failed");
    }
    reader_.feed(buf, static_cast<std::size_t>(n));
  }
}

std::string Client::call_raw(const std::string& payload) {
  send_bytes(encode_frame(payload));
  return read_frame();
}

Response Client::call(const Request& request) {
  return parse_response(call_raw(render_request(request)));
}

}  // namespace bwc::server
