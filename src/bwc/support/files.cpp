#include "bwc/support/files.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <system_error>

#include "bwc/support/prng.h"

namespace fs = std::filesystem;

namespace bwc {

std::string read_file_or_empty(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file_atomic(const fs::path& path, const std::string& content) {
  const fs::path tmp = path.string() + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << content;
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::string content_fingerprint(const std::string& text) {
  std::uint64_t s0 = 0x9e3779b97f4a7c15ULL ^ text.size();
  std::uint64_t s1 = 0xbf58476d1ce4e5b9ULL + text.size();
  std::uint64_t h0 = 0;
  std::uint64_t h1 = 0;
  for (unsigned char ch : text) {
    s0 ^= ch;
    h0 ^= splitmix64(s0);
    s1 ^= static_cast<std::uint64_t>(ch) << 8;
    h1 ^= splitmix64(s1);
  }
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h0),
                static_cast<unsigned long long>(h1));
  return buf;
}

}  // namespace bwc
