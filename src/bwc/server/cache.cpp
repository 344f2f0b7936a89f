#include "bwc/server/cache.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "bwc/support/files.h"

namespace fs = std::filesystem;

namespace bwc::server {

namespace {

constexpr char kValueHeaderTag[] = "bwcd-cache-v1";

}  // namespace

CompileCache::CompileCache(std::string dir) : dir_(std::move(dir)) {}

CompileCache::Lookup CompileCache::get(const std::string& key_text) {
  Lookup result;
  if (!enabled()) {
    ++misses_;
    return result;
  }
  const std::string fp = content_fingerprint(key_text);
  const fs::path key_path = fs::path(dir_) / (fp + ".key");
  const fs::path val_path = fs::path(dir_) / (fp + ".val");
  const std::string stored_key = read_file_or_empty(key_path);
  const std::string stored_val = read_file_or_empty(val_path);

  const auto evict = [&] {
    std::error_code ec;
    fs::remove(key_path, ec);
    fs::remove(val_path, ec);
    ++evictions_;
    ++misses_;
  };

  if (stored_key.empty() && stored_val.empty()) {
    ++misses_;
    return result;
  }
  if (stored_key != key_text) {
    // Missing key file, torn publish, tampered key, or a fingerprint
    // collision: the content check decides, the pair goes.
    evict();
    return result;
  }
  // Value header: "bwcd-cache-v1 <value-fp>\n" + value.
  const std::size_t nl = stored_val.find('\n');
  if (nl == std::string::npos) {
    evict();
    return result;
  }
  const std::string header = stored_val.substr(0, nl);
  const std::string value = stored_val.substr(nl + 1);
  const std::string expect =
      std::string(kValueHeaderTag) + " " + content_fingerprint(value);
  if (header != expect) {
    evict();
    return result;
  }
  ++hits_;
  result.hit = true;
  result.value = value;
  return result;
}

void CompileCache::put(const std::string& key_text, const std::string& value) {
  if (!enabled()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    ++store_failures_;
    return;
  }
  const std::string fp = content_fingerprint(key_text);
  const fs::path key_path = fs::path(dir_) / (fp + ".key");
  const fs::path val_path = fs::path(dir_) / (fp + ".val");
  const std::string framed_val = std::string(kValueHeaderTag) + " " +
                                 content_fingerprint(value) + "\n" + value;
  // Value first, key last: the key file's presence-and-match is what
  // get() trusts, so a reader can never match a key whose value has not
  // been published yet.
  if (!write_file_atomic(val_path, framed_val) ||
      !write_file_atomic(key_path, key_text)) {
    ++store_failures_;
  }
}

}  // namespace bwc::server
