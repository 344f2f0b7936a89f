// Persistent content-addressed compile cache for the bwcd service.
//
// Key material is the canonical text of everything that determines an
// optimize result (service.cpp: protocol version, canonical program,
// canonical pipeline spec, machine preset, cores, scale, measure flag);
// the value is the deterministic `result` JSON. Layout under the cache
// directory, following the codegen object cache's discipline
// (runtime/codegen.cpp) and sharing its file helpers (support/files.h):
//
//   <fp>.key   the full canonical key text
//   <fp>.val   header line "bwcd-cache-v1 <value-fp>\n" + the value
//
// where <fp> is bwc::content_fingerprint of the key text. A hit
// requires the stored key text to equal the probe byte-for-byte (the
// fingerprint only names the files; the content check decides, so a
// collision can never serve a wrong answer) AND the value to match its
// own fingerprint in the header (a tampered or torn entry is evicted
// and recomputed, never served). Writes publish via write-to-temp +
// atomic rename, so concurrent readers -- other daemon threads or other
// daemon processes sharing the directory -- see either the old entry or
// the new one, never a partial file.
//
// The cache degrades, never blocks: an unwritable directory or a failed
// publish counts store_failures and the service keeps answering from
// the pipeline; a hit is a pure read (no pipeline run), which is the
// fast path the server bench floors.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace bwc::server {

class CompileCache {
 public:
  /// `dir` empty disables the cache entirely (every get is a miss,
  /// every put a no-op). The directory is created on first use.
  explicit CompileCache(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  struct Lookup {
    bool hit = false;
    std::string value;
  };

  /// Probe the cache. Never throws: any I/O trouble is a miss.
  Lookup get(const std::string& key_text);

  /// Publish an entry. Never throws: failures count store_failures and
  /// the entry is simply absent next time.
  void put(const std::string& key_text, const std::string& value);

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  std::uint64_t evictions() const { return evictions_.load(); }
  std::uint64_t store_failures() const { return store_failures_.load(); }

 private:
  std::string dir_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> store_failures_{0};
};

}  // namespace bwc::server
