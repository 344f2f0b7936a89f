// File helpers for the content-addressed on-disk caches -- the native
// codegen object cache (runtime/codegen.h) and the bwcd compile cache
// (server/cache.h): whole-file reads, atomic publication, and the content
// fingerprint that names cache entries.
#pragma once

#include <filesystem>
#include <string>

namespace bwc {

/// The file's bytes, or "" when it cannot be opened.
std::string read_file_or_empty(const std::filesystem::path& path);

/// Write-to-temp + atomic rename; false on any failure, with the temp
/// file removed. The temp name carries the pid so concurrent publishers
/// on a shared directory never collide on it, and readers see either the
/// old file or the new one, never a partial write.
bool write_file_atomic(const std::filesystem::path& path,
                       const std::string& content);

/// 128-bit content fingerprint of `text`: 32 hex digits from two
/// splitmix64 lanes chained over the bytes. Cache files are named by it;
/// a hit still compares the full stored content, so a collision can only
/// cost a recompute, never a wrong answer.
std::string content_fingerprint(const std::string& text);

}  // namespace bwc
