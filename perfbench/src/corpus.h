// The benchmark's workloads and the corpus each one draws its requests
// from. A corpus is a pure function of (workload, seed): the program
// generators are deterministic, and every random choice comes from one
// seeded bwc::Prng.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

enum class Workload { kReplay2d, kReplay1d, kCompileGenerated, kDaemonHits };

const char* workload_name(Workload workload);
std::optional<Workload> parse_workload(const std::string& name);

struct CorpusProgram {
  std::string kind;    // generator that made it, e.g. "adi_like"
  std::int64_t n = 0;  // problem size passed to the generator
  std::string text;    // the program in the IR text format
};

struct Corpus {
  std::vector<CorpusProgram> programs;
  /// Seeded order in which requests visit the programs; every run
  /// cycles through it from its start.
  std::vector<std::size_t> order;
  /// Leading entries of `order` that the untimed warm-up round runs
  /// (replay and compile workloads; daemon_hits primes every program).
  std::size_t warmup = 0;
};

/// Generate the corpus. When `spans` is given, records a
/// "workloads.generate" span with one "ir.print" child per program.
Corpus make_corpus(Workload workload, std::uint64_t seed,
                   SpanBuffer* spans = nullptr);

/// `count` sizes from [lo, hi], one drawn uniformly from each of `count`
/// equal strata, so the corpus's mean cost barely moves between seeds.
/// Requires count <= hi - lo + 1; the sizes are then distinct.
std::vector<std::int64_t> stratified_sizes(std::uint64_t seed,
                                           std::int64_t lo, std::int64_t hi,
                                           std::size_t count);

}  // namespace perfbench
