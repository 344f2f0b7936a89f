#include "corpus.h"

#include <algorithm>
#include <functional>

#include "bwc/ir/printer.h"
#include "bwc/support/prng.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace perfbench {

namespace {

using bwc::ir::Program;
using Generator = std::function<Program(std::int64_t)>;

struct Kind {
  const char* name;
  Generator make;
};

// The 2-D nests lower to zero StreamLoops, so per-access replay dominates.
const std::vector<Kind>& kinds_2d() {
  static const std::vector<Kind> kinds = {
      {"adi_like", [](std::int64_t n) { return bwc::workloads::adi_like(n); }},
      {"fig6_original",
       [](std::int64_t n) { return bwc::workloads::fig6_original(n); }},
      {"transposed_sweep",
       [](std::int64_t n) { return bwc::workloads::transposed_sweep(n); }},
  };
  return kinds;
}

// 1-D streams: StreamLoops, coalesced runs and fast-forward.
const std::vector<Kind>& kinds_1d() {
  static const std::vector<Kind> kinds = {
      {"fig7_original",
       [](std::int64_t n) { return bwc::workloads::fig7_original(n); }},
      {"sec21_both_loops",
       [](std::int64_t n) { return bwc::workloads::sec21_both_loops(n); }},
      {"jacobi_chain",
       [](std::int64_t n) { return bwc::workloads::jacobi_chain(n, 4); }},
      {"blur_sharpen",
       [](std::int64_t n) { return bwc::workloads::blur_sharpen(n); }},
      {"reduction_cascade",
       [](std::int64_t n) { return bwc::workloads::reduction_cascade(n, 3); }},
  };
  return kinds;
}

struct Shape {
  const std::vector<Kind>* kinds;
  std::int64_t lo, hi;
  std::size_t per_kind;
  std::size_t warmup;
};

void add_program(Corpus& corpus, const char* kind, std::int64_t n,
                 const Program& program, SpanBuffer* spans) {
  std::string text;
  if (spans != nullptr) {
    ScopedSpan print(*spans, "ir.print", 0);
    text = bwc::ir::to_string(program);
  } else {
    text = bwc::ir::to_string(program);
  }
  corpus.programs.push_back({kind, n, std::move(text)});
}

// One seed per purpose, so the sizes, the generated programs and the
// request order are independent streams of the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t state = seed ^ (purpose * 0xd1b54a32d192ed03ull);
  return bwc::splitmix64(state);
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kReplay2d: return "replay_2d";
    case Workload::kReplay1d: return "replay_1d";
    case Workload::kCompileGenerated: return "compile_generated";
    case Workload::kDaemonHits: return "daemon_hits";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kReplay2d, Workload::kReplay1d,
                     Workload::kCompileGenerated, Workload::kDaemonHits}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

std::vector<std::int64_t> stratified_sizes(std::uint64_t seed,
                                           std::int64_t lo, std::int64_t hi,
                                           std::size_t count) {
  bwc::Prng rng(seed);
  const std::int64_t width = hi - lo + 1;
  const auto c = static_cast<std::int64_t>(count);
  std::vector<std::int64_t> sizes;
  sizes.reserve(count);
  for (std::int64_t i = 0; i < c; ++i) {
    sizes.push_back(
        rng.uniform_in(lo + i * width / c, lo + (i + 1) * width / c - 1));
  }
  return sizes;
}

Corpus make_corpus(Workload workload, std::uint64_t seed, SpanBuffer* spans) {
  Corpus corpus;
  std::optional<ScopedSpan> generate;
  if (spans != nullptr) generate.emplace(*spans, "workloads.generate", 0);

  if (workload == Workload::kCompileGenerated) {
    // Programs nobody wrote by hand, alternating 1-D chains and 2-D
    // Figure-6-shaped sweeps, each from its own seeded generator.
    constexpr std::size_t kPrograms = 2048;
    bwc::Prng seeds(derive(seed, 1));
    for (std::size_t i = 0; i < kPrograms; ++i) {
      bwc::Prng rng(seeds());
      if (i % 2 == 0) {
        bwc::workloads::RandomProgramParams params;
        params.n = 1024;
        params.num_loops = 8;
        add_program(corpus, "random_program", params.n,
                    bwc::workloads::random_program(rng, params), spans);
      } else {
        add_program(corpus, "random_program_2d", 48,
                    bwc::workloads::random_program_2d(rng, 48, 4), spans);
      }
    }
    corpus.warmup = 128;
  } else {
    Shape shape{};
    switch (workload) {
      case Workload::kReplay2d: shape = {&kinds_2d(), 384, 512, 12, 16}; break;
      case Workload::kReplay1d:
        shape = {&kinds_1d(), 20000, 60000, 32, 64};
        break;
      default:  // daemon_hits: a pool of distinct small 1-D programs
        shape = {&kinds_1d(), 1800, 2200, 48, 0};
        break;
    }
    for (std::size_t k = 0; k < shape.kinds->size(); ++k) {
      const Kind& kind = (*shape.kinds)[k];
      for (std::int64_t n : stratified_sizes(derive(seed, 10 + k), shape.lo,
                                             shape.hi, shape.per_kind)) {
        add_program(corpus, kind.name, n, kind.make(n), spans);
      }
    }
    corpus.warmup = shape.warmup;
  }

  corpus.order.resize(corpus.programs.size());
  for (std::size_t i = 0; i < corpus.order.size(); ++i) corpus.order[i] = i;
  bwc::Prng shuffle(derive(seed, 2));
  for (std::size_t i = corpus.order.size(); i > 1; --i)
    std::swap(corpus.order[i - 1], corpus.order[shuffle.uniform(i)]);
  return corpus;
}

}  // namespace perfbench
