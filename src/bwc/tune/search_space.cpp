#include "bwc/tune/search_space.h"

#include <utility>

#include "bwc/pass/pipeline_spec.h"

namespace bwc::tune {

namespace {

using pass::parse_pipeline_spec;
using pass::PassSpec;
using pass::PipelineSpec;

std::vector<PassSpec> parse_genes() {
  // Every registered transform pass; fuse's solver choices and the
  // shifted-fusion knob are separate genes so the search can trade them
  // off like any other pipeline edit. "lint" is diagnostics-only and
  // deliberately absent.
  static const char* const kGenes[] = {
      "interchange",
      "fuse(solver=best)",
      "fuse(solver=exact)",
      "fuse(solver=greedy)",
      "fuse(solver=bisection)",
      "fuse(solver=edge-weighted)",
      "fuse(solver=best,shift=1)",
      "fuse(solver=best,shift=1,max-shift=4)",
      "reduce-storage",
      "eliminate-stores",
      "scalar-replace",
      "distribute",
      "transpose-layout",
      "regroup-arrays",
      "pad-arrays",
  };
  std::vector<PassSpec> genes;
  for (const char* g : kGenes)
    genes.push_back(parse_pipeline_spec(g).passes.front());
  return genes;
}

const std::vector<PassSpec>& genes() {
  static const std::vector<PassSpec> kPool = parse_genes();
  return kPool;
}

std::string render(const std::vector<PassSpec>& passes) {
  PipelineSpec spec;
  spec.passes = passes;
  return spec.to_string();
}

}  // namespace

const std::vector<std::string>& gene_pool() {
  static const std::vector<std::string> kPool = [] {
    std::vector<std::string> pool;
    for (const PassSpec& g : genes()) pool.push_back(g.to_string());
    return pool;
  }();
  return kPool;
}

std::string canonical_spec(const std::string& spec) {
  return parse_pipeline_spec(spec).to_string();
}

std::string mutate_spec(const std::string& spec, Prng& rng) {
  std::vector<PassSpec> passes = parse_pipeline_spec(spec).passes;
  const std::size_t n = passes.size();
  // Pick among the moves applicable at this length. Insert and replace
  // are always offered (replace on an empty pipeline degrades to insert)
  // so the empty candidate can still move.
  enum Move { kInsert, kRemove, kSwap, kReplace };
  std::vector<Move> moves = {kInsert, kReplace};
  if (n >= 1) moves.push_back(kRemove);
  if (n >= 2) moves.push_back(kSwap);
  switch (moves[rng.uniform(moves.size())]) {
    case kInsert: {
      if (n >= static_cast<std::size_t>(kMaxPasses)) break;
      const PassSpec& gene = genes()[rng.uniform(genes().size())];
      passes.insert(passes.begin() + rng.uniform(n + 1), gene);
      break;
    }
    case kRemove: {
      passes.erase(passes.begin() + rng.uniform(n));
      break;
    }
    case kSwap: {
      const std::size_t i = rng.uniform(n);
      std::size_t j = rng.uniform(n - 1);
      if (j >= i) ++j;  // distinct positions
      std::swap(passes[i], passes[j]);
      break;
    }
    case kReplace: {
      const PassSpec& gene = genes()[rng.uniform(genes().size())];
      if (n == 0) {
        passes.push_back(gene);
      } else {
        passes[rng.uniform(n)] = gene;
      }
      break;
    }
  }
  return render(passes);
}

std::string crossover_specs(const std::string& a, const std::string& b,
                            Prng& rng) {
  const std::vector<PassSpec> pa = parse_pipeline_spec(a).passes;
  const std::vector<PassSpec> pb = parse_pipeline_spec(b).passes;
  const std::size_t cut_a = rng.uniform(pa.size() + 1);
  const std::size_t cut_b = rng.uniform(pb.size() + 1);
  std::vector<PassSpec> child(pa.begin(), pa.begin() + cut_a);
  child.insert(child.end(), pb.begin() + cut_b, pb.end());
  if (child.size() > static_cast<std::size_t>(kMaxPasses))
    child.resize(kMaxPasses);
  return render(child);
}

}  // namespace bwc::tune
