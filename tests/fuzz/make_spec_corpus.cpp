// Seed-corpus generator for the PipelineSpec fuzz harness: dumps the
// autotuner's gene pool, the default pipeline, and a spread of mutated /
// crossed-over genomes, so the fuzzer starts from inputs covering the
// whole grammar (params, multi-pass lists, every registered pass name).
//
//   make_spec_corpus <dir>
#include <fstream>
#include <iostream>
#include <string>

#include "bwc/core/optimizer.h"
#include "bwc/support/prng.h"
#include "bwc/tune/search_space.h"

namespace {

int write_seed(const std::string& dir, const std::string& name,
               const std::string& spec) {
  const std::string path = dir + "/" + name + ".spec";
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << spec;
  std::cout << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_spec_corpus <dir>\n";
    return 2;
  }
  const std::string dir = argv[1];
  int rc = 0;
  int n = 0;
  for (const std::string& gene : bwc::tune::gene_pool())
    rc |= write_seed(dir, "gene" + std::to_string(n++), gene);
  rc |= write_seed(dir, "default", bwc::core::kDefaultPipeline);
  bwc::Prng rng(1);
  const std::vector<std::string>& pool = bwc::tune::gene_pool();
  std::string spec = pool[0];
  for (int i = 0; i < 12; ++i) {
    spec = (i % 3 == 2)
               ? bwc::tune::crossover_specs(
                     spec, pool[rng.uniform(pool.size())], rng)
               : bwc::tune::mutate_spec(spec, rng);
    rc |= write_seed(dir, "genome" + std::to_string(i), spec);
  }
  return rc;
}
