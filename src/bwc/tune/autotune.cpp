#include "bwc/tune/autotune.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "bwc/analysis/access_summary.h"
#include "bwc/core/optimizer.h"
#include "bwc/pass/pipeline_spec.h"
#include "bwc/runtime/thread_pool.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/tune/search_space.h"

namespace bwc::tune {

namespace {

/// Candidates scored per generation. Fixed (never derived from the
/// thread count) so the search visits the identical candidate sequence
/// at any pool width.
constexpr int kGenerationSize = 8;
/// Beam width / genetic parent-pool size.
constexpr int kSelectWidth = 6;
/// Give up growing a generation after this many duplicate draws.
constexpr int kMaxDraws = 200;
/// Prefix-state cache entries kept (speed only; never affects results).
constexpr std::size_t kPrefixCacheCap = 256;
/// Top-k candidates (by predicted traffic) validated in memsim, besides
/// the default pipeline, which is always validated.
constexpr int kValidateTopK = 3;

struct Scored {
  std::string spec;
  std::int64_t predicted = -1;
  /// Static stride penalty of the optimized program (see stride_penalty):
  /// breaks ties between candidates the distinct-byte bound cannot
  /// separate (the bound is schedule-blind, so a transposed traversal
  /// scores the same bytes as a stride-1 one).
  std::int64_t stride = 0;
  bool feasible = false;
  int npasses = 0;
};

/// Iterations spent on references whose stride-1 subscript is driven by
/// an outer loop variable instead of the innermost one: each such
/// reference jumps a whole column per inner step and will fetch one line
/// per element once the column set outgrows the cache. Zero for a fully
/// stride-1 schedule. Layout-aware: the stride-1 subscript is the one the
/// array's declared layout stores fastest (storage_dim(0)), so a
/// transpose-layout gene can clear the penalty without rescheduling.
/// A cheap static proxy for the traffic the distinct-byte bound cannot
/// see.
std::int64_t stride_penalty(const ir::Program& program) {
  std::int64_t penalty = 0;
  for (const int idx : program.top_loop_indices()) {
    const analysis::LoopSummary s = analysis::summarize_loop(program, idx);
    if (s.depth() < 2) continue;
    const std::string& inner = s.loop_vars.back();
    const std::int64_t weight = std::max<std::int64_t>(1, s.trip_count());
    for (const verify::AffineRef& r : s.refs->refs) {
      if (r.array.empty()) continue;
      const auto fastest = static_cast<std::size_t>(
          program.array(program.array_id(r.array)).storage_dim(0));
      const std::vector<ir::Affine>& ref = r.subscripts;
      if (fastest >= ref.size() || ref[fastest].uses(inner)) continue;
      for (const std::string& outer : s.loop_vars) {
        if (outer != inner && ref[fastest].uses(outer)) {
          penalty += weight;
          break;
        }
      }
    }
  }
  return penalty;
}

/// Deterministic preference order: feasible first, then smaller
/// predicted traffic, then smaller stride penalty, then shorter
/// pipelines, then lexicographic.
bool better(const Scored& a, const Scored& b) {
  return std::make_tuple(!a.feasible, a.predicted, a.stride, a.npasses,
                         a.spec) <
         std::make_tuple(!b.feasible, b.predicted, b.stride, b.npasses,
                         b.spec);
}

std::string render_prefix(const std::vector<pass::PassSpec>& passes,
                          std::size_t count) {
  pass::PipelineSpec prefix;
  prefix.passes.assign(passes.begin(), passes.begin() + count);
  return prefix.to_string();
}

/// Scores candidates: runs the spec through core::optimize (verification
/// on -- illegal pipelines throw and are scored infeasible) and takes the
/// static traffic bound of the result. Thread-safe. Programs reached by
/// already-verified pipeline prefixes are cached so candidates sharing a
/// prefix skip re-running (and re-verifying) it; the cache only changes
/// speed, never scores, because every pass is a deterministic function of
/// its input program.
class Evaluator {
 public:
  explicit Evaluator(const ir::Program& program) : program_(program) {}

  Scored score(const std::string& spec) const {
    Scored s;
    s.spec = spec;
    try {
      const std::vector<pass::PassSpec> passes =
          pass::parse_pipeline_spec(spec).passes;
      s.npasses = static_cast<int>(passes.size());
      std::shared_ptr<const ir::Program> base;
      std::size_t start = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t k = passes.size(); k >= 1; --k) {
          const auto it = cache_.find(render_prefix(passes, k));
          if (it != cache_.end()) {
            base = it->second;
            start = k;
            break;
          }
        }
      }
      const ir::Program& source = base ? *base : program_;
      if (start == passes.size()) {
        s.predicted = verify::compute_traffic_bound(source).lower_bound_bytes;
        s.stride = stride_penalty(source);
        s.feasible = true;
        return s;
      }
      std::size_t done = start;
      pass::PipelineOptions opts;
      opts.print_after = [&](const pass::Pass&, const ir::Program& after) {
        ++done;
        remember(render_prefix(passes, done), after);
      };
      const core::OptimizeResult result =
          core::optimize(source, render_suffix(passes, start), opts);
      s.predicted =
          verify::compute_traffic_bound(result.program).lower_bound_bytes;
      s.stride = stride_penalty(result.program);
      s.feasible = true;
    } catch (const Error&) {
      // Rejected by the verifier / legality provers, or an unbuildable
      // spec: infeasible, never a winner.
      s.predicted = -1;
      s.feasible = false;
    }
    return s;
  }

 private:
  static std::string render_suffix(const std::vector<pass::PassSpec>& passes,
                                   std::size_t start) {
    pass::PipelineSpec suffix;
    suffix.passes.assign(passes.begin() + start, passes.end());
    return suffix.to_string();
  }

  void remember(const std::string& key, const ir::Program& state) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cache_.size() >= kPrefixCacheCap) return;
    if (cache_.count(key)) return;
    cache_.emplace(key, std::make_shared<ir::Program>(state.clone()));
  }

  const ir::Program& program_;
  mutable std::mutex mutex_;
  mutable std::map<std::string, std::shared_ptr<const ir::Program>> cache_;
};

std::string format_percent(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

}  // namespace

const char* strategy_name(Strategy strategy) {
  return strategy == Strategy::kBeam ? "beam" : "genetic";
}

Strategy parse_strategy(const std::string& name) {
  if (name == "beam") return Strategy::kBeam;
  if (name == "genetic") return Strategy::kGenetic;
  throw Error("unknown tune strategy: " + name + " (want beam or genetic)");
}

int parse_budget(const std::string& text) {
  if (text == "small") return 16;
  if (text == "medium") return 48;
  if (text == "large") return 128;
  int value = 0;
  std::size_t pos = 0;
  try {
    value = std::stoi(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != text.size() || value <= 0)
    throw Error("bad tune budget: " + text +
                " (want small, medium, large or a positive integer)");
  return value;
}

int scoring_threads(int requested, int budget, unsigned hardware) {
  const int host = static_cast<int>(std::clamp(hardware, 1u, 1u << 16));
  return std::max(1, std::min({requested, budget, host}));
}

TuneResult tune(const ir::Program& program, const TuneOptions& options) {
  if (options.budget < 1) throw Error("tune budget must be at least 1");
  if (options.gap_percent < 0)
    throw Error("tune gap tolerance must be non-negative");
  const int threads = scoring_threads(options.threads, options.budget,
                                      std::thread::hardware_concurrency());

  TuneResult out;
  out.threads = threads;
  out.floor = verify::compute_data_floor(program);
  out.default_spec = canonical_spec(core::kDefaultPipeline);
  out.certificate.floor_bytes = out.floor.floor_bytes;
  out.certificate.tolerance_percent = options.gap_percent;
  const double within =
      static_cast<double>(out.floor.floor_bytes) *
      (1.0 + options.gap_percent / 100.0);

  Prng rng(options.seed);
  Evaluator evaluator(program);
  runtime::ThreadPool pool(threads);

  std::set<std::string> seen;
  std::vector<std::string> batch;
  const auto push = [&](const std::string& raw) {
    std::string spec;
    try {
      spec = canonical_spec(raw);
    } catch (const Error&) {
      return;  // malformed seed entry; ignore
    }
    if (pass::parse_pipeline_spec(spec).passes.size() >
        static_cast<std::size_t>(kMaxPasses))
      return;
    if (seen.insert(spec).second) batch.push_back(spec);
  };

  // Starting population: the do-nothing pipeline, the default pipeline,
  // any caller-provided seeds (sorted + deduped so the population is
  // independent of the seeds' arrival order), then every gene in front of
  // the default pipeline. The gene seeds score each enabling transform
  // composed with the paper's pipeline whatever the PRNG draws: the bound
  // often ties such a pipeline with its bare gene, and the tie-break
  // toward shorter pipelines would then never reach it.
  push("");
  push(out.default_spec);
  std::vector<std::string> seeds = options.seed_specs;
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  for (const std::string& s : seeds) push(s);
  for (const std::string& g : gene_pool()) push(g + "," + out.default_spec);

  std::vector<Scored> all;
  while (true) {
    if (static_cast<int>(batch.size()) > options.budget - out.evaluated)
      batch.resize(options.budget - out.evaluated);
    if (batch.empty()) break;

    // Parallel scoring: pure, written by index, joined before any
    // search decision -- bit-identical at every pool width.
    std::vector<Scored> scored(batch.size());
    pool.parallel_for(batch.size(), [&](std::size_t i) {
      scored[i] = evaluator.score(batch[i]);
    });
    for (Scored& s : scored) {
      out.evaluated += 1;
      if (!s.feasible) out.infeasible += 1;
      all.push_back(std::move(s));
    }
    std::sort(all.begin(), all.end(), better);

    // Early stop only when the leader is also stride-clean: a within-gap
    // *bound* with a transposed traversal still measures far off the
    // floor, so stopping there would certify nothing.
    if (out.floor.floor_bytes > 0 && all.front().feasible &&
        all.front().stride == 0 &&
        static_cast<double>(all.front().predicted) <= within) {
      out.early_stop = true;
      break;
    }
    if (out.evaluated >= options.budget) break;

    // Next generation, decided serially on the main thread.
    batch.clear();
    std::vector<const Scored*> parents;
    for (const Scored& s : all) {
      if (!s.feasible) break;  // sorted: infeasible sink to the back
      parents.push_back(&s);
      if (static_cast<int>(parents.size()) >= kSelectWidth) break;
    }
    int draws = 0;
    while (static_cast<int>(batch.size()) < kGenerationSize &&
           draws < kMaxDraws) {
      ++draws;
      if (parents.empty()) {
        push(mutate_spec("", rng));
        continue;
      }
      const std::string& a = parents[rng.uniform(parents.size())]->spec;
      if (options.strategy == Strategy::kGenetic && parents.size() >= 2) {
        const std::string& b = parents[rng.uniform(parents.size())]->spec;
        std::string child = crossover_specs(a, b, rng);
        if (rng.uniform(2) == 0) child = mutate_spec(child, rng);
        push(child);
      } else {
        push(mutate_spec(a, rng));
      }
    }
    if (batch.empty()) break;  // space around the beam is exhausted
  }

  // Memsim validation of the survivors, serially on the main thread.
  // The default pipeline is always validated, so the winner can never
  // measure worse than the default.
  std::vector<std::string> finalists;
  finalists.push_back(out.default_spec);
  for (const Scored& s : all) {
    if (!s.feasible) break;
    if (s.spec == out.default_spec) continue;
    finalists.push_back(s.spec);
    if (static_cast<int>(finalists.size()) > kValidateTopK) break;
  }

  std::map<std::string, std::int64_t> predicted;
  for (const Scored& s : all)
    if (s.feasible) predicted[s.spec] = s.predicted;

  model::MeasureOptions measure_opts;
  measure_opts.engine = options.engine;
  struct Finalist {
    Validated v;
    pass::PipelineReport pipeline;
  };
  std::vector<Finalist> measured;
  for (const std::string& spec : finalists) {
    try {
      Finalist f;
      f.v.spec = spec;
      core::OptimizeResult result = core::optimize(program, spec);
      f.v.measured_bytes = static_cast<std::int64_t>(
          model::measure(result.program, options.machine, measure_opts)
              .profile.memory_bytes());
      f.pipeline = std::move(result.pipeline);
      const auto it = predicted.find(spec);
      f.v.predicted_bytes =
          it != predicted.end()
              ? it->second
              : verify::compute_traffic_bound(program).lower_bound_bytes;
      measured.push_back(std::move(f));
    } catch (const Error&) {
      if (spec == out.default_spec) throw;  // baseline must measure
    }
  }
  if (measured.empty())
    throw Error("autotune: no candidate survived memsim validation");

  std::size_t win = 0;
  for (std::size_t i = 1; i < measured.size(); ++i) {
    const Validated& a = measured[i].v;
    const Validated& w = measured[win].v;
    const auto key = [](const Validated& v) {
      return std::make_tuple(
          v.measured_bytes, v.predicted_bytes,
          std::count(v.spec.begin(), v.spec.end(), ',') +
              (v.spec.empty() ? 0 : 1),
          v.spec);
    };
    if (key(a) < key(w)) win = i;
  }

  for (const Finalist& f : measured) out.validated.push_back(f.v);
  out.winner_spec = measured[win].v.spec;
  out.winner_predicted_bytes = measured[win].v.predicted_bytes;
  out.winner_measured_bytes = measured[win].v.measured_bytes;
  out.winner_pipeline = std::move(measured[win].pipeline);
  for (const Finalist& f : measured) {
    if (f.v.spec == out.default_spec) {
      out.default_measured_bytes = f.v.measured_bytes;
      break;
    }
  }

  Certificate& cert = out.certificate;
  cert.predicted_bytes = out.winner_predicted_bytes;
  cert.measured_bytes = out.winner_measured_bytes;
  if (cert.floor_bytes > 0) {
    cert.gap_percent =
        100.0 *
        static_cast<double>(cert.measured_bytes - cert.floor_bytes) /
        static_cast<double>(cert.floor_bytes);
    cert.within_gap =
        static_cast<double>(cert.measured_bytes) <= within;
  }
  return out;
}

pass::PassReport TuneResult::report() const {
  pass::PassReport r;
  r.pass = "tune";
  r.label = "autotune";
  r.changed = winner_measured_bytes < default_measured_bytes;

  const std::string shown_winner =
      winner_spec.empty() ? "<none>" : winner_spec;
  r.applied(
      "tune-winner",
      "autotune: winner \"" + shown_winner + "\" measured " +
          std::to_string(winner_measured_bytes) + " bytes (default " +
          std::to_string(default_measured_bytes) + ")",
      {{"winner", shown_winner},
       {"winner_predicted_bytes", std::to_string(winner_predicted_bytes)},
       {"winner_measured_bytes", std::to_string(winner_measured_bytes)},
       {"default_measured_bytes", std::to_string(default_measured_bytes)},
       {"evaluated", std::to_string(evaluated)},
       {"infeasible", std::to_string(infeasible)},
       {"early_stop", early_stop ? "true" : "false"}});

  std::vector<std::pair<std::string, std::string>> cert_args = {
      {"floor_bytes", std::to_string(certificate.floor_bytes)},
      {"predicted_bytes", std::to_string(certificate.predicted_bytes)},
      {"measured_bytes", std::to_string(certificate.measured_bytes)},
      {"gap_percent", format_percent(certificate.gap_percent)},
      {"tolerance_percent", format_percent(certificate.tolerance_percent)},
  };
  if (certificate.within_gap) {
    r.applied("tune-certificate",
              "autotune: optimality certificate -- measured " +
                  std::to_string(certificate.measured_bytes) +
                  " bytes is within " +
                  format_percent(certificate.tolerance_percent) +
                  "% of the " + std::to_string(certificate.floor_bytes) +
                  "-byte data-movement floor",
              cert_args);
  } else {
    r.missed("tune-no-certificate",
             "autotune: no certificate -- measured " +
                 std::to_string(certificate.measured_bytes) +
                 " bytes vs the " +
                 std::to_string(certificate.floor_bytes) +
                 "-byte floor (gap " +
                 format_percent(certificate.gap_percent) + "%)",
             cert_args);
  }

  std::vector<std::pair<std::string, std::string>> floor_args;
  for (const verify::FloorRegion& region : floor.arrays) {
    floor_args.emplace_back("array." + region.name + ".floor_bytes",
                            std::to_string(region.bytes));
  }
  r.note("tune-floor-breakdown",
         "data-movement floor by array (" +
             std::to_string(floor.floor_bytes) + " bytes total)",
         std::move(floor_args));
  return r;
}

}  // namespace bwc::tune
