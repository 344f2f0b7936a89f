#include "bwc/analysis/layout_traffic.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "bwc/analysis/access_summary.h"
#include "bwc/support/error.h"

namespace bwc::analysis {

namespace {

/// Coefficient of `var` in an affine subscript (0 when absent).
std::int64_t coeff_of(const ir::Affine& a, const std::string& var) {
  std::int64_t c = 0;
  for (const auto& [name, coeff] : a.terms()) {
    if (name == var) c += coeff;
  }
  return c;
}

std::int64_t round_up(std::int64_t bytes, std::int64_t line) {
  return (bytes + line - 1) / line * line;
}

/// One array reference tuple inside one loop nest, reduced to what the
/// line-traffic model needs.
struct TupleStride {
  ir::ArrayId array = ir::kInvalidArray;
  ir::ArrayId stream_key = ir::kInvalidArray;  // allocation owner
  std::int64_t stride_bytes = 0;  // innermost per-iteration byte stride
  std::int64_t trips_total = 0;
  std::int64_t trip_inner = 0;
  int depth = 0;
  bool thrash = false;
};

}  // namespace

LayoutTrafficEstimate estimate_layout_traffic(const ir::Program& program,
                                              const LayoutGeometry& g) {
  const auto line = static_cast<std::int64_t>(g.line_bytes);
  const auto sets = static_cast<std::int64_t>(g.sets);
  const auto ways = static_cast<std::int64_t>(g.ways);
  BWC_CHECK(line > 0 && sets > 0 && ways > 0,
            "layout geometry must be positive");

  LayoutTrafficEstimate est;
  est.arrays.resize(static_cast<std::size_t>(program.array_count()));
  const std::vector<std::uint64_t> bases = ir::array_base_addresses(program);
  std::vector<std::int64_t> addr_scale(est.arrays.size(), 8);
  std::vector<ir::ArrayId> owner(est.arrays.size(), 0);
  for (int a = 0; a < program.array_count(); ++a) {
    const auto idx = static_cast<std::size_t>(a);
    const ir::ArrayAddressing addressing = ir::resolve_addressing(program, a);
    addr_scale[idx] = static_cast<std::int64_t>(addressing.addr_scale);
    owner[idx] = addressing.owner;
    est.arrays[idx].array = a;
    est.arrays[idx].name = program.array(a).name;
    est.arrays[idx].set_phase = static_cast<std::int64_t>(
        (bases[idx] / g.line_bytes) % g.sets);
  }

  // Access-weighted stride census per array, filled across all loops.
  std::vector<std::map<std::int64_t, std::int64_t>> stride_weight(
      est.arrays.size());

  for (int t = 0; t < static_cast<int>(program.top().size()); ++t) {
    const LoopSummary summary = summarize_statement(program, t);
    const int depth = summary.depth();
    const std::int64_t trips_total = depth > 0 ? summary.trip_count() : 1;
    if (trips_total <= 0) continue;
    std::int64_t trip_inner = 1;
    std::string inner_var;
    if (depth > 0) {
      trip_inner = std::max<std::int64_t>(
          0, summary.uppers.back() - summary.lowers.back() + 1);
      inner_var = summary.loop_vars.back();
    }
    if (trip_inner <= 0) continue;

    // Reduce every array reference to its innermost byte stride.
    std::vector<TupleStride> tuples;
    for (const verify::AffineRef& r : summary.refs->refs) {
      if (r.array.empty()) continue;
      const ir::ArrayId id = program.array_id(r.array);
      const auto idx = static_cast<std::size_t>(id);
      const std::vector<std::int64_t> strides =
          program.array(id).layout_strides();
      const std::vector<ir::Affine>& subs = r.subscripts;
      TupleStride ts;
      ts.array = id;
      ts.stream_key = owner[idx];
      ts.trips_total = trips_total;
      ts.trip_inner = trip_inner;
      ts.depth = depth;
      if (!inner_var.empty() && subs.size() == strides.size()) {
        std::int64_t slots = 0;
        for (std::size_t d = 0; d < subs.size(); ++d)
          slots += coeff_of(subs[d], inner_var) * strides[d];
        ts.stride_bytes = slots * addr_scale[idx];
      }
      tuples.push_back(ts);
      est.arrays[idx].accesses += trips_total;
      if (ts.stride_bytes != 0)
        stride_weight[idx][std::llabs(ts.stride_bytes)] += trips_total;
    }

    // Thrash rule 1 -- set collapse: a large power-of-two stride cycles
    // over few sets; when an outer loop would reuse the sweep's lines but
    // they exceed what those sets can cache, every revisit re-misses.
    for (TupleStride& ts : tuples) {
      const std::int64_t mag = std::llabs(ts.stride_bytes);
      if (ts.depth < 2 || mag < line) continue;
      const std::int64_t sweep_lines = ts.trip_inner;
      std::int64_t ds = sets;
      if (mag % line == 0) ds = sets / std::gcd(sets, mag / line);
      if (ds < sets && sweep_lines > ds * ways) ts.thrash = true;
    }

    // Thrash rule 2 -- same-phase co-streaming: more concurrent streams
    // landing on one set phase than the cache has ways. Interleaved group
    // members advance through one allocation and count as one stream.
    std::map<std::int64_t, std::vector<ir::ArrayId>> phase_streams;
    for (const TupleStride& ts : tuples) {
      const std::int64_t mag = std::llabs(ts.stride_bytes);
      if (mag == 0 || mag >= line) continue;  // dense streams only
      auto& streams =
          phase_streams[est.arrays[static_cast<std::size_t>(ts.array)]
                            .set_phase];
      if (std::find(streams.begin(), streams.end(), ts.stream_key) ==
          streams.end())
        streams.push_back(ts.stream_key);
    }
    for (TupleStride& ts : tuples) {
      const std::int64_t mag = std::llabs(ts.stride_bytes);
      if (mag == 0 || mag >= line) continue;
      const auto it = phase_streams.find(
          est.arrays[static_cast<std::size_t>(ts.array)].set_phase);
      if (it != phase_streams.end() &&
          static_cast<std::int64_t>(it->second.size()) > ways)
        ts.thrash = true;
    }

    // Charge the traffic model.
    for (const TupleStride& ts : tuples) {
      const auto idx = static_cast<std::size_t>(ts.array);
      const auto elem =
          static_cast<std::int64_t>(program.array(ts.array).elem_bytes);
      std::int64_t bytes = 0;
      if (ts.thrash) {
        bytes = ts.trips_total * line;  // every access fetches a line
      } else if (ts.stride_bytes == 0) {
        bytes = line;  // loop-invariant element: one line, cached after
      } else {
        // Conflict-free: each distinct element's line crosses once.
        bytes = round_up(ts.trips_total * elem, line);
      }
      est.arrays[idx].line_bytes_estimate += bytes;
      est.total_line_bytes += bytes;
      if (ts.thrash) est.arrays[idx].conflict = true;
      const std::int64_t mag = std::llabs(ts.stride_bytes);
      if (mag >= line)
        est.arrays[idx].sweep_lines =
            std::max(est.arrays[idx].sweep_lines, ts.trip_inner);
    }
  }

  // Dominant stride and its set mapping, per array.
  for (auto& a : est.arrays) {
    const auto& census = stride_weight[static_cast<std::size_t>(a.array)];
    std::int64_t best_weight = 0;
    for (const auto& [mag, weight] : census) {
      if (weight > best_weight) {
        best_weight = weight;
        a.dominant_stride_bytes = mag;
      }
    }
    if (a.dominant_stride_bytes == 0) continue;
    const std::int64_t mag = a.dominant_stride_bytes;
    if (mag >= line && mag % line == 0) {
      a.distinct_sets = sets / std::gcd(sets, mag / line);
    } else {
      a.distinct_sets = sets;
    }
  }
  return est;
}

}  // namespace bwc::analysis
