#include "bwc/transform/layout.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "bwc/analysis/access_summary.h"
#include "bwc/support/error.h"

namespace bwc::transform {

namespace {

using ir::ArrayId;
using ir::Program;

std::int64_t coeff_of(const ir::Affine& a, const std::string& var) {
  std::int64_t c = 0;
  for (const auto& [name, coeff] : a.terms()) {
    if (name == var) c += coeff;
  }
  return c;
}

/// Trip-weighted vote, per array, for which logical dimension the
/// innermost loops index: weight[a][d] accumulates the trip count of
/// every reference whose subscript in dimension d moves with the
/// innermost loop variable.
std::vector<std::map<int, std::int64_t>> innermost_dim_votes(
    const Program& program) {
  std::vector<std::map<int, std::int64_t>> votes(
      static_cast<std::size_t>(program.array_count()));
  for (int t = 0; t < static_cast<int>(program.top().size()); ++t) {
    const analysis::LoopSummary s = analysis::summarize_statement(program, t);
    if (s.depth() == 0) continue;
    const std::string& inner = s.loop_vars.back();
    const std::int64_t trips = std::max<std::int64_t>(0, s.trip_count());
    if (trips == 0) continue;
    for (const verify::AffineRef& r : s.refs->refs) {
      if (r.array.empty()) continue;
      auto& w = votes[static_cast<std::size_t>(program.array_id(r.array))];
      for (std::size_t d = 0; d < r.subscripts.size(); ++d)
        if (coeff_of(r.subscripts[d], inner) != 0)
          w[static_cast<int>(d)] += trips;
    }
  }
  return votes;
}

/// Distinct sets a byte stride `s` cycles over for `sets` line-`line` sets.
std::int64_t stride_sets(std::int64_t s, std::int64_t line,
                         std::int64_t sets) {
  if (s <= 0) return 0;
  if (s % line != 0) return sets;
  return sets / std::gcd(sets, s / line);
}

}  // namespace

LayoutResult transpose_layouts(const Program& program) {
  LayoutResult result;
  result.program = program.clone();
  Program& p = result.program;
  const auto votes = innermost_dim_votes(p);

  for (int a = 0; a < p.array_count(); ++a) {
    ir::ArrayDecl& decl = p.mutable_array(a);
    const std::size_t rank = decl.extents.size();
    if (rank < 2) continue;
    // Permuting one group member would desynchronize the group's slot
    // walk, and reordering under existing padding would repurpose the pad
    // positions; both stay out of scope.
    if (decl.layout.group >= 0 || !decl.layout.pad.empty()) continue;
    const auto& w = votes[static_cast<std::size_t>(a)];
    if (w.empty()) continue;
    int dominant = -1;
    std::int64_t best = 0;
    for (const auto& [dim, weight] : w) {
      if (weight > best) {
        best = weight;
        dominant = dim;
      }
    }
    const int current = decl.storage_dim(0);
    const auto it = w.find(current);
    const std::int64_t current_weight = it == w.end() ? 0 : it->second;
    if (dominant < 0 || dominant == current || best <= current_weight)
      continue;

    // New order: the dominant dimension first, the rest keeping their
    // current relative storage order.
    std::vector<int> order{dominant};
    for (std::size_t k = 0; k < rank; ++k) {
      const int d = decl.storage_dim(k);
      if (d != dominant) order.push_back(d);
    }
    decl.layout.order = std::move(order);
    decl.check_layout();
    result.actions.push_back("transposed " + decl.name +
                             ": storage-fastest dim " +
                             std::to_string(current) + " -> " +
                             std::to_string(dominant));
  }
  return result;
}

LayoutResult regroup_layouts(const Program& program) {
  LayoutResult result;
  result.program = program.clone();
  Program& p = result.program;

  // Which statements access each array, and whether it is ever written.
  // Written and read-only arrays are not mixed: interleaving read-only
  // elements into dirtied cache lines would get them written back too.
  std::vector<std::vector<int>> accessed_by(
      static_cast<std::size_t>(p.array_count()));
  std::vector<bool> written(static_cast<std::size_t>(p.array_count()), false);
  for (int t = 0; t < static_cast<int>(p.top().size()); ++t) {
    const analysis::LoopSummary s = analysis::summarize_statement(p, t);
    for (const auto& [id, access] : s.arrays) {
      accessed_by[static_cast<std::size_t>(id)].push_back(t);
      if (access.written) written[static_cast<std::size_t>(id)] = true;
    }
  }

  struct Key {
    std::int64_t slots;
    std::uint64_t elem_bytes;
    std::vector<int> stmts;
    bool written;
    bool operator<(const Key& o) const {
      if (slots != o.slots) return slots < o.slots;
      if (elem_bytes != o.elem_bytes) return elem_bytes < o.elem_bytes;
      if (written != o.written) return written < o.written;
      return stmts < o.stmts;
    }
  };
  std::map<Key, std::vector<ArrayId>> buckets;
  int next_group = 0;
  for (int a = 0; a < p.array_count(); ++a) {
    const ir::ArrayDecl& decl = p.array(a);
    next_group = std::max(next_group, decl.layout.group + 1);
    if (decl.layout.group >= 0) continue;  // already interleaved
    if (decl.extents.size() != 1) continue;
    if (accessed_by[static_cast<std::size_t>(a)].empty()) continue;
    buckets[{decl.padded_element_count(), decl.elem_bytes,
             accessed_by[static_cast<std::size_t>(a)],
             written[static_cast<std::size_t>(a)]}]
        .push_back(a);
  }

  for (const auto& [key, members] : buckets) {
    if (members.size() < 2) continue;
    std::string names;
    for (ArrayId a : members) {
      p.mutable_array(a).layout.group = next_group;
      names += (names.empty() ? "" : ", ") + p.array(a).name;
    }
    result.actions.push_back("interleaved {" + names + "} as group " +
                             std::to_string(next_group));
    ++next_group;
  }
  return result;
}

LayoutResult pad_layouts(const Program& program,
                         const analysis::LayoutGeometry& g) {
  LayoutResult result;
  result.program = program.clone();
  Program& p = result.program;
  const auto line = static_cast<std::int64_t>(g.line_bytes);
  const auto sets = static_cast<std::int64_t>(g.sets);

  // Greedy: fix the first conflicting array the estimator reports, keep
  // the pad only when the whole-program estimate strictly improves, and
  // repeat until a full pass changes nothing. `tried` keeps a rejected
  // proposal from being re-proposed forever.
  std::set<ArrayId> tried;
  for (;;) {
    const analysis::LayoutTrafficEstimate est =
        analysis::estimate_layout_traffic(p, g);
    bool changed = false;
    for (int a = 0; a < p.array_count() && !changed; ++a) {
      const analysis::ArrayLayoutTraffic& info = est.of(a);
      if (!info.conflict || tried.count(a) > 0) continue;
      ir::ArrayDecl& decl = p.mutable_array(a);
      if (decl.layout.group >= 0) continue;  // pad would break the group
      const std::size_t rank = decl.extents.size();
      const auto elem = static_cast<std::int64_t>(decl.elem_bytes);
      if (elem <= 0 || elem >= line) continue;

      std::int64_t pad0 = 0;
      std::string why;
      if (rank >= 2) {
        // Inter-dimension pad: grow the fastest storage extent until the
        // next storage position's byte stride spreads over all sets
        // (ideally an odd multiple of the line size).
        const std::int64_t limit = 4 * line / elem + 4;
        std::int64_t best_sets =
            stride_sets(decl.padded_extent(0) * elem, line, sets);
        for (std::int64_t q = 1; q <= limit && best_sets < sets; ++q) {
          const std::int64_t s = (decl.padded_extent(0) + q) * elem;
          const std::int64_t ds = stride_sets(s, line, sets);
          if (ds > best_sets) {
            best_sets = ds;
            pad0 = q;
          }
        }
        why = "stride conflict";
      } else if (rank == 1) {
        // End pad: grow the allocation past the next alignment boundary
        // so every later array's base moves to a different set phase.
        pad0 = static_cast<std::int64_t>(ir::kArrayAlignment) / elem;
        why = "base-phase conflict";
      }
      if (pad0 <= 0) continue;

      tried.insert(a);
      const ir::ArrayLayout saved = decl.layout;
      std::vector<std::int64_t> pad = decl.layout.pad;
      if (pad.empty()) pad.assign(rank, 0);
      pad[0] += pad0;
      decl.layout.pad = std::move(pad);
      decl.check_layout();
      const analysis::LayoutTrafficEstimate est2 =
          analysis::estimate_layout_traffic(p, g);
      if (est2.total_line_bytes < est.total_line_bytes) {
        result.actions.push_back(
            "padded " + decl.name + " by " + std::to_string(pad0) +
            " slots (" + why + ": " + std::to_string(est.total_line_bytes) +
            " -> " + std::to_string(est2.total_line_bytes) + " line bytes)");
        changed = true;
      } else {
        decl.layout = saved;
      }
    }
    if (!changed) break;
  }
  return result;
}

}  // namespace bwc::transform
