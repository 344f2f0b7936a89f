#include "bwc/analysis/dependence.h"

#include <algorithm>

#include "bwc/support/error.h"

namespace bwc::analysis {

namespace {

using verify::AffineRef;
using verify::LevelPair;
using verify::VarDomain;
using verify::Verdict;
using verify::kSpan;

/// How the two loops' iteration spaces are aligned: per fused level, the
/// iteration value on each side -- a loop level of that side, or the
/// promote value where the shallower loop has no level.
using Alignment = std::vector<LevelPair>;

/// Build the alignment for a candidate structural relationship; nullopt
/// when the shapes do not match that relationship.
std::optional<Alignment> try_align(const LoopSummary& a, const LoopSummary& b,
                                   FusionCompat kind,
                                   std::int64_t promote_value = 0) {
  switch (kind) {
    case FusionCompat::kIdentical: {
      if (a.depth() != b.depth() || a.depth() == 0) return std::nullopt;
      if (a.lowers != b.lowers || a.uppers != b.uppers) return std::nullopt;
      return verify::same_levels(a.depth());
    }
    case FusionCompat::kOuterUnion: {
      if (a.depth() != b.depth() || a.depth() < 2) return std::nullopt;
      // Inner levels must match exactly; outer ranges differ.
      for (int d = 1; d < a.depth(); ++d) {
        if (a.lowers[static_cast<std::size_t>(d)] !=
                b.lowers[static_cast<std::size_t>(d)] ||
            a.uppers[static_cast<std::size_t>(d)] !=
                b.uppers[static_cast<std::size_t>(d)])
          return std::nullopt;
      }
      return verify::same_levels(a.depth());
    }
    case FusionCompat::kPromoteA:
    case FusionCompat::kPromoteB: {
      const LoopSummary& deep = kind == FusionCompat::kPromoteA ? b : a;
      const LoopSummary& shallow = kind == FusionCompat::kPromoteA ? a : b;
      if (deep.depth() != shallow.depth() + 1 || shallow.depth() < 1)
        return std::nullopt;
      // The shallow loop must match the deep loop's inner levels.
      for (int d = 0; d < shallow.depth(); ++d) {
        if (shallow.lowers[static_cast<std::size_t>(d)] !=
                deep.lowers[static_cast<std::size_t>(d + 1)] ||
            shallow.uppers[static_cast<std::size_t>(d)] !=
                deep.uppers[static_cast<std::size_t>(d + 1)])
          return std::nullopt;
      }
      Alignment al;
      for (int d = 0; d < deep.depth(); ++d) {
        // Fused level d is the shallow loop's level d - 1; at level 0 the
        // shallow loop has none and runs at the promote value.
        const int level = d - 1;
        const std::int64_t shift = d == 0 ? promote_value : 0;
        al.push_back(kind == FusionCompat::kPromoteA
                         ? LevelPair{level, shift, d, 0}
                         : LevelPair{d, 0, level, shift});
      }
      return al;
    }
    case FusionCompat::kShifted:
    case FusionCompat::kIncompatible:
      return std::nullopt;
  }
  return std::nullopt;
}

/// Calls `f(ra, rb)` on every pair of array references of A and B that
/// name one array with at least one side writing; true as soon as `f` is.
template <typename F>
bool any_ref_pair(const LoopSummary& a, const LoopSummary& b, F&& f) {
  BWC_CHECK(a.refs && b.refs, "loop summary without references");
  for (const AffineRef& ra : a.refs->refs) {
    if (ra.array.empty()) continue;
    for (const AffineRef& rb : b.refs->refs) {
      if (rb.array != ra.array || (!ra.write && !rb.write)) continue;
      if (f(ra, rb)) return true;
    }
  }
  return false;
}

/// Does the reference sit in every loop of its summary's spine? The
/// alignments address spine levels only, by index into each reference's
/// loops.
bool on_spine(const AffineRef& r, const LoopSummary& s) {
  return r.loop_vars.size() >= s.loop_vars.size() &&
         std::equal(s.loop_vars.begin(), s.loop_vars.end(),
                    r.loop_vars.begin());
}

/// Can `ra` of A and `rb` of B touch a common element at fused iterations
/// whose first difference (B - A) lies in `first`? Undecided and
/// unmodellable pairs count as conflicts.
bool may_conflict(const LoopSummary& a, const AffineRef& ra,
                  const LoopSummary& b, const AffineRef& rb,
                  const Alignment& al, const VarDomain& first) {
  if (!on_spine(ra, a) || !on_spine(rb, b)) return true;
  return verify::lex_conflict(ra, rb, al, first).verdict !=
         Verdict::kIndependent;
}

/// Does fusing under this alignment reverse any cross-loop dependence
/// (flow, anti or output): can B touch an element A also touches at a
/// lexicographically earlier fused iteration?
bool violates(const LoopSummary& a, const LoopSummary& b,
              const Alignment& al) {
  const VarDomain before = VarDomain::range(-kSpan, -1);
  return any_ref_pair(a, b, [&](const AffineRef& ra, const AffineRef& rb) {
    return may_conflict(a, ra, b, rb, al, before);
  });
}

/// Scalar interactions: returns {dependent, preventing}.
std::pair<bool, bool> scalar_relation(const LoopSummary& a,
                                      const LoopSummary& b) {
  bool dependent = false;
  bool preventing = false;
  for (const auto& [name, sa] : a.scalars) {
    const auto it = b.scalars.find(name);
    if (it == b.scalars.end()) continue;
    const ScalarAccess& sb = it->second;
    const bool a_writes = sa.written;
    const bool b_writes = sb.written;
    if (!a_writes && !b_writes) continue;  // read-read: no constraint
    dependent = true;
    // Matching additive reductions on both sides commute and may fuse.
    const bool both_reductions = a_writes && b_writes && sa.reduction_only &&
                                 sb.reduction_only && !sa.read && !sb.read &&
                                 sa.reduction_op == sb.reduction_op;
    if (both_reductions) continue;
    // Writer/reader or writer/writer in any other shape: interleaving the
    // iterations would expose partial values.
    preventing = true;
  }
  return {dependent, preventing};
}

}  // namespace

std::optional<std::int64_t> min_fusion_shift(const LoopSummary& a,
                                             const LoopSummary& b,
                                             std::int64_t max_shift) {
  if (a.depth() != 1 || b.depth() != 1) return std::nullopt;
  if (a.lowers != b.lowers || a.uppers != b.uppers) return std::nullopt;
  const auto [scalar_dep, scalar_prevent] = scalar_relation(a, b);
  (void)scalar_dep;
  if (scalar_prevent) return std::nullopt;

  const auto al = try_align(a, b, FusionCompat::kIdentical);
  if (!al.has_value()) return std::nullopt;

  // Shifting B later by s adds s to every fused difference: s is legal
  // when no pair conflicts at B - A <= -(s + 1). Each pair only raises
  // the shift the earlier pairs required.
  std::int64_t shift = 0;
  const bool unbounded =
      any_ref_pair(a, b, [&](const AffineRef& ra, const AffineRef& rb) {
        while (may_conflict(a, ra, b, rb, *al,
                            VarDomain::range(-kSpan, -(shift + 1)))) {
          if (++shift > max_shift) return true;
        }
        return false;
      });
  if (unbounded || shift > max_shift) return std::nullopt;
  return shift;
}

bool interchange_legal(const LoopSummary& s) {
  if (s.depth() < 2) return false;
  // A (+, -) distance vector on the outer two levels flips
  // lexicographically negative under interchange.
  return !any_ref_pair(s, s, [&](const AffineRef& ra, const AffineRef& rb) {
    if (!on_spine(ra, s) || !on_spine(rb, s)) return true;
    verify::PairSystem sys(ra, rb);
    sys.bound_difference(sys.a_var(0), 0, sys.b_var(0), 0, {1, kSpan});
    sys.bound_difference(sys.a_var(1), 0, sys.b_var(1), 0, {-kSpan, -1});
    return sys.solve().verdict != Verdict::kIndependent;
  });
}

PairAnalysis analyze_pair(const LoopSummary& a, const LoopSummary& b) {
  PairAnalysis result;

  // Shared arrays and array dependences.
  for (const auto& [array, access_a] : a.arrays) {
    const auto it = b.arrays.find(array);
    if (it == b.arrays.end()) continue;
    result.shared_arrays.push_back(array);
    if (access_a.written || it->second.written)
      result.dependent = true;
  }

  const auto [scalar_dep, scalar_prevent] = scalar_relation(a, b);
  result.dependent = result.dependent || scalar_dep;

  // Try alignments from the most natural to the most contorted; take the
  // first one that does not reverse a dependence.
  std::vector<std::pair<FusionCompat, std::int64_t>> candidates = {
      {FusionCompat::kIdentical, 0},
      {FusionCompat::kOuterUnion, 0},
  };
  if (b.depth() == a.depth() - 1 && a.depth() >= 2) {
    candidates.push_back({FusionCompat::kPromoteB, a.uppers[0]});
    candidates.push_back({FusionCompat::kPromoteB, a.lowers[0]});
  }
  if (a.depth() == b.depth() - 1 && b.depth() >= 2) {
    // Try the last outer iteration first (matches the promote-to-last
    // choice used when multiple loops fuse into one group).
    candidates.push_back({FusionCompat::kPromoteA, b.uppers[0]});
    candidates.push_back({FusionCompat::kPromoteA, b.lowers[0]});
  }

  for (const auto& [kind, promote] : candidates) {
    const auto al = try_align(a, b, kind, promote);
    if (!al.has_value()) continue;
    if (scalar_prevent) break;  // scalars block fusion under any alignment
    if (violates(a, b, *al)) continue;
    result.compat = kind;
    result.promote_value = promote;
    break;
  }

  result.fusion_preventing = result.compat == FusionCompat::kIncompatible;
  return result;
}

}  // namespace bwc::analysis
