#include "bwc/verify/static_legality.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

namespace bwc::verify {
namespace {

// ---------------------------------------------------------------------------
// Atoms: assignment sites annotated with their top statement index.

struct Atom {
  int top = 0;
  AssignSite site;
  bool reduction = false;
  ir::BinOp reduction_op = ir::BinOp::kAdd;
};

std::vector<Atom> collect_atoms(const ir::Program& program, bool* exact) {
  std::vector<Atom> atoms;
  *exact = true;
  for (std::size_t t = 0; t < program.top().size(); ++t) {
    SiteWalk walk = collect_assign_sites(*program.top()[t]);
    if (walk.inexact_sites > 0) *exact = false;
    for (auto& site : walk.sites) {
      Atom a;
      a.top = static_cast<int>(t);
      a.site = std::move(site);
      a.reduction = ir::reduction_shape(*a.site.stmt, &a.reduction_op);
      atoms.push_back(std::move(a));
    }
  }
  return atoms;
}

/// Number of leading loop levels the two atoms literally share (same loop
/// statements of the same top-level statement).
int common_levels(const Atom& x, const Atom& y) {
  if (x.top != y.top) return 0;
  int n = static_cast<int>(
      std::min(x.site.loop_addr.size(), y.site.loop_addr.size()));
  int common = 0;
  while (common < n) {
    int k = x.site.loop_addr[common];
    if (y.site.loop_addr[common] != k) break;
    if (!std::equal(x.site.path.begin(), x.site.path.begin() + k,
                    y.site.path.begin()))
      break;
    ++common;
  }
  return common;
}

/// Same-iteration execution order: negative when x executes first.
int path_order(const Atom& x, const Atom& y) {
  if (x.top != y.top) return x.top < y.top ? -1 : 1;
  if (x.site.path < y.site.path) return -1;
  if (y.site.path < x.site.path) return 1;
  return 0;
}

// ---------------------------------------------------------------------------
// Affine normalization of expression subtrees.

std::optional<ir::Affine> as_affine(const ir::Expr& e) {
  switch (e.kind) {
    case ir::ExprKind::kConst: {
      double v = e.value;
      if (std::floor(v) == v && std::abs(v) <= 1e15)
        return ir::Affine::constant(static_cast<std::int64_t>(v));
      return std::nullopt;
    }
    case ir::ExprKind::kLoopVar:
      return ir::Affine::var(e.loop_var);
    case ir::ExprKind::kBinary: {
      if (e.operands.size() != 2) return std::nullopt;
      auto a = as_affine(*e.operands[0]);
      auto b = as_affine(*e.operands[1]);
      if (!a || !b) return std::nullopt;
      switch (e.op) {
        case ir::BinOp::kAdd:
          return *a + *b;
        case ir::BinOp::kSub:
          return *a - *b;
        case ir::BinOp::kMul:
          if (a->is_constant()) return *b * a->constant_term();
          if (b->is_constant()) return *a * b->constant_term();
          return std::nullopt;
        default:
          return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Reschedule matcher: does after-atom `a` implement before-atom `b` under a
// per-level shift/permutation instance map?

struct LevelMap {
  /// Per before level: matched after level (-1 when the before level is a
  /// singleton not represented in the after nest).
  std::vector<int> to_after;
  /// Iteration correspondence for mapped levels: after = before + shift.
  std::vector<std::int64_t> shift;
};

class RescheduleMatcher {
 public:
  RescheduleMatcher(const Atom& before, const Atom& after)
      : b_(before), a_(after) {}

  std::optional<LevelMap> match() {
    const ir::Stmt& sb = *b_.site.stmt;
    const ir::Stmt& sa = *a_.site.stmt;
    if (!b_.site.exact_domain || !a_.site.exact_domain) return std::nullopt;
    if (sb.kind != sa.kind) return std::nullopt;
    if (sb.kind == ir::StmtKind::kArrayAssign) {
      if (sb.lhs_array != sa.lhs_array) return std::nullopt;
      if (sb.lhs_subscripts.size() != sa.lhs_subscripts.size())
        return std::nullopt;
      for (std::size_t k = 0; k < sb.lhs_subscripts.size(); ++k)
        pairs_.push_back({sb.lhs_subscripts[k], sa.lhs_subscripts[k]});
    } else {
      if (sb.lhs_scalar != sa.lhs_scalar) return std::nullopt;
    }
    if (static_cast<bool>(sb.rhs) != static_cast<bool>(sa.rhs))
      return std::nullopt;
    if (sb.rhs && !compare(*sb.rhs, *sa.rhs)) return std::nullopt;
    return infer();
  }

 private:
  const Atom& b_;
  const Atom& a_;
  std::vector<std::pair<ir::Affine, ir::Affine>> pairs_;

  bool compare(const ir::Expr& eb, const ir::Expr& ea) {
    auto fb = as_affine(eb);
    auto fa = as_affine(ea);
    if (fb && fa) {
      pairs_.push_back({*fb, *fa});
      return true;
    }
    if (static_cast<bool>(fb) != static_cast<bool>(fa)) return false;
    if (eb.kind != ea.kind) return false;
    switch (eb.kind) {
      case ir::ExprKind::kConst:
        return eb.value == ea.value;
      case ir::ExprKind::kScalarRef:
        return eb.scalar == ea.scalar;
      case ir::ExprKind::kArrayRef: {
        if (eb.array != ea.array) return false;
        if (eb.subscripts.size() != ea.subscripts.size()) return false;
        for (std::size_t k = 0; k < eb.subscripts.size(); ++k)
          pairs_.push_back({eb.subscripts[k], ea.subscripts[k]});
        return true;
      }
      case ir::ExprKind::kInput: {
        if (eb.input_key != ea.input_key) return false;
        if (eb.input_extents != ea.input_extents) return false;
        if (eb.subscripts.size() != ea.subscripts.size()) return false;
        for (std::size_t k = 0; k < eb.subscripts.size(); ++k)
          pairs_.push_back({eb.subscripts[k], ea.subscripts[k]});
        return true;
      }
      case ir::ExprKind::kBinary:
      case ir::ExprKind::kCall: {
        if (eb.kind == ir::ExprKind::kBinary && eb.op != ea.op) return false;
        if (eb.kind == ir::ExprKind::kCall &&
            (eb.callee != ea.callee || eb.call_flops != ea.call_flops))
          return false;
        if (eb.operands.size() != ea.operands.size()) return false;
        for (std::size_t k = 0; k < eb.operands.size(); ++k)
          if (!compare(*eb.operands[k], *ea.operands[k])) return false;
        return true;
      }
      default:
        return false;
    }
  }

  int level_of(const std::vector<std::string>& vars,
               const std::string& name) const {
    auto it = std::find(vars.begin(), vars.end(), name);
    return it == vars.end() ? -1 : static_cast<int>(it - vars.begin());
  }

  std::optional<LevelMap> infer() {
    int nb = static_cast<int>(b_.site.loop_vars.size());
    int na = static_cast<int>(a_.site.loop_vars.size());
    // Bind before variables to after variables by matching coefficients
    // within each affine pair, iterating to a fixpoint so unambiguous
    // pairs resolve ambiguous ones.
    std::map<std::string, std::string> bind;     // before var -> after var
    std::map<std::string, std::string> claimed;  // after var -> before var
    for (const auto& [fb, fa] : pairs_)
      if (fb.terms().size() != fa.terms().size()) return std::nullopt;
    bool progress = true;
    while (progress) {
      progress = false;
      for (const auto& [fb, fa] : pairs_) {
        for (const auto& [ub, cb] : fb.terms()) {
          if (bind.count(ub)) continue;
          std::string candidate;
          int count = 0;
          for (const auto& [wa, ca] : fa.terms()) {
            if (ca != cb) continue;
            auto cl = claimed.find(wa);
            if (cl != claimed.end()) continue;
            // Skip after-vars already matched to another var of this pair.
            bool taken = false;
            for (const auto& [ub2, cb2] : fb.terms()) {
              auto b2 = bind.find(ub2);
              if (b2 != bind.end() && b2->second == wa) taken = true;
            }
            if (taken) continue;
            candidate = wa;
            ++count;
          }
          if (count == 1) {
            bind[ub] = candidate;
            claimed[candidate] = ub;
            progress = true;
          }
        }
      }
    }
    // Verify the binding fully explains every pair's variables.
    for (const auto& [fb, fa] : pairs_) {
      for (const auto& [ub, cb] : fb.terms()) {
        auto it = bind.find(ub);
        if (it == bind.end()) return std::nullopt;  // ambiguous
        if (fa.coeff(it->second) != cb) return std::nullopt;
      }
    }
    // Resolve variable names to levels; bound vars must exist in the nests.
    LevelMap map;
    map.to_after.assign(nb, -1);
    map.shift.assign(nb, 0);
    std::vector<bool> shift_known(nb, false);
    std::vector<bool> after_claimed(na, false);
    for (const auto& [ub, wa] : bind) {
      int mb = level_of(b_.site.loop_vars, ub);
      int ma = level_of(a_.site.loop_vars, wa);
      if (mb < 0 || ma < 0) return std::nullopt;
      map.to_after[mb] = ma;
      after_claimed[ma] = true;
    }
    // Shifts: each pair yields sum_u coeff_u * shift_u = const_b - const_a.
    // Solve equations with a single unknown until fixpoint.
    progress = true;
    while (progress) {
      progress = false;
      for (const auto& [fb, fa] : pairs_) {
        std::int64_t rhs = fb.constant_term() - fa.constant_term();
        int unknowns = 0;
        std::int64_t ucoeff = 0;
        int ulevel = -1;
        bool bad = false;
        for (const auto& [ub, cb] : fb.terms()) {
          int mb = level_of(b_.site.loop_vars, ub);
          if (mb < 0) {
            bad = true;
            break;
          }
          if (shift_known[mb]) {
            rhs -= cb * map.shift[mb];
          } else {
            ++unknowns;
            ucoeff = cb;
            ulevel = mb;
          }
        }
        if (bad) return std::nullopt;
        if (unknowns == 1) {
          if (ucoeff == 0 || rhs % ucoeff != 0) return std::nullopt;
          map.shift[ulevel] = rhs / ucoeff;
          shift_known[ulevel] = true;
          progress = true;
        }
      }
    }
    // Underdetermined shifts: pin from the domain correspondence.
    for (int m = 0; m < nb; ++m) {
      if (map.to_after[m] < 0 || shift_known[m]) continue;
      const VarDomain& db = b_.site.domains[m];
      const VarDomain& da = a_.site.domains[map.to_after[m]];
      if (db.empty() || da.empty()) return std::nullopt;
      map.shift[m] = da.hull().lo - db.hull().lo;
      shift_known[m] = true;
    }
    // Re-verify every pair's constant under the final shifts.
    for (const auto& [fb, fa] : pairs_) {
      std::int64_t want = fb.constant_term();
      for (const auto& [ub, cb] : fb.terms()) {
        int mb = level_of(b_.site.loop_vars, ub);
        want -= cb * map.shift[mb];
      }
      if (want != fa.constant_term()) return std::nullopt;
    }
    // Unmapped levels on either side must be singletons (one instance).
    for (int m = 0; m < nb; ++m)
      if (map.to_after[m] < 0 && b_.site.domains[m].size() != 1)
        return std::nullopt;
    for (int p = 0; p < na; ++p)
      if (!after_claimed[p] && a_.site.domains[p].size() != 1)
        return std::nullopt;
    // Mapped domains must correspond exactly under the shift.
    for (int m = 0; m < nb; ++m) {
      if (map.to_after[m] < 0) continue;
      const VarDomain& db = b_.site.domains[m];
      const VarDomain& da = a_.site.domains[map.to_after[m]];
      if (db.ranges.size() != da.ranges.size()) return std::nullopt;
      for (std::size_t k = 0; k < db.ranges.size(); ++k) {
        if (db.ranges[k].lo + map.shift[m] != da.ranges[k].lo ||
            db.ranges[k].hi + map.shift[m] != da.ranges[k].hi)
          return std::nullopt;
      }
    }
    return map;
  }
};

// ---------------------------------------------------------------------------
// Order classes: partitions of the instance-pair space by which side
// executes first, each expressed as bounded-difference constraints over the
// *after* iteration variables of the matched atoms.

struct DiffConstraint {
  /// PairSystem slot-a side: value = a-level var + shift (level -1 means
  /// the value is just `shift`, a constant). Same for the b side. The
  /// constraint is (b value) - (a value) in `range`.
  int a_level = -1;
  std::int64_t a_shift = 0;
  int b_level = -1;
  std::int64_t b_shift = 0;
  Interval range;
};

struct OrderClass {
  std::vector<DiffConstraint> constraints;
  int order = 0;  // -1: slot-a first, +1: slot-b first
};

/// Value of before-level m of an atom, expressed over its matched after
/// atom's levels: (after_level, shift) with after_level == -1 for a
/// constant. before = after - map.shift, constants come from singleton
/// before domains.
std::pair<int, std::int64_t> before_value(const Atom& before,
                                          const LevelMap& map, int m) {
  if (map.to_after[m] >= 0) return {map.to_after[m], -map.shift[m]};
  return {-1, before.site.domains[m].hull().lo};
}

/// Order classes of the *before* pair (A, B), with constraints over the
/// matched after atoms' variables. `self` marks A and B being the same
/// atom (the all-deltas-zero class is the identity and is skipped).
std::vector<OrderClass> before_classes(const Atom& A, const Atom& B,
                                       const LevelMap& mapA,
                                       const LevelMap& mapB, bool self) {
  std::vector<OrderClass> out;
  if (A.top != B.top) {
    OrderClass c;
    c.order = A.top < B.top ? -1 : 1;
    out.push_back(std::move(c));
    return out;
  }
  int cb = common_levels(A, B);
  for (int l = 0; l < cb; ++l) {
    for (int sign = -1; sign <= 1; sign += 2) {
      OrderClass c;
      for (int m = 0; m < l; ++m) {
        auto [va, sa] = before_value(A, mapA, m);
        auto [vb, sb] = before_value(B, mapB, m);
        c.constraints.push_back({va, sa, vb, sb, {0, 0}});
      }
      auto [va, sa] = before_value(A, mapA, l);
      auto [vb, sb] = before_value(B, mapB, l);
      Interval r = sign < 0 ? Interval{-kSpan, -1} : Interval{1, kSpan};
      c.constraints.push_back({va, sa, vb, sb, r});
      // delta = B - A; positive delta means A's instance is earlier.
      c.order = sign < 0 ? 1 : -1;
      out.push_back(std::move(c));
    }
  }
  int po = path_order(A, B);
  if (!self && po != 0) {
    OrderClass c;
    for (int m = 0; m < cb; ++m) {
      auto [va, sa] = before_value(A, mapA, m);
      auto [vb, sb] = before_value(B, mapB, m);
      c.constraints.push_back({va, sa, vb, sb, {0, 0}});
    }
    c.order = po;
    out.push_back(std::move(c));
  }
  return out;
}

/// Order classes of the *after* pair (A', B'): direct deltas.
std::vector<OrderClass> after_classes(const Atom& A, const Atom& B,
                                      bool self) {
  std::vector<OrderClass> out;
  if (A.top != B.top) {
    OrderClass c;
    c.order = A.top < B.top ? -1 : 1;
    out.push_back(std::move(c));
    return out;
  }
  int ca = common_levels(A, B);
  for (int l = 0; l < ca; ++l) {
    for (int sign = -1; sign <= 1; sign += 2) {
      OrderClass c;
      for (int m = 0; m < l; ++m)
        c.constraints.push_back({m, 0, m, 0, {0, 0}});
      Interval r = sign < 0 ? Interval{-kSpan, -1} : Interval{1, kSpan};
      c.constraints.push_back({l, 0, l, 0, r});
      c.order = sign < 0 ? 1 : -1;
      out.push_back(std::move(c));
    }
  }
  int po = path_order(A, B);
  if (!self && po != 0) {
    OrderClass c;
    for (int m = 0; m < ca; ++m)
      c.constraints.push_back({m, 0, m, 0, {0, 0}});
    c.order = po;
    out.push_back(std::move(c));
  }
  return out;
}

void apply_class(PairSystem* sys, const OrderClass& c) {
  for (const auto& k : c.constraints) {
    int va = k.a_level >= 0 ? sys->a_var(k.a_level) : -1;
    int vb = k.b_level >= 0 ? sys->b_var(k.b_level) : -1;
    sys->bound_difference(va, k.a_shift, vb, k.b_shift, k.range);
  }
}

// ---------------------------------------------------------------------------
// prove_reschedule

struct MatchedAtoms {
  std::vector<Atom> before;
  std::vector<Atom> after;
  /// before[i] corresponds to after[pair[i]].
  std::vector<int> pair;
  std::vector<LevelMap> maps;
};

std::optional<MatchedAtoms> match_atoms(const ir::Program& before,
                                        const ir::Program& after) {
  bool exact_b = true, exact_a = true;
  MatchedAtoms m;
  m.before = collect_atoms(before, &exact_b);
  m.after = collect_atoms(after, &exact_a);
  if (!exact_b || !exact_a) return std::nullopt;
  if (m.before.size() != m.after.size()) return std::nullopt;
  std::vector<bool> used(m.after.size(), false);
  m.pair.assign(m.before.size(), -1);
  m.maps.resize(m.before.size());
  for (std::size_t i = 0; i < m.before.size(); ++i) {
    for (std::size_t j = 0; j < m.after.size(); ++j) {
      if (used[j]) continue;
      RescheduleMatcher rm(m.before[i], m.after[j]);
      if (auto map = rm.match()) {
        m.pair[i] = static_cast<int>(j);
        m.maps[i] = std::move(*map);
        used[j] = true;
        break;
      }
    }
    if (m.pair[i] < 0) return std::nullopt;
  }
  return m;
}

bool same_decls(const ir::Program& before, const ir::Program& after) {
  if (before.arrays().size() != after.arrays().size()) return false;
  for (std::size_t i = 0; i < before.arrays().size(); ++i) {
    const auto& a = before.arrays()[i];
    const auto& b = after.arrays()[i];
    if (a.name != b.name || a.extents != b.extents ||
        a.elem_bytes != b.elem_bytes)
      return false;
  }
  auto outputs = [](const ir::Program& p) {
    std::set<std::string> out(p.output_scalars().begin(),
                              p.output_scalars().end());
    for (ir::ArrayId id : p.output_arrays()) out.insert(p.array(id).name);
    return out;
  };
  return outputs(before) == outputs(after);
}

/// Writes to scalar `s` across all atoms are commutative reductions with
/// one common operator (the trace validator's relaxation precondition).
bool reduction_scalar(const std::vector<Atom>& atoms, const std::string& s,
                      ir::BinOp* op) {
  bool any = false;
  for (const auto& at : atoms) {
    const ir::Stmt& st = *at.site.stmt;
    if (st.kind != ir::StmtKind::kScalarAssign || st.lhs_scalar != s)
      continue;
    if (!at.reduction) return false;
    if (any && at.reduction_op != *op) return false;
    *op = at.reduction_op;
    any = true;
  }
  return any;
}

}  // namespace

Report LegalityResult::to_report(const std::string& check,
                                 const std::string& code) const {
  Report r;
  r.check = check;
  r.instances_checked = static_cast<std::uint64_t>(pairs_checked);
  switch (verdict) {
    case LegalityVerdict::kProven:
      r.info(code + "-proven",
             "statically proven over " + std::to_string(pairs_checked) +
                 " conflicting reference pair(s)");
      break;
    case LegalityVerdict::kRefuted:
      r.error(code + "-refuted", reason.empty() ? "dependence order reversed"
                                                : reason);
      break;
    case LegalityVerdict::kUnknown:
      r.skipped = true;
      r.skip_reason = reason.empty() ? "static proof incomplete" : reason;
      break;
  }
  return r;
}

LegalityResult prove_reschedule(const ir::Program& before,
                                const ir::Program& after) {
  LegalityResult res;
  if (!same_decls(before, after)) {
    res.reason = "decl-mismatch";
    return res;
  }
  auto matched = match_atoms(before, after);
  if (!matched) {
    res.reason = "atom-match-failed";
    return res;
  }
  const MatchedAtoms& m = *matched;

  // Reduction relaxation: per scalar whose writes are all commutative
  // reductions with one op, write-write order (and the accumulator's own
  // read) is exempt. Must hold in both programs; atoms match structurally,
  // so checking the before program suffices, but verify both for safety.
  std::set<std::string> relaxed;
  {
    std::set<std::string> scalars;
    for (const auto& at : m.before)
      if (at.site.stmt->kind == ir::StmtKind::kScalarAssign)
        scalars.insert(at.site.stmt->lhs_scalar);
    for (const auto& s : scalars) {
      ir::BinOp op_b = ir::BinOp::kAdd, op_a = ir::BinOp::kAdd;
      if (reduction_scalar(m.before, s, &op_b) &&
          reduction_scalar(m.after, s, &op_a) && op_b == op_a)
        relaxed.insert(s);
    }
  }

  bool refuted = false;
  for (std::size_t i = 0; i < m.before.size() && !refuted; ++i) {
    for (std::size_t j = i; j < m.before.size() && !refuted; ++j) {
      const Atom& A = m.before[i];
      const Atom& B = m.before[j];
      const Atom& Ap = m.after[m.pair[i]];
      const Atom& Bp = m.after[m.pair[j]];
      bool self = i == j;
      std::vector<AffineRef> ra = site_refs(after, Ap.site);
      std::vector<AffineRef> rb = site_refs(after, Bp.site);
      std::vector<OrderClass> bcs;
      std::vector<OrderClass> acs;
      bool classes_built = false;
      for (std::size_t x = 0; x < ra.size(); ++x) {
        std::size_t y0 = self ? x : 0;
        for (std::size_t y = y0; y < rb.size(); ++y) {
          const AffineRef& fa = ra[x];
          const AffineRef& fb = rb[y];
          if (fa.array != fb.array || fa.scalar != fb.scalar) continue;
          if (!fa.write && !fb.write) continue;
          if (!fa.scalar.empty() && relaxed.count(fa.scalar)) {
            // Write-write between reduction updates, and a reduction's
            // read of its own accumulator, are order-exempt.
            bool a_upd = Ap.reduction && Ap.site.stmt->lhs_scalar == fa.scalar;
            bool b_upd = Bp.reduction && Bp.site.stmt->lhs_scalar == fb.scalar;
            if (a_upd && b_upd) continue;
          }
          ++res.pairs_checked;
          // Unconstrained conflict test first: provably disjoint pairs
          // need no order reasoning.
          {
            PairSystem sys(fa, fb);
            if (self) {
              // Exclude the identity instance: some level must differ.
              // Handled below by the per-level classes; here only test
              // overall feasibility.
            }
            Feasibility f = sys.solve();
            if (f.verdict == Verdict::kIndependent) continue;
          }
          if (!classes_built) {
            bcs = before_classes(A, B, m.maps[i], m.maps[j], self);
            acs = after_classes(Ap, Bp, self);
            classes_built = true;
          }
          bool pair_unknown = false;
          for (const auto& bc : bcs) {
            for (const auto& ac : acs) {
              if (bc.order == ac.order) continue;
              PairSystem sys(fa, fb);
              apply_class(&sys, bc);
              apply_class(&sys, ac);
              Feasibility f = sys.solve();
              if (f.verdict == Verdict::kDependent) {
                res.verdict = LegalityVerdict::kRefuted;
                res.reason = "dependence-reversed: " +
                             (fa.array.empty() ? fa.scalar : fa.array);
                refuted = true;
              } else if (f.verdict == Verdict::kUnknown) {
                pair_unknown = true;
              }
              if (refuted) break;
            }
            if (refuted) break;
          }
          if (pair_unknown && !refuted) ++res.pairs_unknown;
        }
      }
    }
  }
  if (refuted) return res;
  if (res.pairs_unknown > 0) {
    res.verdict = LegalityVerdict::kUnknown;
    res.reason = "conflict-undecided";
    return res;
  }
  res.verdict = LegalityVerdict::kProven;
  return res;
}

// ---------------------------------------------------------------------------
// Store elimination / storage contraction: lockstep comparison modulo
// array-to-scalar substitution.

namespace {

struct SubstSpec {
  /// Array name -> replacement scalar. For store elimination only *writes*
  /// and forwarded reads change; for contraction every reference changes.
  std::map<std::string, std::string> array_to_scalar;

  struct RewrittenRef {
    std::string array;
    std::vector<ir::Affine> tuple;
    bool write = false;
    const Atom* atom = nullptr;
  };
  std::vector<RewrittenRef> rewritten;
};

/// Structural equality of before/after expressions where a before read
/// A[tuple] (A in spec) may appear as the replacement scalar in after.
bool equal_modulo(const ir::Program& pb, const ir::Program& pa,
                  const ir::Expr& eb, const ir::Expr& ea, const Atom& atom,
                  SubstSpec* spec) {
  if (eb.kind == ir::ExprKind::kArrayRef) {
    auto it = spec->array_to_scalar.find(pb.array(eb.array).name);
    if (it != spec->array_to_scalar.end()) {
      if (ea.kind == ir::ExprKind::kScalarRef && ea.scalar == it->second) {
        spec->rewritten.push_back(
            {pb.array(eb.array).name, eb.subscripts, false, &atom});
        return true;
      }
      // A surviving read must stay intact; fall through to the strict
      // comparison below.
    }
  }
  if (eb.kind != ea.kind) return false;
  switch (eb.kind) {
    case ir::ExprKind::kConst:
      return eb.value == ea.value;
    case ir::ExprKind::kScalarRef:
      return eb.scalar == ea.scalar;
    case ir::ExprKind::kLoopVar:
      return eb.loop_var == ea.loop_var;
    case ir::ExprKind::kArrayRef:
      return pb.array(eb.array).name == pa.array(ea.array).name &&
             eb.subscripts == ea.subscripts;
    case ir::ExprKind::kInput:
      return eb.input_key == ea.input_key &&
             eb.input_extents == ea.input_extents &&
             eb.subscripts == ea.subscripts;
    case ir::ExprKind::kBinary:
    case ir::ExprKind::kCall: {
      if (eb.kind == ir::ExprKind::kBinary && eb.op != ea.op) return false;
      if (eb.kind == ir::ExprKind::kCall &&
          (eb.callee != ea.callee || eb.call_flops != ea.call_flops))
        return false;
      if (eb.operands.size() != ea.operands.size()) return false;
      for (std::size_t k = 0; k < eb.operands.size(); ++k)
        if (!equal_modulo(pb, pa, *eb.operands[k], *ea.operands[k], atom,
                          spec))
          return false;
      return true;
    }
  }
  return false;
}

/// Compare one before/after atom pair in lockstep: identical loop context
/// and path, statements equal modulo the substitution.
bool atoms_equal_modulo(const ir::Program& pb, const ir::Program& pa,
                        const Atom& b, const Atom& a, SubstSpec* spec) {
  if (b.top != a.top || b.site.path != a.site.path) return false;
  if (b.site.loop_vars != a.site.loop_vars) return false;
  if (!b.site.exact_domain || !a.site.exact_domain) return false;
  if (b.site.domains.size() != a.site.domains.size()) return false;
  for (std::size_t l = 0; l < b.site.domains.size(); ++l) {
    if (b.site.domains[l].ranges.size() != a.site.domains[l].ranges.size())
      return false;
    for (std::size_t k = 0; k < b.site.domains[l].ranges.size(); ++k)
      if (b.site.domains[l].ranges[k].lo != a.site.domains[l].ranges[k].lo ||
          b.site.domains[l].ranges[k].hi != a.site.domains[l].ranges[k].hi)
        return false;
  }
  const ir::Stmt& sb = *b.site.stmt;
  const ir::Stmt& sa = *a.site.stmt;
  if (sb.kind == ir::StmtKind::kArrayAssign) {
    auto it = spec->array_to_scalar.find(pb.array(sb.lhs_array).name);
    if (it != spec->array_to_scalar.end()) {
      // Write rewritten to the scalar.
      if (sa.kind != ir::StmtKind::kScalarAssign ||
          sa.lhs_scalar != it->second)
        return false;
      spec->rewritten.push_back(
          {pb.array(sb.lhs_array).name, sb.lhs_subscripts, true, &b});
      return equal_modulo(pb, pa, *sb.rhs, *sa.rhs, b, spec);
    }
  }
  if (sb.kind != sa.kind) return false;
  if (sb.kind == ir::StmtKind::kArrayAssign) {
    if (pb.array(sb.lhs_array).name != pa.array(sa.lhs_array).name)
      return false;
    if (sb.lhs_subscripts != sa.lhs_subscripts) return false;
  } else {
    if (sb.lhs_scalar != sa.lhs_scalar) return false;
  }
  return equal_modulo(pb, pa, *sb.rhs, *sa.rhs, b, spec);
}

/// `w` (a write) strictly before `r` in event order, touching a common
/// element: infeasible? Both refs belong to atoms of the same program.
Verdict write_before_read_conflict(const Atom& wa, const AffineRef& w,
                                   const Atom& ra, const AffineRef& r) {
  if (wa.top < ra.top) return PairSystem(w, r).solve().verdict;
  if (wa.top > ra.top) return Verdict::kIndependent;
  // Same top statement: writer earlier in some shared level (delta =
  // r_iter - w_iter > 0 at the first differing level), or same iteration
  // with an earlier body position.
  const int cl = common_levels(wa, ra);
  const Verdict earlier =
      lex_conflict(w, r, same_levels(cl), VarDomain::range(1, kSpan)).verdict;
  if (earlier == Verdict::kDependent || path_order(wa, ra) >= 0)
    return earlier;
  PairSystem sys(w, r);
  for (int m = 0; m < cl; ++m)
    sys.bound_difference(sys.a_var(m), 0, sys.b_var(m), 0, {0, 0});
  const Verdict same = sys.solve().verdict;
  if (same == Verdict::kDependent) return same;
  return earlier == Verdict::kUnknown ? earlier : same;
}

/// How one storage prover names its rewrite in `reason` strings.
struct SubstNames {
  const char* count_mismatch;  // reason when the atom counts differ
  const char* scalar;          // "<scalar>-scalar-not-fresh", ...
  const char* array;           // "no-<array>-array", ...
};

/// The storage provers' shared prologue: collect both programs' atoms
/// (exact domains only), discover the array-to-scalar map from positional
/// atom pairs (a before write to an array against an after write to a
/// scalar), require every scalar fresh and every array not an output, and
/// compare the atoms in lockstep modulo the map. Returns false with
/// `res->reason` set when a step fails; `ba` gets the before atoms that
/// `spec->rewritten` points into.
bool match_scalar_substitution(const ir::Program& before,
                               const ir::Program& after,
                               const SubstNames& names, std::vector<Atom>* ba,
                               SubstSpec* spec, LegalityResult* res) {
  const std::string scalar = names.scalar, array = names.array;
  bool exact_b = true, exact_a = true;
  *ba = collect_atoms(before, &exact_b);
  const std::vector<Atom> aa = collect_atoms(after, &exact_a);
  if (!exact_b || !exact_a) {
    res->reason = "unrefinable-guard";
    return false;
  }
  if (ba->size() != aa.size()) {
    res->reason = names.count_mismatch;
    return false;
  }
  for (std::size_t i = 0; i < ba->size(); ++i) {
    const ir::Stmt& sb = *(*ba)[i].site.stmt;
    const ir::Stmt& sa = *aa[i].site.stmt;
    if (sb.kind == ir::StmtKind::kArrayAssign &&
        sa.kind == ir::StmtKind::kScalarAssign) {
      const std::string& arr = before.array(sb.lhs_array).name;
      auto it = spec->array_to_scalar.find(arr);
      if (it != spec->array_to_scalar.end() && it->second != sa.lhs_scalar) {
        res->reason = "inconsistent-" + scalar + "-scalar";
        return false;
      }
      spec->array_to_scalar[arr] = sa.lhs_scalar;
    }
  }
  if (spec->array_to_scalar.empty()) {
    res->reason = "no-" + array + "-array";
    return false;
  }
  for (const auto& [arr, s] : spec->array_to_scalar) {
    if (before.has_scalar(s)) {
      res->reason = scalar + "-scalar-not-fresh";
      return false;
    }
    const ir::ArrayId id = before.array_id(arr);
    if (id >= 0 && before.is_output_array(id)) {
      res->reason = array + "-array-is-output";
      return false;
    }
  }
  for (std::size_t i = 0; i < ba->size(); ++i) {
    if (!atoms_equal_modulo(before, after, (*ba)[i], aa[i], spec)) {
      res->reason = "atom-mismatch";
      return false;
    }
  }
  return true;
}

}  // namespace

LegalityResult prove_store_elimination(const ir::Program& before,
                                       const ir::Program& after) {
  LegalityResult res;
  // Arrays written in before but never written in after were eliminated;
  // their forwarding scalars are the after-only scalars.
  const SubstNames names{"atom-count-mismatch", "forwarding", "eliminated"};
  std::vector<Atom> ba;
  SubstSpec spec;
  if (!match_scalar_substitution(before, after, names, &ba, &spec, &res))
    return res;
  // Per eliminated array: single writer statement; rewritten reads are in
  // the writer's iteration with the identical tuple, after the write; the
  // write tuple is injective across iterations; surviving reads never
  // observe an eliminated write.
  for (const auto& [arr, scalar] : spec.array_to_scalar) {
    const SubstSpec::RewrittenRef* writer = nullptr;
    for (const auto& rw : spec.rewritten) {
      if (rw.array != arr || !rw.write) continue;
      if (writer != nullptr) {
        res.reason = "multiple-writers";
        return res;
      }
      writer = &rw;
    }
    if (!writer) {
      res.reason = "no-writer";
      return res;
    }
    AffineRef wref;
    wref.array = arr;
    wref.subscripts = writer->tuple;
    wref.write = true;
    wref.loop_vars = writer->atom->site.loop_vars;
    wref.domains = writer->atom->site.domains;
    // Injectivity: distinct iterations write distinct elements.
    ++res.pairs_checked;
    if (lex_conflict(wref, wref,
                     same_levels(static_cast<int>(wref.loop_vars.size())),
                     {{{-kSpan, -1}, {1, kSpan}}})
            .verdict != Verdict::kIndependent) {
      res.reason = "write-tuple-not-injective";
      return res;
    }
    // Rewritten reads: same statement context as the writer, same tuple,
    // executed after the write in the same iteration.
    for (const auto& rw : spec.rewritten) {
      if (rw.array != arr || rw.write) continue;
      const Atom& rat = *rw.atom;
      if (rat.top != writer->atom->top ||
          common_levels(rat, *writer->atom) !=
              static_cast<int>(rat.site.loop_vars.size()) ||
          rat.site.loop_vars.size() !=
              writer->atom->site.loop_vars.size()) {
        res.reason = "forwarded-read-outside-writer-nest";
        return res;
      }
      if (path_order(*writer->atom, rat) > 0) {
        res.reason = "forwarded-read-before-write";
        return res;
      }
      if (!(rw.tuple == writer->tuple)) {
        res.reason = "forwarded-read-tuple-mismatch";
        return res;
      }
      ++res.pairs_checked;
    }
    // Surviving reads of the array in `before` (and, identically, in
    // `after`): must never read an element some write instance has
    // already produced -- otherwise removing the writes changes them.
    for (const auto& at : ba) {
      for (const auto& ref : site_refs(before, at.site)) {
        if (ref.write || ref.array != arr) continue;
        // Skip reads that were rewritten (they match the writer's own
        // statement tuple records).
        bool rewritten = false;
        for (const auto& rw : spec.rewritten) {
          if (rw.array != arr || rw.write) continue;
          if (rw.atom->top == at.top && rw.atom->site.path == at.site.path &&
              rw.tuple == ref.subscripts)
            rewritten = true;
        }
        if (rewritten) continue;
        ++res.pairs_checked;
        Verdict v = write_before_read_conflict(*writer->atom, wref, at, ref);
        if (v != Verdict::kIndependent) {
          res.reason = "surviving-read-observes-write";
          return res;
        }
      }
    }
  }
  res.verdict = LegalityVerdict::kProven;
  return res;
}

LegalityResult prove_storage_reduction(const ir::Program& before,
                                       const ir::Program& after) {
  LegalityResult res;
  // Shrinking/peeling insert copy statements, so the atom counts differ;
  // only pure contraction is modelled statically.
  const SubstNames names{"not-pure-contraction", "contraction", "contracted"};
  std::vector<Atom> ba;
  SubstSpec spec;
  if (!match_scalar_substitution(before, after, names, &ba, &spec, &res))
    return res;
  // Every read of a contracted array must be dominated, within the same
  // iteration of a common full-depth nest, by the nearest preceding write,
  // with the identical subscript tuple (live range inside one iteration).
  for (const auto& [arr, scalar] : spec.array_to_scalar) {
    // Collect refs of `before` in execution order.
    struct Occ {
      const Atom* atom;
      std::vector<ir::Affine> tuple;
      bool write;
    };
    std::vector<Occ> occs;
    for (const auto& at : ba) {
      // site_refs returns rhs reads (pre-order) then the lhs write, which
      // is exactly the within-statement event order.
      for (const auto& ref : site_refs(before, at.site)) {
        if (ref.array != arr) continue;
        occs.push_back({&at, ref.subscripts, ref.write});
      }
    }
    if (occs.empty()) continue;
    const Atom* anchor = occs.front().atom;
    for (const auto& o : occs) {
      if (o.atom->top != anchor->top ||
          o.atom->site.loop_vars != anchor->site.loop_vars ||
          common_levels(*o.atom, *anchor) !=
              static_cast<int>(anchor->site.loop_vars.size())) {
        res.reason = "refs-span-nests";
        return res;
      }
      // Guarded refs would make "preceding write in every iteration"
      // unsound; require full-domain contexts identical to the anchor's.
      if (o.atom->site.domains.size() != anchor->site.domains.size()) {
        res.reason = "refs-span-nests";
        return res;
      }
      for (std::size_t l = 0; l < anchor->site.domains.size(); ++l) {
        const auto& da = o.atom->site.domains[l];
        const auto& db = anchor->site.domains[l];
        if (da.ranges.size() != db.ranges.size()) {
          res.reason = "guarded-contraction-ref";
          return res;
        }
        for (std::size_t k = 0; k < da.ranges.size(); ++k)
          if (da.ranges[k].lo != db.ranges[k].lo ||
              da.ranges[k].hi != db.ranges[k].hi) {
            res.reason = "guarded-contraction-ref";
            return res;
          }
      }
    }
    // Body-order simulation: the scalar must hold the value of the element
    // each read expects.
    const std::vector<ir::Affine>* last_write = nullptr;
    for (const auto& o : occs) {
      if (o.write) {
        last_write = &o.tuple;
      } else {
        if (last_write == nullptr || !(*last_write == o.tuple)) {
          res.reason = "read-not-dominated-by-same-tuple-write";
          return res;
        }
        ++res.pairs_checked;
      }
    }
    if (last_write == nullptr) {
      res.reason = "no-write";
      return res;
    }
    ++res.pairs_checked;
  }
  res.verdict = LegalityVerdict::kProven;
  return res;
}

LegalityResult prove_layout_change(const ir::Program& before,
                                   const ir::Program& after) {
  LegalityResult res;
  // Every declared layout in `after` must stand on its own: a malformed
  // permutation, negative padding, or incoherent interleave group is a
  // refutation, not an imprecision.
  for (int a = 0; a < after.array_count(); ++a) {
    try {
      after.array(a).check_layout();
      (void)ir::resolve_addressing(after, a);
    } catch (const std::exception& e) {
      res.reason = std::string("invalid-layout: ") + e.what();
      res.verdict = LegalityVerdict::kRefuted;
      return res;
    }
    ++res.pairs_checked;
  }
  // Strip layouts from both sides; what remains must be the identical
  // program. Anything else (a rewritten statement, a resized array) is
  // outside this prover's model.
  ir::Program sb = before.clone();
  ir::Program sa = after.clone();
  for (ir::Program* p : {&sb, &sa})
    for (int a = 0; a < p->array_count(); ++a)
      p->mutable_array(a).layout = ir::ArrayLayout{};
  if (!ir::equal(sb, sa)) {
    res.reason = "not-a-pure-layout-change";
    return res;
  }
  res.verdict = LegalityVerdict::kProven;
  return res;
}

}  // namespace bwc::verify
