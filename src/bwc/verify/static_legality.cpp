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
    // A level no pair binds is one whose variable the statement never
    // reads (a fused `acc = (acc + (1 * 0.5))`): its instances touch the
    // same locations and compute the same value, so any bijection between
    // them and an after level's instances is a valid instance map. Pair it
    // with an unclaimed after level, the same variable first; the domains
    // must correspond under the shift (checked below), and the pair-order
    // check decides every conflict under the chosen map.
    for (int m = 0; m < nb; ++m) {
      if (map.to_after[m] >= 0 || b_.site.domains[m].size() == 1) continue;
      int pick = -1;
      for (int p = 0; p < na; ++p)
        if (!after_claimed[p] &&
            (pick < 0 || a_.site.loop_vars[p] == b_.site.loop_vars[m]))
          pick = p;
      if (pick < 0 || b_.site.domains[m].empty() ||
          a_.site.domains[pick].empty())
        continue;
      map.to_after[m] = pick;
      map.shift[m] = a_.site.domains[pick].hull().lo -
                     b_.site.domains[m].hull().lo;
      after_claimed[pick] = true;
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
// Store elimination and storage reduction: lockstep comparison modulo fresh
// storage, then the passes' own rules decided on `before`'s exact domains.

namespace {

/// One array reference of `before`, with the storage `after` gives it:
/// `to` is empty when `after` keeps the reference as it is, else the fresh
/// scalar (`to_scalar`) or the fresh 1-D buffer (row subscript kept) that
/// replaces it. Within one iteration of a nest, static order -- an atom's
/// reads, then its write -- is execution order.
struct MappedRef {
  const Atom* atom = nullptr;
  AffineRef ref;
  std::string to;
  bool to_scalar = false;
};

bool same_domains(const std::vector<VarDomain>& x,
                  const std::vector<VarDomain>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t l = 0; l < x.size(); ++l) {
    if (x[l].ranges.size() != y[l].ranges.size()) return false;
    for (std::size_t k = 0; k < x[l].ranges.size(); ++k)
      if (x[l].ranges[k].lo != y[l].ranges[k].lo ||
          x[l].ranges[k].hi != y[l].ranges[k].hi)
        return false;
  }
  return true;
}

/// Does `x` run inside every loop of `w` (the same loop statements)?
bool inside(const Atom& x, const Atom& w) {
  return x.top == w.top &&
         common_levels(x, w) == static_cast<int>(w.site.loop_vars.size());
}

/// Do distinct iterations of `w`'s domain name distinct elements?
Verdict injective(const AffineRef& w) {
  const int depth = static_cast<int>(w.loop_vars.size());
  const VarDomain differ{{{-kSpan, -1}, {1, kSpan}}};
  return lex_conflict(w, w, same_levels(depth), differ).verdict;
}

/// The storage passes' rewrites side by side: `after`'s atoms must match
/// `before`'s one for one -- same top statement, path and exact loop
/// context -- and agree everywhere but in array references, each kept as
/// it is or replaced by storage `before` does not declare. An array is
/// replaced by one scalar, or by 1-D buffers only.
class Lockstep {
 public:
  Lockstep(const ir::Program& before, const ir::Program& after)
      : pb_(before), pa_(after) {}

  /// Compare; false with `reason` set on the first mismatch.
  bool run(std::string* reason) {
    bool exact_b = true, exact_a = true;
    atoms_ = collect_atoms(pb_, &exact_b);
    const std::vector<Atom> after = collect_atoms(pa_, &exact_a);
    if (!exact_b || !exact_a) {
      *reason = "unrefinable-guard";
      return false;
    }
    if (atoms_.size() != after.size()) {
      *reason = "atom-count-mismatch";
      return false;
    }
    if (outputs(pb_) != outputs(pa_)) {
      *reason = "outputs-differ";
      return false;
    }
    for (std::size_t i = 0; i < atoms_.size(); ++i) {
      if (!atom(atoms_[i], after[i])) {
        *reason = "atom-mismatch";
        return false;
      }
    }
    return true;
  }

  /// Every reference to each array `after` replaces somewhere, in static
  /// order; empty when nothing was replaced.
  std::map<std::string, std::vector<const MappedRef*>> replaced() const {
    std::map<std::string, std::vector<const MappedRef*>> out;
    for (const auto& [fresh, use] : uses_) out.try_emplace(use.array);
    for (const MappedRef& r : refs_) {
      const auto it = out.find(r.ref.array);
      if (it != out.end()) it->second.push_back(&r);
    }
    return out;
  }

  /// Does a replaced write of `before` store into `buffer`?
  bool written(const std::string& buffer) const {
    return std::any_of(refs_.begin(), refs_.end(), [&](const MappedRef& r) {
      return r.ref.write && r.to == buffer;
    });
  }

 private:
  struct Use {
    std::string array;
    bool scalar = false;
  };

  static std::set<std::string> outputs(const ir::Program& p) {
    std::set<std::string> out(p.output_scalars().begin(),
                              p.output_scalars().end());
    for (ir::ArrayId id : p.output_arrays()) out.insert(p.array(id).name);
    return out;
  }

  bool atom(const Atom& b, const Atom& a) {
    if (b.top != a.top || b.site.path != a.site.path ||
        b.site.loop_vars != a.site.loop_vars ||
        !same_domains(b.site.domains, a.site.domains))
      return false;
    const ir::Stmt& sb = *b.site.stmt;
    const ir::Stmt& sa = *a.site.stmt;
    if (!expr(*sb.rhs, *sa.rhs, b)) return false;  // reads, then the write
    if (sb.kind == ir::StmtKind::kScalarAssign)
      return sa.kind == ir::StmtKind::kScalarAssign &&
             sa.lhs_scalar == sb.lhs_scalar;
    const std::string& name = pb_.array(sb.lhs_array).name;
    if (sa.kind == ir::StmtKind::kScalarAssign)
      return replace(b, name, sb.lhs_subscripts, true, sa.lhs_scalar, true);
    return access(b, name, sb.lhs_subscripts, true,
                  pa_.array(sa.lhs_array).name, sa.lhs_subscripts);
  }

  /// Before's array reference against after's: kept, or a fresh buffer
  /// indexed by the reference's row.
  bool access(const Atom& b, const std::string& name,
              const std::vector<ir::Affine>& subs, bool write,
              const std::string& to, const std::vector<ir::Affine>& to_subs) {
    if (to == name && to_subs == subs) {
      refs_.push_back({&b, ref_at(b, name, subs, write), "", false});
      return true;
    }
    if (pb_.has_array(to) || subs.size() != 2 || to_subs.size() != 1 ||
        !(to_subs.front() == subs.front()))
      return false;
    return replace(b, name, subs, write, to, false);
  }

  bool replace(const Atom& b, const std::string& name,
               const std::vector<ir::Affine>& subs, bool write,
               const std::string& to, bool scalar) {
    if (scalar ? pb_.has_scalar(to) : pb_.has_array(to)) return false;
    const auto [it, inserted] = uses_.emplace(to, Use{name, scalar});
    if (!inserted && (it->second.array != name || it->second.scalar != scalar))
      return false;
    for (const auto& [fresh, use] : uses_)
      if (use.array == name && (use.scalar || scalar) && fresh != to)
        return false;  // one scalar, or buffers only
    refs_.push_back({&b, ref_at(b, name, subs, write), to, scalar});
    return true;
  }

  static AffineRef ref_at(const Atom& at, const std::string& array,
                          const std::vector<ir::Affine>& subs, bool write) {
    AffineRef r;
    r.loop_vars = at.site.loop_vars;
    r.domains = at.site.domains;
    r.subscripts = subs;
    r.array = array;
    r.write = write;
    r.exact_domain = at.site.exact_domain;
    return r;
  }

  bool expr(const ir::Expr& eb, const ir::Expr& ea, const Atom& b) {
    if (eb.kind == ir::ExprKind::kArrayRef) {
      const std::string& name = pb_.array(eb.array).name;
      if (ea.kind == ir::ExprKind::kScalarRef)
        return replace(b, name, eb.subscripts, false, ea.scalar, true);
      return ea.kind == ir::ExprKind::kArrayRef &&
             access(b, name, eb.subscripts, false, pa_.array(ea.array).name,
                    ea.subscripts);
    }
    if (eb.kind != ea.kind) return false;
    switch (eb.kind) {
      case ir::ExprKind::kConst:
        return eb.value == ea.value;
      case ir::ExprKind::kScalarRef:
        return eb.scalar == ea.scalar;
      case ir::ExprKind::kLoopVar:
        return eb.loop_var == ea.loop_var;
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
          if (!expr(*eb.operands[k], *ea.operands[k], b)) return false;
        return true;
      }
      case ir::ExprKind::kArrayRef:
        break;
    }
    return false;
  }

  const ir::Program& pb_;
  const ir::Program& pa_;
  std::vector<Atom> atoms_;  // before's atoms, which refs_ point into
  std::vector<MappedRef> refs_;
  std::map<std::string, Use> uses_;  // fresh name -> the array it replaces
};

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

/// Contraction to one scalar, by reduce-storage's own rule: the first
/// reference is a write whose domains contain every reference's, every
/// reference names that write's element wherever it runs, and distinct
/// iterations of the write name distinct elements. Within one iteration
/// the scalar then carries exactly the element's value; no value crosses
/// iterations.
bool contraction_holds(const std::vector<const MappedRef*>& occ,
                       LegalityResult* res) {
  const MappedRef& first = *occ.front();
  if (!first.ref.write) {
    res->reason = "contraction-reads-first";
    return false;
  }
  for (const MappedRef* o : occ) {
    if (!inside(*o->atom, *first.atom)) {
      res->reason = "refs-span-nests";
      return false;
    }
    if (!runs_within(o->ref, first.ref) ||
        !names_element(o->ref, first.ref.subscripts)) {
      res->reason = "contraction-ref-outside-first-write";
      return false;
    }
    if (!o->ref.write) ++res->pairs_checked;
  }
  ++res->pairs_checked;
  if (injective(first.ref) != Verdict::kIndependent) {
    res->reason = "contraction-tuple-not-injective";
    return false;
  }
  return true;
}

/// The copies reduce-storage's shrink adds to `after`, recorded while
/// stripping them: the rotation `prev[i] = cur[i]` ending a sweep's inner
/// body, and the dual write `if (j == C) colC[r] = cur[r]` after each
/// write of `cur`.
struct ShrinkCopies {
  struct Prev {
    std::string cur;
    int top = -1;
  };
  struct Peel {
    std::string cur;
    std::string var;
    std::int64_t column = 0;
  };
  std::map<std::string, Prev> prev;  // by prev buffer
  std::map<std::string, Peel> peel;  // by peel buffer
  /// Every other write of a fresh array, with the peel buffers copied
  /// right after it.
  std::vector<std::pair<std::string, std::set<std::string>>> writes;
};

class CopyStripper {
 public:
  CopyStripper(const ir::Program& before, ir::Program* after, ShrinkCopies* out)
      : before_(before), after_(*after), out_(*out) {}

  bool run() {
    for (int t = 0; t < static_cast<int>(after_.top().size()); ++t) {
      ir::Stmt& s = *after_.top()[static_cast<std::size_t>(t)];
      if (s.kind != ir::StmtKind::kLoop || s.loop->body.size() != 1 ||
          s.loop->body.front()->kind != ir::StmtKind::kLoop)
        continue;
      ir::StmtList& body = s.loop->body.front()->loop->body;
      const ir::Affine row = ir::Affine::var(s.loop->body.front()->loop->var);
      std::string dst, src;
      while (!body.empty() && copy(*body.back(), row, &dst, &src)) {
        if (!out_.prev.emplace(dst, ShrinkCopies::Prev{src, t}).second)
          return false;
        body.pop_back();
      }
    }
    return peels(after_.top());
  }

 private:
  /// Is `s` the copy `dst[sub] = src[sub]` between two fresh arrays?
  bool copy(const ir::Stmt& s, const ir::Affine& sub, std::string* dst,
            std::string* src) const {
    if (s.kind != ir::StmtKind::kArrayAssign || s.lhs_subscripts.size() != 1 ||
        !(s.lhs_subscripts.front() == sub))
      return false;
    const ir::Expr& e = *s.rhs;
    if (e.kind != ir::ExprKind::kArrayRef || e.subscripts.size() != 1 ||
        !(e.subscripts.front() == sub))
      return false;
    *dst = after_.array(s.lhs_array).name;
    *src = after_.array(e.array).name;
    return *dst != *src && !before_.has_array(*dst) &&
           !before_.has_array(*src);
  }

  bool peels(ir::StmtList& body) {
    int last = -1;  // out_.writes entry of the write this list just ran
    ir::Affine row;
    for (std::size_t k = 0; k < body.size();) {
      ir::Stmt& s = *body[k];
      std::string dst, src, var;
      std::int64_t column = 0;
      if (last >= 0 && s.kind == ir::StmtKind::kIf && s.else_body.empty() &&
          s.then_body.size() == 1 && equality(s, &var, &column) &&
          copy(*s.then_body.front(), row, &dst, &src) &&
          src == out_.writes[static_cast<std::size_t>(last)].first) {
        const auto [it, inserted] =
            out_.peel.emplace(dst, ShrinkCopies::Peel{src, var, column});
        if (!inserted && (it->second.cur != src || it->second.var != var ||
                          it->second.column != column))
          return false;
        out_.writes[static_cast<std::size_t>(last)].second.insert(dst);
        body.erase(body.begin() + static_cast<std::ptrdiff_t>(k));
        continue;
      }
      last = -1;
      if (s.kind == ir::StmtKind::kArrayAssign &&
          !before_.has_array(after_.array(s.lhs_array).name)) {
        out_.writes.push_back({after_.array(s.lhs_array).name, {}});
        last = static_cast<int>(out_.writes.size()) - 1;
        row = s.lhs_subscripts.empty() ? ir::Affine() : s.lhs_subscripts[0];
      } else if (s.kind == ir::StmtKind::kIf) {
        if (!peels(s.then_body) || !peels(s.else_body)) return false;
      } else if (s.kind == ir::StmtKind::kLoop) {
        if (!peels(s.loop->body)) return false;
      }
      ++k;
    }
    return true;
  }

  /// Is `s`'s guard `var == column`?
  static bool equality(const ir::Stmt& s, std::string* var,
                       std::int64_t* column) {
    if (s.cmp != ir::CmpOp::kEq) return false;
    const ir::Affine d = s.cmp_lhs - s.cmp_rhs;
    const auto v = d.single_var();
    if (!v.has_value() || (d.coeff(*v) != 1 && d.coeff(*v) != -1))
      return false;
    *var = *v;
    *column = -d.constant_term() * d.coeff(*v);
    return true;
  }

  const ir::Program& before_;
  ir::Program& after_;
  ShrinkCopies& out_;
};

/// Shrink and peel of a 2-D array to column buffers, by the facts
/// reduce-storage's plan relies on, decided on `before`'s exact domains.
/// The first write W0 fixes the sweep nest (j outer over [lo, hi], i inner)
/// and the `cur` buffer. Every write names A[i, j], so row r of column c is
/// written only at iteration (c, r), and W0 runs at every iteration:
///   - cur[i] equals A[i, j] from W0 on in each iteration, so a read of
///     A[i, j] after W0 may read cur;
///   - the rotation ending the inner body leaves column j - 1 in prev, so
///     A[i, j - 1] may read prev wherever j > lo;
///   - every write of cur is followed by `if (j == C) colC[r] = cur[r]`,
///     so once column C is done colC holds it: a read of A[r, C] for rows
///     the sweep writes may read colC at j > C, in a later statement, or
///     as A[i, j] after W0 at j == C (reads_written_rows, the fact
///     reduce-storage's plan checks too).
bool shrink_holds(const ir::Program& before, const ir::Program& after,
                  const std::vector<const MappedRef*>& occ,
                  const ShrinkCopies& copies, LegalityResult* res) {
  const auto fail = [&](const char* why) {
    res->reason = why;
    return false;
  };
  const ir::ArrayDecl& decl =
      before.array(before.array_id(occ.front()->ref.array));
  if (decl.extents.size() != 2) return fail("shrink-array-not-2d");
  std::size_t k0 = 0;
  while (k0 < occ.size() && !occ[k0]->ref.write) ++k0;
  if (k0 == occ.size()) return fail("shrink-without-write");
  const MappedRef& w0 = *occ[k0];
  const int top = w0.atom->top;
  const ir::Stmt& sweep = *before.top()[static_cast<std::size_t>(top)];
  if (sweep.kind != ir::StmtKind::kLoop || sweep.loop->body.size() != 1 ||
      sweep.loop->body.front()->kind != ir::StmtKind::kLoop)
    return fail("shrink-sweep-not-2-deep");
  const ir::Loop& outer = *sweep.loop;
  const ir::Loop& inner = *outer.body.front()->loop;
  const ir::Affine row = ir::Affine::var(inner.var);
  const ir::Affine column = ir::Affine::var(outer.var);

  const auto in_sweep = [&](const MappedRef& o) {
    return o.ref.loop_vars.size() == 2 && inside(*o.atom, *w0.atom);
  };
  // Does `o` name A[i, j + off] wherever it runs in the sweep?
  const auto names = [&](const MappedRef& o, std::int64_t off) {
    const auto v = pinned_value(o.ref.subscripts[1] - column,
                                o.ref.loop_vars, o.ref.domains);
    return in_sweep(o) && o.ref.subscripts[0] == row && v.has_value() &&
           *v == off;
  };
  if (!w0.ref.exact_domain || !in_sweep(w0) ||
      !same_domains(w0.ref.domains,
                    {VarDomain::range(outer.lower, outer.upper),
                     VarDomain::range(inner.lower, inner.upper)}))
    return fail("shrink-first-write-not-total");

  const std::string& cur = w0.to;
  for (std::size_t k = 0; k < occ.size(); ++k) {
    const MappedRef& o = *occ[k];
    ++res->pairs_checked;
    const ir::ArrayDecl& buffer = after.array(after.array_id(o.to));
    if (buffer.extents != std::vector<std::int64_t>{decl.extents[0]} ||
        buffer.elem_bytes != decl.elem_bytes)
      return fail("shrink-buffer-shape");
    if (o.ref.write || o.to == cur) {
      if (o.to != cur || !names(o, 0) || (!o.ref.write && k <= k0))
        return fail("shrink-cur-ref-unmodelled");
      continue;
    }
    const auto prev = copies.prev.find(o.to);
    if (prev != copies.prev.end()) {
      if (prev->second.cur != cur || prev->second.top != top || !names(o, -1) ||
          o.ref.domains[0].hull().lo <= outer.lower)
        return fail("shrink-prev-read-unmodelled");
      continue;
    }
    const auto peel = copies.peel.find(o.to);
    if (peel == copies.peel.end()) return fail("shrink-buffer-unknown");
    const std::int64_t c = peel->second.column;
    const ir::Affine& col = o.ref.subscripts[1];
    const bool copied = peel->second.cur == cur &&
                        peel->second.var == outer.var && c >= outer.lower &&
                        c <= outer.upper && col.is_constant() &&
                        col.constant_term() == c;
    if (!copied) return fail("shrink-peel-read-unmodelled");
    // The peel holds column c as W0 leaves it at j == c.
    AffineRef at_c = w0.ref;
    at_c.domains.front() = VarDomain::range(c, c);
    if (!reads_written_rows(o.ref, o.atom->top, at_c, top, k > k0))
      return fail("shrink-peel-read-unmodelled");
  }
  // Every write of cur carries the dual write of every peel of cur.
  std::set<std::string> peels;
  for (const auto& [buffer, p] : copies.peel)
    if (p.cur == cur) peels.insert(buffer);
  for (const auto& [buffer, copied] : copies.writes)
    if (buffer == cur && copied != peels)
      return fail("shrink-peel-copy-missing");
  return true;
}

}  // namespace

LegalityResult prove_store_elimination(const ir::Program& before,
                                       const ir::Program& after) {
  LegalityResult res;
  Lockstep lockstep(before, after);
  if (!lockstep.run(&res.reason)) return res;
  const auto arrays = lockstep.replaced();
  if (arrays.empty()) {
    res.reason = "no-eliminated-array";
    return res;
  }
  // Per eliminated array: its writes all become the forwarding scalar and
  // sit in one nest with one tuple, injective across iterations; each
  // forwarded read has that tuple and follows, in the same iteration, a
  // writer whose domain contains its own; surviving reads never observe
  // any write.
  for (const auto& [arr, occ] : arrays) {
    if (before.is_output_array(before.array_id(arr))) {
      res.reason = "eliminated-array-is-output";
      return res;
    }
    std::vector<const MappedRef*> writers;
    for (const MappedRef* o : occ) {
      if (!o->to.empty() && !o->to_scalar) {
        res.reason = "forwarded-through-array";
        return res;
      }
      if (!o->ref.write) continue;
      if (o->to.empty()) {
        res.reason = "eliminated-array-still-written";
        return res;
      }
      writers.push_back(o);
    }
    if (writers.empty()) {
      res.reason = "no-writer";
      return res;
    }
    const MappedRef& w0 = *writers.front();
    const auto in_nest = [&](const MappedRef& o) {
      return inside(*o.atom, *w0.atom) &&
             o.ref.loop_vars.size() == w0.ref.loop_vars.size();
    };
    AffineRef span = w0.ref;  // the writers' domains, hulled per level
    for (const MappedRef* w : writers) {
      if (!in_nest(*w)) {
        res.reason = "writers-span-nests";
        return res;
      }
      if (w->ref.subscripts != w0.ref.subscripts) {
        res.reason = "writer-tuples-differ";
        return res;
      }
      for (std::size_t l = 0; l < span.domains.size(); ++l) {
        const Interval a = span.domains[l].hull(), b = w->ref.domains[l].hull();
        span.domains[l] =
            VarDomain::range(std::min(a.lo, b.lo), std::max(a.hi, b.hi));
      }
    }
    ++res.pairs_checked;
    if (injective(span) != Verdict::kIndependent) {
      res.reason = "write-tuple-not-injective";
      return res;
    }
    for (std::size_t k = 0; k < occ.size(); ++k) {
      const MappedRef& r = *occ[k];
      if (r.ref.write) continue;
      if (!r.to.empty()) {
        if (!in_nest(r)) {
          res.reason = "forwarded-read-outside-writer-nest";
          return res;
        }
        if (r.ref.subscripts != w0.ref.subscripts) {
          res.reason = "forwarded-read-tuple-mismatch";
          return res;
        }
        const bool dominated = std::any_of(
            occ.begin(), occ.begin() + static_cast<std::ptrdiff_t>(k),
            [&](const MappedRef* w) {
              return w->ref.write && runs_within(r.ref, w->ref);
            });
        if (!dominated) {
          res.reason = "forwarded-read-not-dominated";
          return res;
        }
        ++res.pairs_checked;
        continue;
      }
      for (const MappedRef* w : writers) {
        ++res.pairs_checked;
        if (write_before_read_conflict(*w->atom, w->ref, *r.atom, r.ref) !=
            Verdict::kIndependent) {
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
  // Strip the shrink's copies; what remains must match `before` in
  // lockstep, every reference of a reduced array replaced.
  ir::Program stripped = after.clone();
  ShrinkCopies copies;
  if (!CopyStripper(before, &stripped, &copies).run()) {
    res.reason = "inconsistent-copies";
    return res;
  }
  Lockstep lockstep(before, stripped);
  if (!lockstep.run(&res.reason)) return res;
  const auto arrays = lockstep.replaced();
  if (arrays.empty()) {
    res.reason = "no-reduced-array";
    return res;
  }
  // A copy may only fill a prev or peel buffer, never storage a rewritten
  // write maintains.
  bool clash = false;
  for (const auto& entry : copies.prev)
    clash = clash || lockstep.written(entry.first) ||
            copies.peel.count(entry.first) > 0;
  for (const auto& entry : copies.peel)
    clash = clash || lockstep.written(entry.first);
  if (clash) {
    res.reason = "inconsistent-copies";
    return res;
  }
  for (const auto& [arr, occ] : arrays) {
    if (before.is_output_array(before.array_id(arr))) {
      res.reason = "reduced-array-is-output";
      return res;
    }
    for (const MappedRef* o : occ)
      if (o->to.empty()) {
        res.reason = "reduced-array-survives";
        return res;
      }
    const bool holds = occ.front()->to_scalar
                           ? contraction_holds(occ, &res)
                           : shrink_holds(before, stripped, occ, copies, &res);
    if (!holds) return res;
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
