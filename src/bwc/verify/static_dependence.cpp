#include "bwc/verify/static_dependence.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>

namespace bwc::verify {
namespace {

std::int64_t clampv(std::int64_t v) { return std::clamp(v, -kSpan, kSpan); }

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  return clampv(clampv(a) + clampv(b));  // |a|+|b| <= 2^61, no overflow
}

std::int64_t sat_mul(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > -kSpan && a < kSpan && b > -kSpan && b < kSpan) {
    __int128 p = static_cast<__int128>(a) * b;
    if (p > kSpan) return kSpan;
    if (p < -kSpan) return -kSpan;
    return static_cast<std::int64_t>(p);
  }
  return ((a > 0) == (b > 0)) ? kSpan : -kSpan;
}

/// Floor/ceil division with positive divisor.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  return (a % b != 0 && (a < 0) == (b < 0)) ? q + 1 : q;
}

}  // namespace

// ---------------------------------------------------------------------------
// VarDomain

VarDomain VarDomain::range(std::int64_t lo, std::int64_t hi) {
  VarDomain d;
  if (lo <= hi) d.ranges.push_back({lo, hi});
  return d;
}

Interval VarDomain::hull() const {
  if (ranges.empty()) return {};
  return {ranges.front().lo, ranges.back().hi};
}

bool VarDomain::empty() const { return ranges.empty(); }

bool VarDomain::contains(std::int64_t v) const {
  for (const auto& r : ranges)
    if (v >= r.lo && v <= r.hi) return true;
  return false;
}

std::int64_t VarDomain::size() const {
  std::int64_t n = 0;
  for (const auto& r : ranges) n = sat_add(n, r.size());
  return n;
}

void VarDomain::clip(std::int64_t lo, std::int64_t hi) {
  std::vector<Interval> out;
  for (const auto& r : ranges) {
    Interval c{std::max(r.lo, lo), std::min(r.hi, hi)};
    if (!c.empty()) out.push_back(c);
  }
  ranges = std::move(out);
}

// ---------------------------------------------------------------------------
// solve_system

namespace {

struct System {
  std::vector<VarDomain> domains;
  std::vector<LinEq> eqs;
  // Variables pinned to a single value (domain already narrowed).
  // pivot_of[v] = equation index that defines variable v, or -1.
  std::vector<int> pivot_of;
  std::vector<int> pivot_order;  // variables in the order they were chosen
};

void normalize(LinEq& eq) {
  std::sort(eq.terms.begin(), eq.terms.end(),
            [](const LinTerm& a, const LinTerm& b) { return a.var < b.var; });
  std::vector<LinTerm> out;
  for (const auto& t : eq.terms) {
    if (!out.empty() && out.back().var == t.var) {
      out.back().coeff = sat_add(out.back().coeff, t.coeff);
    } else {
      out.push_back(t);
    }
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const LinTerm& t) { return t.coeff == 0; }),
            out.end());
  eq.terms = std::move(out);
}

const LinTerm* find_term(const LinEq& eq, int var) {
  for (const auto& t : eq.terms)
    if (t.var == var) return &t;
  return nullptr;
}

/// eq -= factor * pivot_eq (exact integer row operation).
void eliminate(LinEq& eq, const LinEq& pivot_eq, std::int64_t factor) {
  if (factor == 0) return;
  for (const auto& t : pivot_eq.terms)
    eq.terms.push_back({t.var, sat_mul(-factor, t.coeff)});
  eq.constant = sat_add(eq.constant, sat_mul(-factor, pivot_eq.constant));
  normalize(eq);
}

/// Interval of sum(coeff * var over hull) for the equation's terms.
Interval term_range(const System& s, const LinEq& eq, int skip_var = -1) {
  std::int64_t lo = 0, hi = 0;
  for (const auto& t : eq.terms) {
    if (t.var == skip_var) continue;
    Interval h = s.domains[t.var].hull();
    std::int64_t a = sat_mul(t.coeff, h.lo);
    std::int64_t b = sat_mul(t.coeff, h.hi);
    lo = sat_add(lo, std::min(a, b));
    hi = sat_add(hi, std::max(a, b));
  }
  return {lo, hi};
}

/// Substitute a pinned value for `var` everywhere.
void substitute_value(System& s, int var, std::int64_t value) {
  for (auto& eq : s.eqs) {
    const LinTerm* t = find_term(eq, var);
    if (!t) continue;
    eq.constant = sat_add(eq.constant, sat_mul(t->coeff, value));
    eq.terms.erase(std::remove_if(
                       eq.terms.begin(), eq.terms.end(),
                       [var](const LinTerm& x) { return x.var == var; }),
                   eq.terms.end());
  }
}

Feasibility infeasible(const char* why) {
  return {Verdict::kIndependent, why, {}};
}

}  // namespace

Feasibility solve_system(std::vector<VarDomain> domains,
                         std::vector<LinEq> eqs) {
  System s;
  s.domains = std::move(domains);
  s.eqs = std::move(eqs);
  s.pivot_of.assign(s.domains.size(), -1);

  for (const auto& d : s.domains)
    if (d.empty()) return infeasible("empty-domain");
  for (auto& eq : s.eqs) normalize(eq);

  // Exact Gaussian elimination restricted to +/-1 pivots: combines
  // equations so that relational facts (x == y, y - x == delta) resolve
  // instead of being lost to interval reasoning.
  for (std::size_t ei = 0; ei < s.eqs.size(); ++ei) {
    LinEq& pe = s.eqs[ei];
    int pivot = -1;
    for (const auto& t : pe.terms) {
      if ((t.coeff == 1 || t.coeff == -1) && s.pivot_of[t.var] < 0) {
        pivot = t.var;
        break;
      }
    }
    if (pivot < 0) continue;
    std::int64_t pc = find_term(pe, pivot)->coeff;  // +/-1
    for (std::size_t ej = 0; ej < s.eqs.size(); ++ej) {
      if (ej == ei) continue;
      const LinTerm* t = find_term(s.eqs[ej], pivot);
      if (!t) continue;
      // eqj -= (tc / pc) * pe ; pc is +/-1 so the factor is exact.
      eliminate(s.eqs[ej], pe, t->coeff * pc);
    }
    s.pivot_of[pivot] = static_cast<int>(ei);
    s.pivot_order.push_back(pivot);
  }

  // Refutation / pinning fixpoint.
  bool changed = true;
  for (int round = 0; round < 16 && changed; ++round) {
    changed = false;
    for (std::size_t ei = 0; ei < s.eqs.size(); ++ei) {
      LinEq& eq = s.eqs[ei];
      normalize(eq);
      if (eq.terms.empty()) {
        if (eq.constant != 0) return infeasible("ziv");
        continue;  // trivially satisfied; ignored from here on
      }
      // GCD test: sum(ci*xi) = -c has integer solutions only when
      // gcd(ci) divides c.
      std::int64_t g = 0;
      for (const auto& t : eq.terms)
        g = std::gcd(g, std::llabs(clampv(t.coeff)));
      if (g > 1 && eq.constant % g != 0) return infeasible("gcd");
      // Banerjee bounds: value range of the lhs must straddle zero.
      Interval full = term_range(s, eq);
      std::int64_t lo = sat_add(full.lo, eq.constant);
      std::int64_t hi = sat_add(full.hi, eq.constant);
      if (lo > 0 || hi < 0) return infeasible("banerjee");
      if (eq.terms.size() == 1) {
        // Strong SIV: coeff * v == -constant exactly.
        const LinTerm& t = eq.terms[0];
        if (eq.constant % t.coeff != 0) return infeasible("siv");
        std::int64_t v = -eq.constant / t.coeff;
        if (!s.domains[t.var].contains(v)) return infeasible("siv");
        s.domains[t.var] = VarDomain::singleton(v);
        substitute_value(s, t.var, v);
        changed = true;
        continue;
      }
      // Domain tightening: v in [-c - range(rest)] / coeff.
      for (const auto& t : eq.terms) {
        Interval rest = term_range(s, eq, t.var);
        // t.coeff * v in [-c - rest.hi, -c - rest.lo]
        std::int64_t nlo = sat_add(-eq.constant, -rest.hi);
        std::int64_t nhi = sat_add(-eq.constant, -rest.lo);
        std::int64_t vlo, vhi;
        if (t.coeff > 0) {
          vlo = ceil_div(nlo, t.coeff);
          vhi = floor_div(nhi, t.coeff);
        } else {
          vlo = ceil_div(nhi, t.coeff);
          vhi = floor_div(nlo, t.coeff);
        }
        Interval h = s.domains[t.var].hull();
        if (vlo > h.lo || vhi < h.hi) {
          s.domains[t.var].clip(vlo, vhi);
          if (s.domains[t.var].empty()) return infeasible("banerjee");
          changed = true;
        }
      }
    }
  }

  // Witness search: free variables take an endpoint, pivot variables are
  // solved from their defining equations in reverse elimination order
  // (each pivot equation contains its pivot plus free variables only).
  for (int seed = 0; seed < 2; ++seed) {
    std::vector<std::int64_t> value(s.domains.size());
    std::vector<bool> is_pivot(s.domains.size(), false);
    for (int v : s.pivot_order) is_pivot[v] = true;
    for (std::size_t v = 0; v < s.domains.size(); ++v) {
      const auto& d = s.domains[v];
      value[v] = seed == 0 ? d.ranges.front().lo : d.ranges.back().hi;
    }
    bool ok = true;
    for (auto it = s.pivot_order.rbegin(); ok && it != s.pivot_order.rend();
         ++it) {
      int pv = *it;
      const LinEq& eq = s.eqs[s.pivot_of[pv]];
      const LinTerm* pt = find_term(eq, pv);
      if (!pt) {  // pinned away: equation already satisfied or constant
        if (!eq.terms.empty() || eq.constant != 0) ok = false;
        continue;
      }
      std::int64_t rest = eq.constant;
      for (const auto& t : eq.terms)
        if (t.var != pv) rest = sat_add(rest, sat_mul(t.coeff, value[t.var]));
      if (rest % pt->coeff != 0) {
        ok = false;
        break;
      }
      value[pv] = -rest / pt->coeff;
      if (!s.domains[pv].contains(value[pv])) ok = false;
    }
    if (!ok) continue;
    // Verify every equation under the assignment.
    for (const auto& eq : s.eqs) {
      std::int64_t sum = eq.constant;
      for (const auto& t : eq.terms)
        sum = sat_add(sum, sat_mul(t.coeff, value[t.var]));
      if (sum != 0) {
        ok = false;
        break;
      }
    }
    if (ok) return {Verdict::kDependent, "witness", std::move(value)};
  }

  return {Verdict::kUnknown, "", {}};
}

// ---------------------------------------------------------------------------
// PairSystem

PairSystem::PairSystem(const AffineRef& a, const AffineRef& b) {
  a_levels_ = static_cast<int>(a.loop_vars.size());
  exact_ = a.exact_domain && b.exact_domain;
  domains_ = a.domains;
  domains_.insert(domains_.end(), b.domains.begin(), b.domains.end());

  if (a.subscripts.size() != b.subscripts.size()) {
    well_formed_ = false;
    return;
  }
  auto add_side = [&](const ir::Affine& sub,
                      const std::vector<std::string>& vars, int base,
                      std::int64_t sign, LinEq& eq) {
    for (const auto& [name, coeff] : sub.terms()) {
      auto it = std::find(vars.begin(), vars.end(), name);
      if (it == vars.end()) {
        well_formed_ = false;
        return;
      }
      eq.terms.push_back(
          {base + static_cast<int>(it - vars.begin()), sign * coeff});
    }
    eq.constant = sat_add(eq.constant, sign * sub.constant_term());
  };
  for (std::size_t k = 0; k < a.subscripts.size(); ++k) {
    LinEq eq;
    add_side(a.subscripts[k], a.loop_vars, 0, 1, eq);
    add_side(b.subscripts[k], b.loop_vars, a_levels_, -1, eq);
    eqs_.push_back(std::move(eq));
  }
}

void PairSystem::bound_difference(int var_a, std::int64_t shift_a, int var_b,
                                  std::int64_t shift_b, Interval range) {
  if (range.empty()) {
    // An empty requested range makes this variant trivially infeasible;
    // encode it as an unsatisfiable equation.
    LinEq eq;
    eq.constant = 1;
    eqs_.push_back(std::move(eq));
    return;
  }
  // (var_b + shift_b) - (var_a + shift_a) - t == 0, t in range.
  LinEq eq;
  if (var_b >= 0) eq.terms.push_back({var_b, 1});
  if (var_a >= 0) eq.terms.push_back({var_a, -1});
  eq.constant = sat_add(shift_b, -shift_a);
  int slack = static_cast<int>(domains_.size());
  domains_.push_back(VarDomain::range(range.lo, range.hi));
  eq.terms.push_back({slack, -1});
  eqs_.push_back(std::move(eq));
}

void PairSystem::bound_var(int var, Interval range) {
  if (var < 0 || var >= static_cast<int>(domains_.size())) return;
  domains_[var].clip(range.lo, range.hi);
}

Feasibility PairSystem::solve() const {
  if (!well_formed_) return {Verdict::kUnknown, "ill-formed", {}};
  Feasibility f = solve_system(domains_, eqs_);
  // Over-approximated domains: a witness may lie outside the true
  // iteration space, so only independence proofs survive.
  if (!exact_ && f.verdict == Verdict::kDependent)
    return {Verdict::kUnknown, "inexact-domain", {}};
  return f;
}

std::vector<LevelPair> same_levels(int n) {
  std::vector<LevelPair> levels;
  for (int l = 0; l < n; ++l) levels.push_back({l, 0, l, 0});
  return levels;
}

Feasibility lex_conflict(const AffineRef& a, const AffineRef& b,
                         const std::vector<LevelPair>& levels,
                         const VarDomain& first) {
  const PairSystem base(a, b);
  auto bound = [](PairSystem& sys, const LevelPair& p, Interval range) {
    sys.bound_difference(p.a_level >= 0 ? sys.a_var(p.a_level) : -1,
                         p.a_shift,
                         p.b_level >= 0 ? sys.b_var(p.b_level) : -1,
                         p.b_shift, range);
  };
  bool unknown = false;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    for (const Interval& range : first.ranges) {
      PairSystem sys = base;
      for (std::size_t m = 0; m < l; ++m) bound(sys, levels[m], {0, 0});
      bound(sys, levels[l], range);
      Feasibility f = sys.solve();
      if (f.verdict == Verdict::kDependent) return f;
      if (f.verdict == Verdict::kUnknown) unknown = true;
    }
  }
  if (unknown) return {Verdict::kUnknown, "", {}};
  return {Verdict::kIndependent, levels.empty() ? "single-instance" : "siv",
          {}};
}

// ---------------------------------------------------------------------------
// Site and reference collection

namespace {

struct SiteWalker {
  SiteWalk* out;

  std::vector<std::string> vars;
  std::vector<VarDomain> domains;
  std::vector<int> loop_addr;
  bool exact = true;

  void emit(const ir::Stmt& s, const std::vector<int>& pos) {
    AssignSite site;
    site.stmt = &s;
    site.loop_vars = vars;
    site.domains = domains;
    site.path = pos;
    site.loop_addr = loop_addr;
    site.exact_domain = exact;
    if (!exact) ++out->inexact_sites;
    out->sites.push_back(std::move(site));
  }

  void walk_list(const ir::StmtList& list, std::vector<int> pos) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      pos.push_back(static_cast<int>(i));
      walk(*list[i], pos);
      pos.pop_back();
    }
  }

  void walk(const ir::Stmt& s, const std::vector<int>& pos) {
    switch (s.kind) {
      case ir::StmtKind::kArrayAssign:
      case ir::StmtKind::kScalarAssign:
        emit(s, pos);
        break;
      case ir::StmtKind::kIf:
        walk_guard(s, pos);
        break;
      case ir::StmtKind::kLoop: {
        vars.push_back(s.loop->var);
        domains.push_back(VarDomain::range(s.loop->lower, s.loop->upper));
        loop_addr.push_back(static_cast<int>(pos.size()));
        if (!domains.back().empty())
          walk_list(s.loop->body, pos);
        else if (!s.loop->body.empty())
          ++out->empty_loops;
        vars.pop_back();
        domains.pop_back();
        loop_addr.pop_back();
        break;
      }
    }
  }

  void walk_guard(const ir::Stmt& s, const std::vector<int>& pos) {
    ir::Affine diff = s.cmp_lhs - s.cmp_rhs;  // diff OP 0
    std::vector<int> tpos = pos, epos = pos;
    tpos.push_back(0);
    epos.push_back(1);
    if (diff.is_constant()) {
      bool taken = ir::evaluate_cmp(s.cmp, diff.constant_term(), 0);
      const ir::StmtList& dead = taken ? s.else_body : s.then_body;
      if (!dead.empty()) ++out->unreachable_guards;
      walk_list(taken ? s.then_body : s.else_body, taken ? tpos : epos);
      return;
    }
    auto sv = diff.single_var();
    int level = -1;
    if (sv) {
      auto it = std::find(vars.begin(), vars.end(), *sv);
      if (it != vars.end()) level = static_cast<int>(it - vars.begin());
    }
    if (level < 0) {
      // Multi-variable (or out-of-scope) guard: cannot refine. Walk both
      // arms with over-approximated domains.
      bool saved = exact;
      exact = false;
      walk_list(s.then_body, tpos);
      walk_list(s.else_body, epos);
      exact = saved;
      return;
    }
    std::int64_t c = diff.coeff(*sv);
    std::int64_t k = diff.constant_term();
    VarDomain then_d, else_d;
    for (const auto& piece : domains[level].ranges) {
      std::vector<Interval> tv, ev;
      split_guard(s.cmp, c, k, piece, &tv, &ev);
      then_d.ranges.insert(then_d.ranges.end(), tv.begin(), tv.end());
      else_d.ranges.insert(else_d.ranges.end(), ev.begin(), ev.end());
    }
    auto sort_ranges = [](VarDomain& d) {
      std::sort(
          d.ranges.begin(), d.ranges.end(),
          [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
    };
    sort_ranges(then_d);
    sort_ranges(else_d);
    VarDomain saved = domains[level];
    if (then_d.empty() && !s.then_body.empty()) ++out->unreachable_guards;
    if (else_d.empty() && !s.else_body.empty()) ++out->unreachable_guards;
    if (!then_d.empty()) {
      domains[level] = then_d;
      walk_list(s.then_body, tpos);
    }
    if (!else_d.empty()) {
      domains[level] = else_d;
      walk_list(s.else_body, epos);
    }
    domains[level] = saved;
  }
};

}  // namespace

SiteWalk collect_assign_sites(const ir::Stmt& top) {
  SiteWalk out;
  SiteWalker w{&out, {}, {}, {}, true};
  w.walk(top, {});
  return out;
}

namespace {

void collect_expr_refs(const ir::Program& program, const ir::Expr& e,
                       const AssignSite& site, std::vector<AffineRef>* out) {
  switch (e.kind) {
    case ir::ExprKind::kArrayRef: {
      AffineRef r;
      r.array = program.array(e.array).name;
      r.subscripts = e.subscripts;
      r.loop_vars = site.loop_vars;
      r.domains = site.domains;
      r.body_pos = site.path;
      r.exact_domain = site.exact_domain;
      out->push_back(std::move(r));
      break;
    }
    case ir::ExprKind::kScalarRef: {
      AffineRef r;
      r.scalar = e.scalar;
      r.loop_vars = site.loop_vars;
      r.domains = site.domains;
      r.body_pos = site.path;
      r.exact_domain = site.exact_domain;
      out->push_back(std::move(r));
      break;
    }
    default:
      break;
  }
  for (const auto& o : e.operands)
    collect_expr_refs(program, *o, site, out);
}

}  // namespace

std::vector<AffineRef> site_refs(const ir::Program& program,
                                 const AssignSite& site) {
  std::vector<AffineRef> out;
  const ir::Stmt& s = *site.stmt;
  if (s.rhs) collect_expr_refs(program, *s.rhs, site, &out);
  AffineRef w;
  if (s.kind == ir::StmtKind::kArrayAssign) {
    w.array = program.array(s.lhs_array).name;
    w.subscripts = s.lhs_subscripts;
  } else {
    w.scalar = s.lhs_scalar;
    w.reduction = ir::reduction_shape(s, &w.reduction_op);
  }
  w.write = true;
  w.loop_vars = site.loop_vars;
  w.domains = site.domains;
  w.body_pos = site.path;
  w.exact_domain = site.exact_domain;
  out.push_back(std::move(w));
  return out;
}

RefSet collect_refs(const ir::Program& program, const ir::Stmt& top) {
  RefSet out;
  SiteWalk walk = collect_assign_sites(top);
  out.unreachable_guards = walk.unreachable_guards;
  out.empty_loops = walk.empty_loops;
  for (const auto& site : walk.sites) {
    for (auto& r : site_refs(program, site)) {
      if (!r.exact_domain) ++out.inexact_refs;
      out.refs.push_back(std::move(r));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Element identity on exact domains.

std::optional<std::int64_t> pinned_value(
    const ir::Affine& a, const std::vector<std::string>& vars,
    const std::vector<VarDomain>& domains) {
  std::int64_t value = a.constant_term();
  for (const auto& [name, coeff] : a.terms()) {
    const auto it = std::find(vars.begin(), vars.end(), name);
    if (it == vars.end()) return std::nullopt;
    const VarDomain& d = domains[static_cast<std::size_t>(it - vars.begin())];
    if (d.size() != 1) return std::nullopt;
    value += coeff * d.ranges.front().lo;
  }
  return value;
}

namespace {

/// Is every value of `inner` also a value of `outer`?
bool within(const VarDomain& inner, const VarDomain& outer) {
  for (const Interval& piece : inner.ranges) {
    std::int64_t covered = 0;
    for (const Interval& o : outer.ranges)
      covered +=
          Interval{std::max(piece.lo, o.lo), std::min(piece.hi, o.hi)}.size();
    if (covered != piece.size()) return false;
  }
  return true;
}

}  // namespace

bool runs_within(const AffineRef& r, const AffineRef& w) {
  if (!w.exact_domain) return false;
  for (std::size_t l = 0; l < w.loop_vars.size(); ++l) {
    const auto it =
        std::find(r.loop_vars.begin(), r.loop_vars.end(), w.loop_vars[l]);
    if (it == r.loop_vars.end() ||
        !within(r.domains[static_cast<std::size_t>(it - r.loop_vars.begin())],
                w.domains[l]))
      return false;
  }
  return true;
}

bool names_element(const AffineRef& r,
                   const std::vector<ir::Affine>& canonical) {
  if (canonical.size() != r.subscripts.size()) return false;
  for (std::size_t d = 0; d < canonical.size(); ++d) {
    const auto v =
        pinned_value(r.subscripts[d] - canonical[d], r.loop_vars, r.domains);
    if (!v.has_value() || *v != 0) return false;
  }
  return true;
}

std::optional<Interval> affine_range(const AffineRef& r, const ir::Affine& a) {
  Interval out{a.constant_term(), a.constant_term()};
  for (const auto& [name, coeff] : a.terms()) {
    const auto it = std::find(r.loop_vars.begin(), r.loop_vars.end(), name);
    if (it == r.loop_vars.end()) return std::nullopt;
    const Interval h =
        r.domains[static_cast<std::size_t>(it - r.loop_vars.begin())].hull();
    out.lo += coeff * (coeff > 0 ? h.lo : h.hi);
    out.hi += coeff * (coeff > 0 ? h.hi : h.lo);
  }
  return out;
}

bool reads_written_rows(const AffineRef& r, int r_top, const AffineRef& w,
                        int w_top, bool r_after_w) {
  if (w.subscripts.empty() || r.subscripts.empty()) return false;
  const std::optional<std::string> var = w.subscripts[0].single_var();
  if (!w.exact_domain || !var || w.subscripts[0] != ir::Affine::var(*var))
    return false;
  std::optional<Interval> rows;
  for (std::size_t l = 0; l < w.loop_vars.size(); ++l) {
    if (w.domains[l].empty()) return false;
    if (w.loop_vars[l] != *var) continue;
    if (w.domains[l].ranges.size() != 1) return false;
    rows = w.domains[l].ranges.front();
  }
  const std::optional<Interval> read = affine_range(r, r.subscripts[0]);
  if (!rows || !read || read->lo < rows->lo || read->hi > rows->hi)
    return false;
  if (r_top != w_top) return r_top > w_top;
  if (r_after_w && runs_within(r, w) && names_element(r, w.subscripts))
    return true;
  return !r.loop_vars.empty() && !w.loop_vars.empty() &&
         r.domains.front().hull().lo > w.domains.front().hull().hi;
}

// ---------------------------------------------------------------------------
// summarize_dependences

namespace {

bool same_space(const AffineRef& a, const AffineRef& b) {
  return a.array == b.array && a.scalar == b.scalar;
}

/// Conflict feasibility for a ref pair from top statements ta, tb with no
/// identified common loops. For same-statement pairs (identical body_pos)
/// the same-iteration case is excluded: the lhs store happens after the
/// rhs loads of the same instance, so only distinct iterations can
/// produce an event-ordered dependence.
Feasibility refs_conflict(const AffineRef& a, const AffineRef& b,
                          bool same_top) {
  if (!a.subscripts.empty() || !b.subscripts.empty()) {
    if (a.subscripts.size() != b.subscripts.size())
      return {Verdict::kUnknown, "dim-mismatch", {}};
  }
  if (!same_top || a.body_pos != b.body_pos) return PairSystem(a, b).solve();
  return lex_conflict(a, b,
                      same_levels(static_cast<int>(a.loop_vars.size())),
                      {{{-kSpan, -1}, {1, kSpan}}});
}

}  // namespace

DependenceSummary summarize_dependences(const ir::Program& program) {
  DependenceSummary out;
  std::vector<RefSet> refsets;
  refsets.reserve(program.top().size());
  for (const auto& s : program.top()) {
    refsets.push_back(collect_refs(program, *s));
    out.inexact_refs += refsets.back().inexact_refs;
  }
  int n = static_cast<int>(refsets.size());
  for (int ta = 0; ta < n; ++ta) {
    for (int tb = ta; tb < n; ++tb) {
      // Group conflicting spaces for this statement pair.
      std::vector<std::pair<std::string, std::string>> spaces;
      for (const auto& ra : refsets[ta].refs) {
        for (const auto& rb : refsets[tb].refs) {
          if (!same_space(ra, rb) || (!ra.write && !rb.write)) continue;
          auto key = std::make_pair(ra.array, ra.scalar);
          if (std::find(spaces.begin(), spaces.end(), key) == spaces.end())
            spaces.push_back(key);
        }
      }
      for (const auto& [arr, sc] : spaces) {
        StmtDependence d;
        d.stmt_a = ta;
        d.stmt_b = tb;
        d.array = arr;
        d.scalar = sc;
        d.verdict = Verdict::kIndependent;
        d.decided_by = "no-pair";
        for (const auto& ra : refsets[ta].refs) {
          if (ra.array != arr || ra.scalar != sc) continue;
          for (const auto& rb : refsets[tb].refs) {
            if (rb.array != arr || rb.scalar != sc) continue;
            if (!ra.write && !rb.write) continue;
            if (ta == tb && &ra > &rb) continue;  // unordered, skip dups
            Feasibility f = refs_conflict(ra, rb, ta == tb);
            if (f.verdict == Verdict::kDependent) {
              d.verdict = Verdict::kDependent;
              d.decided_by = f.decided_by;
            } else if (f.verdict == Verdict::kUnknown &&
                       d.verdict != Verdict::kDependent) {
              d.verdict = Verdict::kUnknown;
              d.decided_by = f.decided_by;
            } else if (f.verdict == Verdict::kIndependent &&
                       d.verdict == Verdict::kIndependent &&
                       d.decided_by == std::string("no-pair")) {
              d.decided_by = f.decided_by;
            }
          }
        }
        out.pairs.push_back(d);
        switch (d.verdict) {
          case Verdict::kIndependent:
            ++out.independent;
            break;
          case Verdict::kDependent:
            ++out.dependent;
            break;
          case Verdict::kUnknown:
            ++out.unknown;
            break;
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// certify_parallel_accesses

Verdict certify_parallel_accesses(const std::vector<LinearAccess>& accesses,
                                  std::int64_t lower, std::int64_t upper) {
  if (lower > upper) return Verdict::kIndependent;
  bool unknown = false;
  std::int64_t trip = upper - lower + 1;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    for (std::size_t j = 0; j < accesses.size(); ++j) {
      const LinearAccess& w = accesses[i];
      const LinearAccess& o = accesses[j];
      if (!w.write) continue;
      if (w.space != o.space) continue;
      if (j < i && o.write) continue;  // write-write pairs once
      // Overlap at iterations x != y:
      //   |(w.base + w.coeff*x) - (o.base + o.coeff*y)| < elem
      // with elem = max width. Encoded as equality with a slack byte
      // offset t in (-elem, elem) and a nonzero iteration delta.
      std::int64_t elem = std::max(w.elem_bytes, o.elem_bytes);
      if (w.coeff == o.coeff) {
        // Equal strides s: the overlap needs |d - s*delta| < elem for
        // delta = y - x, d = w.base - o.base, so at most 2*elem/|s| + 1
        // deltas qualify; try each. Lowering certifies every stream loop,
        // and the two solver systems below would cost it about half again
        // its time on generated programs.
        const std::int64_t s = w.coeff, d = w.base - o.base;
        const auto hits = [&](std::int64_t delta) {
          return delta != 0 && delta >= -(trip - 1) && delta <= trip - 1 &&
                 std::abs(d - s * delta) < elem;
        };
        bool conflict = s == 0 ? hits(1) : false;
        if (s != 0) {
          const std::int64_t a = (d - elem) / s, b = (d + elem) / s;
          for (std::int64_t delta = std::min(a, b) - 1;
               delta <= std::max(a, b) + 1 && !conflict; ++delta)
            conflict = hits(delta);
        }
        if (conflict) return Verdict::kDependent;
        continue;
      }
      for (int sign = -1; sign <= 1; sign += 2) {
        std::vector<VarDomain> domains;
        domains.push_back(VarDomain::range(lower, upper));  // x
        domains.push_back(VarDomain::range(lower, upper));  // y
        domains.push_back(
            VarDomain::range(-(elem - 1), elem - 1));  // t (byte offset)
        // delta = y - x, constrained to one sign
        domains.push_back(sign < 0 ? VarDomain::range(-(trip - 1), -1)
                                   : VarDomain::range(1, trip - 1));
        LinEq overlap;  // w.base + w.coeff*x - o.base - o.coeff*y - t == 0
        overlap.terms.push_back({0, w.coeff});
        overlap.terms.push_back({1, -o.coeff});
        overlap.terms.push_back({2, -1});
        overlap.constant = w.base - o.base;
        LinEq delta;  // y - x - d == 0
        delta.terms.push_back({1, 1});
        delta.terms.push_back({0, -1});
        delta.terms.push_back({3, -1});
        Feasibility f = solve_system(std::move(domains),
                                     {std::move(overlap), std::move(delta)});
        if (f.verdict == Verdict::kDependent) return Verdict::kDependent;
        if (f.verdict == Verdict::kUnknown) unknown = true;
      }
    }
  }
  return unknown ? Verdict::kUnknown : Verdict::kIndependent;
}

}  // namespace bwc::verify
