// Symbolic dependence tests over affine subscripts: the static analogue of
// the trace-based translation validator.
//
// Everything here reasons about *bounded integer linear systems*: each loop
// variable ranges over a guard-refined union of intervals (refined through
// kIf statements with the shared interval.h splitter), each subscript
// dimension of a conflicting reference pair contributes one linear equation,
// and scheduling questions (can the conflict happen at a lexicographically
// earlier iteration?) add bounded difference constraints. The solver layers
// the classical tests -- ZIV, GCD, Banerjee interval bounds, strong-SIV
// pinning -- on top of exact +/-1-pivot Gaussian elimination, and answers
// with a three-valued verdict:
//
//   kIndependent  proven: the system has no integer solution
//   kDependent    proven: an explicit in-domain witness was found
//   kUnknown      neither proof succeeded (callers must treat this
//                 conservatively, e.g. fall back to trace validation)
//
// Both directions are sound; only kUnknown loses precision. The module
// depends on support/ + ir/ only (the verify charter), so the optimizer's
// legality queries (analysis/dependence), the runtime and the lint pass
// can all consume it without layering cycles.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bwc/ir/program.h"
#include "bwc/verify/interval.h"

namespace bwc::verify {

enum class Verdict { kIndependent, kDependent, kUnknown };

/// The solver's saturation bound, and the span of an unbounded iteration
/// difference: large enough that real loop bounds never clip, small enough
/// that sums and products of clamped values cannot overflow int64.
inline constexpr std::int64_t kSpan = std::int64_t{1} << 60;

// ---------------------------------------------------------------------------
// Bounded integer linear systems.

/// A variable's domain: a union of disjoint, sorted, non-empty closed
/// intervals. An empty `ranges` vector means the variable has no legal
/// value (the whole system is infeasible).
struct VarDomain {
  std::vector<Interval> ranges;

  static VarDomain range(std::int64_t lo, std::int64_t hi);
  static VarDomain singleton(std::int64_t v) { return range(v, v); }

  Interval hull() const;
  bool empty() const;
  bool contains(std::int64_t v) const;
  std::int64_t size() const;
  /// Intersect every piece with [lo, hi] (may leave the domain empty).
  void clip(std::int64_t lo, std::int64_t hi);
};

/// coeff * var (var indexes into the system's domain vector).
struct LinTerm {
  int var = 0;
  std::int64_t coeff = 0;
};

/// sum(terms) + constant == 0.
struct LinEq {
  std::vector<LinTerm> terms;
  std::int64_t constant = 0;
};

/// Outcome of a feasibility query, with provenance for diagnostics.
struct Feasibility {
  Verdict verdict = Verdict::kUnknown;
  /// Which test decided: "empty-domain", "ziv", "gcd", "banerjee", "siv",
  /// "witness"; "" when undecided.
  const char* decided_by = "";
  /// Per-variable solution when verdict == kDependent.
  std::vector<std::int64_t> witness;
};

/// Decide whether {all eqs == 0, var i in domains[i]} has an integer
/// solution. Exact elimination + ZIV/GCD/Banerjee/SIV refutation, greedy
/// back-substitution witness search.
Feasibility solve_system(std::vector<VarDomain> domains,
                         std::vector<LinEq> eqs);

// ---------------------------------------------------------------------------
// References and pairwise conflict systems.

/// One array or scalar reference inside its (guard-refined) loop nest.
struct AffineRef {
  /// Enclosing loop variables, outermost first, with their refined domains.
  std::vector<std::string> loop_vars;
  std::vector<VarDomain> domains;
  /// Subscript expressions over loop_vars; empty for scalar references.
  std::vector<ir::Affine> subscripts;
  /// Referenced space: exactly one of array / scalar is set.
  std::string array;
  std::string scalar;
  bool write = false;
  /// The write comes from a commutative reduction `s = s op expr`.
  bool reduction = false;
  ir::BinOp reduction_op = ir::BinOp::kAdd;
  /// Position of the owning statement inside its top-level statement
  /// (indices down the statement tree), used to order same-iteration events.
  std::vector<int> body_pos;
  /// Domains are exact. False when an enclosing guard could not be split
  /// (multi-variable condition): the domains over-approximate, so
  /// independence proofs remain sound but dependence proofs are disabled.
  bool exact_domain = true;
};

/// The joint linear system of a reference pair. Variables 0..|a|-1 are a's
/// loop levels (outermost first), then b's levels. Subscript-equality
/// equations are added on construction; callers add scheduling constraints
/// via bound_difference(), then solve(). Copy the system to solve several
/// constraint variants of one pair.
class PairSystem {
 public:
  PairSystem(const AffineRef& a, const AffineRef& b);

  /// False when the pair cannot be modelled (subscript dimension mismatch
  /// or a subscript using a variable outside the recorded nest); solve()
  /// then returns kUnknown.
  bool well_formed() const { return well_formed_; }

  int a_var(int level) const { return level; }
  int b_var(int level) const { return a_levels_ + level; }

  /// Add the constraint (value_b) - (value_a) in [range.lo, range.hi],
  /// where value_x = var + shift, or just shift when var < 0 (constant
  /// side). Implemented as an equation with a fresh bounded slack variable.
  void bound_difference(int var_a, std::int64_t shift_a, int var_b,
                        std::int64_t shift_b, Interval range);

  /// Constrain a single variable to [range.lo, range.hi].
  void bound_var(int var, Interval range);

  Feasibility solve() const;

 private:
  int a_levels_ = 0;
  bool well_formed_ = true;
  bool exact_ = true;  // both refs had exact domains
  std::vector<VarDomain> domains_;
  std::vector<LinEq> eqs_;
};

/// One level of a reference pair's common schedule: the iteration value on
/// each side is `level var + shift`, or just `shift` when the level is -1
/// (that side runs at one fixed value, e.g. a loop embedded at one outer
/// iteration of a deeper nest).
struct LevelPair {
  int a_level = -1;
  std::int64_t a_shift = 0;
  int b_level = -1;
  std::int64_t b_shift = 0;
};

/// Each reference's first `n` loop levels paired with the other's.
std::vector<LevelPair> same_levels(int n);

/// Lexicographic-order conflict: can `a` and `b` touch a common element at
/// iterations whose differences (b value - a value) over `levels` are zero
/// on some prefix [0, l) and lie in `first` at level l? Each l, and each
/// interval of `first`, is tried in turn: the first kDependent answer is
/// returned; otherwise kUnknown when some variant was undecided (an
/// ill-formed pair is undecided), else kIndependent -- also when `levels`
/// is empty, since a single schedule point has no earlier instance.
Feasibility lex_conflict(const AffineRef& a, const AffineRef& b,
                         const std::vector<LevelPair>& levels,
                         const VarDomain& first);

// ---------------------------------------------------------------------------
// Program-level reference collection and dependence summary.

/// One assignment statement in its guard-refined loop context, as
/// discovered by walking a top-level statement in execution order.
struct AssignSite {
  const ir::Stmt* stmt = nullptr;
  /// Enclosing loop variables (outermost first) with refined domains.
  std::vector<std::string> loop_vars;
  std::vector<VarDomain> domains;
  /// Child-index path from the top statement: statement-list indices, with
  /// guard arms contributing 0 (then) or 1 (else). Lexicographic order of
  /// paths is same-iteration execution order.
  std::vector<int> path;
  /// Per loop level, the length of the `path` prefix that addresses the
  /// loop statement: two sites (of one top statement) share level l iff
  /// their loop_addr[l] and path prefixes of that length agree.
  std::vector<int> loop_addr;
  /// Domains are exact (no unrefinable guard on the way down).
  bool exact_domain = true;
};

struct SiteWalk {
  std::vector<AssignSite> sites;  // in execution order
  int unreachable_guards = 0;     // guard arms proven empty (for lint)
  int empty_loops = 0;            // loops with a body that never runs
  int inexact_sites = 0;
};

/// Walk one top-level statement, refining loop domains through guards with
/// the interval.h splitter, and return every assignment site.
SiteWalk collect_assign_sites(const ir::Stmt& top);

/// The references of one assignment site: rhs reads (pre-order), then the
/// lhs write, all carrying the site's loop context.
std::vector<AffineRef> site_refs(const ir::Program& program,
                                 const AssignSite& site);

/// All references of one top-level statement, with guard-refined domains.
struct RefSet {
  std::vector<AffineRef> refs;
  /// Number of references sitting under guards the splitter cannot refine
  /// (their domains over-approximate; see AffineRef::exact_domain).
  int inexact_refs = 0;
  /// Guard arms proven unreachable while collecting (for lint).
  int unreachable_guards = 0;
  /// Loops whose body never runs; their references are skipped too.
  int empty_loops = 0;

  /// Code the walk skipped: a syntactic rewrite must not touch references
  /// its decision never saw.
  bool has_unreachable_code() const {
    return unreachable_guards > 0 || empty_loops > 0;
  }
};

RefSet collect_refs(const ir::Program& program, const ir::Stmt& top);

// ---------------------------------------------------------------------------
// Element identity on exact domains: the storage passes decide with these,
// and the static provers re-check the passes' decisions with the same code.

/// The one value `a` takes wherever a loop context runs, when its domains
/// pin every variable `a` uses; nullopt otherwise. An over-approximated
/// domain still pins soundly: the context runs inside it.
std::optional<std::int64_t> pinned_value(
    const ir::Affine& a, const std::vector<std::string>& vars,
    const std::vector<VarDomain>& domains);

/// Does `r` run only at iterations where `w` runs? Each of w's loop
/// variables must bound one of r's, whose domain lies inside w's. A
/// domain that over-approximates (a guard the splitter cannot refine)
/// vouches for nothing.
bool runs_within(const AffineRef& r, const AffineRef& w);

/// Does `r` name the element `canonical` wherever it runs?
bool names_element(const AffineRef& r,
                   const std::vector<ir::Affine>& canonical);

/// The values `a` takes over the hulls of `r`'s domains, or nullopt when
/// it uses a variable outside r's context.
std::optional<Interval> affine_range(const AffineRef& r, const ir::Affine& a);

/// Does read `r` (in top-level statement `r_top`) of one column of a 2-D
/// array see only values that write `w` (in statement `w_top`) stored to
/// it? `w` must cover whole rows -- its row subscript is one of its loop
/// variables, whose exact domain is one interval -- and `r` must read rows
/// within those, after `w`: in a later statement, in w's statement at an
/// iteration of the outermost loop after w's last, or, when `r_after_w`
/// (r follows w in program order), at w's element wherever r runs. The
/// peel fact reduce-storage plans with and its static proof re-checks.
bool reads_written_rows(const AffineRef& r, int r_top, const AffineRef& w,
                        int w_top, bool r_after_w);

/// Statement-pair dependence fact: can some instance of top-level statement
/// `stmt_a` and some instance of `stmt_b` touch a common element of `array`
/// (or of scalar `scalar`) with at least one side writing, in distinct
/// events? For stmt_a == stmt_b, same-statement same-iteration pairs are
/// excluded (the lhs store happens after the rhs loads).
struct StmtDependence {
  int stmt_a = 0;
  int stmt_b = 0;
  std::string array;   // set for array conflicts
  std::string scalar;  // set for scalar conflicts
  Verdict verdict = Verdict::kUnknown;
  const char* decided_by = "";
};

struct DependenceSummary {
  std::vector<StmtDependence> pairs;
  int independent = 0;
  int dependent = 0;
  int unknown = 0;
  /// References the affine model could not capture exactly.
  int inexact_refs = 0;
};

/// Test every top-level statement pair (including self pairs) that shares
/// an array or scalar with at least one write.
DependenceSummary summarize_dependences(const ir::Program& program);

// ---------------------------------------------------------------------------
// Order-free (parallel-safety) certificate for 1-D stream loops.

/// One byte-linear access of a stream loop: iteration i of [lower, upper]
/// touches bytes [base + coeff*i, base + coeff*i + elem_bytes).
struct LinearAccess {
  bool write = false;
  std::int64_t base = 0;        // bytes
  std::int64_t coeff = 0;       // bytes per iteration
  std::int64_t elem_bytes = 8;  // access width
  /// Address space tag; accesses in different spaces never alias.
  int space = 0;
};

/// Can the loop's iterations run in any order, or concurrently?
/// kIndependent: proven safe -- no two *distinct* iterations touch
/// overlapping bytes with a write involved, so any reordering or split
/// of the trip range computes the same values; the stream-loop values
/// kernels (runtime/fastforward.cpp) rely on it. kDependent: a
/// cross-iteration conflict witness exists (unsafe). kUnknown: undecided.
Verdict certify_parallel_accesses(const std::vector<LinearAccess>& accesses,
                                  std::int64_t lower, std::int64_t upper);

}  // namespace bwc::verify
