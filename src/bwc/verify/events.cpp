#include "bwc/verify/events.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>

#include "bwc/support/error.h"
#include "bwc/verify/structure.h"

namespace bwc::verify {

namespace {

// Location encoding: bit 63 tags scalars; arrays use (slot << 40) | element.
constexpr std::uint64_t kScalarTag = 1ull << 63;
constexpr int kElementBits = 40;
constexpr std::uint64_t kElementMask = (1ull << kElementBits) - 1;

std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  // splitmix64-style mixing.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash_double(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

int LocationSpace::array_slot(const std::string& name,
                              std::uint64_t elem_bytes) {
  const auto it = array_slots_.find(name);
  if (it != array_slots_.end()) return it->second;
  const int slot = static_cast<int>(array_names_.size());
  array_slots_.emplace(name, slot);
  array_names_.push_back(name);
  array_elem_bytes_.push_back(elem_bytes);
  return slot;
}

int LocationSpace::scalar_slot(const std::string& name) {
  const auto it = scalar_slots_.find(name);
  if (it != scalar_slots_.end()) return it->second;
  const int slot = static_cast<int>(scalar_names_.size());
  scalar_slots_.emplace(name, slot);
  scalar_names_.push_back(name);
  return slot;
}

Location LocationSpace::array_element(int slot, std::int64_t element) const {
  return (static_cast<std::uint64_t>(slot) << kElementBits) |
         (static_cast<std::uint64_t>(element) & kElementMask);
}

Location LocationSpace::scalar(int slot) const {
  return kScalarTag | static_cast<std::uint64_t>(slot);
}

bool LocationSpace::is_scalar(Location loc) const {
  return (loc & kScalarTag) != 0;
}

int LocationSpace::slot_of(Location loc) const {
  if (is_scalar(loc)) return static_cast<int>(loc & ~kScalarTag);
  return static_cast<int>(loc >> kElementBits);
}

std::int64_t LocationSpace::element_of(Location loc) const {
  return static_cast<std::int64_t>(loc & kElementMask);
}

const std::string& LocationSpace::array_name(int slot) const {
  return array_names_[static_cast<std::size_t>(slot)];
}

const std::string& LocationSpace::scalar_name(int slot) const {
  return scalar_names_[static_cast<std::size_t>(slot)];
}

std::uint64_t LocationSpace::array_elem_bytes(int slot) const {
  return array_elem_bytes_[static_cast<std::size_t>(slot)];
}

std::string LocationSpace::describe(Location loc) const {
  if (is_scalar(loc)) return scalar_name(slot_of(loc));
  std::ostringstream os;
  os << array_name(slot_of(loc)) << "[+" << element_of(loc) << "]";
  return os.str();
}

std::string Instance::describe() const {
  std::ostringstream os;
  os << "stmt #" << top_index;
  if (!iters.empty()) {
    os << " (";
    for (std::size_t d = 0; d < iters.size(); ++d) {
      if (d > 0) os << ", ";
      os << "iter" << d << "=" << iters[d];
    }
    os << ")";
  }
  return os.str();
}

namespace {

/// Execution-order walker. Loop variables are kept on an explicit stack of
/// (name, value) bindings; affine expressions and guards are evaluated
/// exactly over those bindings.
class Tracer {
 public:
  Tracer(const ir::Program& program, LocationSpace& space,
         std::uint64_t max_events, Report* report, EventTrace* out)
      : program_(program),
        space_(space),
        max_events_(max_events),
        report_(report),
        out_(out) {
    array_slot_of_id_.resize(static_cast<std::size_t>(program.array_count()));
    for (int a = 0; a < program.array_count(); ++a) {
      const ir::ArrayDecl& decl = program.array(a);
      array_slot_of_id_[static_cast<std::size_t>(a)] =
          space.array_slot(decl.name, decl.elem_bytes);
    }
  }

  void run() {
    for (std::size_t i = 0; i < program_.top().size(); ++i) {
      top_index_ = static_cast<std::int32_t>(i);
      walk(*program_.top()[i]);
      if (out_->truncated) return;
    }
  }

 private:
  std::int64_t eval_affine(const ir::Affine& a) {
    std::int64_t v = a.constant_term();
    for (const auto& [name, coeff] : a.terms()) {
      bool found = false;
      for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
        if (it->first == name) {
          v += coeff * it->second;
          found = true;
          break;
        }
      }
      if (!found) {
        fail("unbound-loop-var",
             "affine expression uses loop variable '" + name +
                 "' outside any enclosing loop");
        return 0;
      }
    }
    return v;
  }

  /// Resolve an array reference to a location; emits a diagnostic and
  /// truncates on out-of-bounds (the structural validator reports the same
  /// condition statically; this is the dynamic backstop).
  Location locate(ir::ArrayId array, const std::vector<ir::Affine>& subs) {
    const ir::ArrayDecl& decl = program_.array(array);
    if (subs.size() != decl.extents.size()) {
      fail("subscript-arity",
           "array '" + decl.name + "' referenced with " +
               std::to_string(subs.size()) + " subscript(s), declared rank " +
               std::to_string(decl.extents.size()));
      return 0;
    }
    std::int64_t linear = 0;
    std::int64_t stride = 1;
    for (std::size_t d = 0; d < subs.size(); ++d) {
      const std::int64_t idx = eval_affine(subs[d]);
      if (idx < 1 || idx > decl.extents[d]) {
        fail("subscript-out-of-bounds",
             "array '" + decl.name + "' dim " + std::to_string(d) +
                 " subscript " + std::to_string(idx) + " outside [1, " +
                 std::to_string(decl.extents[d]) + "]");
        return 0;
      }
      linear += (idx - 1) * stride;
      stride *= decl.extents[d];
    }
    return space_.array_element(array_slot_of_id_[static_cast<std::size_t>(array)],
                                linear);
  }

  /// Evaluate a numeric subtree to its concrete value when it contains only
  /// constants, loop variables and arithmetic over them. Such subtrees fold
  /// to one value in the fingerprint, which makes the hash invariant under
  /// the substitutions the transforms perform (i -> i - s turns a loop-var
  /// use into `i - s` arithmetic that folds back to the same number).
  bool fold_numeric(const ir::Expr& e, double* value) {
    switch (e.kind) {
      case ir::ExprKind::kConst:
        *value = e.value;
        return true;
      case ir::ExprKind::kLoopVar: {
        for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
          if (it->first == e.loop_var) {
            *value = static_cast<double>(it->second);
            return true;
          }
        }
        return false;
      }
      case ir::ExprKind::kBinary: {
        double a = 0.0, b = 0.0;
        if (e.operands.size() != 2) return false;
        if (!fold_numeric(*e.operands[0], &a) ||
            !fold_numeric(*e.operands[1], &b))
          return false;
        switch (e.op) {
          case ir::BinOp::kAdd: *value = a + b; break;
          case ir::BinOp::kSub: *value = a - b; break;
          case ir::BinOp::kMul: *value = a * b; break;
          case ir::BinOp::kDiv: *value = a / b; break;
          case ir::BinOp::kMin: *value = std::min(a, b); break;
          case ir::BinOp::kMax: *value = std::max(a, b); break;
        }
        return true;
      }
      default:
        return false;
    }
  }

  /// Fingerprint the rhs and collect its reads.
  std::uint64_t walk_expr(const ir::Expr& e, std::vector<Location>* reads) {
    double folded = 0.0;
    if (fold_numeric(e, &folded))
      return hash_combine(0x11, hash_double(folded));
    switch (e.kind) {
      case ir::ExprKind::kConst:
      case ir::ExprKind::kLoopVar:
        return 0;  // handled by fold_numeric
      case ir::ExprKind::kScalarRef: {
        const Location loc = space_.scalar(space_.scalar_slot(e.scalar));
        reads->push_back(loc);
        return hash_combine(0x22, loc);
      }
      case ir::ExprKind::kArrayRef: {
        const Location loc = locate(e.array, e.subscripts);
        reads->push_back(loc);
        return hash_combine(0x33, loc);
      }
      case ir::ExprKind::kInput: {
        // Deterministic external value: identified by (key, linear index in
        // the original stream extents). Not a memory access.
        std::int64_t linear = 0;
        std::int64_t stride = 1;
        for (std::size_t d = 0; d < e.subscripts.size(); ++d) {
          linear += (eval_affine(e.subscripts[d]) - 1) * stride;
          if (d < e.input_extents.size()) stride *= e.input_extents[d];
        }
        return hash_combine(
            0x44, hash_combine(static_cast<std::uint64_t>(e.input_key),
                               static_cast<std::uint64_t>(linear)));
      }
      case ir::ExprKind::kBinary: {
        std::uint64_t h = hash_combine(0x55, static_cast<std::uint64_t>(e.op));
        for (const auto& op : e.operands)
          h = hash_combine(h, walk_expr(*op, reads));
        return h;
      }
      case ir::ExprKind::kCall: {
        std::uint64_t h = hash_combine(0x66, std::hash<std::string>{}(e.callee));
        for (const auto& op : e.operands)
          h = hash_combine(h, walk_expr(*op, reads));
        return h;
      }
    }
    return 0;
  }

  /// `s = s op expr` (either operand order) with s not otherwise in expr?
  /// Deliberately a private copy of ir::reduction_shape: the trace
  /// validator is the oracle for the optimizer and the static engine, so
  /// a recognizer bug must not reach all three (docs/VERIFY.md).
  bool reduction_shape(const ir::Stmt& s, ir::BinOp* op) const {
    if (s.kind != ir::StmtKind::kScalarAssign || !s.rhs) return false;
    const ir::Expr& rhs = *s.rhs;
    if (rhs.kind != ir::ExprKind::kBinary || rhs.operands.size() != 2)
      return false;
    if (rhs.op != ir::BinOp::kAdd && rhs.op != ir::BinOp::kMin &&
        rhs.op != ir::BinOp::kMax)
      return false;
    const ir::Expr* self = nullptr;
    const ir::Expr* other = nullptr;
    for (const auto& o : rhs.operands) {
      if (o->kind == ir::ExprKind::kScalarRef && o->scalar == s.lhs_scalar &&
          self == nullptr) {
        self = o.get();
      } else {
        other = o.get();
      }
    }
    if (self == nullptr || other == nullptr) return false;
    // s must not appear inside the other operand.
    bool reappears = false;
    std::function<void(const ir::Expr&)> scan = [&](const ir::Expr& e) {
      if (e.kind == ir::ExprKind::kScalarRef && e.scalar == s.lhs_scalar)
        reappears = true;
      for (const auto& o : e.operands) scan(*o);
    };
    scan(*other);
    if (reappears) return false;
    *op = rhs.op;
    return true;
  }

  void emit(const ir::Stmt& s) {
    Instance inst;
    inst.top_index = top_index_;
    inst.outer_iter = env_.empty() ? 0 : env_.front().second;
    inst.iters.reserve(env_.size());
    for (const auto& [name, value] : env_) inst.iters.push_back(value);

    inst.rhs_hash = s.rhs ? walk_expr(*s.rhs, &inst.reads) : 0;
    if (s.kind == ir::StmtKind::kArrayAssign) {
      inst.write = locate(s.lhs_array, s.lhs_subscripts);
    } else {
      inst.write = space_.scalar(space_.scalar_slot(s.lhs_scalar));
      inst.reduction = reduction_shape(s, &inst.reduction_op);
    }
    if (out_->truncated) return;

    std::sort(inst.reads.begin(), inst.reads.end());
    inst.reads.erase(std::unique(inst.reads.begin(), inst.reads.end()),
                     inst.reads.end());
    out_->event_count += 1 + inst.reads.size();
    out_->instances.push_back(std::move(inst));
    if (out_->event_count > max_events_) {
      out_->truncated = true;
    }
  }

  void walk(const ir::Stmt& s) {
    if (out_->truncated) return;
    switch (s.kind) {
      case ir::StmtKind::kArrayAssign:
      case ir::StmtKind::kScalarAssign:
        emit(s);
        return;
      case ir::StmtKind::kIf: {
        const bool taken = ir::evaluate_cmp(s.cmp, eval_affine(s.cmp_lhs),
                                            eval_affine(s.cmp_rhs));
        const ir::StmtList& body = taken ? s.then_body : s.else_body;
        for (const auto& inner : body) {
          walk(*inner);
          if (out_->truncated) return;
        }
        return;
      }
      case ir::StmtKind::kLoop: {
        const ir::Loop& loop = *s.loop;
        env_.emplace_back(loop.var, 0);
        for (std::int64_t v = loop.lower; v <= loop.upper; ++v) {
          env_.back().second = v;
          for (const auto& inner : loop.body) {
            walk(*inner);
            if (out_->truncated) {
              env_.pop_back();
              return;
            }
          }
        }
        env_.pop_back();
        return;
      }
    }
  }

  void fail(const std::string& code, const std::string& message) {
    if (report_ != nullptr) {
      report_->error(code, message + " (at stmt #" +
                               std::to_string(top_index_) + ")");
    }
    out_->truncated = true;
  }

  const ir::Program& program_;
  LocationSpace& space_;
  std::uint64_t max_events_;
  Report* report_;
  EventTrace* out_;
  std::vector<std::pair<std::string, std::int64_t>> env_;
  std::vector<int> array_slot_of_id_;
  std::int32_t top_index_ = -1;
};

/// Count array/scalar accesses of one statement (assignments only).
std::uint64_t count_accesses(const ir::Expr& e) {
  std::uint64_t n = 0;
  if (e.kind == ir::ExprKind::kScalarRef || e.kind == ir::ExprKind::kArrayRef)
    ++n;
  for (const auto& o : e.operands) n += count_accesses(*o);
  return n;
}

std::uint64_t estimate_stmt(const ir::Stmt& s, std::uint64_t multiplier) {
  switch (s.kind) {
    case ir::StmtKind::kArrayAssign:
    case ir::StmtKind::kScalarAssign:
      return multiplier * (1 + (s.rhs ? count_accesses(*s.rhs) : 0));
    case ir::StmtKind::kIf: {
      std::uint64_t n = 0;
      for (const auto& inner : s.then_body) n += estimate_stmt(*inner, multiplier);
      std::uint64_t m = 0;
      for (const auto& inner : s.else_body) m += estimate_stmt(*inner, multiplier);
      return std::max(n, m);
    }
    case ir::StmtKind::kLoop: {
      const std::uint64_t trips =
          static_cast<std::uint64_t>(std::max<std::int64_t>(
              0, s.loop->trip_count()));
      std::uint64_t n = 0;
      for (const auto& inner : s.loop->body)
        n += estimate_stmt(*inner, multiplier * trips);
      return n;
    }
  }
  return 0;
}

}  // namespace

std::uint64_t estimate_events(const ir::Program& program) {
  std::uint64_t n = 0;
  for (const auto& s : program.top()) n += estimate_stmt(*s, 1);
  return n;
}

EventTrace trace_program(const ir::Program& program, LocationSpace& space,
                         std::uint64_t max_events, Report* report) {
  EventTrace trace;
  Tracer tracer(program, space, max_events, report, &trace);
  tracer.run();
  return trace;
}

bool trace_pair(const ir::Program& a, const ir::Program& b,
                const std::string& role_a, const std::string& role_b,
                const std::function<bool()>& precheck, Report* report,
                LocationSpace* space, EventTrace* ta, EventTrace* tb) {
  const Report s1 = validate_structure(a);
  const Report s2 = validate_structure(b);
  if (!s1.ok() || !s2.ok()) {
    report->error("structure-invalid",
                  "structural validation failed for the " +
                      (!s1.ok() ? role_a : role_b) + " program: " +
                      (!s1.ok() ? s1.first_error() : s2.first_error()));
    return false;
  }
  if (precheck && !precheck()) return false;
  const std::uint64_t est = std::max(estimate_events(a), estimate_events(b));
  if (est > kMaxTraceEvents) {
    report->skipped = true;
    report->skip_reason = "instance-level check needs ~" + std::to_string(est) +
                          " events, budget is " +
                          std::to_string(kMaxTraceEvents);
    return false;
  }
  *ta = trace_program(a, *space, kMaxTraceEvents, report);
  *tb = trace_program(b, *space, kMaxTraceEvents, report);
  if (!report->ok()) return false;
  if (ta->truncated || tb->truncated) {
    report->skipped = true;
    report->skip_reason = "event budget exhausted while tracing";
    return false;
  }
  report->instances_checked = ta->instances.size() + tb->instances.size();
  return true;
}

}  // namespace bwc::verify
