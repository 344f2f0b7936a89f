#include "bwc/runtime/interpreter.h"

#include <algorithm>
#include <functional>

#include "bwc/runtime/recorder.h"
#include "bwc/support/error.h"

namespace bwc::runtime {

double intrinsic_f(double x, double y) { return 0.6 * x + 0.4 * y; }
double intrinsic_g(double x, double y) { return 0.7 * x - 0.3 * y; }

int initial_key(const std::string& array_name) {
  const std::size_t h = std::hash<std::string>{}(array_name);
  // Keep clear of small user-chosen input keys.
  return static_cast<int>((h & 0x3fffffff) | 0x40000000);
}

namespace {

using ir::Affine;
using ir::ArrayId;
using ir::Expr;
using ir::ExprKind;
using ir::Program;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtList;

/// Execution state: array storage, scalar values, loop-variable bindings.
class Machine {
 public:
  Machine(const Program& program, const ExecOptions& opts)
      : program_(program),
        recorder_(opts.hierarchy),
        bases_(ir::array_base_addresses(program)) {
    for (int a = 0; a < program.array_count(); ++a) {
      const auto& decl = program.array(a);
      // The layout decides the simulated address range (bases_ and the
      // slot scale); storage stays logical-dense, only addresses move.
      addr_scale_.push_back(ir::resolve_addressing(program, a).addr_scale);
      layout_default_.push_back(decl.layout.order.empty() &&
                                decl.layout.pad.empty());
      layout_strides_.push_back(decl.layout_strides());
      // Deterministic nonzero initial contents keyed by the array's name.
      const int key = initial_key(decl.name);
      std::vector<double>& data = storage_.emplace_back();
      const std::int64_t n = decl.element_count();
      data.resize(static_cast<std::size_t>(n));
      for (std::int64_t k = 0; k < n; ++k)
        data[static_cast<std::size_t>(k)] = ir::input_value(key, k);
    }
    for (const auto& s : program.scalars()) scalars_[s] = 0.0;
  }

  void run() { run_body(program_.top()); }

  ExecResult result() const {
    ExecResult r;
    r.flops = recorder_.flop_count();
    r.loads = recorder_.load_count();
    r.stores = recorder_.store_count();
    if (recorder_.hierarchy() != nullptr) r.profile = recorder_.profile();
    r.scalars = scalars_;
    r.array_bases = bases_;
    double checksum = 0.0;
    for (const auto& name : program_.output_scalars())
      checksum += scalars_.at(name);
    for (ArrayId a : program_.output_arrays()) {
      for (double x : storage_[static_cast<std::size_t>(a)]) checksum += x;
    }
    r.checksum = checksum;
    return r;
  }

 private:
  std::int64_t eval_affine(const Affine& a) const {
    std::int64_t value = a.constant_term();
    for (const auto& [name, coeff] : a.terms()) {
      value += coeff * lookup_loop_var(name);
    }
    return value;
  }

  std::int64_t lookup_loop_var(const std::string& name) const {
    for (auto it = loop_env_.rbegin(); it != loop_env_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    throw Error("reference to unbound loop variable: " + name);
  }

  /// Evaluate subscripts to 1-based indices, then to (address, linear).
  /// `linear` is the logical storage index (layout-invariant); the address
  /// follows the declared layout. Reuses a scratch index buffer so
  /// steady-state replay does not pay a heap allocation per reference.
  std::pair<std::uint64_t, std::int64_t> locate(
      ArrayId array, const std::vector<Affine>& subs) const {
    const auto& decl = program_.array(array);
    std::vector<std::int64_t>& idx = idx_scratch_;
    idx.resize(subs.size());
    for (std::size_t d = 0; d < subs.size(); ++d) idx[d] = eval_affine(subs[d]);
    const std::int64_t linear = decl.linearize(idx);
    std::int64_t layout_offset = linear;
    if (!layout_default_[static_cast<std::size_t>(array)]) {
      const auto& strides = layout_strides_[static_cast<std::size_t>(array)];
      layout_offset = 0;
      for (std::size_t d = 0; d < idx.size(); ++d)
        layout_offset += (idx[d] - 1) * strides[d];
    }
    const std::uint64_t addr =
        bases_[static_cast<std::size_t>(array)] +
        static_cast<std::uint64_t>(layout_offset) *
            addr_scale_[static_cast<std::size_t>(array)];
    return {addr, linear};
  }

  double eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kConst:
        return e.value;
      case ExprKind::kScalarRef: {
        const auto it = scalars_.find(e.scalar);
        BWC_CHECK(it != scalars_.end(),
                  "reference to undeclared scalar: " + e.scalar);
        return it->second;
      }
      case ExprKind::kLoopVar:
        return static_cast<double>(lookup_loop_var(e.loop_var));
      case ExprKind::kArrayRef: {
        const auto [addr, linear] = locate(e.array, e.subscripts);
        recorder_.load(addr, program_.array(e.array).elem_bytes);
        return storage_[static_cast<std::size_t>(e.array)]
                       [static_cast<std::size_t>(linear)];
      }
      case ExprKind::kBinary: {
        const double a = eval(*e.operands[0]);
        const double b = eval(*e.operands[1]);
        recorder_.flops(ir::kBinaryFlops);
        switch (e.op) {
          case ir::BinOp::kAdd:
            return a + b;
          case ir::BinOp::kSub:
            return a - b;
          case ir::BinOp::kMul:
            return a * b;
          case ir::BinOp::kDiv:
            return a / b;
          case ir::BinOp::kMin:
            return std::min(a, b);
          case ir::BinOp::kMax:
            return std::max(a, b);
        }
        throw Error("unknown binary op");
      }
      case ExprKind::kCall: {
        recorder_.flops(static_cast<std::uint64_t>(e.call_flops));
        if (e.callee == "f") {
          BWC_CHECK(e.operands.size() == 2, "f() takes two arguments");
          const double a = eval(*e.operands[0]);
          const double b = eval(*e.operands[1]);
          return intrinsic_f(a, b);
        }
        if (e.callee == "g") {
          BWC_CHECK(e.operands.size() == 2, "g() takes two arguments");
          const double a = eval(*e.operands[0]);
          const double b = eval(*e.operands[1]);
          return intrinsic_g(a, b);
        }
        throw Error("unknown intrinsic: " + e.callee);
      }
      case ExprKind::kInput: {
        // Deterministic external value; arity-checked linearization against
        // the original stream extents.
        std::int64_t linear = 0;
        std::int64_t stride = 1;
        BWC_CHECK(e.subscripts.size() == e.input_extents.size(),
                  "input subscript arity mismatch");
        for (std::size_t d = 0; d < e.subscripts.size(); ++d) {
          const std::int64_t idx = eval_affine(e.subscripts[d]) - 1;
          BWC_CHECK(idx >= 0 && idx < e.input_extents[d],
                    "input subscript out of range");
          linear += idx * stride;
          stride *= e.input_extents[d];
        }
        return ir::input_value(e.input_key, linear);
      }
    }
    throw Error("unknown expression kind");
  }

  void run_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kArrayAssign: {
        const double value = eval(*s.rhs);
        const auto [addr, linear] = locate(s.lhs_array, s.lhs_subscripts);
        recorder_.store(addr, program_.array(s.lhs_array).elem_bytes);
        storage_[static_cast<std::size_t>(s.lhs_array)]
                [static_cast<std::size_t>(linear)] = value;
        return;
      }
      case StmtKind::kScalarAssign: {
        const double value = eval(*s.rhs);
        const auto it = scalars_.find(s.lhs_scalar);
        BWC_CHECK(it != scalars_.end(),
                  "assignment to undeclared scalar: " + s.lhs_scalar);
        it->second = value;
        return;
      }
      case StmtKind::kIf: {
        const bool taken = ir::evaluate_cmp(s.cmp, eval_affine(s.cmp_lhs),
                                            eval_affine(s.cmp_rhs));
        run_body(taken ? s.then_body : s.else_body);
        return;
      }
      case StmtKind::kLoop: {
        loop_env_.emplace_back(s.loop->var, 0);
        for (std::int64_t i = s.loop->lower; i <= s.loop->upper; ++i) {
          loop_env_.back().second = i;
          run_body(s.loop->body);
        }
        loop_env_.pop_back();
        return;
      }
    }
    throw Error("unknown statement kind");
  }

  void run_body(const StmtList& body) {
    for (const auto& s : body) run_stmt(*s);
  }

  const Program& program_;
  Recorder recorder_;
  std::vector<std::uint64_t> bases_;
  std::vector<std::uint64_t> addr_scale_;
  std::vector<bool> layout_default_;
  std::vector<std::vector<std::int64_t>> layout_strides_;
  std::vector<std::vector<double>> storage_;
  std::map<std::string, double> scalars_;
  std::vector<std::pair<std::string, std::int64_t>> loop_env_;
  mutable std::vector<std::int64_t> idx_scratch_;
};

}  // namespace

ExecResult execute(const ir::Program& program, const ExecOptions& opts) {
  Machine m(program, opts);
  m.run();
  return m.result();
}

}  // namespace bwc::runtime
