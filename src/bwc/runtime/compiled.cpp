#include "bwc/runtime/compiled.h"

#include <algorithm>
#include <string>
#include <vector>

#include "bwc/runtime/exec_state.h"
#include "bwc/runtime/fastforward.h"
#include "bwc/runtime/recorder.h"
#include "bwc/runtime/stream_exec.h"
#include "bwc/support/error.h"

namespace bwc::runtime {

namespace {

/// Bytecode executor over the shared ExecState (exec_state.h), which
/// mirrors the reference interpreter's Machine exactly (same base-address
/// walk, same deterministic initial contents) so results are
/// bit-identical.
class Vm {
 public:
  Vm(const LoweredProgram& lp, const ExecOptions& opts)
      : lp_(lp),
        st_(lp),
        recorder_(opts.hierarchy, /*coalesce=*/true),
        fast_forward_(opts.fast_forward) {
    iters_.assign(static_cast<std::size_t>(lp.iter_slot_count), 0);
    stack_.assign(lp.max_stack, 0.0);
  }

  void run();

  ExecResult result() const { return st_.result(recorder_); }

 private:
  std::int64_t eval_lin(const LinExpr& e) const {
    std::int64_t v = e.base;
    const LinTerm* t = lp_.terms.data() + e.first_term;
    for (std::uint32_t k = 0; k < e.term_count; ++k)
      v += t[k].coeff * iters_[static_cast<std::size_t>(t[k].slot)];
    return v;
  }

  /// Evaluate and bounds-check an access's subscripts; returns the 0-based
  /// linear element index (column-major strides are baked into the dims).
  /// When `layout_offset` is non-null it also receives the 0-based slot
  /// offset under the array's declared layout (equal to `linear` for a
  /// default layout).
  std::int64_t locate(const Op& op, const char* what,
                      std::int64_t* layout_offset = nullptr) const {
    const LoweredDim* dims = lp_.dims.data() + op.first_dim;
    std::int64_t linear = 0;
    std::int64_t slot_offset = 0;
    for (std::uint32_t d = 0; d < op.dim_count; ++d) {
      const std::int64_t idx = eval_lin(dims[d].index);
      if (idx < 1 || idx > dims[d].extent) {
        throw Error(std::string("index out of bounds for ") + what + " dim " +
                    std::to_string(d) + ": " + std::to_string(idx));
      }
      linear += (idx - 1) * dims[d].stride;
      slot_offset += (idx - 1) * dims[d].layout_stride;
    }
    if (layout_offset != nullptr) *layout_offset = slot_offset;
    return linear;
  }

  // -- Stream loops ---------------------------------------------------------
  // One kStreamLoop op replaces the whole innermost loop (see
  // stream_exec.h for the kernels shared with the native engine). The
  // per-element access stream is byte-for-byte the one the generic op
  // sequence would produce, so coalescing and the cache simulation see no
  // difference.

  void run_stream_loop(const StreamLoop& sl) {
    const StreamContext ctx{st_.data.data(), st_.lp.bases.data(),
                            st_.scalars.data(), iters_.data()};
    run_stream_serial(sl, ctx, recorder_, fast_forward_);
  }

  [[noreturn]] void out_of_bounds(const Op& op, std::int64_t idx) const {
    throw Error("index out of bounds for " +
                lp_.arrays[static_cast<std::size_t>(op.slot)].name +
                " dim 0: " + std::to_string(idx));
  }

  const LoweredProgram& lp_;
  ExecState st_;
  Recorder recorder_;
  bool fast_forward_;
  std::vector<std::int64_t> iters_;
  std::vector<double> stack_;
};

void Vm::run() {
  const Op* ops = lp_.ops.data();
  // Local copies of the container data pointers: after an opaque call
  // (Recorder methods) the compiler would otherwise reload them through
  // `this` on every use.
  double* const* data = st_.data.data();
  const std::uint64_t* bases = st_.lp.bases.data();
  double* scalars = st_.scalars.data();
  std::int64_t* iters = iters_.data();
  double* sp = stack_.data();  // next free stack cell
  std::size_t pc = 0;
  for (;;) {
    const Op& op = ops[pc];
    switch (op.code) {
      case OpCode::kPushConst:
        *sp++ = op.imm;
        ++pc;
        break;
      case OpCode::kPushScalar:
        *sp++ = scalars[op.slot];
        ++pc;
        break;
      case OpCode::kPushLoopVar:
        *sp++ = static_cast<double>(iters[op.slot]);
        ++pc;
        break;
      case OpCode::kPushInput: {
        // Inputs linearize against the original stream extents with 0-based
        // offsets, exactly like the interpreter.
        const std::int64_t linear = locate(op, "input stream");
        *sp++ = ir::input_value(op.input_key, linear);
        ++pc;
        break;
      }
      case OpCode::kLoadArray: {
        const auto a = static_cast<std::size_t>(op.slot);
        std::int64_t slot_offset = 0;
        const std::int64_t linear =
            locate(op, lp_.arrays[a].name.c_str(), &slot_offset);
        recorder_.load(bases[a] + static_cast<std::uint64_t>(slot_offset) *
                                      op.addr_scale,
                       op.elem_bytes);
        *sp++ = data[a][linear];
        ++pc;
        break;
      }
      case OpCode::kLoadArray1: {
        // 1-D layout offsets equal the logical linear index (no permutation
        // or interior padding is possible), so only the pitch changes.
        const std::int64_t idx = op.lin_base + op.lin_coeff * iters[op.iter];
        if (idx < 1 || idx > op.extent) out_of_bounds(op, idx);
        const std::int64_t linear = idx - 1;
        recorder_.load(
            bases[op.slot] + static_cast<std::uint64_t>(linear) * op.addr_scale,
            op.elem_bytes);
        *sp++ = data[op.slot][linear];
        ++pc;
        break;
      }
      case OpCode::kStoreArray1: {
        const double value = *--sp;
        const std::int64_t idx = op.lin_base + op.lin_coeff * iters[op.iter];
        if (idx < 1 || idx > op.extent) out_of_bounds(op, idx);
        const std::int64_t linear = idx - 1;
        recorder_.store(
            bases[op.slot] + static_cast<std::uint64_t>(linear) * op.addr_scale,
            op.elem_bytes);
        data[op.slot][linear] = value;
        ++pc;
        break;
      }
      case OpCode::kBinary: {
        const double b = *--sp;
        const double a = *--sp;
        recorder_.flops(ir::kBinaryFlops);
        double r = 0.0;
        switch (op.bin_op) {
          case ir::BinOp::kAdd: r = a + b; break;
          case ir::BinOp::kSub: r = a - b; break;
          case ir::BinOp::kMul: r = a * b; break;
          case ir::BinOp::kDiv: r = a / b; break;
          case ir::BinOp::kMin: r = std::min(a, b); break;
          case ir::BinOp::kMax: r = std::max(a, b); break;
        }
        *sp++ = r;
        ++pc;
        break;
      }
      case OpCode::kCallF: {
        const double b = *--sp;
        const double a = *--sp;
        recorder_.flops(static_cast<std::uint64_t>(op.flops));
        *sp++ = intrinsic_f(a, b);
        ++pc;
        break;
      }
      case OpCode::kCallG: {
        const double b = *--sp;
        const double a = *--sp;
        recorder_.flops(static_cast<std::uint64_t>(op.flops));
        *sp++ = intrinsic_g(a, b);
        ++pc;
        break;
      }
      case OpCode::kStoreArray: {
        const double value = *--sp;
        const auto a = static_cast<std::size_t>(op.slot);
        std::int64_t slot_offset = 0;
        const std::int64_t linear =
            locate(op, lp_.arrays[a].name.c_str(), &slot_offset);
        recorder_.store(bases[a] + static_cast<std::uint64_t>(slot_offset) *
                                       op.addr_scale,
                        op.elem_bytes);
        data[a][linear] = value;
        ++pc;
        break;
      }
      case OpCode::kStoreScalar:
        scalars[op.slot] = *--sp;
        ++pc;
        break;
      case OpCode::kBranch: {
        const bool taken =
            ir::evaluate_cmp(op.cmp, eval_lin(lp_.lin_exprs[op.lhs]),
                             eval_lin(lp_.lin_exprs[op.rhs]));
        pc = taken ? pc + 1 : static_cast<std::size_t>(op.target);
        break;
      }
      case OpCode::kJump:
        pc = static_cast<std::size_t>(op.target);
        break;
      case OpCode::kLoopBegin:
        if (op.lower > op.upper) {
          pc = static_cast<std::size_t>(op.target);
        } else {
          iters[op.slot] = op.lower;
          ++pc;
        }
        break;
      case OpCode::kLoopEnd:
        if (op.row >= 0 && fast_forward_)
          recorder_.end_row(lp_.row_loops[static_cast<std::size_t>(op.row)],
                            iters[op.slot]);
        if (++iters[op.slot] <= op.upper) {
          pc = static_cast<std::size_t>(op.target);
        } else {
          ++pc;
        }
        break;
      case OpCode::kStreamLoop:
        run_stream_loop(lp_.stream_loops[static_cast<std::size_t>(op.slot)]);
        ++pc;
        break;
      case OpCode::kHalt:
        return;
    }
  }
}

}  // namespace

ExecResult execute_lowered(const LoweredProgram& lowered,
                           const ExecOptions& opts) {
  Vm vm(lowered, opts);
  vm.run();
  return vm.result();
}

ExecResult execute_compiled(const ir::Program& program,
                            const ExecOptions& opts) {
  return execute_lowered(lower(program), opts);
}

}  // namespace bwc::runtime
