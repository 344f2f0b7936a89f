#include "bwc/runtime/lowering.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/stream_exec.h"
#include "bwc/support/error.h"

namespace bwc::runtime {

namespace {

using ir::Affine;
using ir::Expr;
using ir::ExprKind;
using ir::Program;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtList;

class Lowerer {
 public:
  explicit Lowerer(const Program& program) : program_(program) {}

  LoweredProgram run() {
    for (int a = 0; a < program_.array_count(); ++a) {
      const auto& decl = program_.array(a);
      const ir::ArrayAddressing addressing =
          ir::resolve_addressing(program_, a);
      addressing_.push_back(addressing);
      LoweredArray la;
      la.name = decl.name;
      la.extents = decl.extents;
      la.elem_bytes = decl.elem_bytes;
      la.element_count = decl.element_count();
      la.initial_key = initial_key(decl.name);
      la.addr_scale = addressing.addr_scale;
      out_.arrays.push_back(std::move(la));
    }
    out_.bases = ir::array_base_addresses(program_);
    out_.name = program_.name();
    out_.scalar_names = program_.scalars();
    for (const auto& name : program_.output_scalars())
      out_.output_scalar_slots.push_back(scalar_slot(name));
    for (ir::ArrayId a : program_.output_arrays())
      out_.output_arrays.push_back(a);

    lower_body(program_.top());
    emit(OpCode::kHalt);
    certify_rows();
    return std::move(out_);
  }

 private:
  // -- Slot resolution ------------------------------------------------------

  std::int32_t scalar_slot(const std::string& name) const {
    const auto& scalars = program_.scalars();
    const auto it = std::find(scalars.begin(), scalars.end(), name);
    BWC_CHECK(it != scalars.end(), "reference to undeclared scalar: " + name);
    return static_cast<std::int32_t>(it - scalars.begin());
  }

  std::int32_t loop_var_slot(const std::string& name) const {
    for (auto it = loop_scope_.rbegin(); it != loop_scope_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    throw Error("reference to unbound loop variable: " + name);
  }

  // -- Linear expressions and subscript dimensions --------------------------

  LinExpr lower_affine(const Affine& a) {
    LinExpr e;
    e.base = a.constant_term();
    e.first_term = static_cast<std::uint32_t>(out_.terms.size());
    for (const auto& [name, coeff] : a.terms()) {
      out_.terms.push_back({loop_var_slot(name), coeff});
      ++e.term_count;
    }
    return e;
  }

  /// Lower subscripts against explicit extents, baking in column-major
  /// strides. Shared by array references (array extents) and input reads
  /// (original stream extents). `layout_strides`, when non-null, supplies
  /// the per-logical-dimension slot strides of the array's declared
  /// layout; inputs (and default layouts) address exactly like storage.
  std::pair<std::uint32_t, std::uint32_t> lower_dims(
      const std::vector<Affine>& subs,
      const std::vector<std::int64_t>& extents, const std::string& what,
      const std::vector<std::int64_t>* layout_strides = nullptr) {
    BWC_CHECK(subs.size() == extents.size(),
              "subscript arity mismatch for " + what);
    BWC_CHECK(layout_strides == nullptr ||
                  layout_strides->size() == subs.size(),
              "layout stride arity mismatch for " + what);
    const auto first = static_cast<std::uint32_t>(out_.dims.size());
    std::int64_t stride = 1;
    for (std::size_t d = 0; d < subs.size(); ++d) {
      LoweredDim dim;
      dim.index = lower_affine(subs[d]);
      dim.extent = extents[d];
      dim.stride = stride;
      dim.layout_stride = layout_strides ? (*layout_strides)[d] : stride;
      out_.dims.push_back(dim);
      stride *= extents[d];
    }
    return {first, static_cast<std::uint32_t>(subs.size())};
  }

  // -- Bytecode emission ----------------------------------------------------

  /// Rewrite a just-emitted kLoadArray/kStoreArray into its specialized
  /// 1-D form when the subscript is `base + coeff * iter` -- the shape of
  /// virtually every access in a stride-1 kernel. The executor then reads
  /// the operands straight off the Op with no side-table indirection.
  void try_specialize_access(Op& op, OpCode specialized) {
    if (op.dim_count != 1) return;
    const LoweredDim& d = out_.dims[op.first_dim];
    if (d.index.term_count != 1) return;
    const LinTerm& t = out_.terms[d.index.first_term];
    op.code = specialized;
    op.lin_base = d.index.base;
    op.lin_coeff = t.coeff;
    op.iter = t.slot;
    op.extent = d.extent;
  }

  std::int32_t pc() const { return static_cast<std::int32_t>(out_.ops.size()); }

  Op& emit(OpCode code) {
    Op op;
    op.code = code;
    out_.ops.push_back(op);
    return out_.ops.back();
  }

  void push(std::size_t n = 1) {
    stack_depth_ += n;
    out_.max_stack = std::max(out_.max_stack, stack_depth_);
  }
  void pop(std::size_t n = 1) { stack_depth_ -= n; }

  void lower_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kConst: {
        emit(OpCode::kPushConst).imm = e.value;
        push();
        return;
      }
      case ExprKind::kScalarRef: {
        emit(OpCode::kPushScalar).slot = scalar_slot(e.scalar);
        push();
        return;
      }
      case ExprKind::kLoopVar: {
        emit(OpCode::kPushLoopVar).slot = loop_var_slot(e.loop_var);
        push();
        return;
      }
      case ExprKind::kArrayRef: {
        const auto& decl = program_.array(e.array);
        const auto strides = decl.layout_strides();
        const auto [first, count] = lower_dims(e.subscripts, decl.extents,
                                               "array " + decl.name, &strides);
        Op& op = emit(OpCode::kLoadArray);
        op.slot = e.array;
        op.first_dim = first;
        op.dim_count = count;
        op.elem_bytes = decl.elem_bytes;
        op.addr_scale = addressing_[static_cast<std::size_t>(e.array)]
                            .addr_scale;
        try_specialize_access(op, OpCode::kLoadArray1);
        push();
        return;
      }
      case ExprKind::kBinary: {
        lower_expr(*e.operands[0]);
        lower_expr(*e.operands[1]);
        emit(OpCode::kBinary).bin_op = e.op;
        pop();  // two operands become one result
        return;
      }
      case ExprKind::kCall: {
        OpCode code;
        if (e.callee == "f") {
          code = OpCode::kCallF;
        } else if (e.callee == "g") {
          code = OpCode::kCallG;
        } else {
          throw Error("unknown intrinsic: " + e.callee);
        }
        BWC_CHECK(e.operands.size() == 2,
                  e.callee + "() takes two arguments");
        lower_expr(*e.operands[0]);
        lower_expr(*e.operands[1]);
        Op& op = emit(code);
        op.flops = e.call_flops;
        pop();
        return;
      }
      case ExprKind::kInput: {
        const auto [first, count] =
            lower_dims(e.subscripts, e.input_extents, "input stream");
        Op& op = emit(OpCode::kPushInput);
        op.input_key = e.input_key;
        op.first_dim = first;
        op.dim_count = count;
        push();
        return;
      }
    }
    throw Error("unknown expression kind");
  }

  void lower_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kArrayAssign: {
        lower_expr(*s.rhs);
        const auto& decl = program_.array(s.lhs_array);
        const auto strides = decl.layout_strides();
        const auto [first, count] = lower_dims(
            s.lhs_subscripts, decl.extents, "array " + decl.name, &strides);
        Op& op = emit(OpCode::kStoreArray);
        op.slot = s.lhs_array;
        op.first_dim = first;
        op.dim_count = count;
        op.elem_bytes = decl.elem_bytes;
        op.addr_scale = addressing_[static_cast<std::size_t>(s.lhs_array)]
                            .addr_scale;
        try_specialize_access(op, OpCode::kStoreArray1);
        pop();
        return;
      }
      case StmtKind::kScalarAssign: {
        lower_expr(*s.rhs);
        // Match the interpreter's error wording for assignments.
        BWC_CHECK(program_.has_scalar(s.lhs_scalar),
                  "assignment to undeclared scalar: " + s.lhs_scalar);
        emit(OpCode::kStoreScalar).slot = scalar_slot(s.lhs_scalar);
        pop();
        return;
      }
      case StmtKind::kIf: {
        const LinExpr lhs = lower_affine(s.cmp_lhs);
        const LinExpr rhs = lower_affine(s.cmp_rhs);
        const std::int32_t branch_pc = pc();
        {
          Op& op = emit(OpCode::kBranch);
          op.cmp = s.cmp;
          op.lhs = static_cast<std::uint32_t>(out_.lin_exprs.size());
          out_.lin_exprs.push_back(lhs);
          op.rhs = static_cast<std::uint32_t>(out_.lin_exprs.size());
          out_.lin_exprs.push_back(rhs);
        }
        lower_body(s.then_body);
        if (s.else_body.empty()) {
          out_.ops[static_cast<std::size_t>(branch_pc)].target = pc();
        } else {
          const std::int32_t jump_pc = pc();
          emit(OpCode::kJump);
          out_.ops[static_cast<std::size_t>(branch_pc)].target = pc();
          lower_body(s.else_body);
          out_.ops[static_cast<std::size_t>(jump_pc)].target = pc();
        }
        return;
      }
      case StmtKind::kLoop: {
        if (try_lower_stream_loop(s)) return;
        const auto slot = static_cast<std::int32_t>(loop_scope_.size());
        out_.iter_slot_count = std::max(out_.iter_slot_count, slot + 1);
        const std::int32_t begin_pc = pc();
        {
          Op& op = emit(OpCode::kLoopBegin);
          op.slot = slot;
          op.lower = s.loop->lower;
          op.upper = s.loop->upper;
        }
        loop_scope_.emplace_back(s.loop->var, slot);
        lower_body(s.loop->body);
        loop_scope_.pop_back();
        {
          Op& op = emit(OpCode::kLoopEnd);
          op.slot = slot;
          op.lower = s.loop->lower;
          op.upper = s.loop->upper;
          op.target = begin_pc + 1;  // body start
        }
        out_.ops[static_cast<std::size_t>(begin_pc)].target = pc();
        return;
      }
    }
    throw Error("unknown statement kind");
  }

  void lower_body(const StmtList& body) {
    for (const auto& s : body) lower_stmt(*s);
  }

  // -- Fused stream loops ---------------------------------------------------
  //
  // An innermost loop whose single statement streams through 1-D arrays with
  // affine subscripts in the loop variable alone, and whose every access is
  // provably in bounds over the whole trip range, lowers to one kStreamLoop
  // op that the executor runs natively (see StreamLoop in lowering.h). Any
  // condition that fails -- nested bodies, 2-D arrays, subscripts involving
  // outer loop variables, statically out-of-range accesses (which must raise
  // the interpreter's exact error), input reads -- falls back to the generic
  // op sequence.

  /// Subscript as `base + coeff * var`; fails if any other variable appears.
  static bool stream_subscript(const Affine& a, const std::string& var,
                               std::int64_t* base, std::int64_t* coeff) {
    *base = a.constant_term();
    *coeff = 0;
    for (const auto& [name, c] : a.terms()) {
      if (name != var) return false;
      *coeff += c;
    }
    return true;
  }

  /// Match an array reference operand; requires statically provable bounds
  /// over i in [lower, upper] (affine index, so endpoints suffice).
  bool stream_array(ir::ArrayId array, const std::vector<Affine>& subs,
                    const std::string& var, std::int64_t lower,
                    std::int64_t upper, StreamOperand* out) const {
    if (subs.size() != 1) return false;
    const auto& decl = program_.array(array);
    if (decl.extents.size() != 1) return false;
    std::int64_t base = 0, coeff = 0;
    if (!stream_subscript(subs[0], var, &base, &coeff)) return false;
    if (lower <= upper) {
      const std::int64_t at_lower = base + coeff * lower;
      const std::int64_t at_upper = base + coeff * upper;
      if (std::min(at_lower, at_upper) < 1 ||
          std::max(at_lower, at_upper) > decl.extents[0])
        return false;
    }
    out->kind = StreamOperand::Kind::kArray;
    out->slot = array;
    out->lin_base = base;
    out->lin_coeff = coeff;
    out->elem_bytes = decl.elem_bytes;
    // 1-D layouts never permute and padding only grows the allocation, so
    // the slot offset equals the logical linear index; only the byte scale
    // (interleave pitch) differs from a packed array.
    out->addr_scale = addressing_[static_cast<std::size_t>(array)].addr_scale;
    return true;
  }

  bool stream_operand(const Expr& e, const std::string& var,
                      std::int64_t lower, std::int64_t upper,
                      StreamOperand* out) const {
    switch (e.kind) {
      case ExprKind::kConst:
        out->kind = StreamOperand::Kind::kConst;
        out->imm = e.value;
        return true;
      case ExprKind::kScalarRef: {
        if (!program_.has_scalar(e.scalar)) return false;
        out->kind = StreamOperand::Kind::kScalar;
        out->slot = scalar_slot(e.scalar);
        return true;
      }
      case ExprKind::kLoopVar:
        if (e.loop_var != var) return false;  // outer vars: generic path
        out->kind = StreamOperand::Kind::kIter;
        return true;
      case ExprKind::kArrayRef:
        return stream_array(e.array, e.subscripts, var, lower, upper, out);
      default:
        return false;
    }
  }

  bool try_lower_stream_loop(const Stmt& s) {
    const ir::Loop& loop = *s.loop;
    if (loop.body.size() != 1) return false;
    const Stmt& st = *loop.body[0];
    const std::string& var = loop.var;
    const std::int64_t lo = loop.lower, hi = loop.upper;

    if (st.kind != StmtKind::kArrayAssign &&
        st.kind != StmtKind::kScalarAssign)
      return false;  // nested loops / guards carry no rhs

    StreamLoop sl;
    sl.lower = lo;
    sl.upper = hi;
    const Expr& rhs = *st.rhs;

    if (st.kind == StmtKind::kArrayAssign) {
      sl.lhs_is_array = true;
      if (!stream_array(st.lhs_array, st.lhs_subscripts, var, lo, hi,
                        &sl.lhs))
        return false;
      if (rhs.kind == ExprKind::kBinary) {
        sl.body = StreamLoop::Body::kBinary;
        sl.bin_op = rhs.op;
        if (!stream_operand(*rhs.operands[0], var, lo, hi, &sl.a) ||
            !stream_operand(*rhs.operands[1], var, lo, hi, &sl.b))
          return false;
      } else if (rhs.kind == ExprKind::kCall &&
                 (rhs.callee == "f" || rhs.callee == "g") &&
                 rhs.operands.size() == 2) {
        sl.body = rhs.callee == "f" ? StreamLoop::Body::kCallF
                                    : StreamLoop::Body::kCallG;
        sl.call_flops = rhs.call_flops;
        if (!stream_operand(*rhs.operands[0], var, lo, hi, &sl.a) ||
            !stream_operand(*rhs.operands[1], var, lo, hi, &sl.b))
          return false;
      } else {
        sl.body = StreamLoop::Body::kCopy;
        if (!stream_operand(rhs, var, lo, hi, &sl.a)) return false;
      }
    } else if (st.kind == StmtKind::kScalarAssign) {
      // Running reduction: s = s <op> x, accumulator carried in a register.
      // The first operand must be the destination scalar itself so the FP
      // evaluation order (and therefore the checksum bits) is unchanged.
      if (!program_.has_scalar(st.lhs_scalar)) return false;
      if (rhs.kind != ExprKind::kBinary) return false;
      const Expr& acc = *rhs.operands[0];
      if (acc.kind != ExprKind::kScalarRef || acc.scalar != st.lhs_scalar)
        return false;
      sl.body = StreamLoop::Body::kReduce;
      sl.bin_op = rhs.op;
      sl.lhs_is_array = false;
      sl.lhs.kind = StreamOperand::Kind::kScalar;
      sl.lhs.slot = scalar_slot(st.lhs_scalar);
      if (!stream_operand(*rhs.operands[1], var, lo, hi, &sl.a)) return false;
      // The accumulator must not also feed the streamed operand's address
      // (impossible for these operand kinds) nor be read as a plain scalar.
      if (sl.a.kind == StreamOperand::Kind::kScalar &&
          sl.a.slot == sl.lhs.slot)
        return false;
    } else {
      return false;
    }

    sl.uniform_step_bytes = uniform_stream_step(sl);
    sl.parallel_safety = certify_stream_parallel(sl);

    Op& op = emit(OpCode::kStreamLoop);
    op.slot = static_cast<std::int32_t>(out_.stream_loops.size());
    out_.stream_loops.push_back(sl);
    return true;
  }

  /// Static order-free certificate of a stream loop: feed every
  /// array access (bytes [base + coeff*i, base + coeff*i + elem) per
  /// iteration, keyed by array slot as the non-aliasing address space)
  /// to the symbolic prover. Reductions are order-carried by construction
  /// (the FP fold is not associative), so they are proven unsafe outright.
  static verify::Verdict certify_stream_parallel(const StreamLoop& sl) {
    if (sl.body == StreamLoop::Body::kReduce || !sl.lhs_is_array)
      return verify::Verdict::kDependent;
    std::vector<verify::LinearAccess> accesses;
    for_each_stream_access(sl, [&](const StreamOperand& o, bool is_store) {
      verify::LinearAccess access;
      access.write = is_store;
      // Addresses advance at the layout's slot pitch; each access still
      // touches elem_bytes of payload at its slot.
      const std::int64_t scale = static_cast<std::int64_t>(o.addr_scale);
      access.base = o.lin_base * scale;
      access.coeff = o.lin_coeff * scale;
      access.elem_bytes = static_cast<std::int64_t>(o.elem_bytes);
      access.space = o.slot;
      accesses.push_back(access);
    });
    return verify::certify_parallel_accesses(accesses, sl.lower, sl.upper);
  }

  /// The constant byte shift every array access of `sl` undergoes per
  /// iteration, or 0 when the accesses do not translate uniformly.
  /// Reductions are excluded outright: their accumulator makes the body
  /// value-carried, and fast-forward only reasons about addresses.
  static std::int64_t uniform_stream_step(const StreamLoop& sl) {
    if (sl.body == StreamLoop::Body::kReduce || !sl.lhs_is_array) return 0;
    const std::int64_t step =
        sl.lhs.lin_coeff * static_cast<std::int64_t>(sl.lhs.addr_scale);
    bool uniform = step != 0;
    for_each_stream_access(sl, [&](const StreamOperand& o, bool) {
      uniform = uniform &&
                o.lin_coeff * static_cast<std::int64_t>(o.addr_scale) == step;
    });
    return uniform ? step : 0;
  }

  // -- Row certificates -----------------------------------------------------
  //
  // A post-pass over the finished bytecode, outermost loops first: the
  // first loop of a nest that certifies (RowLoop in lowering.h) takes the
  // certificate and its inner loops are not considered.

  void certify_rows() {
    for (std::size_t pc = 0; pc < out_.ops.size(); ++pc) {
      if (out_.ops[pc].code != OpCode::kLoopBegin) continue;
      const auto end = static_cast<std::size_t>(out_.ops[pc].target) - 1;
      if (std::optional<RowLoop> row = certify_row(pc, end)) {
        out_.ops[end].row = static_cast<std::int32_t>(out_.row_loops.size());
        out_.row_loops.push_back(std::move(*row));
        pc = end;
      }
    }
  }

  /// The certificate of the loop whose kLoopBegin is at `begin` and whose
  /// kLoopEnd is at `end`, if it has one.
  std::optional<RowLoop> certify_row(std::size_t begin,
                                     std::size_t end) const {
    const Op& loop = out_.ops[begin];
    RowLoop row;
    row.lower = loop.lower;
    row.upper = loop.upper;
    bool nested = false, accessed = false, uniform = true;
    std::vector<bool> touched(out_.arrays.size(), false);
    const auto access = [&](std::int32_t array, std::int64_t step) {
      uniform = uniform && (!accessed || step == row.step_bytes);
      accessed = true;
      row.step_bytes = step;
      touched[static_cast<std::size_t>(array)] = true;
    };
    for (std::size_t pc = begin + 1; pc < end && uniform; ++pc) {
      const Op& op = out_.ops[pc];
      switch (op.code) {
        case OpCode::kLoopBegin:
          nested = true;
          break;
        case OpCode::kStreamLoop:
          // Stream subscripts read the inner variable alone.
          nested = true;
          for_each_stream_access(
              out_.stream_loops[static_cast<std::size_t>(op.slot)],
              [&](const StreamOperand& o, bool) { access(o.slot, 0); });
          break;
        case OpCode::kLoadArray:
        case OpCode::kStoreArray: {
          std::int64_t slots = 0;
          const LoweredDim* dims = out_.dims.data() + op.first_dim;
          for (std::uint32_t d = 0; d < op.dim_count; ++d)
            slots += coefficient(dims[d].index, loop.slot) *
                     dims[d].layout_stride;
          access(op.slot, slots * static_cast<std::int64_t>(op.addr_scale));
          break;
        }
        case OpCode::kLoadArray1:
        case OpCode::kStoreArray1:
          access(op.slot, op.iter == loop.slot
                              ? op.lin_coeff *
                                    static_cast<std::int64_t>(op.addr_scale)
                              : 0);
          break;
        case OpCode::kBranch:
          uniform = add_guard_breaks(op, loop.slot, &row);
          break;
        default:
          break;
      }
    }
    if (!nested || !accessed || !uniform) return std::nullopt;
    for (std::size_t a = 0; a < touched.size(); ++a) {
      if (!touched[a]) continue;
      const LoweredArray& decl = out_.arrays[a];
      row.footprint_bytes +=
          static_cast<std::uint64_t>(decl.element_count) * decl.elem_bytes;
    }
    std::sort(row.segment_starts.begin(), row.segment_starts.end());
    row.segment_starts.erase(
        std::unique(row.segment_starts.begin(), row.segment_starts.end()),
        row.segment_starts.end());
    return row;
  }

  std::int64_t coefficient(const LinExpr& e, std::int32_t slot) const {
    std::int64_t c = 0;
    for (std::uint32_t k = 0; k < e.term_count; ++k) {
      const LinTerm& t = out_.terms[e.first_term + k];
      if (t.slot == slot) c += t.coeff;
    }
    return c;
  }

  /// Adds the rows of `row` at which guard `op` changes its outcome to the
  /// segment starts; false when the guard reads the loop variable in
  /// `slot` together with another loop variable.
  bool add_guard_breaks(const Op& op, std::int32_t slot, RowLoop* row) const {
    const LinExpr& lhs = out_.lin_exprs[op.lhs];
    const LinExpr& rhs = out_.lin_exprs[op.rhs];
    bool reads_var = false, reads_other = false;
    for (const LinExpr* e : {&lhs, &rhs}) {
      for (std::uint32_t k = 0; k < e->term_count; ++k) {
        const bool var = out_.terms[e->first_term + k].slot == slot;
        reads_var = reads_var || var;
        reads_other = reads_other || !var;
      }
    }
    if (!reads_var) return true;
    if (reads_other) return false;
    // lhs - rhs = c * v + d changes sign, and the guard its outcome, only
    // at r = floor(-d / c) (where it may be 0) and at r + 1.
    const std::int64_t c = coefficient(lhs, slot) - coefficient(rhs, slot);
    const std::int64_t d = lhs.base - rhs.base;
    if (c == 0) return true;
    std::int64_t r = -d / c;
    if (r * c != -d && (-d < 0) != (c < 0)) --r;
    const auto outcome = [&](std::int64_t v) {
      return ir::evaluate_cmp(op.cmp, c * v + d, 0);
    };
    for (const std::int64_t v : {r, r + 1}) {
      if (v > row->lower && v <= row->upper && outcome(v) != outcome(v - 1))
        row->segment_starts.push_back(v);
    }
    return true;
  }

  const Program& program_;
  std::vector<ir::ArrayAddressing> addressing_;
  LoweredProgram out_;
  std::vector<std::pair<std::string, std::int32_t>> loop_scope_;
  std::size_t stack_depth_ = 0;
};

}  // namespace

LoweredProgram lower(const ir::Program& program) {
  return Lowerer(program).run();
}

}  // namespace bwc::runtime
