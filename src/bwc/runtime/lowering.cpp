#include "bwc/runtime/lowering.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <optional>
#include <utility>

#include "bwc/runtime/interpreter.h"
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
      layout_strides_.push_back(decl.layout_strides());
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
        const auto [first, count] =
            lower_dims(e.subscripts, decl.extents, "array " + decl.name,
                       &layout_strides_[static_cast<std::size_t>(e.array)]);
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
        const auto [first, count] = lower_dims(
            s.lhs_subscripts, decl.extents, "array " + decl.name,
            &layout_strides_[static_cast<std::size_t>(s.lhs_array)]);
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
        {
          // The then-arm's stream loops may prove bounds under the guard.
          const std::vector<Range> saved = box_;
          if (!narrow_box(s.cmp_lhs, s.cmp, s.cmp_rhs, nullptr, box_.data(),
                          box_.size()))
            box_ = saved;
          lower_body(s.then_body);
          box_ = saved;
        }
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
        box_.push_back({s.loop->lower, s.loop->upper});
        lower_body(s.loop->body);
        box_.pop_back();
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

  // -- Stream loops ---------------------------------------------------------
  //
  // An innermost loop whose body is assignments, each under a conjunction
  // of guards on enclosing loop variables only, lowers to one kStreamLoop
  // op (StreamLoop in lowering.h) when every access is provably in bounds.
  // The proof runs per statement over the box of the enclosing loops'
  // constant ranges, narrowed by the single-variable guards the statement
  // (or the loop) sits under; affine subscripts take their extremes at the
  // box's corners. Anything else -- nested loops, `else` arms, guards that
  // read the inner variable, unprovable bounds (which must raise the VM's
  // exact error), undeclared names -- returns false before anything is
  // emitted, and the loop lowers to generic ops.

  struct Range {
    std::int64_t lo = 0, hi = -1;
  };

  static std::int64_t floor_div(std::int64_t a, std::int64_t b) {
    std::int64_t q = a / b;
    if (q * b != a && (a < 0) != (b < 0)) --q;
    return q;
  }

  /// Narrow `r` to the values v with c * v + d >= 0.
  static void narrow_ge(std::int64_t c, std::int64_t d, Range* r) {
    if (c > 0) {
      r->lo = std::max(r->lo, -floor_div(d, c));  // ceil(-d / c)
    } else if (c < 0) {
      r->hi = std::min(r->hi, floor_div(d, -c));
    } else if (d < 0) {
      r->lo = 1, r->hi = 0;
    }
  }

  /// Narrow `box` by the guard `lhs <cmp> rhs` when it reads one loop
  /// variable (a constant guard that fails empties the box); other guards
  /// leave it unchanged. False when a variable is unbound.
  bool narrow_box(const Affine& lhs, ir::CmpOp cmp, const Affine& rhs,
                  const std::string* inner, Range* box,
                  std::size_t depth) const {
    const Affine diff = lhs - rhs;
    const std::int64_t d = diff.constant_term();
    if (diff.terms().empty()) {
      if (!ir::evaluate_cmp(cmp, d, 0))
        std::fill(box, box + depth, Range{1, 0});
      return true;
    }
    if (diff.terms().size() > 1) return true;
    const auto& [name, c] = *diff.terms().begin();
    const std::optional<std::int32_t> slot = stream_slot(name, inner);
    if (!slot) return false;
    Range& r = box[*slot];
    switch (cmp) {
      case ir::CmpOp::kGe: narrow_ge(c, d, &r); break;
      case ir::CmpOp::kGt: narrow_ge(c, d - 1, &r); break;
      case ir::CmpOp::kLe: narrow_ge(-c, -d, &r); break;
      case ir::CmpOp::kLt: narrow_ge(-c, -d - 1, &r); break;
      case ir::CmpOp::kEq:
        narrow_ge(c, d, &r);
        narrow_ge(-c, -d, &r);
        break;
      case ir::CmpOp::kNe: break;
    }
    return true;
  }

  /// The iteration slot a variable names inside the stream loop being
  /// matched: the inner variable (not yet in loop_scope_) shadows the
  /// enclosing ones. Empty when unbound.
  std::optional<std::int32_t> stream_slot(const std::string& name,
                                          const std::string* inner) const {
    if (inner != nullptr && name == *inner)
      return static_cast<std::int32_t>(loop_scope_.size());
    for (auto it = loop_scope_.rbegin(); it != loop_scope_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    return std::nullopt;
  }

  /// Builds one StreamLoop from an innermost loop's body.
  class StreamMatcher {
   public:
    StreamMatcher(const Lowerer& lw, const ir::Loop& loop)
        : lw_(lw), var_(loop.var), depth_(lw.box_.size() + 1) {
      sl_.lower = loop.lower;
      sl_.upper = loop.upper;
      sl_.slot = static_cast<std::int32_t>(lw.loop_scope_.size());
      if (depth_ > kMaxDepth) return;
      std::copy(lw.box_.begin(), lw.box_.end(), box_.begin());
      box_[depth_ - 1] = {loop.lower, loop.upper};
    }

    std::optional<StreamLoop> run(const StmtList& body) {
      if (depth_ > kMaxDepth || !body_ok(body) || sl_.stmts.empty())
        return std::nullopt;
      return std::move(sl_);
    }

    /// Assignments and else-free guards only: the cheap shape test that
    /// runs before anything is built.
    static bool flat(const StmtList& body) {
      for (const auto& s : body) {
        if (s->kind == StmtKind::kLoop) return false;
        if (s->kind == StmtKind::kIf &&
            (!s->else_body.empty() || !flat(s->then_body)))
          return false;
      }
      return true;
    }

   private:
    /// Nesting depth up to which the coefficient tables below hold one
    /// entry per slot.
    static constexpr std::size_t kMaxDepth = 16;
    using Coeffs = std::array<std::int64_t, kMaxDepth>;
    using Box = std::array<Range, kMaxDepth>;  // by slot

    bool body_ok(const StmtList& body) {
      for (const auto& sp : body) {
        const Stmt& s = *sp;
        switch (s.kind) {
          case StmtKind::kArrayAssign:
          case StmtKind::kScalarAssign:
            if (!assign_ok(s)) return false;
            break;
          case StmtKind::kIf: {
            if (!s.else_body.empty()) return false;
            const Affine diff = s.cmp_lhs - s.cmp_rhs;
            if (diff.terms().count(var_) != 0 ||
                s.cmp_lhs.terms().count(var_) != 0 ||
                s.cmp_rhs.terms().count(var_) != 0)
              return false;
            StreamGuard g;
            g.cmp = s.cmp;
            if (!lin(diff, &g.diff, nullptr)) return false;
            const Box saved = box_;
            if (!lw_.narrow_box(s.cmp_lhs, s.cmp, s.cmp_rhs, &var_,
                                box_.data(), depth_))
              return false;
            guards_.push_back(g);
            const bool ok = body_ok(s.then_body);
            guards_.pop_back();
            box_ = saved;
            if (!ok) return false;
            break;
          }
          case StmtKind::kLoop:
            return false;
        }
      }
      return true;
    }

    bool assign_ok(const Stmt& s) {
      if (sl_.stmts.size() >= kMaxStreamStmts) return false;
      StreamStmt st;
      st.first_guard = static_cast<std::uint32_t>(sl_.guards.size());
      st.guard_count = static_cast<std::uint32_t>(guards_.size());
      sl_.guards.insert(sl_.guards.end(), guards_.begin(), guards_.end());
      st.first_op = static_cast<std::uint32_t>(sl_.ops.size());
      std::optional<StreamSrc> value = src(*s.rhs);
      if (!value) return false;
      st.value = *value;
      st.op_count = static_cast<std::uint32_t>(sl_.ops.size()) - st.first_op;
      for (std::uint32_t k = 0; k < st.op_count; ++k)
        st.flops += static_cast<std::uint64_t>(sl_.ops[st.first_op + k].flops);
      if (s.kind == StmtKind::kArrayAssign) {
        const std::optional<std::int32_t> dest =
            access(s.lhs_array, s.lhs_subscripts, /*is_store=*/true);
        if (!dest) return false;
        st.dest = *dest;
      } else {
        if (!lw_.program_.has_scalar(s.lhs_scalar)) return false;
        st.to_scalar = true;
        st.dest = lw_.scalar_slot(s.lhs_scalar);
      }
      sl_.stmts.push_back(st);
      return true;
    }

    std::optional<StreamSrc> src(const Expr& e) {
      StreamSrc out;
      switch (e.kind) {
        case ExprKind::kConst:
          out.kind = StreamSrc::Kind::kConst;
          out.imm = e.value;
          return out;
        case ExprKind::kScalarRef:
          if (!lw_.program_.has_scalar(e.scalar)) return std::nullopt;
          out.kind = StreamSrc::Kind::kScalar;
          out.index = lw_.scalar_slot(e.scalar);
          return out;
        case ExprKind::kLoopVar: {
          if (e.loop_var == var_) {
            out.kind = StreamSrc::Kind::kIter;
            return out;
          }
          const std::optional<std::int32_t> slot =
              lw_.stream_slot(e.loop_var, nullptr);
          if (!slot) return std::nullopt;
          out.kind = StreamSrc::Kind::kOuter;
          out.index = *slot;
          return out;
        }
        case ExprKind::kArrayRef: {
          const std::optional<std::int32_t> k =
              access(e.array, e.subscripts, /*is_store=*/false);
          if (!k) return std::nullopt;
          out.kind = StreamSrc::Kind::kLoad;
          out.index = *k;
          return out;
        }
        case ExprKind::kInput: {
          if (sl_.inputs.size() >= kMaxStreamInputs) return std::nullopt;
          StreamInput in;
          in.key = e.input_key;
          std::int64_t unused = 0;
          if (!offsets(e.subscripts, e.input_extents, nullptr, 0, &in.elem,
                       &in.elem_step, nullptr, &unused))
            return std::nullopt;
          out.kind = StreamSrc::Kind::kInput;
          out.index = static_cast<std::int32_t>(sl_.inputs.size());
          sl_.inputs.push_back(in);
          return out;
        }
        case ExprKind::kBinary:
        case ExprKind::kCall: {
          StreamOp op;
          if (e.kind == ExprKind::kBinary) {
            op.bin_op = e.op;
            op.flops = static_cast<std::int32_t>(ir::kBinaryFlops);
          } else {
            if (e.operands.size() != 2) return std::nullopt;
            if (e.callee == "f") {
              op.code = StreamOp::Code::kCallF;
            } else if (e.callee == "g") {
              op.code = StreamOp::Code::kCallG;
            } else {
              return std::nullopt;
            }
            op.flops = e.call_flops;
          }
          const std::optional<StreamSrc> a = src(*e.operands[0]);
          if (!a) return std::nullopt;
          const std::optional<StreamSrc> b = src(*e.operands[1]);
          if (!b || sl_.ops.size() >= kMaxStreamOps) return std::nullopt;
          op.a = *a;
          op.b = *b;
          out.kind = StreamSrc::Kind::kReg;
          out.index = static_cast<std::int32_t>(sl_.ops.size());
          sl_.ops.push_back(op);
          return out;
        }
      }
      return std::nullopt;
    }

    /// Append an access of `array` to the tuple; empty when it cannot be
    /// proven in bounds.
    std::optional<std::int32_t> access(ir::ArrayId array,
                                       const std::vector<Affine>& subs,
                                       bool is_store) {
      if (sl_.accesses.size() >= kMaxStreamAccesses) return std::nullopt;
      const auto& decl = lw_.program_.array(array);
      const std::vector<std::int64_t>& strides =
          lw_.layout_strides_[static_cast<std::size_t>(array)];
      StreamAccess a;
      a.array = array;
      a.stmt = static_cast<std::int32_t>(sl_.stmts.size());
      a.is_store = is_store;
      a.elem_bytes = decl.elem_bytes;
      const std::int64_t scale = static_cast<std::int64_t>(
          lw_.addressing_[static_cast<std::size_t>(array)].addr_scale);
      if (!offsets(subs, decl.extents, &strides, scale, &a.elem, &a.elem_step,
                   &a.byte, &a.byte_step))
        return std::nullopt;
      sl_.accesses.push_back(a);
      return static_cast<std::int32_t>(sl_.accesses.size() - 1);
    }

    /// Prove `subs` within [1, extent] per dim over the current box and
    /// fold them into the storage-element offset (column-major over
    /// `extents`) and, when `layout` is set, the layout byte offset (its
    /// slot strides times `scale`): LinExprs over the enclosing slots plus
    /// the inner variable's steps.
    bool offsets(const std::vector<Affine>& subs,
                 const std::vector<std::int64_t>& extents,
                 const std::vector<std::int64_t>* layout, std::int64_t scale,
                 LinExpr* elem, std::int64_t* elem_step, LinExpr* byte,
                 std::int64_t* byte_step) {
      if (subs.size() != extents.size()) return false;
      const bool empty =
          std::any_of(box_.begin(), box_.begin() + depth_,
                      [](const Range& r) { return r.lo > r.hi; });
      Coeffs elem_terms{}, byte_terms{};
      std::int64_t elem_base = 0, byte_base = 0, stride = 1;
      const auto inner = static_cast<std::int32_t>(depth_ - 1);
      for (std::size_t d = 0; d < subs.size(); ++d) {
        const std::int64_t c = subs[d].constant_term();
        const std::int64_t lstride = layout ? (*layout)[d] * scale : 0;
        std::int64_t lo = c, hi = c;
        for (const auto& [name, coeff] : subs[d].terms()) {
          const std::optional<std::int32_t> slot = lw_.stream_slot(name, &var_);
          if (!slot) return false;
          const Range& r = box_[static_cast<std::size_t>(*slot)];
          lo += std::min(coeff * r.lo, coeff * r.hi);
          hi += std::max(coeff * r.lo, coeff * r.hi);
          elem_terms[static_cast<std::size_t>(*slot)] += coeff * stride;
          byte_terms[static_cast<std::size_t>(*slot)] += coeff * lstride;
        }
        if (!empty && (lo < 1 || hi > extents[d])) return false;
        elem_base += (c - 1) * stride;
        byte_base += (c - 1) * lstride;
        stride *= extents[d];
      }
      *elem_step = elem_terms[static_cast<std::size_t>(inner)];
      *elem = terms(elem_base, elem_terms);
      if (byte != nullptr) {
        *byte_step = byte_terms[static_cast<std::size_t>(inner)];
        *byte = terms(byte_base, byte_terms);
      }
      return true;
    }

    /// An affine over enclosing variables as a LinExpr in sl_.terms.
    bool lin(const Affine& a, LinExpr* out, const std::string* inner) {
      Coeffs by_slot{};
      for (const auto& [name, coeff] : a.terms()) {
        const std::optional<std::int32_t> slot = lw_.stream_slot(name, inner);
        if (!slot) return false;
        by_slot[static_cast<std::size_t>(*slot)] += coeff;
      }
      *out = terms(a.constant_term(), by_slot);
      return true;
    }

    /// base + the enclosing slots' coefficients (the inner slot, the last
    /// of the box, excluded) as a LinExpr in sl_.terms, slots ascending.
    LinExpr terms(std::int64_t base, const Coeffs& by_slot) {
      LinExpr e;
      e.base = base;
      e.first_term = static_cast<std::uint32_t>(sl_.terms.size());
      for (std::size_t slot = 0; slot + 1 < depth_; ++slot) {
        if (by_slot[slot] == 0) continue;
        sl_.terms.push_back({static_cast<std::int32_t>(slot), by_slot[slot]});
        ++e.term_count;
      }
      return e;
    }

    const Lowerer& lw_;
    const std::string& var_;
    std::size_t depth_;  // box_ entries in use: the inner slot is the last
    Box box_{};
    std::vector<StreamGuard> guards_;
    StreamLoop sl_;
  };

  bool try_lower_stream_loop(const Stmt& s) {
    if (!StreamMatcher::flat(s.loop->body)) return false;
    std::optional<StreamLoop> sl =
        StreamMatcher(*this, *s.loop).run(s.loop->body);
    if (!sl) return false;
    sl->uniform_step_bytes = uniform_stream_step(*sl);
    sl->parallel_safety = certify_stream_parallel(*sl);
    Op& op = emit(OpCode::kStreamLoop);
    op.slot = static_cast<std::int32_t>(out_.stream_loops.size());
    out_.stream_loops.push_back(std::move(*sl));
    return true;
  }

  /// Do `a` and `b` have the same outer terms? Terms are canonical: slots
  /// ascending, no zero coefficients.
  static bool same_outer_terms(const StreamLoop& sl, const LinExpr& a,
                               const LinExpr& b) {
    if (a.term_count != b.term_count) return false;
    for (std::uint32_t k = 0; k < a.term_count; ++k) {
      const LinTerm& x = sl.terms[a.first_term + k];
      const LinTerm& y = sl.terms[b.first_term + k];
      if (x.slot != y.slot || x.coeff != y.coeff) return false;
    }
    return true;
  }

  /// Static order-free certificate of a stream loop: feed every access of
  /// the tuple (bytes [byte + byte_step*i, ... + elem_bytes) per iteration,
  /// keyed by array as the non-aliasing address space) to the symbolic
  /// prover. Within one entry the outer terms are constants, so accesses
  /// of one array compare by their constant bases only when their outer
  /// terms agree; otherwise the loop stays undecided.
  static verify::Verdict certify_stream_parallel(const StreamLoop& sl) {
    std::vector<verify::LinearAccess> accesses;
    for (const StreamAccess& a : sl.accesses) {
      const StreamAccess& first = *std::find_if(
          sl.accesses.begin(), sl.accesses.end(),
          [&](const StreamAccess& b) { return b.array == a.array; });
      if (!same_outer_terms(sl, a.byte, first.byte))
        return verify::Verdict::kUnknown;
      verify::LinearAccess access;
      access.write = a.is_store;
      access.base = a.byte.base;
      access.coeff = a.byte_step;
      access.elem_bytes = static_cast<std::int64_t>(a.elem_bytes);
      access.space = a.array;
      accesses.push_back(access);
    }
    return verify::certify_parallel_accesses(accesses, sl.lower, sl.upper);
  }

  /// The constant byte step every access of `sl` takes per iteration, or
  /// 0 when the steps differ or are 0, or when the tuple has no store.
  static std::int64_t uniform_stream_step(const StreamLoop& sl) {
    bool store = false, uniform = !sl.accesses.empty();
    for (const StreamAccess& a : sl.accesses) {
      store = store || a.is_store;
      uniform = uniform && a.byte_step == sl.accesses[0].byte_step;
    }
    return store && uniform ? sl.accesses[0].byte_step : 0;
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
        case OpCode::kStreamLoop: {
          // A stream access moves by its base's coefficient of the row
          // variable; its guards split rows like kBranch.
          nested = true;
          const StreamLoop& sl =
              out_.stream_loops[static_cast<std::size_t>(op.slot)];
          for (const StreamAccess& a : sl.accesses)
            access(a.array, coefficient(sl.terms, a.byte, loop.slot));
          for (const StreamGuard& g : sl.guards) {
            uniform = uniform &&
                      add_guard_breaks(g.cmp, {{&sl.terms, &g.diff, 1}},
                                       loop.slot, &row);
          }
          break;
        }
        case OpCode::kLoadArray:
        case OpCode::kStoreArray: {
          std::int64_t slots = 0;
          const LoweredDim* dims = out_.dims.data() + op.first_dim;
          for (std::uint32_t d = 0; d < op.dim_count; ++d)
            slots += coefficient(out_.terms, dims[d].index, loop.slot) *
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
          uniform = add_guard_breaks(
              op.cmp,
              {{&out_.terms, &out_.lin_exprs[op.lhs], 1},
               {&out_.terms, &out_.lin_exprs[op.rhs], -1}},
              loop.slot, &row);
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

  static std::int64_t coefficient(const std::vector<LinTerm>& terms,
                                  const LinExpr& e, std::int32_t slot) {
    std::int64_t c = 0;
    for (std::uint32_t k = 0; k < e.term_count; ++k) {
      const LinTerm& t = terms[e.first_term + k];
      if (t.slot == slot) c += t.coeff;
    }
    return c;
  }

  /// One side of a guard: a LinExpr, the term table it indexes, and its
  /// sign in lhs - rhs.
  struct GuardSide {
    const std::vector<LinTerm>* terms;
    const LinExpr* e;
    std::int64_t sign;
  };

  /// Adds the rows of `row` at which the guard `sum of sides <cmp> 0`
  /// changes its outcome to the segment starts; false when the guard
  /// reads the loop variable in `slot` together with another loop
  /// variable.
  static bool add_guard_breaks(ir::CmpOp cmp,
                               std::initializer_list<GuardSide> sides,
                               std::int32_t slot, RowLoop* row) {
    bool reads_var = false, reads_other = false;
    std::int64_t c = 0, d = 0;
    for (const GuardSide& side : sides) {
      for (std::uint32_t k = 0; k < side.e->term_count; ++k) {
        const bool var = (*side.terms)[side.e->first_term + k].slot == slot;
        reads_var = reads_var || var;
        reads_other = reads_other || !var;
      }
      c += side.sign * coefficient(*side.terms, *side.e, slot);
      d += side.sign * side.e->base;
    }
    if (!reads_var) return true;
    if (reads_other) return false;
    // c * v + d changes sign, and the guard its outcome, only at
    // r = floor(-d / c) (where it may be 0) and at r + 1.
    if (c == 0) return true;
    std::int64_t r = -d / c;
    if (r * c != -d && (-d < 0) != (c < 0)) --r;
    const auto outcome = [&](std::int64_t v) {
      return ir::evaluate_cmp(cmp, c * v + d, 0);
    };
    for (const std::int64_t v : {r, r + 1}) {
      if (v > row->lower && v <= row->upper && outcome(v) != outcome(v - 1))
        row->segment_starts.push_back(v);
    }
    return true;
  }

  const Program& program_;
  std::vector<ir::ArrayAddressing> addressing_;
  std::vector<std::vector<std::int64_t>> layout_strides_;  // by array
  LoweredProgram out_;
  std::vector<std::pair<std::string, std::int32_t>> loop_scope_;
  std::vector<Range> box_;  // enclosing loops' ranges, by slot
  std::size_t stack_depth_ = 0;
};

}  // namespace

LoweredProgram lower(const ir::Program& program) {
  return Lowerer(program).run();
}

}  // namespace bwc::runtime
