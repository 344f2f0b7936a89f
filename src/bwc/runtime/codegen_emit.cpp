// C source emission for the native backend (runtime/codegen.h).
//
// The generated translation unit is deliberately primitive C99: every
// bytecode op becomes a labeled statement (jumps are gotos), every stream
// loop becomes a pair of flat `for` loops, and every value that
// must match the VM bit-for-bit is either a hexfloat literal (%a round-
// trips doubles exactly) or comes back through a host function pointer
// (inputs, intrinsics), so the C and C++ sides can never disagree on a
// constant. The unit is compiled with -ffp-contract=off so the compiled
// arithmetic is the same mul-then-add sequence the VM executes.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>

#include "bwc/ir/expr.h"
#include "bwc/ir/stmt.h"
#include "bwc/runtime/codegen.h"
#include "bwc/runtime/lowering.h"
#include "bwc/runtime/stream_exec.h"

namespace bwc::runtime {

namespace {

std::string lit_i64(std::int64_t v) {
  if (v == INT64_MIN) return "(-9223372036854775807LL - 1)";
  if (v < 0) return "(" + std::to_string(v) + "LL)";
  return std::to_string(v) + "LL";
}

std::string lit_u64(std::uint64_t v) { return std::to_string(v) + "ULL"; }

/// Hexfloat literal: exact round trip for every finite double.
std::string lit_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  if (std::signbit(v)) return std::string("(") + buf + ")";
  return buf;
}

/// C expression for a LinExpr over the iteration-slot locals `it<slot>`.
std::string lin_c(const LoweredProgram& lp, const LinExpr& e) {
  std::string s = "(" + lit_i64(e.base);
  const LinTerm* t = lp.terms.data() + e.first_term;
  for (std::uint32_t k = 0; k < e.term_count; ++k) {
    s += " + " + lit_i64(t[k].coeff) + " * it" + std::to_string(t[k].slot);
  }
  return s + ")";
}

/// `a <bin_op> b` with the VM's exact min/max selection (std::min(a,b)
/// is `b < a ? b : a`, std::max(a,b) is `a < b ? b : a` -- the NaN and
/// signed-zero behavior follows the comparison, so mirror it literally).
std::string bin_c(ir::BinOp op, const std::string& a, const std::string& b) {
  switch (op) {
    case ir::BinOp::kAdd: return "(" + a + " + " + b + ")";
    case ir::BinOp::kSub: return "(" + a + " - " + b + ")";
    case ir::BinOp::kMul: return "(" + a + " * " + b + ")";
    case ir::BinOp::kDiv: return "(" + a + " / " + b + ")";
    case ir::BinOp::kMin:
      return "((" + b + " < " + a + ") ? " + b + " : " + a + ")";
    case ir::BinOp::kMax:
      return "((" + a + " < " + b + ") ? " + b + " : " + a + ")";
  }
  return "0.0";
}

const char* cmp_c(ir::CmpOp op) {
  switch (op) {
    case ir::CmpOp::kEq: return "==";
    case ir::CmpOp::kNe: return "!=";
    case ir::CmpOp::kLt: return "<";
    case ir::CmpOp::kLe: return "<=";
    case ir::CmpOp::kGt: return ">";
    case ir::CmpOp::kGe: return ">=";
  }
  return "==";
}

/// Emit the multi-dimension locate-and-bounds-check block shared by
/// kPushInput/kLoadArray/kStoreArray. Leaves the 0-based linear element
/// index in `lin`; on violation records the (array, dim, index) triple in
/// the context and returns 1, which the host maps to the VM's exact
/// out-of-bounds error text. `err_array` is the array slot, or -1 for an
/// input stream.
/// Returns the name of the variable holding the 0-based *layout* slot
/// offset for addressing: `lin` itself under a default layout, else a
/// separately accumulated `lay` (layout strides differ from storage
/// strides only for permuted or padded multi-dimensional arrays).
std::string emit_locate(std::string& out, const LoweredProgram& lp,
                        const Op& op, int err_array) {
  const LoweredDim* dims = lp.dims.data() + op.first_dim;
  bool layout_differs = false;
  for (std::uint32_t d = 0; d < op.dim_count; ++d)
    if (dims[d].layout_stride != dims[d].stride) layout_differs = true;
  out += "    i64 lin = 0;\n";
  if (layout_differs) out += "    i64 lay = 0;\n";
  for (std::uint32_t d = 0; d < op.dim_count; ++d) {
    out += "    {\n";
    out += "      const i64 idx = " + lin_c(lp, dims[d].index) + ";\n";
    out += "      if (idx < 1 || idx > " + lit_i64(dims[d].extent) + ") {\n";
    out += "        ctx->err_array = " + std::to_string(err_array) + ";\n";
    out += "        ctx->err_dim = " + std::to_string(d) + ";\n";
    out += "        ctx->err_index = idx;\n";
    out += "        return 1;\n";
    out += "      }\n";
    out += "      lin += (idx - 1) * " + lit_i64(dims[d].stride) + ";\n";
    if (layout_differs) {
      out += "      lay += (idx - 1) * " + lit_i64(dims[d].layout_stride) +
             ";\n";
    }
    out += "    }\n";
  }
  return layout_differs ? "lay" : "lin";
}

std::string array_addr_c(const Op& op, const std::string& offset) {
  return "B" + std::to_string(op.slot) + " + (u64)" + offset + " * " +
         lit_u64(op.addr_scale);
}

/// Emit `int bwc_run(bwc_native_ctx*)`: the generic bytecode walked as
/// labeled C with the recorder hooks compiled in. Stream loops call back
/// into the host (ctx->stream) with the enclosing iteration values, and
/// the host drives the per-loop kernels below through run_stream_serial.
void emit_run(std::string& out, const LoweredProgram& lp) {
  out += "int bwc_run(bwc_native_ctx* ctx) {\n";
  out += "  double* const S = ctx->scalars;\n";
  for (std::size_t a = 0; a < lp.arrays.size(); ++a) {
    const std::string n = std::to_string(a);
    out += "  double* const A" + n + " = ctx->data[" + n + "];\n";
    out += "  const u64 B" + n + " = ctx->bases[" + n + "];\n";
  }
  for (std::int32_t s = 0; s < lp.iter_slot_count; ++s)
    out += "  i64 it" + std::to_string(s) + " = 0;\n";
  const std::size_t stack = lp.max_stack > 0 ? lp.max_stack : 1;
  out += "  double stk[" + std::to_string(stack) + "];\n";
  out += "  double* sp = stk;\n";

  for (std::size_t pc = 0; pc < lp.ops.size(); ++pc) {
    const Op& op = lp.ops[pc];
    out += "L" + std::to_string(pc) + ":;\n";
    const std::string it = "it" + std::to_string(op.slot);
    const std::string tgt = "L" + std::to_string(op.target);
    switch (op.code) {
      case OpCode::kPushConst:
        out += "  *sp++ = " + lit_double(op.imm) + ";\n";
        break;
      case OpCode::kPushScalar:
        out += "  *sp++ = S[" + std::to_string(op.slot) + "];\n";
        break;
      case OpCode::kPushLoopVar:
        out += "  *sp++ = (double)it" + std::to_string(op.slot) + ";\n";
        break;
      case OpCode::kPushInput:
        out += "  {\n";
        emit_locate(out, lp, op, /*err_array=*/-1);
        out += "    *sp++ = ctx->input(" + std::to_string(op.input_key) +
               ", lin);\n";
        out += "  }\n";
        break;
      case OpCode::kLoadArray: {
        out += "  {\n";
        const std::string off = emit_locate(out, lp, op, op.slot);
        out += "    ctx->rec_load(ctx->sink, " + array_addr_c(op, off) +
               ", " + lit_u64(op.elem_bytes) + ");\n";
        out += "    *sp++ = A" + std::to_string(op.slot) + "[lin];\n";
        out += "  }\n";
        break;
      }
      case OpCode::kStoreArray: {
        out += "  {\n";
        out += "    const double v = *--sp;\n";
        const std::string off = emit_locate(out, lp, op, op.slot);
        out += "    ctx->rec_store(ctx->sink, " + array_addr_c(op, off) +
               ", " + lit_u64(op.elem_bytes) + ");\n";
        out += "    A" + std::to_string(op.slot) + "[lin] = v;\n";
        out += "  }\n";
        break;
      }
      case OpCode::kLoadArray1:
      case OpCode::kStoreArray1: {
        const bool is_store = op.code == OpCode::kStoreArray1;
        out += "  {\n";
        if (is_store) out += "    const double v = *--sp;\n";
        out += "    const i64 idx = " + lit_i64(op.lin_base) + " + " +
               lit_i64(op.lin_coeff) + " * it" + std::to_string(op.iter) +
               ";\n";
        out += "    if (idx < 1 || idx > " + lit_i64(op.extent) + ") {\n";
        out += "      ctx->err_array = " + std::to_string(op.slot) + ";\n";
        out += "      ctx->err_dim = 0;\n";
        out += "      ctx->err_index = idx;\n";
        out += "      return 1;\n";
        out += "    }\n";
        out += "    const i64 lin = idx - 1;\n";
        if (is_store) {
          out += "    ctx->rec_store(ctx->sink, " + array_addr_c(op, "lin") +
                 ", " + lit_u64(op.elem_bytes) + ");\n";
          out += "    A" + std::to_string(op.slot) + "[lin] = v;\n";
        } else {
          out += "    ctx->rec_load(ctx->sink, " + array_addr_c(op, "lin") +
                 ", " + lit_u64(op.elem_bytes) + ");\n";
          out += "    *sp++ = A" + std::to_string(op.slot) + "[lin];\n";
        }
        out += "  }\n";
        break;
      }
      case OpCode::kBinary:
        out += "  {\n";
        out += "    const double b = *--sp;\n";
        out += "    const double a = *--sp;\n";
        out += "    ctx->rec_flops(ctx->sink, " +
               lit_u64(static_cast<std::uint64_t>(ir::kBinaryFlops)) + ");\n";
        out += "    *sp++ = " + bin_c(op.bin_op, "a", "b") + ";\n";
        out += "  }\n";
        break;
      case OpCode::kCallF:
      case OpCode::kCallG: {
        const char* fn = op.code == OpCode::kCallF ? "call_f" : "call_g";
        out += "  {\n";
        out += "    const double b = *--sp;\n";
        out += "    const double a = *--sp;\n";
        out += "    ctx->rec_flops(ctx->sink, " +
               lit_u64(static_cast<std::uint64_t>(op.flops)) + ");\n";
        out += std::string("    *sp++ = ctx->") + fn + "(a, b);\n";
        out += "  }\n";
        break;
      }
      case OpCode::kStoreScalar:
        out += "  S[" + std::to_string(op.slot) + "] = *--sp;\n";
        break;
      case OpCode::kBranch:
        out += "  if (!(" + lin_c(lp, lp.lin_exprs[op.lhs]) + " " +
               cmp_c(op.cmp) + " " + lin_c(lp, lp.lin_exprs[op.rhs]) +
               ")) goto " + tgt + ";\n";
        break;
      case OpCode::kJump:
        out += "  goto " + tgt + ";\n";
        break;
      case OpCode::kLoopBegin:
        out += "  if (" + lit_i64(op.lower) + " > " + lit_i64(op.upper) +
               ") goto " + tgt + ";\n";
        out += "  " + it + " = " + lit_i64(op.lower) + ";\n";
        break;
      case OpCode::kLoopEnd:
        if (op.row >= 0) {
          out += "  {\n";
          out += "    const int rc = ctx->row_end(ctx->host, " +
                 std::to_string(op.row) + ", " + it + ");\n";
          out += "    if (rc != 0) return rc;\n";
          out += "  }\n";
        }
        out += "  if (++" + it + " <= " + lit_i64(op.upper) + ") goto " + tgt +
               ";\n";
        break;
      case OpCode::kStreamLoop: {
        // The kernels read the enclosing iteration values through
        // ctx->iters, which the host sets from this array.
        std::string its;
        for (std::int32_t k = 0; k < lp.iter_slot_count; ++k)
          its += (k == 0 ? "it" : ", it") + std::to_string(k);
        out += "  {\n";
        out += its.empty() ? "    const i64* its = 0;\n"
                           : "    const i64 its[] = {" + its + "};\n";
        out += "    const int rc = ctx->stream(ctx->host, " +
               std::to_string(op.slot) + ", its);\n";
        out += "    if (rc != 0) return rc;\n";
        out += "  }\n";
        break;
      }
      case OpCode::kHalt:
        out += "  return 0;\n";
        break;
    }
  }
  out += "  return 0;\n";
  out += "}\n";
}

/// C expression for a stream LinExpr over the entry's iteration values
/// `I[slot]`.
std::string stream_lin_c(const StreamLoop& sl, const LinExpr& e) {
  std::string s = "(" + lit_i64(e.base);
  const LinTerm* t = sl.terms.data() + e.first_term;
  for (std::uint32_t k = 0; k < e.term_count; ++k) {
    s += " + " + lit_i64(t[k].coeff) + " * I[" + std::to_string(t[k].slot) +
         "]";
  }
  return s + ")";
}

/// C expression for a value-kernel operand inside the loop body. Scalars
/// live in locals `s<slot>` for the whole range (nothing else runs while
/// the kernel does), so reductions keep their accumulator in a register.
std::string stream_src_c(const StreamSrc& s) {
  const std::string n = std::to_string(s.index);
  switch (s.kind) {
    case StreamSrc::Kind::kReg: return "r" + n;
    case StreamSrc::Kind::kConst: return lit_double(s.imm);
    case StreamSrc::Kind::kScalar: return "s" + n;
    case StreamSrc::Kind::kIter: return "(double)i";
    case StreamSrc::Kind::kOuter: return "(double)I[" + n + "]";
    case StreamSrc::Kind::kLoad: return "*p" + n;
    case StreamSrc::Kind::kInput: return "ctx->input(k" + n + ", n" + n + ")";
  }
  return "0.0";
}

/// Emit one stream-loop kernel. `hooks` selects the instrumented variant
/// (per-access recorder calls in tuple order, the flops of the active
/// statements charged in bulk at the end) versus the bare values kernel
/// that run_stream_values is replaced by. Both run iterations [lower,
/// upper] only -- range semantics, so the fast-forward protocol can drive
/// them -- with the statement set chosen once from the guards.
void emit_stream_kernel(std::string& out, const LoweredProgram& lp,
                        std::size_t k, bool hooks) {
  const StreamLoop& sl = lp.stream_loops[k];
  const char* fn = hooks ? "bwc_stream_range_" : "bwc_stream_values_";
  out += std::string("void ") + fn + std::to_string(k) +
         "(bwc_native_ctx* ctx, i64 lower, i64 upper) {\n";
  out += "  const i64 trips = upper - lower + 1;\n";
  out += "  if (trips <= 0) return;\n";
  out += "  const i64* const I = ctx->iters;\n";
  out += "  (void)I;\n";

  // Hoist the touched slots; scalars move into locals.
  std::set<std::int32_t> arrays, scalars, written;
  for (const StreamAccess& a : sl.accesses) arrays.insert(a.array);
  const auto note = [&](const StreamSrc& s) {
    if (s.kind == StreamSrc::Kind::kScalar) scalars.insert(s.index);
  };
  for (const StreamOp& op : sl.ops) {
    note(op.a);
    note(op.b);
  }
  for (const StreamStmt& st : sl.stmts) {
    note(st.value);
    if (st.to_scalar) {
      scalars.insert(st.dest);
      written.insert(st.dest);
    }
  }
  if (!scalars.empty()) out += "  double* const S = ctx->scalars;\n";
  for (std::int32_t s : scalars) {
    const std::string n = std::to_string(s);
    out += "  double s" + n + " = S[" + n + "];\n";
  }
  for (std::int32_t a : arrays) {
    const std::string n = std::to_string(a);
    out += "  double* const A" + n + " = ctx->data[" + n + "];\n";
    if (hooks) out += "  const u64 B" + n + " = ctx->bases[" + n + "];\n";
  }

  // The statement set of this entry.
  for (std::size_t s = 0; s < sl.stmts.size(); ++s) {
    const StreamStmt& st = sl.stmts[s];
    std::string cond = "1";
    for (std::uint32_t g = 0; g < st.guard_count; ++g) {
      const StreamGuard& guard = sl.guards[st.first_guard + g];
      cond += " && " + stream_lin_c(sl, guard.diff) + " " + cmp_c(guard.cmp) +
              " 0";
    }
    out += "  const int g" + std::to_string(s) + " = " + cond + ";\n";
  }
  if (hooks) {
    out += "  u64 fpi = 0;\n";
    for (std::size_t s = 0; s < sl.stmts.size(); ++s) {
      if (sl.stmts[s].flops == 0) continue;
      out += "  if (g" + std::to_string(s) + ") fpi += " +
             lit_u64(sl.stmts[s].flops) + ";\n";
    }
  }

  // Cursors at iteration `lower`.
  for (std::size_t a = 0; a < sl.accesses.size(); ++a) {
    const StreamAccess& acc = sl.accesses[a];
    const std::string n = std::to_string(a);
    const std::string arr = std::to_string(acc.array);
    out += "  double* p" + n + " = A" + arr + " + (" +
           stream_lin_c(sl, acc.elem) + " + " + lit_i64(acc.elem_step) +
           " * lower);\n";
    if (hooks) {
      out += "  u64 ad" + n + " = B" + arr + " + (u64)(" +
             stream_lin_c(sl, acc.byte) + " + " + lit_i64(acc.byte_step) +
             " * lower);\n";
    }
  }
  for (std::size_t in = 0; in < sl.inputs.size(); ++in) {
    const StreamInput& input = sl.inputs[in];
    const std::string n = std::to_string(in);
    out += "  const int k" + n + " = " + std::to_string(input.key) + ";\n";
    out += "  i64 n" + n + " = " + stream_lin_c(sl, input.elem) + " + " +
           lit_i64(input.elem_step) + " * lower;\n";
  }
  out += "  for (i64 i = lower; i <= upper; ++i) {\n";
  for (std::size_t s = 0; s < sl.stmts.size(); ++s) {
    const StreamStmt& st = sl.stmts[s];
    out += "    if (g" + std::to_string(s) + ") {\n";
    if (hooks) {
      for (std::size_t a = 0; a < sl.accesses.size(); ++a) {
        const StreamAccess& acc = sl.accesses[a];
        if (acc.stmt != static_cast<std::int32_t>(s) || acc.is_store) continue;
        out += "      ctx->rec_load(ctx->sink, ad" + std::to_string(a) + ", " +
               lit_u64(acc.elem_bytes) + ");\n";
      }
    }
    for (std::uint32_t o = st.first_op; o < st.first_op + st.op_count; ++o) {
      const StreamOp& op = sl.ops[o];
      const std::string n = std::to_string(o);
      out += "      const double x" + n + " = " + stream_src_c(op.a) + ";\n";
      out += "      const double y" + n + " = " + stream_src_c(op.b) + ";\n";
      std::string r;
      switch (op.code) {
        case StreamOp::Code::kBinary:
          r = bin_c(op.bin_op, "x" + n, "y" + n);
          break;
        case StreamOp::Code::kCallF:
          r = "ctx->call_f(x" + n + ", y" + n + ")";
          break;
        case StreamOp::Code::kCallG:
          r = "ctx->call_g(x" + n + ", y" + n + ")";
          break;
      }
      out += "      const double r" + n + " = " + r + ";\n";
    }
    const std::string v = stream_src_c(st.value);
    if (st.to_scalar) {
      out += "      s" + std::to_string(st.dest) + " = " + v + ";\n";
    } else {
      const std::string d = std::to_string(st.dest);
      out += "      const double v = " + v + ";\n";
      if (hooks) {
        const StreamAccess& a = sl.accesses[static_cast<std::size_t>(st.dest)];
        out += "      ctx->rec_store(ctx->sink, ad" + d + ", " +
               lit_u64(a.elem_bytes) + ");\n";
      }
      out += "      *p" + d + " = v;\n";
    }
    out += "    }\n";
  }
  for (std::size_t a = 0; a < sl.accesses.size(); ++a) {
    const StreamAccess& acc = sl.accesses[a];
    const std::string n = std::to_string(a);
    if (acc.elem_step != 0)
      out += "    p" + n + " += " + lit_i64(acc.elem_step) + ";\n";
    if (hooks && acc.byte_step != 0)
      out += "    ad" + n + " += (u64)" + lit_i64(acc.byte_step) + ";\n";
  }
  for (std::size_t in = 0; in < sl.inputs.size(); ++in) {
    if (sl.inputs[in].elem_step != 0) {
      out += "    n" + std::to_string(in) + " += " +
             lit_i64(sl.inputs[in].elem_step) + ";\n";
    }
  }
  out += "  }\n";
  for (std::int32_t s : written) {
    const std::string n = std::to_string(s);
    out += "  S[" + n + "] = s" + n + ";\n";
  }
  if (hooks)
    out += "  if (fpi != 0) ctx->rec_flops(ctx->sink, fpi * (u64)trips);\n";
  out += "}\n";
}

}  // namespace

std::string emit_c_source(const LoweredProgram& lowered) {
  std::string out;
  out.reserve(4096 + lowered.ops.size() * 128);
  out += "/* bwc native codegen\n";
  out += " * program: " + lowered.name + "\n";
  out += " * abi: " + std::to_string(detail::kNativeAbiVersion) + "\n";
  out += std::string(" * cflags: ") + detail::kNativeCFlags + "\n";
  out += " */\n";
  out += "typedef long long i64;\n";
  out += "typedef unsigned long long u64;\n";
  out += "\n";
  out += "typedef struct bwc_native_ctx {\n";
  out += "  double* const* data;\n";
  out += "  const u64* bases;\n";
  out += "  double* scalars;\n";
  out += "  const i64* iters;\n";
  out += "  void* sink;\n";
  out += "  void (*rec_load)(void* sink, u64 addr, u64 bytes);\n";
  out += "  void (*rec_store)(void* sink, u64 addr, u64 bytes);\n";
  out += "  void (*rec_flops)(void* sink, u64 n);\n";
  out += "  double (*input)(int key, i64 linear);\n";
  out += "  double (*call_f)(double x, double y);\n";
  out += "  double (*call_g)(double x, double y);\n";
  out += "  int (*stream)(void* host, int loop_id, const i64* iters);\n";
  out += "  int (*row_end)(void* host, int row, i64 v);\n";
  out += "  void* host;\n";
  out += "  int err_array;\n";
  out += "  int err_dim;\n";
  out += "  i64 err_index;\n";
  out += "} bwc_native_ctx;\n";
  out += "\n";
  out += "const int bwc_abi_version = " +
         std::to_string(detail::kNativeAbiVersion) + ";\n";
  out += "\n";
  for (std::size_t k = 0; k < lowered.stream_loops.size(); ++k) {
    emit_stream_kernel(out, lowered, k, /*hooks=*/true);
    out += "\n";
    emit_stream_kernel(out, lowered, k, /*hooks=*/false);
    out += "\n";
  }
  emit_run(out, lowered);
  return out;
}

}  // namespace bwc::runtime
