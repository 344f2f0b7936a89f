// Range execution of stream loops, shared by the VM, the native engine's
// driver and the fast-forward protocol.
//
// A StreamLoop (lowering.h) is an innermost loop of K guarded assignments
// whose statement set, access bases and input bases are fixed for one
// entry (its guards and bases read enclosing iteration slots only), and
// whose accesses are all in bounds by lowering's proof. So any contiguous
// sub-range [lower, upper] of its trip space can run independently given
// the program state (array storage, bases, scalars, the enclosing
// iteration values) and a recorder. The engines run the full range
// inline, or -- when its values may run first -- the values and then its
// access stream (runtime/fastforward.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "bwc/ir/expr.h"
#include "bwc/ir/stmt.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/lowering.h"
#include "bwc/runtime/recorder.h"

namespace bwc::runtime {

/// The mutable program state a stream loop touches: flat per-array
/// storage, simulated base addresses, the scalar file, and the enclosing
/// loops' iteration values (by slot).
struct StreamContext {
  double* const* data = nullptr;
  const std::uint64_t* bases = nullptr;
  double* scalars = nullptr;
  const std::int64_t* iters = nullptr;
};

inline double apply_stream_bin(ir::BinOp op, double a, double b) {
  switch (op) {
    case ir::BinOp::kAdd: return a + b;
    case ir::BinOp::kSub: return a - b;
    case ir::BinOp::kMul: return a * b;
    case ir::BinOp::kDiv: return a / b;
    case ir::BinOp::kMin: return std::min(a, b);
    case ir::BinOp::kMax: return std::max(a, b);
  }
  return 0.0;
}

inline double apply_stream_op(const StreamOp& op, double a, double b) {
  switch (op.code) {
    case StreamOp::Code::kBinary: return apply_stream_bin(op.bin_op, a, b);
    case StreamOp::Code::kCallF: return intrinsic_f(a, b);
    case StreamOp::Code::kCallG: return intrinsic_g(a, b);
  }
  return 0.0;
}

// -- What one entry does ----------------------------------------------------
//
// The one description of a stream entry that every engine, the access
// replay, the native bulk counts and lowering's certificates derive from:
// the statements whose guards hold run in program order; each iteration
// issues the accesses of those statements in tuple order and charges the
// sum of their flops.

/// Bit s set: statement s runs in this entry (kMaxStreamStmts <= 64).
using StreamMask = std::uint64_t;

/// `e` over the enclosing iteration values (terms in sl.terms).
inline std::int64_t stream_lin(const StreamLoop& sl, const LinExpr& e,
                               const std::int64_t* iters) {
  std::int64_t v = e.base;
  const LinTerm* t = sl.terms.data() + e.first_term;
  for (std::uint32_t k = 0; k < e.term_count; ++k)
    v += t[k].coeff * iters[static_cast<std::size_t>(t[k].slot)];
  return v;
}

/// The statements whose guards all hold at `iters`.
inline StreamMask stream_active(const StreamLoop& sl,
                                const std::int64_t* iters) {
  StreamMask mask = 0;
  for (std::size_t s = 0; s < sl.stmts.size(); ++s) {
    const StreamStmt& st = sl.stmts[s];
    bool holds = true;
    for (std::uint32_t g = 0; g < st.guard_count && holds; ++g) {
      const StreamGuard& guard = sl.guards[st.first_guard + g];
      holds = ir::evaluate_cmp(guard.cmp, stream_lin(sl, guard.diff, iters), 0);
    }
    if (holds) mask |= StreamMask{1} << s;
  }
  return mask;
}

inline bool stream_stmt_active(StreamMask active, std::int32_t stmt) {
  return ((active >> stmt) & 1u) != 0;
}

/// Flops one iteration charges with the statements of `active` (the
/// kernels charge them in bulk at the end of a range).
inline std::uint64_t stream_flops_per_iter(const StreamLoop& sl,
                                           StreamMask active) {
  std::uint64_t flops = 0;
  for (std::size_t s = 0; s < sl.stmts.size(); ++s) {
    if (stream_stmt_active(active, static_cast<std::int32_t>(s)))
      flops += sl.stmts[s].flops;
  }
  return flops;
}

/// Call `fn(const StreamAccess& a, std::size_t k)` for each access of the
/// statements of `active`, in tuple order.
template <typename Fn>
void for_each_stream_access(const StreamLoop& sl, StreamMask active, Fn&& fn) {
  for (std::size_t k = 0; k < sl.accesses.size(); ++k) {
    if (stream_stmt_active(active, sl.accesses[k].stmt)) fn(sl.accesses[k], k);
  }
}

/// The order-free decision the column kernels consult: the static
/// certificate computed at lowering time (StreamLoop::parallel_safety).
/// Only a proof of independence lets run_stream_values run a loop column
/// by column; kDependent and kUnknown keep iteration order.
inline bool stream_loop_parallel_safe(const StreamLoop& sl) {
  return sl.parallel_safety == verify::Verdict::kIndependent;
}

namespace detail {

inline double* stream_ptr(const StreamLoop& sl, const StreamAccess& a,
                          std::int64_t i, const StreamContext& ctx) {
  return ctx.data[static_cast<std::size_t>(a.array)] +
         (stream_lin(sl, a.elem, ctx.iters) + a.elem_step * i);
}

inline std::uint64_t stream_addr(const StreamLoop& sl, const StreamAccess& a,
                                 std::int64_t i, const StreamContext& ctx) {
  return ctx.bases[static_cast<std::size_t>(a.array)] +
         static_cast<std::uint64_t>(stream_lin(sl, a.byte, ctx.iters) +
                                    a.byte_step * i);
}

inline bool stream_reads_scalar(const StreamSrc& s, std::int32_t slot) {
  return s.kind == StreamSrc::Kind::kScalar && s.index == slot;
}

/// Is statement `s` of `active` a fold `x = x op e` whose scalar nothing
/// else of `active` reads or writes? Its accumulator may then live in a
/// register across a range; iteration order keeps the FP order.
inline bool stream_fold(const StreamLoop& sl, StreamMask active,
                        std::size_t s) {
  const StreamStmt& st = sl.stmts[s];
  if (!st.to_scalar || st.op_count == 0) return false;
  const std::uint32_t top = st.first_op + st.op_count - 1;
  const StreamOp& op = sl.ops[top];
  if (st.value.kind != StreamSrc::Kind::kReg ||
      st.value.index != static_cast<std::int32_t>(top) ||
      op.code != StreamOp::Code::kBinary || !stream_reads_scalar(op.a, st.dest))
    return false;
  int reads = 0, writes = 0;
  for (std::size_t t = 0; t < sl.stmts.size(); ++t) {
    if (!stream_stmt_active(active, static_cast<std::int32_t>(t))) continue;
    const StreamStmt& other = sl.stmts[t];
    for (std::uint32_t o = other.first_op; o < other.first_op + other.op_count;
         ++o) {
      reads += stream_reads_scalar(sl.ops[o].a, st.dest) +
               stream_reads_scalar(sl.ops[o].b, st.dest);
    }
    reads += stream_reads_scalar(other.value, st.dest);
    writes += other.to_scalar && other.dest == st.dest;
  }
  return reads == 1 && writes == 1;
}

/// The per-iteration kernel of `active`'s statements: each iteration
/// issues their accesses in tuple order (accesses never depend on values),
/// then runs their ops in program order, reading registers, scalars and
/// array elements as the generic op sequence would. The first fold among
/// them (stream_fold) carries its accumulator in a register instead of
/// its scalar slot, which it writes back at the end of the range.
template <typename Rec>
void run_stream_iterations(const StreamLoop& sl, StreamMask active,
                           std::int64_t lower, std::int64_t upper,
                           const StreamContext& ctx, Rec& rec) {
  constexpr bool kRecords = !std::is_same_v<Rec, NullRecorder>;
  std::uint8_t stmts[kMaxStreamStmts];
  std::uint8_t accs[kMaxStreamAccesses];
  double* p[kMaxStreamAccesses];
  std::uint64_t addr[kMaxStreamAccesses];
  std::int64_t in[kMaxStreamInputs];
  double regs[kMaxStreamOps];
  std::size_t n_stmts = 0, n_accs = 0;
  std::size_t fold = kMaxStreamStmts;  // position of the fold kept in acc
  for (std::size_t s = 0; s < sl.stmts.size(); ++s) {
    if (!stream_stmt_active(active, static_cast<std::int32_t>(s))) continue;
    if (fold == kMaxStreamStmts && stream_fold(sl, active, s)) fold = n_stmts;
    stmts[n_stmts++] = static_cast<std::uint8_t>(s);
  }
  double acc = fold < n_stmts ? ctx.scalars[sl.stmts[stmts[fold]].dest] : 0.0;
  for_each_stream_access(sl, active, [&](const StreamAccess& a, std::size_t k) {
    accs[n_accs++] = static_cast<std::uint8_t>(k);
    p[k] = stream_ptr(sl, a, lower, ctx);
    addr[k] = stream_addr(sl, a, lower, ctx);
  });
  for (std::size_t k = 0; k < sl.inputs.size(); ++k) {
    in[k] = stream_lin(sl, sl.inputs[k].elem, ctx.iters) +
            sl.inputs[k].elem_step * lower;
  }
  const auto read = [&](const StreamSrc& s, std::int64_t i) -> double {
    switch (s.kind) {
      case StreamSrc::Kind::kReg: return regs[s.index];
      case StreamSrc::Kind::kConst: return s.imm;
      case StreamSrc::Kind::kScalar: return ctx.scalars[s.index];
      case StreamSrc::Kind::kIter: return static_cast<double>(i);
      case StreamSrc::Kind::kOuter:
        return static_cast<double>(ctx.iters[s.index]);
      case StreamSrc::Kind::kLoad: return *p[s.index];
      case StreamSrc::Kind::kInput:
        return ir::input_value(sl.inputs[static_cast<std::size_t>(s.index)].key,
                               in[s.index]);
    }
    return 0.0;
  };
  for (std::int64_t i = lower; i <= upper; ++i) {
    if constexpr (kRecords) {
      for (std::size_t j = 0; j < n_accs; ++j) {
        const StreamAccess& a = sl.accesses[accs[j]];
        if (a.is_store) {
          rec.store(addr[accs[j]], a.elem_bytes);
        } else {
          rec.load(addr[accs[j]], a.elem_bytes);
        }
        addr[accs[j]] += static_cast<std::uint64_t>(a.byte_step);
      }
    }
    for (std::size_t j = 0; j < n_stmts; ++j) {
      const StreamStmt& st = sl.stmts[stmts[j]];
      const std::uint32_t end = st.first_op + st.op_count - (j == fold ? 1 : 0);
      for (std::uint32_t o = st.first_op; o < end; ++o) {
        const StreamOp& op = sl.ops[o];
        const double x = read(op.a, i);
        regs[o] = apply_stream_op(op, x, read(op.b, i));
      }
      if (j == fold) {
        acc = apply_stream_bin(sl.ops[end].bin_op, acc, read(sl.ops[end].b, i));
        continue;
      }
      const double v = read(st.value, i);
      if (st.to_scalar) {
        ctx.scalars[st.dest] = v;
      } else {
        *p[st.dest] = v;
      }
    }
    for (std::size_t j = 0; j < n_accs; ++j)
      p[accs[j]] += sl.accesses[accs[j]].elem_step;
    for (std::size_t k = 0; k < sl.inputs.size(); ++k)
      in[k] += sl.inputs[k].elem_step;
  }
  if (fold < n_stmts) ctx.scalars[sl.stmts[stmts[fold]].dest] = acc;
  const std::uint64_t fpi = stream_flops_per_iter(sl, active);
  if (fpi != 0) rec.flops(fpi * static_cast<std::uint64_t>(upper - lower + 1));
}

}  // namespace detail

/// Replay iterations [lower, upper] of `sl` against `ctx`, reporting every
/// access and flop to `rec`. The per-iteration access stream (each active
/// statement's rhs loads left to right, then its store) is byte-for-byte
/// the one the generic op sequence would produce. `Rec` is any type with
/// the Recorder access surface (load/store/flops) -- the live Recorder,
/// or a NullRecorder for values only.
template <typename Rec>
void run_stream_range(const StreamLoop& sl, std::int64_t lower,
                      std::int64_t upper, const StreamContext& ctx,
                      Rec& rec) {
  if (upper < lower) return;
  const StreamMask active = stream_active(sl, ctx.iters);
  if (active == 0) return;
  detail::run_stream_iterations(sl, active, lower, upper, ctx, rec);
}

}  // namespace bwc::runtime
