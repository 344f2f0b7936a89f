// Range execution of fused stream loops, shared by the VM, the native
// engine's driver and the fast-forward protocol.
//
// A StreamLoop (lowering.h) is an innermost loop whose accesses are all
// 1-D affine in the loop variable and provably in bounds, so any
// contiguous sub-range [lower, upper] of its trip space can be run
// independently given the program state (array storage, bases, scalars)
// and a recorder. The engines run the full range inline, or -- when
// fast-forward applies -- its values first and then its access stream
// (runtime/fastforward.h).
#pragma once

#include <algorithm>
#include <cstdint>

#include "bwc/ir/expr.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/runtime/lowering.h"

namespace bwc::runtime {

/// The mutable program state a stream loop touches: flat per-array
/// storage, simulated base addresses, and the scalar file.
struct StreamContext {
  double* const* data = nullptr;
  const std::uint64_t* bases = nullptr;
  double* scalars = nullptr;
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

// -- What one iteration does ----------------------------------------------
//
// The one description of a stream iteration that every engine, the access
// replay, the native bulk counts and lowering's certificates derive from:
// the body reads a, then b (two-operand bodies only), then stores the lhs
// (every body but kReduce, whose lhs is a register accumulator), and
// charges a constant number of flops.

/// True when the body reads operand b: binary and intrinsic-call bodies.
/// kCopy and kReduce read a alone.
inline bool stream_reads_b(const StreamLoop& sl) {
  return sl.body == StreamLoop::Body::kBinary ||
         sl.body == StreamLoop::Body::kCallF ||
         sl.body == StreamLoop::Body::kCallG;
}

/// Call `fn(const StreamOperand& o, bool is_store)` for each array access
/// one iteration of `sl` issues, in stream order: the loads of a then b,
/// then the store of the lhs. Constants, scalars and the loop variable
/// issue no access and are skipped.
template <typename Fn>
void for_each_stream_access(const StreamLoop& sl, Fn&& fn) {
  const auto visit = [&](const StreamOperand& o, bool is_store) {
    if (o.kind == StreamOperand::Kind::kArray) fn(o, is_store);
  };
  visit(sl.a, /*is_store=*/false);
  if (stream_reads_b(sl)) visit(sl.b, /*is_store=*/false);
  if (sl.body != StreamLoop::Body::kReduce) visit(sl.lhs, /*is_store=*/true);
}

/// Flops one iteration of `sl` charges (run_stream_range charges them in
/// bulk at the end of a range).
inline std::uint64_t stream_flops_per_iter(const StreamLoop& sl) {
  switch (sl.body) {
    case StreamLoop::Body::kBinary:
    case StreamLoop::Body::kReduce:
      return ir::kBinaryFlops;
    case StreamLoop::Body::kCallF:
    case StreamLoop::Body::kCallG:
      return static_cast<std::uint64_t>(sl.call_flops);
    case StreamLoop::Body::kCopy:
      return 0;
  }
  return 0;
}

/// The order-free decision the values kernels consult: the static
/// certificate computed at lowering time (StreamLoop::parallel_safety).
/// Only a proof of independence lets run_stream_values reorder a loop;
/// kDependent and kUnknown keep iteration order.
inline bool stream_loop_parallel_safe(const StreamLoop& sl) {
  return sl.parallel_safety == verify::Verdict::kIndependent;
}

namespace detail {

/// Runtime cursor for one operand: either an invariant value (constants
/// and scalars, hoisted -- the loop's only write is the lhs) or a pointer
/// walking an array stream.
struct StreamCursor {
  double value = 0.0;
  double* p = nullptr;
  std::uint64_t addr = 0;
  std::int64_t step = 0;        // elements per iteration (may be <= 0)
  std::int64_t step_bytes = 0;  // step * addr_scale (simulated byte shift)
  std::uint64_t bytes = 8;
};

inline StreamCursor make_stream_cursor(const StreamOperand& o,
                                       std::int64_t lower,
                                       const StreamContext& ctx) {
  StreamCursor c;
  switch (o.kind) {
    case StreamOperand::Kind::kConst:
      c.value = o.imm;
      break;
    case StreamOperand::Kind::kScalar:
      c.value = ctx.scalars[static_cast<std::size_t>(o.slot)];
      break;
    case StreamOperand::Kind::kIter:
      break;  // read substitutes the iteration value
    case StreamOperand::Kind::kArray: {
      // 1-D slot offsets equal the logical linear index under any layout;
      // the address pitch (addr_scale) carries the interleave factor.
      const std::int64_t linear0 = o.lin_base + o.lin_coeff * lower - 1;
      c.p = ctx.data[static_cast<std::size_t>(o.slot)] + linear0;
      c.addr = ctx.bases[static_cast<std::size_t>(o.slot)] +
               static_cast<std::uint64_t>(linear0) * o.addr_scale;
      c.step = o.lin_coeff;
      c.bytes = o.elem_bytes;
      c.step_bytes = o.lin_coeff * static_cast<std::int64_t>(o.addr_scale);
      break;
    }
  }
  return c;
}

template <typename Rec>
double stream_read(const StreamOperand& o, const StreamCursor& c,
                   std::int64_t i, Rec& rec) {
  if (o.kind == StreamOperand::Kind::kArray) {
    rec.load(c.addr, c.bytes);
    return *c.p;
  }
  if (o.kind == StreamOperand::Kind::kIter) return static_cast<double>(i);
  return c.value;
}

inline void stream_advance(const StreamOperand& o, StreamCursor& c) {
  if (o.kind == StreamOperand::Kind::kArray) {
    c.p += c.step;
    c.addr += static_cast<std::uint64_t>(c.step_bytes);
  }
}

}  // namespace detail

/// Replay iterations [lower, upper] of `sl` against `ctx`, reporting every
/// access and flop to `rec`. The per-element access stream (rhs loads left
/// to right, then the store) is byte-for-byte the one the generic op
/// sequence would produce. `Rec` is any type with the Recorder access
/// surface (load/store/flops) -- the live Recorder, or a NullRecorder for
/// values only.
template <typename Rec>
void run_stream_range(const StreamLoop& sl, std::int64_t lower,
                      std::int64_t upper, const StreamContext& ctx,
                      Rec& rec) {
  const std::int64_t trips = upper - lower + 1;
  if (trips <= 0) return;
  detail::StreamCursor lhs = detail::make_stream_cursor(sl.lhs, lower, ctx);
  detail::StreamCursor a = detail::make_stream_cursor(sl.a, lower, ctx);
  detail::StreamCursor b = detail::make_stream_cursor(sl.b, lower, ctx);

  if (sl.body == StreamLoop::Body::kReduce) {
    double acc = ctx.scalars[static_cast<std::size_t>(sl.lhs.slot)];
    for (std::int64_t i = lower; i <= upper; ++i) {
      const double x = detail::stream_read(sl.a, a, i, rec);
      acc = apply_stream_bin(sl.bin_op, acc, x);
      detail::stream_advance(sl.a, a);
    }
    ctx.scalars[static_cast<std::size_t>(sl.lhs.slot)] = acc;
  } else {
    for (std::int64_t i = lower; i <= upper; ++i) {
      double r;
      switch (sl.body) {
        case StreamLoop::Body::kCopy:
          r = detail::stream_read(sl.a, a, i, rec);
          break;
        case StreamLoop::Body::kBinary: {
          // Sequence the reads explicitly: the access stream is a then b
          // (as the generic op sequence pushes them), never left to the
          // unspecified argument evaluation order.
          const double x = detail::stream_read(sl.a, a, i, rec);
          const double y = detail::stream_read(sl.b, b, i, rec);
          r = apply_stream_bin(sl.bin_op, x, y);
          break;
        }
        case StreamLoop::Body::kCallF: {
          const double x = detail::stream_read(sl.a, a, i, rec);
          const double y = detail::stream_read(sl.b, b, i, rec);
          r = intrinsic_f(x, y);
          break;
        }
        default: {  // kCallG; kReduce handled above
          const double x = detail::stream_read(sl.a, a, i, rec);
          const double y = detail::stream_read(sl.b, b, i, rec);
          r = intrinsic_g(x, y);
          break;
        }
      }
      rec.store(lhs.addr, lhs.bytes);
      *lhs.p = r;
      detail::stream_advance(sl.lhs, lhs);
      detail::stream_advance(sl.a, a);
      detail::stream_advance(sl.b, b);
    }
  }
  const std::uint64_t flops_per_iter = stream_flops_per_iter(sl);
  if (flops_per_iter != 0)
    rec.flops(flops_per_iter * static_cast<std::uint64_t>(trips));
}

}  // namespace bwc::runtime
