#include "bwc/runtime/fastforward.h"

#include <algorithm>
#include <cstdlib>

#include "bwc/memsim/fastforward.h"

namespace bwc::runtime {

namespace {

/// Call `kernel.template operator()<Op>()` with `op` as a template
/// constant.
template <typename Kernel>
void with_bin_op(ir::BinOp op, Kernel&& kernel) {
  switch (op) {
    case ir::BinOp::kAdd: kernel.template operator()<ir::BinOp::kAdd>(); return;
    case ir::BinOp::kSub: kernel.template operator()<ir::BinOp::kSub>(); return;
    case ir::BinOp::kMul: kernel.template operator()<ir::BinOp::kMul>(); return;
    case ir::BinOp::kDiv: kernel.template operator()<ir::BinOp::kDiv>(); return;
    case ir::BinOp::kMin: kernel.template operator()<ir::BinOp::kMin>(); return;
    case ir::BinOp::kMax: kernel.template operator()<ir::BinOp::kMax>(); return;
  }
}

// -- Column kernels for order-free loops ----------------------------------
//
// A loop certified kIndependent may run statement by statement over a
// block of iterations: no two distinct iterations touch overlapping bytes
// with a write involved, and within an iteration the statements keep
// their order. Each op runs over the block into a scratch column (one per
// op register, load, input and the inner variable); unit-stride loads are
// read in place, and the last op of a unit-stride store writes its
// destination in place, so a one-op statement is one vectorizable pass
// over its arrays. Scalars need their own rule, since the certificate
// covers arrays only: a scalar the entry never writes is an invariant; a
// scalar every iteration writes before it reads it is a column (its last
// value is written back); a reduction `s = s op e`, where no other
// statement reads or writes s, folds e's column in iteration order, so the
// FP order and the checksum bits are unchanged. Any other scalar use falls
// back to the per-iteration kernel.

/// Iterations per block, and the stack scratch every column of a block
/// shares (32 KB): loops with many columns take shorter blocks, and a loop
/// whose blocks would fall below kMinColumnBlock runs per iteration.
constexpr std::int64_t kColumnBlock = 1024;
constexpr std::int64_t kMinColumnBlock = 16;
constexpr std::size_t kColumnScratch = 4096;

/// A block's operand: a column, or one value for the whole block.
struct View {
  const double* col = nullptr;
  double value = 0.0;
  double at(std::int64_t k) const { return col != nullptr ? col[k] : value; }
};

template <ir::BinOp Op>
void bin_columns(double* d, View a, View b, std::int64_t n) {
  if (a.col != nullptr && b.col != nullptr) {
    for (std::int64_t k = 0; k < n; ++k)
      d[k] = apply_stream_bin(Op, a.col[k], b.col[k]);
  } else if (a.col != nullptr) {
    for (std::int64_t k = 0; k < n; ++k)
      d[k] = apply_stream_bin(Op, a.col[k], b.value);
  } else if (b.col != nullptr) {
    for (std::int64_t k = 0; k < n; ++k)
      d[k] = apply_stream_bin(Op, a.value, b.col[k]);
  } else {
    const double r = apply_stream_bin(Op, a.value, b.value);
    for (std::int64_t k = 0; k < n; ++k) d[k] = r;
  }
}

template <ir::BinOp Op>
double fold_column(double acc, View e, std::int64_t n) {
  if (e.col != nullptr) {
    for (std::int64_t k = 0; k < n; ++k)
      acc = apply_stream_bin(Op, acc, e.col[k]);
  } else {
    for (std::int64_t k = 0; k < n; ++k)
      acc = apply_stream_bin(Op, acc, e.value);
  }
  return acc;
}

class ColumnRun {
 public:
  ColumnRun(const StreamLoop& sl, StreamMask active, const StreamContext& ctx)
      : sl_(sl), active_(active), ctx_(ctx) {}

  /// Classify the entry's scalars; false when one is neither an
  /// invariant, a per-iteration temporary nor a foldable reduction.
  bool plan() {
    const std::size_t cols =
        sl_.ops.size() + sl_.accesses.size() + sl_.inputs.size() + 1;
    block_ = std::min(kColumnBlock,
                      static_cast<std::int64_t>(kColumnScratch / cols));
    if (block_ < kMinColumnBlock) return false;
    std::size_t n_stmts = 0;
    for (std::size_t s = 0; s < sl_.stmts.size(); ++s) {
      if (stream_stmt_active(active_, static_cast<std::int32_t>(s)))
        stmts_[n_stmts++] = static_cast<std::uint8_t>(s);
    }
    n_stmts_ = n_stmts;
    // Count every scalar read and write of the entry.
    bool ok = true;
    for (std::size_t j = 0; j < n_stmts_; ++j) {
      const StreamStmt& st = sl_.stmts[stmts_[j]];
      for_each_src(st, [&](const StreamSrc& s) {
        if (s.kind != StreamSrc::Kind::kScalar) return;
        Scalar* sc = scalar(s.index);
        ok = ok && sc != nullptr;
        if (sc != nullptr) ++sc->reads;
      });
      if (!st.to_scalar) continue;
      Scalar* sc = scalar(st.dest);
      if (sc == nullptr) return false;
      ++sc->writes;
    }
    if (!ok) return false;
    // Walk in program order: a written scalar must be written before it
    // is read, unless its one writer is a fold and nothing else reads it.
    for (std::size_t j = 0; j < n_stmts_; ++j) {
      const StreamStmt& st = sl_.stmts[stmts_[j]];
      fold_[j] = detail::stream_fold(sl_, active_, stmts_[j]);
      for_each_src(st, [&](const StreamSrc& s) {
        if (s.kind != StreamSrc::Kind::kScalar) return;
        const Scalar& sc = *scalar(s.index);
        ok = ok && (sc.writes == 0 || sc.written ||
                    (fold_[j] && s.index == st.dest));
      });
      if (!ok) return false;
      if (st.to_scalar) scalar(st.dest)->written = true;
    }
    return true;
  }

  void run(std::int64_t lower, std::int64_t upper) {
    for (std::size_t j = 0; j < n_stmts_; ++j) {
      if (fold_[j]) {
        const StreamStmt& st = sl_.stmts[stmts_[j]];
        acc_[j] = ctx_.scalars[static_cast<std::size_t>(st.dest)];
      }
    }
    for (std::int64_t first = lower; first <= upper; first += block_) {
      block(first, std::min(block_, upper - first + 1));
    }
    for (std::size_t j = 0; j < n_stmts_; ++j) {
      const StreamStmt& st = sl_.stmts[stmts_[j]];
      if (!st.to_scalar) continue;
      ctx_.scalars[static_cast<std::size_t>(st.dest)] =
          fold_[j] ? acc_[j] : last_[j];
    }
  }

 private:
  struct Scalar {
    std::int32_t slot = 0;
    int reads = 0, writes = 0;
    bool written = false;
    View view;  // the current block's column of a temporary
  };

  /// The entry's record of scalar `slot`, or null when the entry touches
  /// more scalars than the plan keeps.
  Scalar* scalar(std::int32_t slot) {
    for (std::size_t k = 0; k < n_scalars_; ++k) {
      if (scalars_[k].slot == slot) return &scalars_[k];
    }
    if (n_scalars_ == kMaxScalars) return nullptr;
    scalars_[n_scalars_] = Scalar{};
    scalars_[n_scalars_].slot = slot;
    return &scalars_[n_scalars_++];
  }

  template <typename Fn>
  void for_each_src(const StreamStmt& st, Fn&& fn) const {
    for (std::uint32_t o = st.first_op; o < st.first_op + st.op_count; ++o) {
      fn(sl_.ops[o].a);
      fn(sl_.ops[o].b);
    }
    fn(st.value);
  }

  double* column(std::size_t c) {
    return scratch_ + c * static_cast<std::size_t>(block_);
  }

  View view(const StreamSrc& s, std::int64_t first, std::int64_t n) {
    switch (s.kind) {
      case StreamSrc::Kind::kReg:
        return {column(static_cast<std::size_t>(s.index)), 0.0};
      case StreamSrc::Kind::kConst: return {nullptr, s.imm};
      case StreamSrc::Kind::kScalar: {
        const Scalar& sc = *scalar(s.index);
        if (sc.writes != 0) return sc.view;
        return {nullptr, ctx_.scalars[static_cast<std::size_t>(s.index)]};
      }
      case StreamSrc::Kind::kOuter: {
        const auto slot = static_cast<std::size_t>(s.index);
        return {nullptr, static_cast<double>(ctx_.iters[slot])};
      }
      case StreamSrc::Kind::kIter: {
        double* d = column(sl_.ops.size() + sl_.accesses.size() +
                           sl_.inputs.size());
        for (std::int64_t k = 0; k < n; ++k)
          d[k] = static_cast<double>(first + k);
        return {d, 0.0};
      }
      case StreamSrc::Kind::kLoad: {
        const auto k = static_cast<std::size_t>(s.index);
        const StreamAccess& a = sl_.accesses[k];
        const double* p = detail::stream_ptr(sl_, a, first, ctx_);
        if (a.elem_step == 1) return {p, 0.0};
        double* d = column(sl_.ops.size() + k);
        for (std::int64_t t = 0; t < n; ++t) d[t] = p[a.elem_step * t];
        return {d, 0.0};
      }
      case StreamSrc::Kind::kInput: {
        const auto k = static_cast<std::size_t>(s.index);
        const StreamInput& in = sl_.inputs[k];
        const std::int64_t lin0 =
            stream_lin(sl_, in.elem, ctx_.iters) + in.elem_step * first;
        double* d = column(sl_.ops.size() + sl_.accesses.size() + k);
        for (std::int64_t t = 0; t < n; ++t)
          d[t] = ir::input_value(in.key, lin0 + in.elem_step * t);
        return {d, 0.0};
      }
    }
    return {};
  }

  void block(std::int64_t first, std::int64_t n) {
    for (std::size_t j = 0; j < n_stmts_; ++j) {
      const StreamStmt& st = sl_.stmts[stmts_[j]];
      const std::uint32_t end = st.first_op + st.op_count - (fold_[j] ? 1 : 0);
      // The last op of a unit-stride array store computes straight into
      // the destination: the certificate leaves each element to its own
      // iteration, whose reads of it all come first.
      double* direct = nullptr;
      if (!st.to_scalar && st.op_count != 0 &&
          st.value.kind == StreamSrc::Kind::kReg &&
          st.value.index == static_cast<std::int32_t>(end - 1)) {
        const StreamAccess& a = sl_.accesses[static_cast<std::size_t>(st.dest)];
        if (a.elem_step == 1) direct = detail::stream_ptr(sl_, a, first, ctx_);
      }
      for (std::uint32_t o = st.first_op; o < end; ++o) {
        const StreamOp& op = sl_.ops[o];
        const View a = view(op.a, first, n);
        const View b = view(op.b, first, n);
        double* d = direct != nullptr && o + 1 == end ? direct : column(o);
        if (op.code == StreamOp::Code::kBinary) {
          with_bin_op(op.bin_op,
                      [&]<ir::BinOp Op>() { bin_columns<Op>(d, a, b, n); });
        } else {
          for (std::int64_t k = 0; k < n; ++k)
            d[k] = apply_stream_op(op, a.at(k), b.at(k));
        }
      }
      if (direct != nullptr) continue;
      if (fold_[j]) {
        const StreamOp& op = sl_.ops[end];
        const View e = view(op.b, first, n);
        with_bin_op(op.bin_op, [&]<ir::BinOp Op>() {
          acc_[j] = fold_column<Op>(acc_[j], e, n);
        });
        continue;
      }
      View v = view(st.value, first, n);
      if (st.to_scalar) {
        if (st.value.kind == StreamSrc::Kind::kLoad && v.col != nullptr) {
          // A unit-stride load is read in place; a later statement may
          // store over it before the temporary's readers run.
          double* d = column(sl_.ops.size() +
                             static_cast<std::size_t>(st.value.index));
          std::copy(v.col, v.col + n, d);
          v.col = d;
        }
        scalar(st.dest)->view = v;
        last_[j] = v.at(n - 1);
        continue;
      }
      const StreamAccess& a = sl_.accesses[static_cast<std::size_t>(st.dest)];
      double* p = detail::stream_ptr(sl_, a, first, ctx_);
      const std::int64_t step = a.elem_step;
      // v may be this very column read in place (x[i] = x[i]).
      if (v.col == nullptr) {
        for (std::int64_t k = 0; k < n; ++k) p[step * k] = v.value;
      } else {
        for (std::int64_t k = 0; k < n; ++k) p[step * k] = v.col[k];
      }
    }
  }

  static constexpr std::size_t kMaxScalars = 16;

  const StreamLoop& sl_;
  StreamMask active_;
  const StreamContext& ctx_;
  std::int64_t block_ = kColumnBlock;
  double scratch_[kColumnScratch];  // the block's columns
  // Indexed by position among the active statements; only the first
  // n_stmts_ entries are ever written or read.
  std::uint8_t stmts_[kMaxStreamStmts];
  std::size_t n_stmts_ = 0;
  bool fold_[kMaxStreamStmts];
  double acc_[kMaxStreamStmts];
  double last_[kMaxStreamStmts];
  Scalar scalars_[kMaxScalars];
  std::size_t n_scalars_ = 0;
};

/// True when `sl` against `rec`'s hierarchy satisfies the fast-forward
/// preconditions: a uniform per-iteration byte step and a
/// translation-invariant hierarchy. Necessary, not sufficient -- the
/// periodic fixpoint must still be certified at run time.
bool stream_fast_forwardable(const StreamLoop& sl, const Recorder& rec) {
  return sl.uniform_step_bytes != 0 && rec.hierarchy() != nullptr &&
         rec.hierarchy()->translation_invariant();
}

/// The VM's own kernels behind the StreamRangeExec interface.
class DefaultRangeExec final : public StreamRangeExec {
 public:
  void range(const StreamLoop& sl, std::int64_t lower, std::int64_t upper,
             const StreamContext& ctx, Recorder& rec) override {
    run_stream_range(sl, lower, upper, ctx, rec);
  }
  void values(const StreamLoop& sl, std::int64_t lower, std::int64_t upper,
              const StreamContext& ctx) override {
    run_stream_values(sl, lower, upper, ctx);
  }
};

}  // namespace

StreamRangeExec& default_range_exec() {
  static DefaultRangeExec exec;
  return exec;
}

void run_stream_values(const StreamLoop& sl, std::int64_t lower,
                       std::int64_t upper, const StreamContext& ctx) {
  if (upper < lower) return;
  const StreamMask active = stream_active(sl, ctx.iters);
  if (active == 0) return;
  if (stream_loop_parallel_safe(sl)) {
    ColumnRun columns(sl, active, ctx);
    if (columns.plan()) {
      columns.run(lower, upper);
      return;
    }
  }
  NullRecorder null;
  detail::run_stream_iterations(sl, active, lower, upper, ctx, null);
}

void run_stream_serial(const StreamLoop& sl, const StreamContext& ctx,
                       Recorder& rec, bool fast_forward,
                       StreamRangeExec& exec) {
  if (sl.upper < sl.lower) return;
  if (!rec.skipping_rows() &&
      !(fast_forward && stream_fast_forwardable(sl, rec))) {
    exec.range(sl, sl.lower, sl.upper, ctx, rec);
    return;
  }
  // Addresses never depend on values, so the arithmetic can run ahead of
  // the access stream; the flops are charged in bulk, exactly as
  // exec.range() charges them at the end of a range.
  exec.values(sl, sl.lower, sl.upper, ctx);
  const std::uint64_t fpi =
      stream_flops_per_iter(sl, stream_active(sl, ctx.iters));
  if (fpi != 0)
    rec.flops(fpi * static_cast<std::uint64_t>(sl.upper - sl.lower + 1));
  replay_stream_accesses(sl, sl.lower, sl.upper, ctx, rec);
}

void replay_stream_accesses(const StreamLoop& sl, std::int64_t lower,
                            std::int64_t upper, const StreamContext& ctx,
                            Recorder& rec) {
  const std::int64_t trips = upper - lower + 1;
  if (trips <= 0) return;
  const StreamMask active = stream_active(sl, ctx.iters);
  if (rec.hierarchy() == nullptr) {
    // Nothing to simulate: only the totals are observable.
    std::uint64_t loads = 0, stores = 0, reg_bytes = 0;
    for_each_stream_access(sl, active, [&](const StreamAccess& a, std::size_t) {
      ++(a.is_store ? stores : loads);
      reg_bytes += a.elem_bytes;
    });
    const auto n = static_cast<std::uint64_t>(trips);
    rec.count_accesses(loads * n, stores * n, reg_bytes * n);
    return;
  }

  // The per-iteration access tuple in stream order, exactly as
  // run_stream_range issues it.
  struct Cursor {
    std::uint64_t addr = 0;
    std::uint64_t bytes = 8;
    std::int64_t step = 0;
    bool is_store = false;
  };
  Cursor cursors[kMaxStreamAccesses];
  int n = 0;
  for_each_stream_access(sl, active, [&](const StreamAccess& a, std::size_t) {
    cursors[n++] = {detail::stream_addr(sl, a, lower, ctx), a.elem_bytes,
                    a.byte_step, a.is_store};
  });
  const auto emit = [&](std::int64_t count) {
    for (std::int64_t k = 0; k < count; ++k) {
      for (int s = 0; s < n; ++s) {
        Cursor& c = cursors[s];
        if (c.is_store) {
          rec.store(c.addr, c.bytes);
        } else {
          rec.load(c.addr, c.bytes);
        }
        c.addr += static_cast<std::uint64_t>(c.step);
      }
    }
  };

  if (!stream_fast_forwardable(sl, rec)) {
    emit(trips);
    return;
  }
  memsim::MemoryHierarchy* h = rec.hierarchy();
  const auto P = static_cast<std::int64_t>(
      memsim::line_granular_repeats(*h, sl.uniform_step_bytes));
  // Lines the range touches, at the largest line size: a range that fits
  // in the caches never evicts its own lines, so it cannot certify.
  const auto line = static_cast<std::int64_t>(h->max_line_bytes());
  const std::int64_t stride = std::abs(sl.uniform_step_bytes);
  std::uint64_t touched = 0;
  for (int s = 0; s < n; ++s) {
    const auto bytes = static_cast<std::int64_t>(cursors[s].bytes);
    const std::int64_t lines =
        stride >= line ? trips : (stride * (trips - 1) + bytes) / line + 2;
    touched += static_cast<std::uint64_t>(lines * line);
  }
  if (trips < memsim::kMinPeriodsToAttempt * P ||
      touched <= h->total_capacity_bytes()) {
    emit(trips);
    return;
  }

  // Period deltas must not swallow a pending coalesced run from whatever
  // preceded the loop; from here on flushes land on period boundaries,
  // which is observable-exact by the run-splitting equivalence the
  // hierarchy guarantees (see hierarchy.h load_run/store_run).
  rec.flush();
  memsim::PeriodDetector detector(h, sl.uniform_step_bytes * P);
  std::int64_t i = lower;
  while (i + P - 1 <= upper) {
    emit(P);
    i += P;
    rec.flush();
    if (detector.boundary()) {
      const std::int64_t m = (upper - i + 1) / P;
      if (m > 0) {
        // Advance the hierarchy analytically and bulk-count the skipped
        // accesses; the per-period register bytes are exactly the
        // registers<->L1 boundary bytes of the delta.
        const auto times = static_cast<std::uint64_t>(m);
        const memsim::MemoryHierarchy::Counters& delta = detector.delta();
        detector.skip(times);
        rec.count_accesses(delta.loads * times, delta.stores * times,
                           (delta.toward_cpu[0] + delta.from_cpu[0]) * times);
        rec.count_fast_forward(times * static_cast<std::uint64_t>(P));
        for (int s = 0; s < n; ++s)
          cursors[s].addr +=
              static_cast<std::uint64_t>(cursors[s].step * m * P);
        i += m * P;
      }
      break;
    }
    if (detector.exhausted()) break;
  }
  emit(upper - i + 1);
}

}  // namespace bwc::runtime
