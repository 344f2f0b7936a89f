#include "bwc/runtime/fastforward.h"

#include "bwc/memsim/fastforward.h"

namespace bwc::runtime {

namespace {

// -- Specialized value kernels for the values-first pass -----------------
//
// With Op a template constant the apply_stream_bin switch folds away and
// each instantiation is a bare unit-stride loop over raw doubles --
// vectorizable, unlike the generic run_stream_range interpreter whose
// per-iteration body dispatch costs as much as the simulation it skips.
// A null operand pointer means "hoisted invariant" (constant or scalar).

template <ir::BinOp Op, bool AArr, bool BArr>
void binary_span(double* l, const double* a, double av, const double* b,
                 double bv, std::int64_t n) {
  for (std::int64_t k = 0; k < n; ++k)
    l[k] = apply_stream_bin(Op, AArr ? a[k] : av, BArr ? b[k] : bv);
}

template <ir::BinOp Op>
void binary_span_dispatch(double* l, const double* a, double av,
                          const double* b, double bv, std::int64_t n) {
  if (a != nullptr && b != nullptr) {
    binary_span<Op, true, true>(l, a, av, b, bv, n);
  } else if (a != nullptr) {
    binary_span<Op, true, false>(l, a, av, b, bv, n);
  } else if (b != nullptr) {
    binary_span<Op, false, true>(l, a, av, b, bv, n);
  } else {
    binary_span<Op, false, false>(l, a, av, b, bv, n);
  }
}

/// Element pointer for iteration `lower` of an array operand, remapped to
/// the low end of the span when the shared stride is descending so every
/// kernel walks ascending (legal: the caller requires
/// stream_loop_parallel_safe, i.e. order-free iterations).
double* span_base(const StreamOperand& o, std::int64_t lower, std::int64_t n,
                  const StreamContext& ctx) {
  const std::int64_t linear0 = o.lin_base + o.lin_coeff * lower - 1;
  double* p = ctx.data[static_cast<std::size_t>(o.slot)] + linear0;
  return o.lin_coeff < 0 ? p - (n - 1) : p;
}

/// Hoisted invariant value of a non-array operand (loop writes only the
/// lhs array, so scalars are constant over the span).
double invariant_value(const StreamOperand& o, const StreamContext& ctx) {
  return o.kind == StreamOperand::Kind::kScalar
             ? ctx.scalars[static_cast<std::size_t>(o.slot)]
             : o.imm;
}

/// Try the tight kernels; false means the caller must use the generic
/// (order-preserving) interpreter path.
bool try_stream_values_fast(const StreamLoop& sl, std::int64_t lower,
                            std::int64_t upper, const StreamContext& ctx) {
  if (sl.body != StreamLoop::Body::kCopy &&
      sl.body != StreamLoop::Body::kBinary)
    return false;
  if (!stream_loop_parallel_safe(sl)) return false;
  for (const StreamOperand* o : {&sl.lhs, &sl.a, &sl.b}) {
    if (o == &sl.b && !stream_reads_b(sl)) continue;
    if (o->kind == StreamOperand::Kind::kIter) return false;
    if (o->kind == StreamOperand::Kind::kArray &&
        o->lin_coeff != sl.lhs.lin_coeff)
      return false;
  }
  if (sl.lhs.lin_coeff != 1 && sl.lhs.lin_coeff != -1) return false;

  const std::int64_t n = upper - lower + 1;
  double* l = span_base(sl.lhs, lower, n, ctx);
  const double* a = sl.a.kind == StreamOperand::Kind::kArray
                        ? span_base(sl.a, lower, n, ctx)
                        : nullptr;
  const double av = a != nullptr ? 0.0 : invariant_value(sl.a, ctx);
  if (sl.body == StreamLoop::Body::kCopy) {
    if (a != nullptr) {
      for (std::int64_t k = 0; k < n; ++k) l[k] = a[k];
    } else {
      for (std::int64_t k = 0; k < n; ++k) l[k] = av;
    }
    return true;
  }
  const double* b = sl.b.kind == StreamOperand::Kind::kArray
                        ? span_base(sl.b, lower, n, ctx)
                        : nullptr;
  const double bv = b != nullptr ? 0.0 : invariant_value(sl.b, ctx);
  switch (sl.bin_op) {
    case ir::BinOp::kAdd:
      binary_span_dispatch<ir::BinOp::kAdd>(l, a, av, b, bv, n);
      return true;
    case ir::BinOp::kSub:
      binary_span_dispatch<ir::BinOp::kSub>(l, a, av, b, bv, n);
      return true;
    case ir::BinOp::kMul:
      binary_span_dispatch<ir::BinOp::kMul>(l, a, av, b, bv, n);
      return true;
    case ir::BinOp::kDiv:
      binary_span_dispatch<ir::BinOp::kDiv>(l, a, av, b, bv, n);
      return true;
    case ir::BinOp::kMin:
      binary_span_dispatch<ir::BinOp::kMin>(l, a, av, b, bv, n);
      return true;
    case ir::BinOp::kMax:
      binary_span_dispatch<ir::BinOp::kMax>(l, a, av, b, bv, n);
      return true;
  }
  return false;
}

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
  if (try_stream_values_fast(sl, lower, upper, ctx)) return;
  NullRecorder null;
  run_stream_range(sl, lower, upper, ctx, null);
}

void run_stream_serial(const StreamLoop& sl, const StreamContext& ctx,
                       Recorder& rec, bool fast_forward,
                       StreamRangeExec& exec) {
  if (sl.upper < sl.lower) return;
  if (!fast_forward || !stream_fast_forwardable(sl, rec)) {
    exec.range(sl, sl.lower, sl.upper, ctx, rec);
    return;
  }
  // Addresses never depend on values, so the arithmetic can run ahead of
  // the access stream as one bare in-order loop; the flops are charged in
  // bulk, exactly as exec.range() charges them at the end of a range.
  exec.values(sl, sl.lower, sl.upper, ctx);
  const std::uint64_t fpi = stream_flops_per_iter(sl);
  if (fpi != 0)
    rec.flops(fpi * static_cast<std::uint64_t>(sl.upper - sl.lower + 1));
  replay_stream_accesses(sl, sl.lower, sl.upper, ctx.bases, rec);
}

void replay_stream_accesses(const StreamLoop& sl, std::int64_t lower,
                            std::int64_t upper, const std::uint64_t* bases,
                            Recorder& rec) {
  const std::int64_t trips = upper - lower + 1;
  if (trips <= 0) return;
  if (rec.hierarchy() == nullptr) {
    // Nothing to simulate: only the totals are observable.
    std::uint64_t loads = 0, stores = 0, reg_bytes = 0;
    for_each_stream_access(sl, [&](const StreamOperand& o, bool is_store) {
      ++(is_store ? stores : loads);
      reg_bytes += o.elem_bytes;
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
  Cursor cursors[3];
  int n = 0;
  for_each_stream_access(sl, [&](const StreamOperand& o, bool is_store) {
    const std::int64_t linear0 = o.lin_base + o.lin_coeff * lower - 1;
    cursors[n++] = {bases[static_cast<std::size_t>(o.slot)] +
                        static_cast<std::uint64_t>(linear0) * o.addr_scale,
                    o.elem_bytes,
                    o.lin_coeff * static_cast<std::int64_t>(o.addr_scale),
                    is_store};
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
  if (trips < memsim::kMinPeriodsToAttempt * P) {
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
