// Integer interval arithmetic shared by the static checkers.
//
// Guards in the IR compare two affine expressions; when their difference
// involves a single loop variable, the guard carves that variable's
// interval into the sub-intervals where the branch runs. The static
// engine's site walk (static_dependence.cpp, which every reference-based
// analysis and the traffic bound read) and the structural validator
// refine through guards this way, which is what makes them exact on fused
// programs (whose bodies sit under outer-union, alignment and promotion
// guards).
#pragma once

#include <cstdint>
#include <vector>

#include "bwc/ir/stmt.h"

namespace bwc::verify {

/// Closed interval; empty when lo > hi.
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = -1;
  bool empty() const { return lo > hi; }
  std::int64_t size() const { return empty() ? 0 : hi - lo + 1; }
};

/// Split an enclosing variable's `range` by the guard `c*v + k OP 0`
/// (c != 0) into the sub-intervals of v where the guard holds
/// (`then_iv`) and fails (`else_iv`). Each output receives zero, one or
/// -- for != / == complements -- two non-empty intervals, all clipped to
/// `range`; their union is exactly `range`.
void split_guard(ir::CmpOp op, std::int64_t c, std::int64_t k, Interval range,
                 std::vector<Interval>* then_iv,
                 std::vector<Interval>* else_iv);

}  // namespace bwc::verify
