// Lowering pass: resolve a loop-program IR to a slot-addressed, flat
// bytecode form that the compiled executor can replay without any
// per-access name lookups or heap allocation.
//
// The tree-walking interpreter (interpreter.h) pays three per-access
// costs that dominate replay time: a string-hash lookup for every scalar,
// a linear string-compare scan of the loop environment for every loop
// variable, and a std::vector of subscript values for every array
// reference. lower() pays those costs once per program instead:
//
//  * scalar names    -> dense integer slots into a double array
//  * loop variables  -> dense iteration slots (one per nesting depth),
//                       resolved lexically so shadowing works
//  * affine exprs    -> LinExpr: base + sum(coeff * iter[slot])
//  * subscripts      -> per-dimension {LinExpr, extent, stride} triples
//                       with the column-major strides baked in, so
//                       locate() becomes a few integer multiply-adds
//  * statement tree  -> a compact Op array with explicit jump targets,
//                       executed by a tight dispatch loop (compiled.h)
//  * loops           -> StreamLoop (fused innermost loops) and RowLoop
//                       (rows that repeat one byte step apart) side
//                       tables, the periods of fast-forward
//
// Lowering validates what the interpreter would only discover at run
// time: references to undeclared scalars, unbound loop variables and
// malformed intrinsic calls all throw bwc::Error here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/ir/program.h"
#include "bwc/verify/static_dependence.h"

namespace bwc::runtime {

/// One term of a linear expression: coeff * iter[slot].
struct LinTerm {
  std::int32_t slot = 0;
  std::int64_t coeff = 0;
};

/// base + sum of LinTerms stored in LoweredProgram::terms
/// [first_term, first_term + term_count).
struct LinExpr {
  std::int64_t base = 0;
  std::uint32_t first_term = 0;
  std::uint32_t term_count = 0;
};

/// One subscript dimension of an array or input access. `index` yields the
/// 1-based subscript; legal range is [1, extent]; `stride` is the element
/// stride of this dimension under column-major layout (the *logical*
/// storage stride); `layout_stride` is its slot stride in the declared
/// ArrayLayout (equal to `stride` under the default layout).
struct LoweredDim {
  LinExpr index;
  std::int64_t extent = 0;
  std::int64_t stride = 1;
  std::int64_t layout_stride = 1;
};

enum class OpCode : std::uint8_t {
  kPushConst,    // push imm
  kPushScalar,   // push scalars[slot]
  kPushLoopVar,  // push (double)iters[slot]
  kPushInput,    // push input_value(input_key, linearized dims)
  kLoadArray,    // push storage[slot][linearized dims]; records a load
  kLoadArray1,   // kLoadArray specialized: 1-D subscript lin_base +
                 // lin_coeff * iters[iter], range [1, extent]
  kStoreArray1,  // kStoreArray specialized the same way
  kBinary,       // pop b, a; push a <bin_op> b; records kBinaryFlops
  kCallF,        // pop b, a; push intrinsic_f(a, b); records `flops`
  kCallG,        // pop b, a; push intrinsic_g(a, b); records `flops`
  kStoreArray,   // pop v; storage[slot][dims] = v; records a store
  kStoreScalar,  // pop v; scalars[slot] = v
  kBranch,       // if !(lin_exprs[lhs] cmp lin_exprs[rhs]) goto target
  kJump,         // goto target
  kLoopBegin,    // if lower > upper goto target; else iters[slot] = lower
  kLoopEnd,      // if ++iters[slot] <= upper goto target (body start);
                 // a certified loop (row >= 0) reports each row end first
  kStreamLoop,   // run stream_loops[slot] natively (fused innermost loop)
  kHalt,         // end of program
};

/// One operand of a fused stream loop: a constant, a scalar read, the loop
/// variable itself, or a 1-D array reference whose subscript is
/// `lin_base + lin_coeff * i` in the fused loop's variable.
struct StreamOperand {
  enum class Kind : std::uint8_t { kConst, kScalar, kIter, kArray };
  Kind kind = Kind::kConst;
  double imm = 0.0;            // kConst
  std::int32_t slot = 0;       // kScalar: scalar slot; kArray: array id
  std::int64_t lin_base = 0;   // kArray subscript intercept
  std::int64_t lin_coeff = 0;  // kArray subscript slope in the loop var
  std::uint64_t elem_bytes = 8;
  /// Simulated bytes between consecutive layout slots (elem_bytes when the
  /// array is not interleaved); the cursor step is lin_coeff * addr_scale.
  std::uint64_t addr_scale = 8;
};

/// A fused innermost loop: `for i = lower..upper` around one streaming
/// statement. Lowering only builds one when every access is a 1-D affine
/// subscript in the loop variable alone and provably in bounds over the
/// whole trip range, so the executor can run the body as a tight native
/// loop -- pointers advanced incrementally, no per-iteration dispatch,
/// bounds checks hoisted out -- while producing the identical access
/// stream, element order and flop totals as the generic op sequence.
struct StreamLoop {
  /// Statement shape. kReduce is `s = s <bin_op> operand_a` with the
  /// accumulator carried in a register across iterations.
  enum class Body : std::uint8_t { kCopy, kBinary, kCallF, kCallG, kReduce };
  Body body = Body::kCopy;
  ir::BinOp bin_op = ir::BinOp::kAdd;  // kBinary/kReduce
  std::int32_t call_flops = 0;         // kCallF/kCallG per-iteration charge
  std::int64_t lower = 0, upper = 0;
  bool lhs_is_array = false;
  StreamOperand lhs;       // kArray destination, or kScalar for kReduce
  StreamOperand a, b;      // rhs operands (b unused for kCopy/kReduce)
  /// Per-iteration byte shift shared by *every* array access of the body,
  /// or 0 when no such uniform shift exists (reductions, mixed strides,
  /// stride-0 destinations). Nonzero means the loop's whole access tuple
  /// translates by this constant each iteration -- the precondition for
  /// steady-state fast-forward (runtime/fastforward.h).
  std::int64_t uniform_step_bytes = 0;
  /// Static order-free certificate, computed once at lowering time
  /// (verify::certify_parallel_accesses over the loop's byte-linear
  /// accesses): kIndependent proves no two distinct iterations touch
  /// overlapping bytes with a write involved, so the iterations may run
  /// in any order; kDependent carries a concrete cross-iteration
  /// conflict. Only kIndependent loops take the vectorized values kernels
  /// of the values-first pass (stream_loop_parallel_safe, stream_exec.h;
  /// run_stream_values, fastforward.h), which walk a descending loop
  /// ascending; kDependent and kUnknown loops keep iteration order.
  verify::Verdict parallel_safety = verify::Verdict::kUnknown;
};

/// Row certificate of a generic loop whose body contains a loop: every
/// access of the body moves by the same `step_bytes` per iteration of the
/// loop (0 when every row reuses the same lines), and every guard that
/// reads the loop variable reads no other loop variable. Between two
/// segment starts those guards keep their outcomes, so each row issues the
/// previous row's access stream translated by `step_bytes` -- the period
/// source of row fast-forward (Recorder::end_row, runtime/fastforward.h).
/// Only the outermost certified loop of a nest carries one.
struct RowLoop {
  std::int64_t lower = 0, upper = 0;
  std::int64_t step_bytes = 0;
  /// Bytes of the arrays the body touches: a bound on the loop's
  /// footprint, which the recorder compares against the cache capacity.
  std::uint64_t footprint_bytes = 0;
  /// First rows of the second and later segments, ascending, each in
  /// (lower, upper]: the rows at which some guard changes its outcome.
  std::vector<std::int64_t> segment_starts;
};

/// One flat instruction. A plain struct (no unions) keeps the executor
/// branch-free on field access; unused fields are simply ignored.
struct Op {
  OpCode code = OpCode::kHalt;
  ir::BinOp bin_op = ir::BinOp::kAdd;  // kBinary
  ir::CmpOp cmp = ir::CmpOp::kEq;      // kBranch
  std::int32_t slot = 0;       // scalar slot, iter slot, or array id
  std::int32_t flops = 0;      // kCallF/kCallG flop charge
  std::int32_t input_key = 0;  // kPushInput
  std::uint32_t first_dim = 0;  // into LoweredProgram::dims
  std::uint32_t dim_count = 0;
  std::uint32_t lhs = 0, rhs = 0;  // kBranch: into LoweredProgram::lin_exprs
  std::int32_t target = 0;     // jump target pc
  std::int32_t row = -1;       // kLoopEnd: index into row_loops, or -1
  std::int64_t lower = 0, upper = 0;  // kLoopBegin/kLoopEnd bounds
  double imm = 0.0;            // kPushConst
  std::uint64_t elem_bytes = 8;  // kLoadArray/kStoreArray access size
  // k{Load,Store}Array1: operands inlined so the executor chases no
  // side-table pointers on the hot single-subscript path.
  std::int32_t iter = 0;      // iteration slot of the subscript
  std::int64_t lin_base = 0;  // subscript = lin_base + lin_coeff*iters[iter]
  std::int64_t lin_coeff = 0;
  std::int64_t extent = 0;    // legal subscript range [1, extent]
  /// Simulated bytes between consecutive layout slots of the accessed
  /// array (kLoadArray/kStoreArray and the Array1 forms).
  std::uint64_t addr_scale = 8;
};

/// Everything the executor needs about one declared array, with the
/// name-derived initial-contents key resolved ahead of time. Storage is
/// always logical-dense (element_count doubles, subscript-linearized);
/// the declared ArrayLayout places it in the simulated address space:
/// every element address is
///   LoweredProgram::bases[a] + layout_offset * addr_scale.
struct LoweredArray {
  std::string name;
  std::vector<std::int64_t> extents;
  std::uint64_t elem_bytes = 8;
  std::int64_t element_count = 0;
  int initial_key = 0;
  /// Bytes between consecutive layout slots (elem_bytes, or group size *
  /// elem_bytes for interleaved arrays).
  std::uint64_t addr_scale = 8;
};

/// A program lowered to slots and bytecode. Self-contained: owns copies of
/// every declaration it needs, so it may outlive the ir::Program.
struct LoweredProgram {
  std::string name;
  std::vector<LoweredArray> arrays;
  /// Base address of every array (ir::array_base_addresses).
  std::vector<std::uint64_t> bases;
  std::vector<std::string> scalar_names;
  std::vector<std::int32_t> output_scalar_slots;
  std::vector<std::int32_t> output_arrays;
  std::vector<Op> ops;
  std::vector<LinTerm> terms;
  std::vector<LoweredDim> dims;
  std::vector<LinExpr> lin_exprs;
  std::vector<StreamLoop> stream_loops;
  std::vector<RowLoop> row_loops;
  /// Number of iteration slots (maximum loop nesting depth).
  std::int32_t iter_slot_count = 0;
  /// Deepest value-stack use of any expression; the executor preallocates.
  std::size_t max_stack = 1;
};

/// Lower `program` once; the result can be executed any number of times.
/// Throws bwc::Error on undeclared names, unbound loop variables or
/// malformed intrinsic calls.
LoweredProgram lower(const ir::Program& program);

}  // namespace bwc::runtime
