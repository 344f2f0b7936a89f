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
//  * innermost loops -> StreamLoop: every innermost loop whose body is
//                       assignments under guards on enclosing variables
//                       only, with every access provably in bounds,
//                       becomes one kStreamLoop op -- K statements, each a
//                       register-form value kernel, plus one access tuple
//                       in VM order whose byte bases are affine in the
//                       enclosing iteration slots
//  * outer loops     -> RowLoop (rows that repeat one byte step apart),
//                       with the stream loops inside read through their
//                       base expressions; the periods of fast-forward
//
// Anything else stays generic ops: guards that read the inner variable,
// `else` arms, and accesses whose bounds cannot be proven (so the VM
// raises its exact out-of-bounds error). Lowering validates what the
// interpreter would only discover at run time: references to undeclared
// scalars, unbound loop variables and malformed intrinsic calls all throw
// bwc::Error here.
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
  kStreamLoop,   // run stream_loops[slot] (a whole innermost loop)
  kHalt,         // end of program
};

/// A value operand of a stream statement's kernel.
struct StreamSrc {
  enum class Kind : std::uint8_t {
    kReg,     // the result of op `index` of the loop (StreamLoop::ops)
    kConst,   // imm
    kScalar,  // scalars[index]; the body may also write it
    kIter,    // the inner loop variable
    kOuter,   // iters[index], an enclosing loop's variable (fixed per entry)
    kLoad,    // the value of access `index` of the tuple (a load)
    kInput,   // input read `index` (StreamLoop::inputs): not an access
  };
  Kind kind = Kind::kConst;
  std::int32_t index = 0;
  double imm = 0.0;
};

/// One arithmetic op of a value kernel, `a <bin_op> b` or an intrinsic
/// call f(a, b) / g(a, b). Op k of a loop leaves its result in register k,
/// which later operands name as {kReg, k}. Ops are in the VM's evaluation
/// order, so their loads are the tuple's loads in order.
struct StreamOp {
  enum class Code : std::uint8_t { kBinary, kCallF, kCallG };
  Code code = Code::kBinary;
  ir::BinOp bin_op = ir::BinOp::kAdd;  // kBinary
  std::int32_t flops = 0;              // charged per execution
  StreamSrc a, b;
};

/// One entry of a stream loop's access tuple. Offsets are affine: at
/// inner-variable value i the access touches storage element
/// `elem + elem_step * i` and simulated address
/// `bases[array] + byte + byte_step * i`, where `elem` and `byte` are
/// LinExprs over the enclosing loops' iteration slots (terms in
/// StreamLoop::terms), evaluated once per entry. The byte forms come from
/// the dims' layout_stride * addr_scale, so declared layouts need no
/// special case.
struct StreamAccess {
  std::int32_t array = 0;
  std::int32_t stmt = 0;  // the statement issuing it
  bool is_store = false;
  std::uint64_t elem_bytes = 8;
  LinExpr elem, byte;
  std::int64_t elem_step = 0, byte_step = 0;
};

/// An input read ir::input_value(key, elem + elem_step * i), linearized
/// against the stream's original extents like kPushInput.
struct StreamInput {
  std::int32_t key = 0;
  LinExpr elem;
  std::int64_t elem_step = 0;
};

/// One conjunct of a statement's guard: `diff <cmp> 0`, where diff is
/// the guard's lhs - rhs over enclosing iteration slots only.
struct StreamGuard {
  ir::CmpOp cmp = ir::CmpOp::kEq;
  LinExpr diff;
};

/// One assignment of a stream loop's body: its guards (a conjunction over
/// the enclosing loops' variables, fixed for the whole entry), its value
/// kernel (ops [first_op, first_op + op_count) followed by `value`), and
/// its destination: a store access of the tuple or a scalar slot.
struct StreamStmt {
  std::uint32_t first_guard = 0, guard_count = 0;
  std::uint32_t first_op = 0, op_count = 0;
  StreamSrc value;
  bool to_scalar = false;
  std::int32_t dest = 0;  // access index, or scalar slot when to_scalar
  std::uint64_t flops = 0;  // per iteration: the sum over its ops
};

/// Size limits of one stream loop: the executors keep their per-entry
/// state in fixed arrays, and a loop over any limit stays generic.
inline constexpr std::size_t kMaxStreamStmts = 64;
inline constexpr std::size_t kMaxStreamOps = 128;
inline constexpr std::size_t kMaxStreamAccesses = 64;
inline constexpr std::size_t kMaxStreamInputs = 16;

/// An innermost loop `for i = lower..upper` whose body is K assignments,
/// each under a conjunction of guards on enclosing loop variables only.
/// Lowering builds one only when every access of every statement is
/// provably in bounds over the box of the enclosing loops' ranges
/// (narrowed by the statement's single-variable guards), so the executors
/// run it without per-access bounds checks: the statement set is chosen
/// once at entry, the value kernels run per iteration (or column by column
/// where the loop is order-free), and the accesses replay from one fixed
/// tuple -- byte-for-byte the stream the generic op sequence would issue.
struct StreamLoop {
  std::int64_t lower = 0, upper = 0;
  /// The inner variable's iteration slot (its nesting depth); the
  /// enclosing loops own the slots below it.
  std::int32_t slot = 0;
  std::vector<StreamStmt> stmts;  // program order
  std::vector<StreamGuard> guards;
  std::vector<StreamOp> ops;
  /// The access tuple in VM order: for each statement, its rhs loads left
  /// to right, then its store.
  std::vector<StreamAccess> accesses;
  std::vector<StreamInput> inputs;
  /// Terms of every LinExpr above.
  std::vector<LinTerm> terms;
  /// The byte step shared by *every* access of the tuple, or 0 when no
  /// such uniform step exists (mixed strides, stride-0 accesses) or the
  /// tuple has no store (pure reductions stay out). Nonzero means the
  /// tuple translates by this constant each iteration -- the
  /// precondition for steady-state fast-forward (runtime/fastforward.h).
  std::int64_t uniform_step_bytes = 0;
  /// Static order-free certificate of the tuple, computed once at
  /// lowering time (verify::certify_parallel_accesses; accesses of one
  /// array are only comparable when their outer coefficients agree):
  /// kIndependent proves no two distinct iterations touch overlapping
  /// bytes with a write involved. Only such loops run their values column
  /// by column (stream_exec.h); the others keep iteration order.
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
