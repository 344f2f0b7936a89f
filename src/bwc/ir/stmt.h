// Statements and loops of the loop-program IR.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bwc/ir/expr.h"

namespace bwc::ir {

enum class StmtKind {
  kArrayAssign,   // A[subs] = rhs
  kScalarAssign,  // s = rhs (covers s += x via rhs referencing s)
  kIf,            // if (affine cmp affine) then-body [else else-body]
  kLoop,          // for var = lower..upper (step 1) body
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/// A counted loop with unit stride and constant inclusive bounds. Programs
/// are instantiated for a concrete problem size, so bounds are integers.
struct Loop {
  std::string var;
  std::int64_t lower = 1;
  std::int64_t upper = 0;  // inclusive; empty when upper < lower
  StmtList body;

  std::int64_t trip_count() const {
    return upper >= lower ? upper - lower + 1 : 0;
  }
};

struct Stmt {
  StmtKind kind = StmtKind::kScalarAssign;

  // kArrayAssign
  ArrayId lhs_array = kInvalidArray;
  std::vector<Affine> lhs_subscripts;
  // kScalarAssign
  std::string lhs_scalar;
  // kArrayAssign / kScalarAssign
  ExprPtr rhs;

  // kIf
  CmpOp cmp = CmpOp::kEq;
  Affine cmp_lhs, cmp_rhs;
  StmtList then_body;
  StmtList else_body;

  // kLoop
  std::unique_ptr<Loop> loop;

  Stmt() = default;
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;
  Stmt(Stmt&&) = default;
  Stmt& operator=(Stmt&&) = default;

  StmtPtr clone() const;
};

StmtPtr make_array_assign(ArrayId array, std::vector<Affine> subscripts,
                          ExprPtr rhs);
StmtPtr make_scalar_assign(const std::string& name, ExprPtr rhs);
StmtPtr make_if(CmpOp cmp, Affine lhs, Affine rhs, StmtList then_body,
                StmtList else_body = {});
StmtPtr make_loop(const std::string& var, std::int64_t lower,
                  std::int64_t upper, StmtList body);

StmtList clone_list(const StmtList& stmts);
bool equal(const Stmt& a, const Stmt& b);
bool equal(const StmtList& a, const StmtList& b);

/// The one syntactic reduction recognizer: `s = s op e` or `s = e op s`,
/// op in {+, min, max} (commutative and associative, so a reduction's
/// updates may run in any order), with s not appearing in e. Stores op.
bool reduction_shape(const Stmt& s, BinOp* op);

bool evaluate_cmp(CmpOp op, std::int64_t lhs, std::int64_t rhs);
const char* cmp_name(CmpOp op);  // "==", "!=", "<", "<=", ">", ">="

}  // namespace bwc::ir
