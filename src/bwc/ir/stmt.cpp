#include "bwc/ir/stmt.h"

#include "bwc/support/error.h"

namespace bwc::ir {

StmtPtr Stmt::clone() const {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->lhs_array = lhs_array;
  s->lhs_subscripts = lhs_subscripts;
  s->lhs_scalar = lhs_scalar;
  if (rhs) s->rhs = rhs->clone();
  s->cmp = cmp;
  s->cmp_lhs = cmp_lhs;
  s->cmp_rhs = cmp_rhs;
  s->then_body = clone_list(then_body);
  s->else_body = clone_list(else_body);
  if (loop) {
    s->loop = std::make_unique<Loop>();
    s->loop->var = loop->var;
    s->loop->lower = loop->lower;
    s->loop->upper = loop->upper;
    s->loop->body = clone_list(loop->body);
  }
  return s;
}

StmtList clone_list(const StmtList& stmts) {
  StmtList out;
  out.reserve(stmts.size());
  for (const auto& s : stmts) out.push_back(s->clone());
  return out;
}

StmtPtr make_array_assign(ArrayId array, std::vector<Affine> subscripts,
                          ExprPtr rhs) {
  BWC_CHECK(array >= 0, "array id must be valid");
  BWC_CHECK(!subscripts.empty(), "array assignment needs subscripts");
  BWC_CHECK(rhs != nullptr, "assignment needs a right-hand side");
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kArrayAssign;
  s->lhs_array = array;
  s->lhs_subscripts = std::move(subscripts);
  s->rhs = std::move(rhs);
  return s;
}

StmtPtr make_scalar_assign(const std::string& name, ExprPtr rhs) {
  BWC_CHECK(!name.empty(), "scalar name must not be empty");
  BWC_CHECK(rhs != nullptr, "assignment needs a right-hand side");
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kScalarAssign;
  s->lhs_scalar = name;
  s->rhs = std::move(rhs);
  return s;
}

StmtPtr make_if(CmpOp cmp, Affine lhs, Affine rhs, StmtList then_body,
                StmtList else_body) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kIf;
  s->cmp = cmp;
  s->cmp_lhs = std::move(lhs);
  s->cmp_rhs = std::move(rhs);
  s->then_body = std::move(then_body);
  s->else_body = std::move(else_body);
  return s;
}

StmtPtr make_loop(const std::string& var, std::int64_t lower,
                  std::int64_t upper, StmtList body) {
  BWC_CHECK(!var.empty(), "loop variable name must not be empty");
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::kLoop;
  s->loop = std::make_unique<Loop>();
  s->loop->var = var;
  s->loop->lower = lower;
  s->loop->upper = upper;
  s->loop->body = std::move(body);
  return s;
}

bool equal(const Stmt& a, const Stmt& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case StmtKind::kArrayAssign:
      return a.lhs_array == b.lhs_array &&
             a.lhs_subscripts == b.lhs_subscripts && equal(*a.rhs, *b.rhs);
    case StmtKind::kScalarAssign:
      return a.lhs_scalar == b.lhs_scalar && equal(*a.rhs, *b.rhs);
    case StmtKind::kIf:
      return a.cmp == b.cmp && a.cmp_lhs == b.cmp_lhs &&
             a.cmp_rhs == b.cmp_rhs && equal(a.then_body, b.then_body) &&
             equal(a.else_body, b.else_body);
    case StmtKind::kLoop:
      return a.loop->var == b.loop->var && a.loop->lower == b.loop->lower &&
             a.loop->upper == b.loop->upper && equal(a.loop->body, b.loop->body);
  }
  return false;
}

bool equal(const StmtList& a, const StmtList& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!equal(*a[i], *b[i])) return false;
  }
  return true;
}

namespace {

bool uses_scalar(const Expr& e, const std::string& name) {
  if (e.kind == ExprKind::kScalarRef && e.scalar == name) return true;
  for (const auto& o : e.operands)
    if (uses_scalar(*o, name)) return true;
  return false;
}

}  // namespace

bool reduction_shape(const Stmt& s, BinOp* op) {
  if (s.kind != StmtKind::kScalarAssign || !s.rhs) return false;
  const Expr& rhs = *s.rhs;
  if (rhs.kind != ExprKind::kBinary || rhs.operands.size() != 2) return false;
  if (rhs.op != BinOp::kAdd && rhs.op != BinOp::kMin && rhs.op != BinOp::kMax)
    return false;
  const auto is_self = [&](const Expr& e) {
    return e.kind == ExprKind::kScalarRef && e.scalar == s.lhs_scalar;
  };
  const Expr& left = *rhs.operands[0];
  const Expr& right = *rhs.operands[1];
  const Expr* other = is_self(left) ? &right : is_self(right) ? &left : nullptr;
  if (other == nullptr || uses_scalar(*other, s.lhs_scalar)) return false;
  *op = rhs.op;
  return true;
}

bool evaluate_cmp(CmpOp op, std::int64_t lhs, std::int64_t rhs) {
  switch (op) {
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

const char* cmp_name(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

}  // namespace bwc::ir
