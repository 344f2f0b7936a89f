#include "bwc/transform/rewrite.h"

#include <algorithm>

#include "bwc/support/error.h"

namespace bwc::transform {

namespace {

ir::Affine rename_affine(const ir::Affine& a,
                         const std::map<std::string, std::string>& renames) {
  ir::Affine out = a;
  for (const auto& [from, to] : renames) out = out.renamed(from, to);
  return out;
}

void rename_expr(ir::Expr& e,
                 const std::map<std::string, std::string>& renames) {
  if (e.kind == ir::ExprKind::kLoopVar) {
    const auto it = renames.find(e.loop_var);
    if (it != renames.end()) e.loop_var = it->second;
  }
  for (auto& sub : e.subscripts) sub = rename_affine(sub, renames);
  for (auto& child : e.operands) rename_expr(*child, renames);
}

void rename_stmt(ir::Stmt& s,
                 const std::map<std::string, std::string>& renames) {
  switch (s.kind) {
    case ir::StmtKind::kArrayAssign:
      for (auto& sub : s.lhs_subscripts) sub = rename_affine(sub, renames);
      rename_expr(*s.rhs, renames);
      break;
    case ir::StmtKind::kScalarAssign:
      rename_expr(*s.rhs, renames);
      break;
    case ir::StmtKind::kIf:
      s.cmp_lhs = rename_affine(s.cmp_lhs, renames);
      s.cmp_rhs = rename_affine(s.cmp_rhs, renames);
      rename_loop_vars(s.then_body, renames);
      rename_loop_vars(s.else_body, renames);
      break;
    case ir::StmtKind::kLoop: {
      const auto it = renames.find(s.loop->var);
      if (it != renames.end()) s.loop->var = it->second;
      rename_loop_vars(s.loop->body, renames);
      break;
    }
  }
}

}  // namespace

void rename_loop_vars(ir::StmtList& body,
                      const std::map<std::string, std::string>& renames) {
  for (auto& s : body) rename_stmt(*s, renames);
}

void for_each_expr(ir::Stmt& stmt,
                   const std::function<void(ir::Expr&)>& fn) {
  std::function<void(ir::Expr&)> walk = [&](ir::Expr& e) {
    fn(e);
    for (auto& child : e.operands) walk(*child);
  };
  switch (stmt.kind) {
    case ir::StmtKind::kArrayAssign:
    case ir::StmtKind::kScalarAssign:
      walk(*stmt.rhs);
      break;
    case ir::StmtKind::kIf:
      for_each_expr(stmt.then_body, fn);
      for_each_expr(stmt.else_body, fn);
      break;
    case ir::StmtKind::kLoop:
      for_each_expr(stmt.loop->body, fn);
      break;
  }
}

void for_each_expr(ir::StmtList& body,
                   const std::function<void(ir::Expr&)>& fn) {
  for (auto& s : body) for_each_expr(*s, fn);
}

namespace {

void replace_in_expr(ir::ExprPtr& slot,
                     const std::function<bool(const ir::Expr&)>& pred,
                     const std::function<ir::ExprPtr(const ir::Expr&)>& make) {
  if (pred(*slot)) {
    slot = make(*slot);
    return;  // do not descend into the replacement
  }
  for (auto& child : slot->operands) replace_in_expr(child, pred, make);
}

void replace_in_stmt(ir::Stmt& s,
                     const std::function<bool(const ir::Expr&)>& pred,
                     const std::function<ir::ExprPtr(const ir::Expr&)>& make) {
  switch (s.kind) {
    case ir::StmtKind::kArrayAssign:
    case ir::StmtKind::kScalarAssign:
      replace_in_expr(s.rhs, pred, make);
      break;
    case ir::StmtKind::kIf:
      replace_exprs(s.then_body, pred, make);
      replace_exprs(s.else_body, pred, make);
      break;
    case ir::StmtKind::kLoop:
      replace_exprs(s.loop->body, pred, make);
      break;
  }
}

}  // namespace

void replace_exprs(ir::StmtList& body,
                   const std::function<bool(const ir::Expr&)>& pred,
                   const std::function<ir::ExprPtr(const ir::Expr&)>& make) {
  for (auto& s : body) replace_in_stmt(*s, pred, make);
}

namespace {

/// forward_through_scalar over one statement list; `written` says whether a
/// write precedes it in static order. Returns the flag after the list.
bool forward_list(ir::StmtList& body, ir::ArrayId array,
                  const std::string& temp, bool written) {
  const auto reads_array = [&](const ir::Expr& e) {
    return e.kind == ir::ExprKind::kArrayRef && e.array == array;
  };
  const auto read_temp = [&](const ir::Expr&) { return ir::make_scalar(temp); };
  for (auto& s : body) {
    switch (s->kind) {
      case ir::StmtKind::kArrayAssign:
      case ir::StmtKind::kScalarAssign:
        // The rhs evaluates before the store, so a statement's own write
        // does not reach its reads.
        if (written) replace_in_expr(s->rhs, reads_array, read_temp);
        if (s->kind == ir::StmtKind::kArrayAssign && s->lhs_array == array) {
          s = ir::make_scalar_assign(temp, std::move(s->rhs));
          written = true;
        }
        break;
      case ir::StmtKind::kIf:
        written = forward_list(s->then_body, array, temp, written);
        written = forward_list(s->else_body, array, temp, written);
        break;
      case ir::StmtKind::kLoop:
        written = forward_list(s->loop->body, array, temp, written);
        break;
    }
  }
  return written;
}

}  // namespace

void forward_through_scalar(ir::StmtList& body, ir::ArrayId array,
                            const std::string& temp) {
  forward_list(body, array, temp, false);
}

namespace {

/// Build the expression tree equivalent of an affine: c0 + sum(ci * vi).
ir::ExprPtr affine_to_expr(const ir::Affine& a) {
  ir::ExprPtr expr;
  for (const auto& [name, coeff] : a.terms()) {
    ir::ExprPtr term = ir::make_loop_var(name);
    if (coeff != 1) {
      term = ir::make_binary(ir::BinOp::kMul,
                             ir::make_const(static_cast<double>(coeff)),
                             std::move(term));
    }
    expr = expr ? ir::make_binary(ir::BinOp::kAdd, std::move(expr),
                                  std::move(term))
                : std::move(term);
  }
  if (a.constant_term() != 0 || !expr) {
    ir::ExprPtr c =
        ir::make_const(static_cast<double>(a.constant_term()));
    expr = expr ? ir::make_binary(ir::BinOp::kAdd, std::move(expr),
                                  std::move(c))
                : std::move(c);
  }
  return expr;
}

void substitute_in_stmt(ir::Stmt& s, const std::string& var,
                        const ir::Affine& replacement);

void substitute_expr_slot(ir::ExprPtr& slot, const std::string& var,
                          const ir::Affine& replacement) {
  if (slot->kind == ir::ExprKind::kLoopVar && slot->loop_var == var) {
    slot = affine_to_expr(replacement);
    return;
  }
  for (auto& sub : slot->subscripts)
    sub = sub.substituted(var, replacement);
  for (auto& child : slot->operands)
    substitute_expr_slot(child, var, replacement);
}

void substitute_in_list(ir::StmtList& body, const std::string& var,
                        const ir::Affine& replacement) {
  for (auto& s : body) substitute_in_stmt(*s, var, replacement);
}

void substitute_in_stmt(ir::Stmt& s, const std::string& var,
                        const ir::Affine& replacement) {
  switch (s.kind) {
    case ir::StmtKind::kArrayAssign:
      for (auto& sub : s.lhs_subscripts)
        sub = sub.substituted(var, replacement);
      substitute_expr_slot(s.rhs, var, replacement);
      break;
    case ir::StmtKind::kScalarAssign:
      substitute_expr_slot(s.rhs, var, replacement);
      break;
    case ir::StmtKind::kIf:
      s.cmp_lhs = s.cmp_lhs.substituted(var, replacement);
      s.cmp_rhs = s.cmp_rhs.substituted(var, replacement);
      substitute_in_list(s.then_body, var, replacement);
      substitute_in_list(s.else_body, var, replacement);
      break;
    case ir::StmtKind::kLoop:
      if (s.loop->var == var) return;  // shadowed
      substitute_in_list(s.loop->body, var, replacement);
      break;
  }
}

}  // namespace

void substitute_loop_var(ir::StmtList& body, const std::string& var,
                         const ir::Affine& replacement) {
  substitute_in_list(body, var, replacement);
}

std::string fresh_name(const std::string& base,
                       const std::vector<std::string>& taken) {
  if (std::find(taken.begin(), taken.end(), base) == taken.end()) return base;
  for (int i = 1;; ++i) {
    const std::string candidate = base + "_" + std::to_string(i);
    if (std::find(taken.begin(), taken.end(), candidate) == taken.end())
      return candidate;
  }
}

}  // namespace bwc::transform
