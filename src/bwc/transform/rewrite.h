// IR rewriting utilities shared by the transformation passes.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "bwc/ir/program.h"

namespace bwc::transform {

/// Rename loop variables throughout a statement list (subscripts, loop-var
/// expressions, guard conditions and loop headers).
void rename_loop_vars(ir::StmtList& body,
                      const std::map<std::string, std::string>& renames);

/// Apply `fn` to every expression node (pre-order) in a statement list,
/// including nested bodies. `fn` may mutate the node in place but must not
/// change its kind to/from kinds with different operand arity.
void for_each_expr(ir::StmtList& body, const std::function<void(ir::Expr&)>& fn);
void for_each_expr(ir::Stmt& stmt, const std::function<void(ir::Expr&)>& fn);

/// Replace expression nodes for which `pred` holds with `make()`'s result.
/// Works at any depth, including inside guard bodies and nested loops.
void replace_exprs(ir::StmtList& body,
                   const std::function<bool(const ir::Expr&)>& pred,
                   const std::function<ir::ExprPtr(const ir::Expr&)>& make);

/// Forward `array` through scalar `temp` in static order: every write of
/// the array becomes an assignment to `temp`, and every read that follows
/// a write becomes a read of `temp`; reads before the first write keep
/// reading the array. Shared by contraction (storage_reduction.h) and
/// store elimination (store_elimination.h), whose decisions make static
/// order the order in which each iteration runs the references.
void forward_through_scalar(ir::StmtList& body, ir::ArrayId array,
                            const std::string& temp);

/// Substitute a loop variable with an affine expression everywhere in a
/// body: subscripts and guard conditions via affine substitution; value
/// uses (kLoopVar expressions) become the equivalent arithmetic
/// expression. Loop headers redeclaring `var` are left alone (shadowing).
void substitute_loop_var(ir::StmtList& body, const std::string& var,
                         const ir::Affine& replacement);

/// A fresh name not colliding with any name in `taken`; base is used as a
/// prefix ("t" -> "t", "t_1", "t_2", ...).
std::string fresh_name(const std::string& base,
                       const std::vector<std::string>& taken);

}  // namespace bwc::transform
