#include <gtest/gtest.h>

#include "bwc/ir/affine.h"
#include "bwc/ir/dsl.h"
#include "bwc/ir/printer.h"
#include "bwc/ir/program.h"
#include "bwc/support/error.h"

namespace bwc::ir {
namespace {

using namespace dsl;  // NOLINT

// -- Affine -----------------------------------------------------------------

TEST(Affine, ConstructionAndAccessors) {
  const Affine c = Affine::constant(5);
  EXPECT_TRUE(c.is_constant());
  EXPECT_EQ(c.constant_term(), 5);

  const Affine a = Affine::var("i", 2, 3);
  EXPECT_FALSE(a.is_constant());
  EXPECT_EQ(a.coeff("i"), 2);
  EXPECT_EQ(a.coeff("j"), 0);
  EXPECT_EQ(a.constant_term(), 3);
  EXPECT_EQ(*a.single_var(), "i");
}

TEST(Affine, Arithmetic) {
  const Affine i = Affine::var("i");
  const Affine j = Affine::var("j");
  const Affine e = i * 2 + j - 3;
  EXPECT_EQ(e.coeff("i"), 2);
  EXPECT_EQ(e.coeff("j"), 1);
  EXPECT_EQ(e.constant_term(), -3);
  // Coefficients cancel cleanly.
  const Affine zero = i - i;
  EXPECT_TRUE(zero.is_constant());
  EXPECT_EQ(zero.constant_term(), 0);
}

TEST(Affine, SubstituteAndRename) {
  const Affine e = Affine::var("i", 2, 1);
  const Affine sub = e.substituted("i", Affine::var("k") + 3);
  EXPECT_EQ(sub.coeff("k"), 2);
  EXPECT_EQ(sub.constant_term(), 7);
  const Affine ren = e.renamed("i", "z");
  EXPECT_EQ(ren.coeff("z"), 2);
  EXPECT_FALSE(ren.uses("i"));
}

TEST(Affine, SingleVarDetection) {
  EXPECT_FALSE(Affine::constant(1).single_var().has_value());
  EXPECT_FALSE(
      (Affine::var("i") + Affine::var("j")).single_var().has_value());
}

TEST(Affine, StringForm) {
  EXPECT_EQ(Affine::constant(7).str(), "7");
  EXPECT_EQ(Affine::var("i").str(), "i");
  EXPECT_EQ(Affine::var("i", 1, -1).str(), "i - 1");
  EXPECT_EQ((Affine::var("i", 2) + 3).str(), "2*i + 3");
}

// -- Expr / Stmt ----------------------------------------------------------------

TEST(Expr, CloneIsDeepAndEqual) {
  const ExprPtr e = at(0, v("i")) + lit(2.0) * sref("x");
  const ExprPtr c = e->clone();
  EXPECT_TRUE(equal(*e, *c));
  EXPECT_NE(e.get(), c.get());
  EXPECT_NE(e->operands[0].get(), c->operands[0].get());
}

TEST(Expr, EqualityDiscriminates) {
  EXPECT_FALSE(equal(*lit(1.0), *lit(2.0)));
  EXPECT_FALSE(equal(*sref("a"), *sref("b")));
  EXPECT_FALSE(equal(*at(0, v("i")), *at(0, v("i", 1))));
  EXPECT_FALSE(equal(*at(0, v("i")), *at(1, v("i"))));
  EXPECT_FALSE(equal(*(lit(1.0) + lit(2.0)), *(lit(1.0) * lit(2.0))));
}

TEST(Expr, InputValuesDeterministic) {
  EXPECT_DOUBLE_EQ(input_value(3, 17), input_value(3, 17));
  EXPECT_NE(input_value(3, 17), input_value(3, 18));
  EXPECT_NE(input_value(3, 17), input_value(4, 17));
  EXPECT_GE(input_value(1, 1), 0.5);
  EXPECT_LT(input_value(1, 1), 1.5);
}

TEST(Expr, ConstructorsValidate) {
  EXPECT_THROW(make_scalar(""), Error);
  EXPECT_THROW(make_array_ref(-1, {v("i")}), Error);
  EXPECT_THROW(make_array_ref(0, {}), Error);
  EXPECT_THROW(make_input(0, {v("i")}, {}), Error);
}

TEST(Stmt, CloneAndEquality) {
  const StmtPtr s = loop("i", 1, 10,
                         assign(0, {v("i")}, at(0, v("i")) + lit(1.0)),
                         when(CmpOp::kEq, v("i"), k(10),
                              assign("sum", sref("sum") + lit(1.0))));
  const StmtPtr c = s->clone();
  EXPECT_TRUE(equal(*s, *c));
  // Mutate the clone: no longer equal.
  c->loop->upper = 11;
  EXPECT_FALSE(equal(*s, *c));
}

TEST(Stmt, ReductionShapeAcceptsEitherOperandOrder) {
  BinOp op = BinOp::kMul;
  EXPECT_TRUE(reduction_shape(*assign("s", sref("s") + at(0, v("i"))), &op));
  EXPECT_EQ(op, BinOp::kAdd);
  const StmtPtr mirrored =
      assign("s", make_binary(BinOp::kMin, at(0, v("i")) * lit(2.0),
                              sref("s")));
  EXPECT_TRUE(reduction_shape(*mirrored, &op));
  EXPECT_EQ(op, BinOp::kMin);
  // Not a reduction: a non-commutative op, the scalar inside the other
  // operand, another scalar's update, an array write.
  EXPECT_FALSE(reduction_shape(*assign("s", sref("s") - lit(1.0)), &op));
  EXPECT_FALSE(reduction_shape(*assign("s", sref("s") + sref("s")), &op));
  EXPECT_FALSE(reduction_shape(*assign("t", sref("s") + lit(1.0)), &op));
  EXPECT_FALSE(reduction_shape(*assign(0, {v("i")}, lit(1.0)), &op));
}

TEST(Stmt, CmpEvaluation) {
  EXPECT_TRUE(evaluate_cmp(CmpOp::kLe, 3, 3));
  EXPECT_FALSE(evaluate_cmp(CmpOp::kLt, 3, 3));
  EXPECT_TRUE(evaluate_cmp(CmpOp::kNe, 2, 3));
  EXPECT_TRUE(evaluate_cmp(CmpOp::kGe, 4, 3));
}

TEST(Loop, TripCount) {
  const StmtPtr s = loop("i", 2, 10, assign("x", lit(1.0)));
  EXPECT_EQ(s->loop->trip_count(), 9);
  const StmtPtr empty = loop("i", 5, 4, assign("x", lit(1.0)));
  EXPECT_EQ(empty->loop->trip_count(), 0);
}

// -- Program ----------------------------------------------------------------------

TEST(Program, Declarations) {
  Program p("t");
  const ArrayId a = p.add_array("a", {10, 20});
  p.add_scalar("s");
  EXPECT_EQ(p.array(a).element_count(), 200);
  EXPECT_EQ(p.array(a).byte_size(), 1600u);
  EXPECT_EQ(p.array_id("a"), a);
  EXPECT_TRUE(p.has_scalar("s"));
  EXPECT_THROW(p.add_array("a", {5}), Error);  // duplicate
  EXPECT_THROW(p.add_scalar("s"), Error);
  EXPECT_THROW(p.array_id("zzz"), Error);
  EXPECT_THROW(p.add_array("bad", {10, 20, 30}), Error);  // 3-D unsupported
}

TEST(Program, ColumnMajorLinearization) {
  Program p("t");
  const ArrayId a = p.add_array("a", {4, 3});
  // a[i,j] -> (i-1) + (j-1)*4, 1-based.
  EXPECT_EQ(p.array(a).linearize({1, 1}), 0);
  EXPECT_EQ(p.array(a).linearize({2, 1}), 1);
  EXPECT_EQ(p.array(a).linearize({1, 2}), 4);
  EXPECT_EQ(p.array(a).linearize({4, 3}), 11);
  EXPECT_THROW(p.array(a).linearize({5, 1}), Error);
  EXPECT_THROW(p.array(a).linearize({0, 1}), Error);
}

TEST(Program, TopLoopIndices) {
  Program p("t");
  p.add_scalar("s");
  const ArrayId a = p.add_array("a", {8});
  p.append(assign("s", lit(0.0)));
  p.append(loop("i", 1, 8, assign(a, {v("i")}, lit(1.0))));
  p.append(assign("s", lit(1.0)));
  p.append(loop("i", 1, 8, assign("s", sref("s") + at(a, v("i")))));
  EXPECT_EQ(p.top_loop_indices(), (std::vector<int>{1, 3}));
}

TEST(Program, CloneIsEqualAndIndependent) {
  Program p("t");
  const ArrayId a = p.add_array("a", {8});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.mark_output_array(a);
  p.append(loop("i", 1, 8, assign(a, {v("i")}, lit(1.0))));
  Program c = p.clone();
  EXPECT_TRUE(equal(p, c));
  c.top().front()->loop->upper = 9;
  EXPECT_FALSE(equal(p, c));
}

TEST(Program, OutputsValidatedAndDeduplicated) {
  Program p("t");
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.mark_output_scalar("s");
  EXPECT_EQ(p.output_scalars().size(), 1u);
  EXPECT_THROW(p.mark_output_scalar("nope"), Error);
  EXPECT_THROW(p.mark_output_array(3), Error);
}

TEST(Printer, RendersPaperStyle) {
  Program p("demo");
  const ArrayId a = p.add_array("a", {4, 4});
  p.add_scalar("sum");
  p.append(loop("j", 2, 4,
                loop("i", 1, 4,
                     assign(a, {v("i"), v("j")},
                            f(at(a, v("i"), v("j", -1)), lit(1.0))))));
  const std::string s = to_string(p);
  EXPECT_NE(s.find("for j = 2, 4"), std::string::npos);
  EXPECT_NE(s.find("a[i,j] = f(a[i,j - 1], 1)"), std::string::npos);
  EXPECT_NE(s.find("double a[4,4]"), std::string::npos);
}

TEST(Printer, RendersGuards) {
  Program p("demo");
  p.add_scalar("x");
  p.append(loop("i", 1, 4,
                if_else(CmpOp::kLe, v("i"), k(2),
                        block(assign("x", lit(1.0))),
                        block(assign("x", lit(2.0))))));
  const std::string s = to_string(p);
  EXPECT_NE(s.find("if (i <= 2)"), std::string::npos);
  EXPECT_NE(s.find("else"), std::string::npos);
}

}  // namespace
}  // namespace bwc::ir
