// IR-layer tests: dtype behavior, expression construction, substitution, structural
// equality, printing, and — most importantly — a property sweep checking that
// Simplify() preserves the value of randomly generated integer expressions.
#include <gtest/gtest.h>

#include <vector>

#include "src/ir/printer.h"
#include "src/ir/simplify.h"
#include "src/ir/substitute.h"
#include "src/lower/intset.h"
#include "src/support/random.h"

namespace tvmcpp {
namespace {

TEST(DataTypeTest, Basics) {
  EXPECT_EQ(DataType::Float32().ToString(), "float32");
  EXPECT_EQ(DataType::Int8().ToString(), "int8");
  EXPECT_EQ(DataType::Bool().ToString(), "bool");
  EXPECT_EQ(DataType::Float16(4).ToString(), "float16x4");
  EXPECT_EQ(DataType::Int(2).bytes(), 1);
  EXPECT_TRUE(DataType::Handle().is_handle());
  EXPECT_EQ(DataType::Float32().with_lanes(8).lanes(), 8);
}

TEST(ExprTest, TypeUnification) {
  Expr i = make_int(3);
  Expr f = make_float(2.5);
  Expr sum = i + f;
  EXPECT_TRUE(sum->dtype.is_float());
  Expr cmp = lt(make_int(1), make_int(2));
  EXPECT_TRUE(cmp->dtype.is_bool());
}

TEST(ExprTest, ConstHelpers) {
  EXPECT_TRUE(is_zero(make_int(0)));
  EXPECT_TRUE(is_one(make_float(1.0)));
  int64_t v;
  EXPECT_TRUE(is_const_int(make_int(42), &v));
  EXPECT_EQ(v, 42);
  EXPECT_EQ(get_const_int(Simplify(make_int(6) * make_int(7))), 42);
}

TEST(SubstituteTest, ReplacesAndPreserves) {
  Var x = make_var("x"), y = make_var("y");
  Expr e = x * 4 + y;
  Expr r = Substitute(e, {{x.get(), make_int(5)}});
  EXPECT_EQ(get_const_int(Simplify(Substitute(r, {{y.get(), make_int(2)}}))), 22);
  // y untouched.
  EXPECT_TRUE(UsesVar(r, y.get()));
  EXPECT_FALSE(UsesVar(r, x.get()));
}

TEST(StructuralEqualTest, Basics) {
  Var x = make_var("x");
  EXPECT_TRUE(StructuralEqual(x + 1, x + 1));
  EXPECT_FALSE(StructuralEqual(x + 1, x + 2));
  Var y = make_var("x");  // same name, different identity
  EXPECT_FALSE(StructuralEqual(x + 1, y + 1));
}

TEST(StructuralEqualTest, SignedZerosDiffer) {
  // 0.0 == -0.0 numerically, but they are different immediates: Simplify must not
  // fold select(c, 0.0, -0.0) to one arm.
  EXPECT_TRUE(StructuralEqual(make_float(-0.0), make_float(-0.0)));
  EXPECT_FALSE(StructuralEqual(make_float(0.0), make_float(-0.0)));
  Var x = make_var("x");
  Expr e = Simplify(select(lt(Expr(x), make_int(1)), make_float(0.0), make_float(-0.0)));
  EXPECT_EQ(e->kind, ExprKind::kSelect) << ToString(e);
}

TEST(SimplifyTest, LinearCancellation) {
  Var by = make_var("by"), ty = make_var("ty");
  // (by*4 + ty) - by*4 -> ty
  Expr e = Simplify((by * 4 + ty) - by * 4);
  EXPECT_TRUE(StructuralEqual(e, Expr(ty))) << ToString(e);
  // (by*4 + 3) - (by*4) + 1 -> 4
  EXPECT_EQ(get_const_int(Simplify((by * 4 + 3) - by * 4 + 1)), 4);
}

TEST(SimplifyTest, SplitIndexCollapse) {
  Analyzer ana;
  Var yo = make_var("yo"), yi = make_var("yi");
  ana.Bind(yi.get(), 0, 7);
  // (yo*8 + yi) / 8 -> yo ; (yo*8 + yi) % 8 -> yi
  EXPECT_TRUE(StructuralEqual(ana.Simplify((yo * 8 + yi) / 8), Expr(yo)));
  EXPECT_TRUE(StructuralEqual(ana.Simplify((yo * 8 + yi) % 8), Expr(yi)));
}

TEST(SimplifyTest, BoundBasedComparisons) {
  Analyzer ana;
  Var i = make_var("i");
  ana.Bind(i.get(), 0, 9);
  EXPECT_TRUE(ana.CanProve(lt(i, make_int(10))));
  EXPECT_TRUE(ana.CanProve(ge(i, make_int(0))));
  EXPECT_FALSE(ana.CanProve(lt(i, make_int(9))));
  EXPECT_TRUE(ana.CanProveLT(i + 5, 15));
}

TEST(IntSetTest, RegionOfAffineIndex) {
  Var ko = make_var("ko"), ki = make_var("ki");
  DomainMap dom;
  dom[ki.get()] = IntSet::FromMinExtent(make_int(0), make_int(8));
  IntSet s = EvalIntSet(ko * 8 + ki, dom);
  ASSERT_TRUE(s.defined());
  EXPECT_EQ(get_const_int(Simplify(s.max - s.min)), 7);
}

TEST(PrinterTest, RoundTripReadable) {
  Var x = make_var("x");
  Expr e = select(lt(x, make_int(3)), x * 2, x - 1);
  std::string s = ToString(e);
  EXPECT_NE(s.find("select"), std::string::npos);
  EXPECT_NE(s.find("x"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property sweep: Simplify preserves semantics of random integer expressions.
// ---------------------------------------------------------------------------

// Builds a random expression over the given variables.
Expr RandomExpr(Rng* rng, const std::vector<Var>& vars, int depth) {
  if (depth == 0 || rng->Uniform(4) == 0) {
    if (rng->Uniform(2) == 0) {
      return make_int(rng->UniformInt(-8, 8));
    }
    return vars[rng->Uniform(vars.size())];
  }
  Expr a = RandomExpr(rng, vars, depth - 1);
  Expr b = RandomExpr(rng, vars, depth - 1);
  switch (rng->Uniform(7)) {
    case 0:
      return a + b;
    case 1:
      return a - b;
    case 2:
      return a * b;
    case 3:
      return min(a, b);
    case 4:
      return max(a, b);
    case 5:
      return a / make_int(static_cast<int64_t>(1 + rng->Uniform(7)));
    default:
      return a % make_int(static_cast<int64_t>(1 + rng->Uniform(7)));
  }
}

int64_t EvalIntExpr(const Expr& e, const std::vector<Var>& vars,
                    const std::vector<int64_t>& values) {
  switch (e->kind) {
    case ExprKind::kIntImm:
      return static_cast<const IntImmNode*>(e.get())->value;
    case ExprKind::kVar: {
      for (size_t i = 0; i < vars.size(); ++i) {
        if (vars[i].get() == e.get()) {
          return values[i];
        }
      }
      ADD_FAILURE() << "unknown var";
      return 0;
    }
    default: {
      const auto* b = static_cast<const BinaryNode*>(e.get());
      int64_t x = EvalIntExpr(b->a, vars, values);
      int64_t y = EvalIntExpr(b->b, vars, values);
      switch (e->kind) {
        case ExprKind::kAdd:
          return x + y;
        case ExprKind::kSub:
          return x - y;
        case ExprKind::kMul:
          return x * y;
        case ExprKind::kDiv:
          return FloorDiv(x, y);
        case ExprKind::kMod:
          return FloorMod(x, y);
        case ExprKind::kMin:
          return std::min(x, y);
        case ExprKind::kMax:
          return std::max(x, y);
        default:
          ADD_FAILURE() << "unexpected kind";
          return 0;
      }
    }
  }
}

class SimplifyProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplifyProperty, PreservesValue) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 77 + 5);
  std::vector<Var> vars = {make_var("a"), make_var("b"), make_var("c")};
  Analyzer ana;
  for (const Var& v : vars) {
    ana.Bind(v.get(), 0, 15);
  }
  for (int iter = 0; iter < 20; ++iter) {
    Expr e = RandomExpr(&rng, vars, 4);
    Expr s = ana.Simplify(e);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<int64_t> values;
      for (size_t i = 0; i < vars.size(); ++i) {
        values.push_back(rng.UniformInt(0, 15));
      }
      VarMap vmap;
      for (size_t i = 0; i < vars.size(); ++i) {
        vmap[vars[i].get()] = make_int(values[i]);
      }
      int64_t expect = get_const_int(Simplify(Substitute(e, vmap)));
      int64_t got = get_const_int(Simplify(Substitute(s, vmap)));
      ASSERT_EQ(expect, got) << "expr: " << ToString(e) << "\nsimplified: " << ToString(s);
      // Also cross-check direct evaluation.
      ASSERT_EQ(EvalIntExpr(e, vars, values), expect) << ToString(e);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplifyProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace tvmcpp
