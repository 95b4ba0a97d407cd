// End-to-end tests of the lowering pipeline on small kernels: lower a schedule, run the
// interpreter, and compare against naive reference implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/graph/executor.h"
#include "src/interp/interp.h"
#include "src/ir/functor.h"
#include "src/ir/printer.h"
#include "src/ir/simplify.h"
#include "src/ir/substitute.h"
#include "src/lower/lower.h"
#include "src/schedule/schedule.h"
#include "src/te/tensor.h"

namespace tvmcpp {
namespace {

std::vector<float> RandomData(size_t n, unsigned seed) {
  std::vector<float> v(n);
  unsigned s = seed;
  for (size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    v[i] = static_cast<float>((s >> 8) % 1000) / 250.0f - 2.0f;
  }
  return v;
}

BufferBinding Bind(std::vector<float>& v) {
  return BufferBinding{v.data(), DataType::Float32(), static_cast<int64_t>(v.size())};
}

TEST(LowerBasic, ElementwiseAdd) {
  const int n = 64;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(n)}, DataType::Float32(), "B");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return A({i[0]}) + B({i[0]});
                     },
                     "C");
  Schedule s = create_schedule({C});
  LoweredFunc f = Lower(s, {A, B, C}, "vadd");

  std::vector<float> a = RandomData(n, 1), b = RandomData(n, 2), c(n, 0);
  RunLowered(f, {Bind(a), Bind(b), Bind(c)});
  for (int i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(c[i], a[i] + b[i]) << "at " << i;
  }
}

TEST(LowerBasic, MatmulNaive) {
  const int m = 8, n = 12, k = 10;
  Tensor A = placeholder({make_int(m), make_int(k)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(k), make_int(n)}, DataType::Float32(), "B");
  IterVar rk = reduce_axis(Range(make_int(0), make_int(k)), "rk");
  Tensor C = compute({make_int(m), make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return sum(A({i[0], rk->var}) * B({rk->var, i[1]}), {rk});
                     },
                     "C");
  Schedule s = create_schedule({C});
  LoweredFunc f = Lower(s, {A, B, C}, "matmul");

  std::vector<float> a = RandomData(m * k, 3), b = RandomData(k * n, 4), c(m * n, -1);
  RunLowered(f, {Bind(a), Bind(b), Bind(c)});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float ref = 0;
      for (int kk = 0; kk < k; ++kk) {
        ref += a[i * k + kk] * b[kk * n + j];
      }
      EXPECT_NEAR(c[i * n + j], ref, 1e-3) << "at " << i << "," << j;
    }
  }
}

TEST(LowerBasic, MatmulTiledReordered) {
  const int m = 32, n = 24, k = 16;
  Tensor A = placeholder({make_int(m), make_int(k)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(k), make_int(n)}, DataType::Float32(), "B");
  IterVar rk = reduce_axis(Range(make_int(0), make_int(k)), "rk");
  Tensor C = compute({make_int(m), make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return sum(A({i[0], rk->var}) * B({rk->var, i[1]}), {rk});
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  IterVar y = st->leaf_iter_vars[0], x = st->leaf_iter_vars[1];
  IterVar yo, yi, xo, xi, ko, ki;
  st->tile(y, x, 8, 8, &yo, &xo, &yi, &xi);
  st->split(st->leaf_iter_vars[4], 4, &ko, &ki);  // reduce axis is now after yi,xi? find it
  // After tile, leaf order is yo,xo,yi,xi,rk. Reorder to yo,xo,ko,yi,xi,ki.
  st->reorder({yo, xo, ko, yi, xi, ki});
  st->unroll(ki);

  LoweredFunc f = Lower(s, {A, B, C}, "matmul_tiled");
  std::vector<float> a = RandomData(m * k, 5), b = RandomData(k * n, 6), c(m * n, -1);
  RunLowered(f, {Bind(a), Bind(b), Bind(c)});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float ref = 0;
      for (int kk = 0; kk < k; ++kk) {
        ref += a[i * k + kk] * b[kk * n + j];
      }
      ASSERT_NEAR(c[i * n + j], ref, 1e-3) << "at " << i << "," << j;
    }
  }
}

TEST(LowerBasic, NonDivisibleSplitGuarded) {
  const int n = 30;  // split by 8 -> predicate required
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return A({i[0]}) * make_float(2.0);
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  IterVar o, i;
  st->split(st->leaf_iter_vars[0], 8, &o, &i);
  LoweredFunc f = Lower(s, {A, C}, "scale");

  std::vector<float> a = RandomData(n, 7), c(n, 0);
  RunLowered(f, {Bind(a), Bind(c)});
  for (int j = 0; j < n; ++j) {
    EXPECT_FLOAT_EQ(c[j], 2.0f * a[j]);
  }
}

TEST(LowerBasic, FusedInlineStage) {
  const int n = 16;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor B = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return A({i[0]}) + make_float(1.0);
                     },
                     "B");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return B({i[0]}) * make_float(3.0);
                     },
                     "C");
  Schedule s = create_schedule({C});
  (*s)[B]->compute_inline();
  LoweredFunc f = Lower(s, {A, C}, "fused");
  // The inlined program must not allocate an intermediate for B.
  EXPECT_EQ(ToString(f.body).find("allocate"), std::string::npos) << ToString(f.body);

  std::vector<float> a = RandomData(n, 8), c(n, 0);
  RunLowered(f, {Bind(a), Bind(c)});
  for (int j = 0; j < n; ++j) {
    EXPECT_FLOAT_EQ(c[j], 3.0f * (a[j] + 1.0f));
  }
}

TEST(LowerBasic, ComputeAtProducer) {
  const int n = 24;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor B = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return A({i[0]}) + make_float(1.0);
                     },
                     "B");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return B({i[0]}) * make_float(3.0);
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage sc = (*s)[C];
  IterVar o, i;
  sc->split(sc->leaf_iter_vars[0], 8, &o, &i);
  (*s)[B]->compute_at(sc, o);

  LoweredFunc f = Lower(s, {A, C}, "compute_at");
  std::vector<float> a = RandomData(n, 9), c(n, 0);
  RunLowered(f, {Bind(a), Bind(c)});
  for (int j = 0; j < n; ++j) {
    EXPECT_FLOAT_EQ(c[j], 3.0f * (a[j] + 1.0f));
  }
}

// An attached stage's buffer is stored in its leaf-loop order: B[16, 4] computed at
// C's oc tile of 8 with its (oc, ow) leaves reordered to (ow, oc) flattens as
// ow * 8 + oc, contiguous in the innermost oc loop. Left in logical order, the same
// stage keeps the logical layout, oc * 4 + ow.
TEST(LowerBasic, AttachedStageStoredInLeafOrder) {
  const int oc = 16, ow = 4;
  for (bool reorder : {true, false}) {
    SCOPED_TRACE(reorder ? "(ow, oc)" : "(oc, ow)");
    Tensor A = placeholder({make_int(oc), make_int(ow)}, DataType::Float32(), "A");
    Tensor B = compute({make_int(oc), make_int(ow)},
                       [&](const std::vector<Var>& i) {
                         return A({i[0], i[1]}) + make_float(1.0);
                       },
                       "B");
    Tensor C = compute({make_int(oc), make_int(ow)},
                       [&](const std::vector<Var>& i) {
                         return B({i[0], i[1]}) * make_float(3.0);
                       },
                       "C");
    Schedule s = create_schedule({C});
    Stage sc = (*s)[C];
    IterVar oco, oci;
    sc->split(sc->leaf_iter_vars[0], 8, &oco, &oci);
    Stage sb = (*s)[B];
    sb->compute_at(sc, oco);
    IterVar b_oc = sb->leaf_iter_vars[0], b_ow = sb->leaf_iter_vars[1];
    if (reorder) {
      sb->reorder({b_ow, b_oc});
    }
    LoweredFunc f = Lower(s, {A, C}, "leaf_order");

    Expr index;
    PostOrderVisitStmt(f.body, [&](const Stmt& st) {
      if (st->kind == StmtKind::kStore) {
        const auto* n = static_cast<const StoreNode*>(st.get());
        if (n->buffer_var->name == "B") {
          index = n->index;
        }
      }
    });
    ASSERT_NE(index, nullptr) << ToString(f.body);
    Expr want = reorder ? Simplify(b_ow->var * make_int(8) + b_oc->var)
                        : Simplify(b_oc->var * make_int(ow) + b_ow->var);
    EXPECT_TRUE(StructuralEqual(index, want))
        << ToString(index) << " vs " << ToString(want) << "\n" << ToString(f.body);

    std::vector<float> a = RandomData(oc * ow, 12), c(oc * ow, 0);
    RunLowered(f, {Bind(a), Bind(c)});
    for (int j = 0; j < oc * ow; ++j) {
      EXPECT_FLOAT_EQ(c[j], 3.0f * (a[j] + 1.0f)) << "at " << j;
    }
  }
}

TEST(LowerBasic, Conv1dPadded) {
  const int n = 20, kw = 3;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor W = placeholder({make_int(kw)}, DataType::Float32(), "W");
  IterVar rw = reduce_axis(Range(make_int(0), make_int(kw)), "rw");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       Expr pos = i[0] + rw->var - 1;
                       Expr in = if_then_else(logic_and(ge(pos, make_int(0)),
                                                        lt(pos, make_int(n))),
                                              A({max(min(pos, make_int(n - 1)), make_int(0))}),
                                              make_float(0.0));
                       return sum(in * W({rw->var}), {rw});
                     },
                     "C");
  Schedule s = create_schedule({C});
  LoweredFunc f = Lower(s, {A, W, C}, "conv1d");
  std::vector<float> a = RandomData(n, 10), w = RandomData(kw, 11), c(n, 0);
  RunLowered(f, {Bind(a), Bind(w), Bind(c)});
  for (int j = 0; j < n; ++j) {
    float ref = 0;
    for (int t = 0; t < kw; ++t) {
      int pos = j + t - 1;
      if (pos >= 0 && pos < n) {
        ref += a[pos] * w[t];
      }
    }
    EXPECT_NEAR(c[j], ref, 1e-4);
  }
}

}  // namespace
}  // namespace tvmcpp
