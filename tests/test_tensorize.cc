// Tests of the tensorize schedule primitive (Section 4.3): replacing loop nests with
// declared hardware intrinsics, verified against the non-tensorized reference.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/graph/executor.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
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
    v[i] = static_cast<float>((s >> 8) % 100) / 25.0f - 2.0f;
  }
  return v;
}

BufferBinding Bind(std::vector<float>& v) {
  return BufferBinding{v.data(), DataType::Float32(), static_cast<int64_t>(v.size())};
}

// Declares the paper's 8x8 GEMM tensor intrinsic (Section 4.3 listing).
TensorIntrinPtr DeclGemm8x8() {
  Tensor w = placeholder({make_int(8), make_int(8)}, DataType::Float32(), "w");
  Tensor x = placeholder({make_int(8), make_int(8)}, DataType::Float32(), "x");
  IterVar k = reduce_axis(Range(make_int(0), make_int(8)), "k");
  Tensor y = compute({make_int(8), make_int(8)},
                     [&](const std::vector<Var>& i) {
                       return sum(w({i[0], k->var}) * x({k->var, i[1]}), {k});
                     },
                     "gemm8x8");
  return decl_tensor_intrin(y, kGemmIntrin, kFillZeroIntrin, kGemmIntrin);
}

TEST(Tensorize, Gemm8x8Matmul) {
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
  Stage sc = (*s)[C];
  IterVar yo, xo, yi, xi, ko, ki;
  sc->tile(sc->leaf_iter_vars[0], sc->leaf_iter_vars[1], 8, 8, &yo, &xo, &yi, &xi);
  sc->split(sc->leaf_iter_vars[4], 8, &ko, &ki);
  sc->reorder({yo, xo, ko, yi, xi, ki});
  sc->tensorize(yi, DeclGemm8x8());

  LoweredFunc f = Lower(s, {A, B, C}, "mm_tensorized");
  std::string text = ToString(f.body);
  EXPECT_NE(text.find(kGemmIntrin), std::string::npos) << text;
  EXPECT_NE(text.find(kFillZeroIntrin), std::string::npos) << text;
  // The tensorized loops must be gone.
  EXPECT_EQ(text.find("yi"), std::string::npos);

  std::vector<float> a = RandomData(static_cast<size_t>(m * k), 31);
  std::vector<float> b = RandomData(static_cast<size_t>(k * n), 32);
  std::vector<float> c(static_cast<size_t>(m * n), -3);
  RunLowered(f, {Bind(a), Bind(b), Bind(c)});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float ref = 0;
      for (int kk = 0; kk < k; ++kk) {
        ref += a[static_cast<size_t>(i * k + kk)] * b[static_cast<size_t>(kk * n + j)];
      }
      ASSERT_NEAR(c[static_cast<size_t>(i * n + j)], ref, 1e-2) << i << "," << j;
    }
  }
}

// The full Figure 5 flow: tiling + cache on accelerator special buffers + tensorize.
TEST(Tensorize, Figure5AcceleratorSchedule) {
  const int n = 64;
  Tensor A = placeholder({make_int(n), make_int(n)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(n), make_int(n)}, DataType::Float32(), "B");
  IterVar rk = reduce_axis(Range(make_int(0), make_int(n)), "rk");
  // Transposed matmul as in the paper: C[y, x] = sum_k A[k, y] * B[k, x].
  Tensor C = compute({make_int(n), make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return sum(A({rk->var, i[0]}) * B({rk->var, i[1]}), {rk});
                     },
                     "C");
  Schedule s = create_schedule({C});
  Tensor CL = s->cache_write(C, "vdla.acc_buffer");

  // Schedule the copy-out stage: tile by 8x8.
  Stage scc = (*s)[C];
  IterVar cyo, cxo, cyi, cxi;
  scc->tile(scc->leaf_iter_vars[0], scc->leaf_iter_vars[1], 8, 8, &cyo, &cxo, &cyi, &cxi);
  (*s)[CL]->compute_at(scc, cxo);

  Stage scl = (*s)[CL];
  IterVar ko, ki;
  scl->split(scl->leaf_iter_vars[2], 8, &ko, &ki);

  Tensor AL = s->cache_read(A, "vdla.inp_buffer", {CL.op()});
  Tensor BL = s->cache_read(B, "vdla.wgt_buffer", {CL.op()});
  (*s)[AL]->compute_at(scl, ko);
  (*s)[BL]->compute_at(scl, ko);

  // Declare the transposed-gemm intrinsic matching CL's inner 8x8x8 computation.
  Tensor w = placeholder({make_int(8), make_int(8)}, DataType::Float32(), "w");
  Tensor x = placeholder({make_int(8), make_int(8)}, DataType::Float32(), "x");
  IterVar k8 = reduce_axis(Range(make_int(0), make_int(8)), "k");
  Tensor y = compute({make_int(8), make_int(8)},
                     [&](const std::vector<Var>& i) {
                       return sum(w({k8->var, i[0]}) * x({k8->var, i[1]}), {k8});
                     },
                     "gemm8x8t");
  scl->tensorize(scl->leaf_iter_vars[3], decl_tensor_intrin(y, kGemmIntrin, kFillZeroIntrin,
                                                            kGemmIntrin));

  LoweredFunc f = Lower(s, {A, B, C}, "fig5");
  std::string text = ToString(f.body);
  EXPECT_NE(text.find("vdla.acc_buffer"), std::string::npos);
  EXPECT_NE(text.find("vdla.inp_buffer"), std::string::npos);
  EXPECT_NE(text.find(kGemmIntrin), std::string::npos);

  std::vector<float> a = RandomData(static_cast<size_t>(n * n), 41);
  std::vector<float> b = RandomData(static_cast<size_t>(n * n), 42);
  std::vector<float> c(static_cast<size_t>(n * n), -3);
  RunLowered(f, {Bind(a), Bind(b), Bind(c)});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      float ref = 0;
      for (int kk = 0; kk < n; ++kk) {
        ref += a[static_cast<size_t>(kk * n + i)] * b[static_cast<size_t>(kk * n + j)];
      }
      ASSERT_NEAR(c[static_cast<size_t>(i * n + j)], ref, 5e-2) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace tvmcpp
