// Tests of GPU-style schedules: memory scopes (shared/local), thread binding with
// cooperative fetching (Section 4.2), and virtual threads (Section 4.4).
#include <gtest/gtest.h>

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
    v[i] = static_cast<float>((s >> 8) % 1000) / 250.0f - 2.0f;
  }
  return v;
}

BufferBinding Bind(std::vector<float>& v) {
  return BufferBinding{v.data(), DataType::Float32(), static_cast<int64_t>(v.size())};
}

void CheckMatmul(const LoweredFunc& f, int m, int n, int k) {
  std::vector<float> a = RandomData(static_cast<size_t>(m * k), 21);
  std::vector<float> b = RandomData(static_cast<size_t>(k * n), 22);
  std::vector<float> c(static_cast<size_t>(m * n), -7);
  RunLowered(f, {Bind(a), Bind(b), Bind(c)});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float ref = 0;
      for (int kk = 0; kk < k; ++kk) {
        ref += a[static_cast<size_t>(i * k + kk)] * b[static_cast<size_t>(kk * n + j)];
      }
      ASSERT_NEAR(c[static_cast<size_t>(i * n + j)], ref, 2e-2) << "at " << i << "," << j;
    }
  }
}

// Builds C = A^T-free matmul (A: MxK, B: KxN).
Tensor DeclMatmul(int m, int n, int k, Tensor* a_out, Tensor* b_out) {
  Tensor A = placeholder({make_int(m), make_int(k)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(k), make_int(n)}, DataType::Float32(), "B");
  IterVar rk = reduce_axis(Range(make_int(0), make_int(k)), "rk");
  Tensor C = compute({make_int(m), make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return sum(A({i[0], rk->var}) * B({rk->var, i[1]}), {rk});
                     },
                     "C");
  *a_out = A;
  *b_out = B;
  return C;
}

TEST(LowerGpu, ThreadBindingOnly) {
  const int m = 32, n = 32, k = 16;
  Tensor A, B;
  Tensor C = DeclMatmul(m, n, k, &A, &B);
  Schedule s = create_schedule({C});
  Stage sc = (*s)[C];
  IterVar by, ty, bx, tx;
  sc->split(sc->leaf_iter_vars[0], 8, &by, &ty);
  sc->split(sc->leaf_iter_vars[2], 8, &bx, &tx);
  sc->reorder({by, bx, ty, tx});
  sc->bind(by, thread_axis("blockIdx.y"));
  sc->bind(bx, thread_axis("blockIdx.x"));
  sc->bind(ty, thread_axis("threadIdx.y"));
  sc->bind(tx, thread_axis("threadIdx.x"));
  LoweredFunc f = Lower(s, {A, B, C}, "mm_threads");
  CheckMatmul(f, m, n, k);
}

// The Figure 7 schedule: cooperative fetching of A and B tiles into shared memory, local
// accumulator, barriers inserted by the compiler.
TEST(LowerGpu, CooperativeSharedFetch) {
  const int m = 64, n = 64, k = 32;
  Tensor A, B;
  Tensor C = DeclMatmul(m, n, k, &A, &B);
  Schedule s = create_schedule({C});

  Tensor CL = s->cache_write(C, "local");
  Stage sc = (*s)[C];
  IterVar by, ty, bx, tx;
  sc->split(sc->leaf_iter_vars[0], 16, &by, &ty);
  sc->split(sc->leaf_iter_vars[2], 16, &bx, &tx);
  sc->reorder({by, bx, ty, tx});
  sc->bind(by, thread_axis("blockIdx.y"));
  sc->bind(bx, thread_axis("blockIdx.x"));
  IterVar tyx = thread_axis("threadIdx.y");
  IterVar txx = thread_axis("threadIdx.x");
  sc->bind(ty, tyx);
  sc->bind(tx, txx);

  Stage scl = (*s)[CL];
  scl->compute_at(sc, tx);
  // Split the reduction and stage A/B tiles in shared memory at ko.
  IterVar ko, ki;
  scl->split(scl->leaf_iter_vars[2], 8, &ko, &ki);

  Tensor AS = s->cache_read(A, "shared", {CL.op()});
  Tensor BS = s->cache_read(B, "shared", {CL.op()});
  (*s)[AS]->compute_at(scl, ko);
  (*s)[BS]->compute_at(scl, ko);

  // Cooperative fetch: bind the copy loops of AS/BS to the thread grid.
  for (const Tensor& t : {AS, BS}) {
    Stage st = (*s)[t];
    IterVar fo, fi;
    IterVar fused = st->fuse(st->leaf_iter_vars[0], st->leaf_iter_vars[1]);
    st->split(fused, 16, &fo, &fi);
    st->bind(fi, txx);
  }

  LoweredFunc f = Lower(s, {A, B, C}, "mm_coop");
  std::string text = ToString(f.body);
  EXPECT_NE(text.find("shared"), std::string::npos);
  EXPECT_NE(text.find(kSyncIntrin), std::string::npos) << text;
  CheckMatmul(f, m, n, k);
}

TEST(LowerGpu, VirtualThreadStriding) {
  const int m = 32, n = 32, k = 16;
  Tensor A, B;
  Tensor C = DeclMatmul(m, n, k, &A, &B);
  Schedule s = create_schedule({C});
  Stage sc = (*s)[C];
  IterVar by, vy, ty, bx, tx;
  sc->split(sc->leaf_iter_vars[0], 16, &by, &vy);
  sc->split(vy, 8, &vy, &ty);
  sc->split(sc->leaf_iter_vars[3], 8, &bx, &tx);
  sc->reorder({by, bx, vy, ty, tx});
  sc->bind(by, thread_axis("blockIdx.y"));
  sc->bind(bx, thread_axis("blockIdx.x"));
  sc->bind(vy, thread_axis("vthread"));
  sc->bind(ty, thread_axis("threadIdx.y"));
  sc->bind(tx, thread_axis("threadIdx.x"));
  LoweredFunc f = Lower(s, {A, B, C}, "mm_vthread");
  CheckMatmul(f, m, n, k);

  // After vthread injection the program must still be correct and contain no vthread loop.
  LoweredFunc f2 = f;
  f2.body = InjectVirtualThreads(f.body);
  std::string text = ToString(f2.body);
  EXPECT_EQ(text.find("vthread ("), std::string::npos) << text;
  CheckMatmul(f2, m, n, k);
}

}  // namespace
}  // namespace tvmcpp
