// Tests of the VDLA accelerator: instruction-stream generation from lowered programs,
// DAE pipeline simulation, and latency hiding through virtual threads (Section 4.4).
#include <gtest/gtest.h>

#include <vector>

#include "src/graph/executor.h"
#include "src/interp/interp.h"
#include "src/lower/lower.h"
#include "src/runtime/target.h"
#include "src/schedule/schedule.h"
#include "src/te/tensor.h"
#include "src/vdla/vdla.h"

namespace tvmcpp {
namespace {

// Matmul staged through VDLA on-chip buffers; `vthreads` > 1 splits the output rows
// across virtual threads for latency hiding.
LoweredFunc BuildVdlaMatmul(int n, int vthreads, Tensor* a, Tensor* b, Tensor* c) {
  Tensor A = placeholder({make_int(n), make_int(n)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(n), make_int(n)}, DataType::Float32(), "B");
  IterVar rk = reduce_axis(Range(make_int(0), make_int(n)), "rk");
  Tensor C = compute({make_int(n), make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return sum(A({i[0], rk->var}) * B({rk->var, i[1]}), {rk});
                     },
                     "C");
  Schedule s = create_schedule({C});
  Tensor CL = s->cache_write(C, "vdla.acc_buffer");
  Stage sc = (*s)[C];
  IterVar yo, xo, yi, xi;
  sc->tile(sc->leaf_iter_vars[0], sc->leaf_iter_vars[1], 16, 16, &yo, &xo, &yi, &xi);
  if (vthreads > 1) {
    IterVar vt, rest;
    sc->split(yo, static_cast<int64_t>((n / 16) / vthreads), &vt, &rest);
    sc->bind(vt, thread_axis("vthread"));
    (*s)[CL]->compute_at(sc, xo);
  } else {
    (*s)[CL]->compute_at(sc, xo);
  }
  Stage scl = (*s)[CL];
  IterVar ci0 = scl->leaf_iter_vars[0], ci1 = scl->leaf_iter_vars[1];
  IterVar ko, ki;
  scl->split(scl->leaf_iter_vars[2], 16, &ko, &ki);
  // Reduction outermost so the whole 16x16x16 block tensorizes (Figure 5's structure).
  scl->reorder({ko, ci0, ci1, ki});
  Tensor AL = s->cache_read(A, "vdla.inp_buffer", {CL.op()});
  Tensor BL = s->cache_read(B, "vdla.wgt_buffer", {CL.op()});
  (*s)[AL]->compute_at(scl, ko);
  (*s)[BL]->compute_at(scl, ko);
  // Tensorize the inner 16x16x16 block.
  Tensor w = placeholder({make_int(16), make_int(16)}, DataType::Float32(), "w");
  Tensor x = placeholder({make_int(16), make_int(16)}, DataType::Float32(), "x");
  IterVar k16 = reduce_axis(Range(make_int(0), make_int(16)), "k");
  Tensor y = compute({make_int(16), make_int(16)},
                     [&](const std::vector<Var>& i) {
                       return sum(w({i[0], k16->var}) * x({k16->var, i[1]}), {k16});
                     },
                     "gemm16");
  scl->tensorize(ci0, decl_tensor_intrin(y, kGemmIntrin, kFillZeroIntrin, kGemmIntrin));
  *a = A;
  *b = B;
  *c = C;
  return Lower(s, {A, B, C}, "vdla_mm");
}

TEST(Vdla, ProgramGeneration) {
  Tensor A, B, C;
  LoweredFunc f = BuildVdlaMatmul(64, 1, &A, &B, &C);
  VdlaProgram prog = BuildVdlaProgram(f, Target::Vdla());
  int gemm = 0, dma = 0, push = 0, pop = 0;
  for (const VdlaInsn& i : prog) {
    gemm += i.op == VdlaInsn::Op::kGemm;
    dma += i.op == VdlaInsn::Op::kDmaLoad || i.op == VdlaInsn::Op::kDmaStore;
    push += i.op == VdlaInsn::Op::kPushDep;
    pop += i.op == VdlaInsn::Op::kPopDep;
  }
  // 4x4 output tiles x 4 reduction steps.
  EXPECT_EQ(gemm, 64);
  EXPECT_GT(dma, 0);
  EXPECT_EQ(push, pop);
  EXPECT_GT(push, 0) << "dependence tokens must be inserted";
}

TEST(Vdla, FunctionalCorrectness) {
  Tensor A, B, C;
  LoweredFunc f = BuildVdlaMatmul(32, 1, &A, &B, &C);
  const int n = 32;
  std::vector<float> a(n * n), b(n * n), c(n * n, -1);
  for (int i = 0; i < n * n; ++i) {
    a[static_cast<size_t>(i)] = static_cast<float>(i % 7) - 3;
    b[static_cast<size_t>(i)] = static_cast<float>(i % 5) - 2;
  }
  RunLowered(f, {{a.data(), DataType::Float32(), n * n},
                 {b.data(), DataType::Float32(), n * n},
                 {c.data(), DataType::Float32(), n * n}});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      float ref = 0;
      for (int k = 0; k < n; ++k) {
        ref += a[static_cast<size_t>(i * n + k)] * b[static_cast<size_t>(k * n + j)];
      }
      ASSERT_NEAR(c[static_cast<size_t>(i * n + j)], ref, 1e-2);
    }
  }
}

TEST(Vdla, PipelineBeatsMonolithic) {
  Tensor A, B, C;
  LoweredFunc f = BuildVdlaMatmul(64, 2, &A, &B, &C);
  Target t = Target::Vdla();
  VdlaProgram prog = BuildVdlaProgram(f, t);
  VdlaRunStats pipelined = SimulateVdla(prog, t, /*pipelined=*/true);
  VdlaRunStats monolithic = SimulateVdla(prog, t, /*pipelined=*/false);
  EXPECT_LT(pipelined.cycles, monolithic.cycles);
  EXPECT_GT(pipelined.ComputeUtilization(), monolithic.ComputeUtilization());
}

TEST(Vdla, VirtualThreadsHideLatency) {
  Tensor A, B, C;
  Target t = Target::Vdla();
  LoweredFunc f1 = BuildVdlaMatmul(128, 1, &A, &B, &C);
  LoweredFunc f2 = BuildVdlaMatmul(128, 2, &A, &B, &C);
  VdlaRunStats base = RunOnVdla(f1, t);
  VdlaRunStats hidden = RunOnVdla(f2, t);
  // Same work.
  EXPECT_NEAR(base.macs, hidden.macs, 1.0);
  // Virtual threads expose pipeline parallelism -> fewer cycles, higher utilization.
  EXPECT_LT(hidden.cycles, base.cycles)
      << "base util=" << base.ComputeUtilization()
      << " hidden util=" << hidden.ComputeUtilization();
  EXPECT_GT(hidden.ComputeUtilization(), base.ComputeUtilization());
}

TEST(Vdla, VirtualThreadProgramStillCorrect) {
  Tensor A, B, C;
  LoweredFunc f = BuildVdlaMatmul(32, 2, &A, &B, &C);
  f.body = InjectVirtualThreads(f.body);
  const int n = 32;
  std::vector<float> a(n * n), b(n * n), c(n * n, -1);
  for (int i = 0; i < n * n; ++i) {
    a[static_cast<size_t>(i)] = static_cast<float>(i % 9) - 4;
    b[static_cast<size_t>(i)] = static_cast<float>(i % 3) - 1;
  }
  RunLowered(f, {{a.data(), DataType::Float32(), n * n},
                 {b.data(), DataType::Float32(), n * n},
                 {c.data(), DataType::Float32(), n * n}});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      float ref = 0;
      for (int k = 0; k < n; ++k) {
        ref += a[static_cast<size_t>(i * n + k)] * b[static_cast<size_t>(k * n + j)];
      }
      ASSERT_NEAR(c[static_cast<size_t>(i * n + j)], ref, 1e-2);
    }
  }
}

}  // namespace
}  // namespace tvmcpp
