// Targeting the VDLA accelerator (Section 6.4): build the Figure 5 schedule — tiling,
// on-chip buffer staging through special memory scopes, tensorization onto the 16x16
// GEMM unit, and virtual threads for latency hiding — then run the DAE pipeline
// simulator and verify numerics against the host interpreter.
#include <cstdio>
#include <vector>

#include "src/graph/executor.h"
#include "src/interp/interp.h"
#include "src/lower/lower.h"
#include "src/runtime/target.h"
#include "src/schedule/schedule.h"
#include "src/te/tensor.h"
#include "src/vdla/vdla.h"

using namespace tvmcpp;

LoweredFunc BuildMatmul(int n, int vthreads) {
  Tensor A = placeholder({make_int(n), make_int(n)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(n), make_int(n)}, DataType::Float32(), "B");
  IterVar rk = reduce_axis(Range(make_int(0), make_int(n)), "rk");
  Tensor C = compute({make_int(n), make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return sum(A({i[0], rk->var}) * B({rk->var, i[1]}), {rk});
                     },
                     "C");
  // Output tiles of 128x128 live in the 128 kB accumulator; the reduction is chunked by
  // 32 so each DMA brings 128x32 input / 32x128 weight slices into the 32 kB SRAMs.
  const int tile = std::min(n, 128);
  Schedule s = create_schedule({C});
  Tensor CL = s->cache_write(C, "vdla.acc_buffer");
  Stage sc = (*s)[C];
  IterVar yo, xo, yi, xi;
  sc->tile(sc->leaf_iter_vars[0], sc->leaf_iter_vars[1], tile, tile, &yo, &xo, &yi, &xi);
  if (vthreads > 1 && (n / tile) % vthreads == 0) {
    IterVar vt, rest;
    sc->split(yo, (n / tile) / vthreads, &vt, &rest);
    sc->bind(vt, thread_axis("vthread"));
  }
  (*s)[CL]->compute_at(sc, xo);
  Stage scl = (*s)[CL];
  IterVar ci0 = scl->leaf_iter_vars[0], ci1 = scl->leaf_iter_vars[1];
  IterVar ko, ki;
  scl->split(scl->leaf_iter_vars[2], 32, &ko, &ki);
  // Block the 128x128x32 chunk into 16x16x16 tensorized steps.
  IterVar c0o, c0i, c1o, c1i, kio, kii;
  scl->split(ci0, 16, &c0o, &c0i);
  scl->split(ci1, 16, &c1o, &c1i);
  scl->split(ki, 16, &kio, &kii);
  scl->reorder({ko, c0o, c1o, kio, c0i, c1i, kii});
  IterVar ci0_t = c0i;
  (void)ci0_t;
  Tensor AL = s->cache_read(A, "vdla.inp_buffer", {CL.op()});
  Tensor BL = s->cache_read(B, "vdla.wgt_buffer", {CL.op()});
  (*s)[AL]->compute_at(scl, ko);
  (*s)[BL]->compute_at(scl, ko);
  Tensor w = placeholder({make_int(16), make_int(16)}, DataType::Float32(), "w");
  Tensor x = placeholder({make_int(16), make_int(16)}, DataType::Float32(), "x");
  IterVar k16 = reduce_axis(Range(make_int(0), make_int(16)), "k");
  Tensor y = compute({make_int(16), make_int(16)},
                     [&](const std::vector<Var>& i) {
                       return sum(w({i[0], k16->var}) * x({k16->var, i[1]}), {k16});
                     },
                     "gemm16");
  scl->tensorize(c0i, decl_tensor_intrin(y, kGemmIntrin, kFillZeroIntrin, kGemmIntrin));
  return Lower(s, {A, B, C}, "vdla_matmul");
}

int main() {
  const int n = 256;
  Target vdla = Target::Vdla();

  std::printf("matmul %dx%dx%d on VDLA (16x16 GEMM unit @ 200 MHz)\n\n", n, n, n);
  std::printf("%-28s %12s %12s %10s\n", "schedule", "cycles", "GOPS", "util");
  for (int vt : {1, 2, 4}) {
    LoweredFunc f = BuildMatmul(n, vt);
    VdlaRunStats stats = RunOnVdla(f, vdla);
    std::printf("%d virtual thread(s)%s %15.0f %12.2f %9.1f%%\n", vt,
                vt == 1 ? "          " : "          ", stats.cycles,
                stats.GopsPerSecond(vdla), 100 * stats.ComputeUtilization());
  }

  // Functional check against the interpreter.
  LoweredFunc f = BuildMatmul(64, 2);
  std::vector<float> a(64 * 64), b(64 * 64), c(64 * 64);
  for (int i = 0; i < 64 * 64; ++i) {
    a[i] = static_cast<float>(i % 7) - 3;
    b[i] = static_cast<float>(i % 5) - 2;
  }
  RunLowered(f, {{a.data(), DataType::Float32(), 64 * 64},
                 {b.data(), DataType::Float32(), 64 * 64},
                 {c.data(), DataType::Float32(), 64 * 64}});
  double err = 0;
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      float ref = 0;
      for (int k = 0; k < 64; ++k) {
        ref += a[i * 64 + k] * b[k * 64 + j];
      }
      err = std::max(err, static_cast<double>(std::abs(ref - c[i * 64 + j])));
    }
  }
  std::printf("\nnumerics vs reference: max abs err = %g (64x64 check)\n", err);
  return err < 1e-2 ? 0 : 1;
}
