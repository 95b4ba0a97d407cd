// Loop-specialization sweep: specialized vs unspecialized VM on the workloads the
// pass pipeline targets (ISSUE 5 / ROADMAP "JIT-style loop specialization").
//
//   * conv2d 3x3 — the small fixed-extent inner reduction (ky/kx extent 3) that full
//     unrolling + constant folding collapses, plus invariant hoisting and strength
//     reduction on the surviving input-channel loop.
//   * scalar dense — invariant row offsets hoisted out of the k loop.
//   * batched dense chain — one layer of the bench_serving dispatch-bound dense
//     chain at batch 8 (the shape its Rebatched() variant runs), lowered through
//     topi with the default CPU schedule.
//
// Both variants run the same bytecode engine; only LoopSpecializeOptions differ
// (Disabled() vs the default-constructed options). Rows land in BENCH_vm.json next to the vm_speedup
// trajectory (the upsert-by-name sink keeps one line per bench across re-runs).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/interp/interp.h"
#include "src/lower/lower.h"
#include "src/runtime/target.h"
#include "src/support/random.h"
#include "src/topi/nn.h"
#include "src/topi/schedules.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

struct HostBuf {
  std::vector<char> bytes;
  DataType dtype;
  int64_t elems = 0;
  BufferBinding Bind() { return BufferBinding{bytes.data(), dtype, elems}; }
};

HostBuf RandomBuf(int64_t elems, DataType dtype, uint64_t seed) {
  HostBuf b;
  b.dtype = dtype;
  b.elems = elems;
  b.bytes.assign(static_cast<size_t>(elems * InterpElementBytes(dtype)), 0);
  Rng rng(seed);
  float* p = reinterpret_cast<float*>(b.bytes.data());
  for (int64_t i = 0; i < elems; ++i) {
    p[i] = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
  }
  return b;
}

int64_t NumElems(const Tensor& t) {
  int64_t n = 1;
  for (const Expr& e : t.shape()) {
    n *= get_const_int(e);
  }
  return n;
}

struct BuiltKernel {
  LoweredFunc func;
  std::vector<HostBuf> bufs;
  std::vector<BufferBinding> Bindings() {
    std::vector<BufferBinding> bind;
    for (HostBuf& b : bufs) {
      bind.push_back(b.Bind());
    }
    return bind;
  }
};

// conv2d with a 3x3 window: the inner reduction loops (ky, kx, extent 3) sit well
// under the unroll threshold.
BuiltKernel BuildConv3x3() {
  bool smoke = bench::BenchSmokeMode();
  topi::OpWorkload wl;
  wl.kind = "conv2d";
  wl.n = 1;
  wl.ic = smoke ? 8 : 16;
  wl.h = wl.w = smoke ? 14 : 28;
  wl.oc = smoke ? 8 : 32;
  wl.k = 3;
  wl.stride = 1;
  wl.pad = 1;
  Tensor data = placeholder(
      {make_int(wl.n), make_int(wl.ic), make_int(wl.h), make_int(wl.w)},
      DataType::Float32(), "data");
  Tensor kern = placeholder(
      {make_int(wl.oc), make_int(wl.ic), make_int(wl.k), make_int(wl.k)},
      DataType::Float32(), "kern");
  Tensor conv = topi::Conv2dNCHW(data, kern, wl.stride, wl.pad);
  Tensor out = topi::Relu(conv);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["parallel"] = 0;
  // The real fused-group schedule (tiled output, fused relu epilogue): its small
  // inner tile loops and the 3x3 reduction window are what full unrolling targets.
  Schedule s = topi::ScheduleFusedGroup(cpu, {out}, conv, config, &wl);
  BuiltKernel k;
  k.func = Lower(s, {data, kern, out}, "conv3x3_relu");
  k.bufs = {RandomBuf(NumElems(data), DataType::Float32(), 1),
            RandomBuf(NumElems(kern), DataType::Float32(), 2),
            RandomBuf(NumElems(out), DataType::Float32(), 3)};
  return k;
}

// Scalar dense: no vectorization, so the k loop's invariant row offsets are the
// whole index-arithmetic story.
BuiltKernel BuildScalarDense() {
  bool smoke = bench::BenchSmokeMode();
  topi::OpWorkload wl;
  wl.kind = "dense";
  wl.n = smoke ? 4 : 16;
  wl.k = smoke ? 64 : 256;
  wl.oc = smoke ? 64 : 256;
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["parallel"] = 0;
  config["vectorize"] = 0;
  Schedule s = topi::ApplyOpSchedule(wl, cpu, built, config);
  BuiltKernel k;
  k.func = Lower(s, built.Args(), "dense_scalar");
  for (size_t i = 0; i < built.Args().size(); ++i) {
    k.bufs.push_back(RandomBuf(NumElems(built.Args()[i]), DataType::Float32(), 10 + i));
  }
  return k;
}

void BenchKernelSpecialize(const std::string& name, BuiltKernel k, int repeats) {
  std::vector<BufferBinding> bind = k.Bindings();
  std::shared_ptr<const vm::Program> base =
      vm::CompileToProgram(k.func, LoopSpecializeOptions::Disabled());
  std::shared_ptr<const vm::Program> spec =
      vm::CompileToProgram(k.func, LoopSpecializeOptions{});
  if (base == nullptr || spec == nullptr) {
    std::printf("%s: VM compile failed, skipping\n", name.c_str());
    return;
  }
  vm::ExecOptions serial;
  serial.num_threads = 1;
  double base_ms = bench::MeasureMs([&] { vm::Run(*base, bind, serial); }, repeats);
  double spec_ms = bench::MeasureMs([&] { vm::Run(*spec, bind, serial); }, repeats);
  vm::ProgramStats bs = vm::GetProgramStats(*base);
  vm::ProgramStats ss = vm::GetProgramStats(*spec);
  bench::PrintBenchJson(
      "specialize_" + name,
      {{"base_vm_ms", base_ms},
       {"spec_vm_ms", spec_ms},
       {"spec_speedup", base_ms / spec_ms},
       {"instr_base", static_cast<double>(bs.num_instructions)},
       {"instr_spec", static_cast<double>(ss.num_instructions)},
       {"unrolled_loops", static_cast<double>(ss.unrolled_loops)},
       {"hoisted_lets", static_cast<double>(ss.hoisted_lets)},
       {"strength_reduced", static_cast<double>(ss.strength_reduced)},
       {"peephole_removed", static_cast<double>(ss.peephole_removed)}});
}

// One dense layer of the bench_serving chain (8 features in, 8 out) at batch 8,
// with the default CPU schedule.
BuiltKernel BuildBatchedDense() {
  topi::OpWorkload wl;
  wl.kind = "dense";
  wl.n = 8;
  wl.k = 8;
  wl.oc = 8;
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  Target cpu = Target::ArmA53();
  Schedule s = topi::ApplyOpSchedule(wl, cpu, built,
                                     topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu)));
  BuiltKernel k;
  k.func = Lower(s, built.Args(), "dense_batch8");
  for (size_t i = 0; i < built.Args().size(); ++i) {
    k.bufs.push_back(RandomBuf(NumElems(built.Args()[i]), DataType::Float32(), 20 + i));
  }
  return k;
}

// The kernel runs for microseconds, so each timed sample is `iters` runs.
void BenchBatchedDense(int repeats) {
  BuiltKernel k = BuildBatchedDense();
  std::vector<BufferBinding> bind = k.Bindings();
  std::shared_ptr<const vm::Program> base =
      vm::CompileToProgram(k.func, LoopSpecializeOptions::Disabled());
  std::shared_ptr<const vm::Program> spec = vm::CompileToProgram(k.func);
  if (base == nullptr || spec == nullptr) {
    std::printf("batched_dense_chain: VM compile failed, skipping\n");
    return;
  }
  const int iters = bench::BenchSmokeMode() ? 200 : 2000;
  vm::ExecOptions serial;
  serial.num_threads = 1;
  auto run_many = [&](const vm::Program& program) {
    for (int i = 0; i < iters; ++i) {
      vm::Run(program, bind, serial);
    }
  };
  double base_ms = bench::MeasureMs([&] { run_many(*base); }, repeats);
  double spec_ms = bench::MeasureMs([&] { run_many(*spec); }, repeats);
  bench::PrintBenchJson("specialize_batched_dense_chain",
                        {{"batch", 8},
                         {"iters", static_cast<double>(iters)},
                         {"base_vm_ms", base_ms},
                         {"spec_vm_ms", spec_ms},
                         {"spec_speedup", base_ms / spec_ms}});
}

}  // namespace
}  // namespace tvmcpp

int main() {
  using namespace tvmcpp;
  bench::OpenDefaultBenchJsonSink(TVMCPP_SOURCE_DIR "/BENCH_vm.json");
  std::printf("loop specialization: specialized vs unspecialized VM (wall clock)\n\n");
  const int repeats = bench::BenchSmokeMode() ? 2 : 5;
  BenchKernelSpecialize("conv2d_3x3", BuildConv3x3(), repeats);
  BenchKernelSpecialize("dense_scalar", BuildScalarDense(), repeats);
  BenchBatchedDense(repeats);
  return 0;
}
