// Micro-benchmark: AOT native kernels (tier 2) vs bytecode VM vs tree-walking
// interpreter on real kernel execution.
//
// Measures wall-clock time of a conv2d + fused relu epilogue and a vectorized
// dense kernel on all three tiers, single-threaded, plus the native module
// cache's cold-compile vs warm-hit cost. Emits machine-readable JSON lines via
// PrintBenchJson into BENCH_vm.json (`native_*` rows); the smoke gate picks up
// the `*speedup*` fields automatically, enforcing that the native tier is never
// slower than the VM it sits above.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/codegen/native.h"
#include "src/interp/interp.h"
#include "src/lower/lower.h"
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

BuiltKernel BuildConvRelu() {
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
  Schedule s = topi::ScheduleFusedGroup(cpu, {out}, conv, config, &wl);
  BuiltKernel k;
  k.func = Lower(s, {data, kern, out}, "native_conv_relu");
  k.bufs = {RandomBuf(NumElems(data), DataType::Float32(), 1),
            RandomBuf(NumElems(kern), DataType::Float32(), 2),
            RandomBuf(NumElems(out), DataType::Float32(), 3)};
  return k;
}

BuiltKernel BuildDense() {
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
  config["vectorize"] = 1;
  Schedule s = topi::ApplyOpSchedule(wl, cpu, built, config);
  BuiltKernel k;
  k.func = Lower(s, built.Args(), "native_dense");
  for (size_t i = 0; i < built.Args().size(); ++i) {
    k.bufs.push_back(RandomBuf(NumElems(built.Args()[i]), DataType::Float32(), 10 + i));
  }
  return k;
}

// Times one workload on all three tiers. Native compilation happens before the
// timed region (the module cache makes it a once-per-content cost in serving,
// not a per-run one; the cache row below measures it separately).
void BenchThreeTiers(const std::string& name, BuiltKernel k, int repeats) {
  std::vector<BufferBinding> bind = k.Bindings();
  std::shared_ptr<const vm::Program> prog = vm::CompileToProgram(k.func);
  codegen::NativeKernel native = codegen::CompileNativeKernel(k.func);
  if (prog == nullptr || !native) {
    std::printf("%s: VM or native compile failed, skipping\n", name.c_str());
    return;
  }
  vm::ExecOptions serial;
  serial.num_threads = 1;
  double interp_ms = bench::MeasureMs([&] { RunLoweredInterp(k.func, bind); }, repeats);
  double vm_ms = bench::MeasureMs([&] { vm::Run(*prog, bind, serial); }, repeats);
  double native_ms =
      bench::MeasureMs([&] { codegen::RunNativeKernel(native, bind); }, repeats);
  bench::PrintBenchJson("native_" + name,
                        {{"interp_ms", interp_ms},
                         {"vm_ms", vm_ms},
                         {"native_ms", native_ms},
                         {"native_speedup_vs_vm", vm_ms / native_ms},
                         {"native_speedup_vs_interp", interp_ms / native_ms}});
}

// Cold compile (emit + system compiler + dlopen) vs warm in-process cache hit for
// the same function: the ratio is the cost the content-addressed cache removes
// from every run after the first.
void BenchCompileCache() {
  BuiltKernel k = BuildDense();
  // A fresh cache dir forces a real cold compile: the in-process registry alone
  // is not enough, since the disk cache (and dlopen's path dedup) would satisfy
  // the "cold" request with the .so the three-tier sweep above already built.
  char dir_template[] = "/tmp/tvmcpp_bench_codegen_XXXXXX";
  const char* fresh_dir = mkdtemp(dir_template);
  const char* saved = std::getenv("TVMCPP_NATIVE_CACHE");
  std::string saved_value = saved == nullptr ? "" : saved;
  if (fresh_dir != nullptr) {
    setenv("TVMCPP_NATIVE_CACHE", fresh_dir, 1);
  }
  codegen::ClearNativeModuleRegistryForTesting();
  bench::WallTimer cold;
  codegen::NativeKernel first = codegen::CompileNativeKernel(k.func);
  double cold_ms = cold.Ms();
  if (!first) {
    std::printf("native_compile_cache: compile failed, skipping\n");
    return;
  }
  bench::WallTimer warm;
  const int hits = 50;
  for (int i = 0; i < hits; ++i) {
    codegen::CompileNativeKernel(k.func);
  }
  double warm_ms = warm.Ms() / hits;
  if (saved == nullptr) {
    unsetenv("TVMCPP_NATIVE_CACHE");
  } else {
    setenv("TVMCPP_NATIVE_CACHE", saved_value.c_str(), 1);
  }
  if (fresh_dir != nullptr) {
    std::system(("rm -rf " + std::string(fresh_dir)).c_str());
  }
  bench::PrintBenchJson("native_compile_cache",
                        {{"cold_compile_ms", cold_ms},
                         {"warm_hit_ms", warm_ms},
                         {"cache_hit_speedup", cold_ms / warm_ms}});
}

}  // namespace
}  // namespace tvmcpp

int main() {
  using namespace tvmcpp;
  bench::OpenDefaultBenchJsonSink(TVMCPP_SOURCE_DIR "/BENCH_vm.json");
  std::printf("AOT native kernels vs bytecode VM vs interpreter (wall clock)\n\n");
  // TVMCPP_BENCH_SMOKE=1 (the CI sanity gate) shrinks workloads and repeats so the
  // sweep finishes in seconds; trajectory runs use the full sizes.
  const int repeats = bench::BenchSmokeMode() ? 3 : 10;
  BenchThreeTiers("conv2d_relu", BuildConvRelu(), repeats);
  BenchThreeTiers("dense", BuildDense(), repeats);
  BenchCompileCache();
  return 0;
}
