// End-to-end model deployment: compile ResNet-18 for two targets, inspect fusion and
// memory planning, and run real inference (the Section 6 end-to-end evaluation flow
// in miniature). On the CPU target fused and unfused inference are timed with the
// host wall clock on the engine TVMCPP_ENGINE selects, and the fused model is timed
// again on the native tier at 1 and N threads; the GPU target cannot execute here,
// so its latency line is the machine-model estimate and is labeled as such.
//
//   resnet_inference [image_size [threads]]
//
// image_size defaults to 32 (small enough for the reference interpreter) and threads
// to the host's core count. `TVMCPP_ENGINE=native resnet_inference 224 4` measures
// the paper's input size.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/runtime/threadpool.h"

using namespace tvmcpp;

namespace {

// Median host wall-clock milliseconds of `runs` calls of `run`, after `warmup`
// untimed calls.
template <typename Run>
double MedianRunMs(Run run, int warmup, int runs) {
  for (int i = 0; i < warmup; ++i) {
    run();
  }
  std::vector<double> ms;
  for (int i = 0; i < runs; ++i) {
    auto start = std::chrono::steady_clock::now();
    run();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const int image_size = argc > 1 ? std::atoi(argv[1]) : 32;
  const int threads =
      argc > 2 ? std::atoi(argv[2])
               : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (image_size < 32 || image_size > 512 || threads < 1 || threads > 64) {
    std::fprintf(stderr,
                 "usage: %s [image_size in 32..512 [threads in 1..64]]\n", argv[0]);
    return 2;
  }
  frontend::Model model = frontend::ResNet18(/*batch=*/1, image_size);
  std::printf("ResNet-18 graph at %dx%d: %d nodes\n", image_size, image_size,
              model.graph.num_nodes());
  NDArray input = NDArray::Random(model.input_shape, DataType::Float32(), 5);

  for (const Target& target : {Target::TitanX(), Target::ArmA53()}) {
    graph::CompileOptions fused_opts;
    graph::CompileOptions unfused_opts;
    unfused_opts.enable_fusion = false;
    graph::GraphExecutor fused(model.graph, target, fused_opts);
    graph::GraphExecutor unfused(model.graph, target, unfused_opts);
    std::printf("\ntarget %s:\n", target.name.c_str());
    std::printf("  kernels: %d fused vs %d unfused\n", fused.num_kernels(),
                unfused.num_kernels());
    std::printf("  memory:  %.2f MB planned vs %.2f MB unplanned\n",
                fused.memory_plan().planned_bytes / 1e6,
                fused.memory_plan().unplanned_bytes / 1e6);

    if (target.kind != TargetKind::kCpu) {
      std::printf("  latency: %.3f ms fused vs %.3f ms unfused (modeled, not measured)\n",
                  fused.EstimateSeconds() * 1e3, unfused.EstimateSeconds() * 1e3);
      continue;
    }
    for (graph::GraphExecutor* exec : {&fused, &unfused}) {
      exec->SetInput("data", input);
      for (const auto& [name, value] : model.params) {
        exec->SetParam(name, value);
      }
    }
    // Kernels are compiled when the executor is built, so the first run needs no
    // separate warm-up.
    const int runs = 3;
    double fused_ms = MedianRunMs([&] { fused.Run(); }, 0, runs);
    double unfused_ms = MedianRunMs([&] { unfused.Run(); }, 0, runs);
    std::printf("  latency: %.3f ms fused vs %.3f ms unfused (measured: host wall clock, "
                "median of %d runs)\n",
                fused_ms, unfused_ms, runs);
    NDArray out = fused.GetOutput(0);
    float best = -1;
    int best_class = -1;
    for (int i = 0; i < 1000; ++i) {
      if (out.Data<float>()[i] > best) {
        best = out.Data<float>()[i];
        best_class = i;
      }
    }
    std::printf("  inference ran: top class %d (p=%.4f)\n", best_class, best);

    // The same fused model on the native tier, whatever TVMCPP_ENGINE says. The
    // engine slot is read when the graph compiles and again on every Run().
    const ExecEngine engine = GetExecEngine();
    SetExecEngine(ExecEngine::kNative);
    auto native = std::make_shared<graph::CompiledGraph>(model.graph, target, fused_opts);
    for (const auto& [name, value] : model.params) {
      native->SetParam(name, value);
    }
    ThreadPool pool(threads);
    graph::RunContext ctx(native);
    ctx.SetInput("data", input);
    // Median of `native_runs` requests after two warm-up requests, with the parallel
    // loops chunked over `n` workers of `pool`.
    const int native_runs = 30;
    auto native_p50_ms = [&](int n) {
      vm::ExecOptions exec;
      exec.num_threads = n;
      exec.pool = &pool;
      return MedianRunMs([&] { native->Run(&ctx, exec); }, 2, native_runs);
    };
    double serial_ms = native_p50_ms(1);
    double parallel_ms = native_p50_ms(threads);
    SetExecEngine(engine);
    std::printf("  native p50: %.3f ms at 1 thread, %.3f ms at %d threads (measured: host "
                "wall clock, median of %d requests)\n",
                serial_ms, parallel_ms, threads, native_runs);
  }
  return 0;
}
