// End-to-end model deployment: compile ResNet-18 for two targets, inspect fusion and
// memory planning, and run real inference on a small input (the Section 6 end-to-end
// evaluation flow in miniature). On the CPU target fused and unfused inference are
// timed with the host wall clock; the GPU target cannot execute here, so its latency
// line is the machine-model estimate and is labeled as such.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "src/frontend/models.h"
#include "src/graph/executor.h"

using namespace tvmcpp;

namespace {

// Median host wall-clock milliseconds of `runs` Run() calls. Kernels are compiled
// when the executor is built, so the first run needs no separate warm-up.
double MedianRunMs(graph::GraphExecutor* exec, int runs) {
  std::vector<double> ms;
  for (int i = 0; i < runs; ++i) {
    auto start = std::chrono::steady_clock::now();
    exec->Run();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main() {
  // Small image so even the reference interpreter finishes quickly; the compilation
  // flow and kernel structure are identical to the 224x224 benchmark configuration.
  frontend::Model model = frontend::ResNet18(/*batch=*/1, /*image_size=*/32);
  std::printf("ResNet-18 graph: %d nodes\n", model.graph.num_nodes());

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
    NDArray input = NDArray::Random(model.input_shape, DataType::Float32(), 5);
    for (graph::GraphExecutor* exec : {&fused, &unfused}) {
      exec->SetInput("data", input);
      for (const auto& [name, value] : model.params) {
        exec->SetParam(name, value);
      }
    }
    const int runs = 3;
    double fused_ms = MedianRunMs(&fused, runs);
    double unfused_ms = MedianRunMs(&unfused, runs);
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
  }
  return 0;
}
