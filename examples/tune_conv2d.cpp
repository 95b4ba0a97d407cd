// Auto-tuning a single conv2d operator (Section 5's flow): declare the workload, explore
// the schedule space with the ML-guided optimizer, and compare the tuned kernel against
// the untuned default and a random-search baseline.
#include <cstdio>

#include "src/autotune/tuner.h"
#include "src/runtime/target.h"
#include "src/runtime/threadpool.h"

using namespace tvmcpp;
using namespace tvmcpp::autotune;

int main() {
  // ResNet-18's C7 layer (Table 2): 28x28, 128 -> 256 channels, 3x3 stride 2.
  topi::OpWorkload wl;
  wl.kind = "conv2d";
  wl.n = 1;
  wl.h = 28;
  wl.w = 28;
  wl.ic = 128;
  wl.oc = 256;
  wl.k = 3;
  wl.stride = 2;
  wl.pad = 1;
  Target target = Target::TitanX();

  TuningTask task(wl, target, /*seed=*/42);
  std::printf("workload %s\n", wl.Key().c_str());
  std::printf("schedule space size: %lld configs\n", static_cast<long long>(task.size()));

  // Four workers measure each batch of candidate configs concurrently.
  ThreadPool pool(4);

  TuneOptions opt;
  opt.num_trials = 128;
  opt.batch_size = 16;
  opt.workers = &pool;
  TuneResult ml = Tune(&task, TunerKind::kMlBased, opt);
  TuneResult rnd = Tune(&task, TunerKind::kRandom, opt);

  topi::ConfigSpace space = task.space();
  double default_s = task.TrueCost(space.IndexOf(topi::DefaultConfig(space)));
  std::printf("\nuntuned default:     %8.3f ms\n", default_s * 1e3);
  std::printf("random search (128): %8.3f ms\n", task.TrueCost(rnd.best_config) * 1e3);
  std::printf("ML-based (128):      %8.3f ms  <- the paper's optimizer\n",
              task.TrueCost(ml.best_config) * 1e3);
  std::printf("\nbest config found:\n");
  for (const auto& [knob, value] : space.At(ml.best_config)) {
    std::printf("  %-12s = %lld\n", knob.c_str(), static_cast<long long>(value));
  }
  std::printf("\nconvergence (best ms after N trials):\n  N:    ");
  for (size_t i = 15; i < ml.history.size(); i += 16) {
    std::printf("%7zu", i + 1);
  }
  std::printf("\n  ML:   ");
  for (size_t i = 15; i < ml.history.size(); i += 16) {
    std::printf("%7.3f", ml.history[i].best_seconds * 1e3);
  }
  std::printf("\n  rand: ");
  for (size_t i = 15; i < rnd.history.size(); i += 16) {
    std::printf("%7.3f", rnd.history[i].best_seconds * 1e3);
  }
  std::printf("\n");
  return 0;
}
