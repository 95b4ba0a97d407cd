// Figure 12 + Table 1: comparison of automation methods — ML-based cost model vs
// blackbox genetic algorithm vs random search — now on *real* measurement: every
// trial lowers the config, compiles it to bytecode, and times the vm::Program
// wall-clock on this host's CPU, exactly the loop the paper ran on device fleets.
// The baseline to beat is the untuned default schedule (what compilation picks on
// a tuning-cache miss), measured the same way.
// Paper result: the ML-guided optimizer reaches good configs in far fewer trials
// than blackbox methods. Numbers here are host-dependent wall-clock, so this bench
// reports to stdout only (no BENCH_*.json trajectory rows).
#include <algorithm>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/runtime/threadpool.h"

using namespace tvmcpp;
using namespace tvmcpp::autotune;

int main() {
  const bool smoke = bench::BenchSmokeMode();
  // Small enough that a few hundred real trials finish in minutes; the smoke
  // variant shrinks the workload and budget to CI scale.
  topi::OpWorkload wl = smoke ? topi::OpWorkload{"conv2d", 1, 8, 8, 8, 16, 3, 1, 1}
                              : topi::OpWorkload{"conv2d", 1, 14, 14, 16, 32, 3, 1, 1};
  Target t = Target::ArmA53();
  ThreadPool workers(smoke ? 2 : 4);

  TuneOptions opt;
  opt.num_trials = smoke ? 16 : 96;
  opt.batch_size = smoke ? 8 : 16;
  opt.seed = 5;
  opt.workers = &workers;

  std::printf("Figure 12: automation methods on conv2d %dx%d, %d->%d, 3x3 s%d (%s)\n\n",
              wl.h, wl.w, wl.ic, wl.oc, wl.stride,
              smoke ? "smoke budget" : "real measurement");

  struct Row {
    std::string name;
    TunerKind kind;
    TuneResult result;
  };
  std::vector<Row> rows = {{"TVM: ML-based model", TunerKind::kMlBased, {}},
                           {"TVM: blackbox genetic", TunerKind::kGenetic, {}},
                           {"TVM: random search", TunerKind::kRandom, {}}};
  double baseline = 0;
  for (Row& r : rows) {
    TuningTask task(wl, t, 77);
    r.result = Tune(&task, r.kind, opt);
    if (baseline == 0) {
      // The untuned default schedule, timed by the same measurer (it is trial 0
      // of every method, so this costs nothing extra).
      baseline = task.Measure(task.space().IndexOf(topi::DefaultConfig(task.space())));
      std::printf("schedule space: %lld configs; untuned default: %.3f ms (%s)\n",
                  static_cast<long long>(task.size()), baseline * 1e3,
                  task.use_sim() ? "sim model" : "wall-clock");
    }
  }
  std::printf("speedup over the untuned default (higher is better), by trials:\n\n");
  TextTable table({"trials", rows[0].name, rows[1].name, rows[2].name});
  std::vector<int> checkpoints =
      smoke ? std::vector<int>{4, 8, 16} : std::vector<int>{8, 16, 32, 64, 96};
  for (int checkpoint : checkpoints) {
    std::vector<std::string> row{std::to_string(checkpoint)};
    for (const Row& r : rows) {
      size_t i = std::min<size_t>(static_cast<size_t>(checkpoint), r.result.history.size());
      double best = i > 0 ? r.result.history[i - 1].best_seconds : baseline;
      row.push_back(TextTable::Num(baseline / best, 2) + "x");
    }
    table.AddRow(row);
  }
  table.Print();

  std::printf("\nTable 1: comparison of automation methods\n");
  TextTable t1({"method", "category data cost", "model bias", "need hardware info",
                "learn from history", "best found (ms)"});
  t1.AddRow({"blackbox auto-tuning (random)", "high", "none", "no", "no",
             TextTable::Num(rows[2].result.best_seconds * 1e3)});
  t1.AddRow({"blackbox genetic algorithm", "high", "none", "no", "no",
             TextTable::Num(rows[1].result.best_seconds * 1e3)});
  t1.AddRow({"predefined cost model", "none", "high", "yes", "no", "(n/a: see sim/)"});
  t1.AddRow({"ML-based cost model (TVM)", "low", "low", "no", "yes",
             TextTable::Num(rows[0].result.best_seconds * 1e3)});
  t1.Print();
  return 0;
}
