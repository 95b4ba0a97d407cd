// The automated schedule optimizer (Section 5): schedule explorer + ML cost model +
// real on-host measurement of compiled vm::Program runs.
//
// Three automation methods are provided, matching Figure 12 / Table 1:
//   * kMlBased — parallel simulated annealing guided by the GBT cost model, periodically
//                refit on measured data (the paper's system)
//   * kRandom  — uniform random search
//   * kGenetic — blackbox genetic algorithm (tournament selection + crossover + mutation)
//
// The target decides how a config is measured. CPU targets time it for real: the
// config's schedule is lowered, compiled to bytecode with the VM's default loop
// specialization, and timed wall-clock (1 untimed warmup run, then the minimum of 3
// timed runs, on deterministic inputs), with kParallel loops chunked at
// vm::DefaultNumThreads() on the process-wide worker pool. GPU/accelerator
// targets, whose codegen only executes serialized on this host, use the src/sim
// machine-model cost with 5% deterministic per-config noise.
#ifndef SRC_AUTOTUNE_TUNER_H_
#define SRC_AUTOTUNE_TUNER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/autotune/cache.h"
#include "src/autotune/gbt.h"
#include "src/lower/lower.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/topi/schedules.h"

namespace tvmcpp {

class ThreadPool;  // src/runtime/threadpool.h

namespace autotune {

// A single-operator tuning task: workload + target + schedule space + measurer.
class TuningTask {
 public:
  TuningTask(topi::OpWorkload wl, Target target, uint64_t seed = 7);

  const topi::ConfigSpace& space() const { return space_; }
  const topi::OpWorkload& workload() const { return wl_; }
  const Target& target() const { return target_; }
  // True when configs are costed on the sim machine model (non-CPU targets)
  // rather than timed.
  bool use_sim() const { return use_sim_; }

  // Seconds for a config. Real mode: wall-clock best-of-repeats of the compiled
  // program on deterministic inputs (lower/compile may run concurrently; the
  // timed sections serialize on an internal mutex so parallel MeasureBatch
  // callers cannot contaminate each other's numbers). Sim mode: machine-model
  // cost with deterministic per-config noise. Thread safe; cached.
  double Measure(int64_t config_index);
  // Noise-free cost: the sim model estimate, or the cached real measurement.
  double TrueCost(int64_t config_index);
  // Feature vector for a config, kFullFeatureDim wide. Real mode extracts from
  // the post-specialization TIR + bytecode opcode stats (ExtractFeaturesVm);
  // sim mode keeps the classic pre-VM block with the VM block zeroed. Never
  // triggers a timed run. Thread safe; cached.
  std::vector<double> Features(int64_t config_index);

  // The persistent-cache key of this task: TuningKey(workload, target).
  std::string CacheKey() const;

  int64_t size() const { return space_.size(); }

 private:
  double CostOf(int64_t config_index, bool with_noise);  // sim path
  double MeasureReal(int64_t config_index);              // may throw InternalError
  LoweredFunc LowerConfig(int64_t config_index) const;   // may throw InternalError
  void EnsureArgBuffers(const LoweredFunc& func);

  topi::OpWorkload wl_;
  Target target_;
  topi::ConfigSpace space_;
  const bool use_sim_;
  uint64_t seed_;
  std::mutex mu_;       // caches + buffer init
  std::mutex time_mu_;  // serializes warmup + timed runs
  std::unordered_map<int64_t, double> cost_cache_;
  std::unordered_map<int64_t, std::vector<double>> feature_cache_;
  std::vector<NDArray> arg_arrays_;  // deterministic inputs, shared by all configs
  std::vector<BufferBinding> arg_bindings_;
};

enum class TunerKind { kMlBased, kRandom, kGenetic };

struct TrialRecord {
  int trial = 0;
  int64_t config_index = 0;
  double seconds = 0;
  double best_seconds = 0;  // best seen so far (inclusive)
};

struct TuneResult {
  std::vector<TrialRecord> history;
  int64_t best_config = -1;
  double best_seconds = 0;
};

struct TuneOptions {
  int num_trials = 400;
  int batch_size = 16;
  uint64_t seed = 1;
  GbtObjective objective = GbtObjective::kRank;
  // Worker pool for MeasureBatch: trials lower/compile concurrently (real-mode
  // timed sections still serialize inside the task). nullptr = sequential.
  ThreadPool* workers = nullptr;
};

// Searches the task's space. Trial 0 is always the untuned default config, so the
// best found is never worse than what compilation would pick on a cache miss.
TuneResult Tune(TuningTask* task, TunerKind kind, const TuneOptions& options);

}  // namespace autotune
}  // namespace tvmcpp

#endif  // SRC_AUTOTUNE_TUNER_H_
