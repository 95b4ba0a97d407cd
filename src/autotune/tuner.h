// The automated schedule optimizer (Section 5): schedule explorer + ML cost model +
// real on-host measurement of compiled vm::Program runs.
//
// Three automation methods are provided, matching Figure 12 / Table 1:
//   * kMlBased — parallel simulated annealing guided by the GBT cost model, periodically
//                refit on measured data (the paper's system)
//   * kRandom  — uniform random search
//   * kGenetic — blackbox genetic algorithm (tournament selection + crossover + mutation)
//
// Measurement modes (MeasureOptions): CPU targets default to *real* measurement —
// the config's schedule is lowered, compiled to bytecode with the task's
// loop-specialization options, and timed wall-clock (warmup + min-of-k repeats,
// deterministic inputs). GPU/accelerator targets, whose codegen only executes
// serialized on this host, keep the src/sim machine-model cost; a caller passing
// MeasureOptions with use_sim = true forces the model everywhere (the fast
// deterministic path).
#ifndef SRC_AUTOTUNE_TUNER_H_
#define SRC_AUTOTUNE_TUNER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/autotune/cache.h"
#include "src/autotune/gbt.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/topi/schedules.h"

namespace tvmcpp {

class ThreadPool;  // src/runtime/threadpool.h

namespace autotune {

// How a TuningTask turns a config index into seconds.
struct MeasureOptions {
  // Cost configs on the src/sim machine model (plus deterministic noise standing
  // in for measurement variance) instead of timing real vm::Program runs.
  bool use_sim = true;
  int warmup = 1;   // real mode: untimed runs before timing
  int repeats = 3;  // real mode: timed runs, minimum taken
  // Specialization config the measured programs are compiled with. Part of the
  // tuning-cache key: a config tuned with unrolling on may lose without it.
  LoopSpecializeOptions specialize;
};

// A single-operator tuning task: workload + target + schedule space + measurer.
class TuningTask {
 public:
  // Default MeasureOptions, with use_sim = false for CPU targets (real
  // measurement) and true for GPU / accelerator targets.
  TuningTask(topi::OpWorkload wl, Target target, uint64_t seed = 7,
             double noise_level = 0.05);
  TuningTask(topi::OpWorkload wl, Target target, MeasureOptions measure,
             uint64_t seed = 7, double noise_level = 0.05);

  const topi::ConfigSpace& space() const { return space_; }
  const topi::OpWorkload& workload() const { return wl_; }
  const Target& target() const { return target_; }
  const MeasureOptions& measure_options() const { return measure_; }

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

  // The persistent-cache key of this task (TuningKey over workload, target, and
  // the measurement specialize config).
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
  MeasureOptions measure_;
  uint64_t seed_;
  double noise_level_;
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
  int sa_steps = 64;       // simulated-annealing walk length per batch
  int sa_parallel = 32;    // parallel annealing chains
  // Measure the untuned default config as trial 0, so the tuner's best is never
  // worse than what compilation would pick on a cache miss.
  bool include_default = true;
  // Worker pool for MeasureBatch: trials lower/compile concurrently (real-mode
  // timed sections still serialize inside the task). nullptr = sequential.
  ThreadPool* workers = nullptr;
};

TuneResult Tune(TuningTask* task, TunerKind kind, const TuneOptions& options);

// Tune, then record the winner in `cache` under task->CacheKey() (no-op when
// `cache` is null or tuning found nothing). The caller persists via Save().
TuneResult TuneToCache(TuningTask* task, TunerKind kind, const TuneOptions& options,
                       TuningCache* cache);

}  // namespace autotune
}  // namespace tvmcpp

#endif  // SRC_AUTOTUNE_TUNER_H_
