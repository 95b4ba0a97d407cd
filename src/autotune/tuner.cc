#include "src/autotune/tuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "src/autotune/feature.h"
#include "src/lower/lower.h"
#include "src/runtime/threadpool.h"
#include "src/sim/machine.h"
#include "src/support/random.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace autotune {

namespace {

// Real-mode timing: untimed runs before timing, then the minimum of the timed runs.
constexpr int kWarmupRuns = 1;
constexpr int kTimedRuns = 3;
// Sim mode: relative spread of the deterministic per-config noise standing in
// for measurement variance.
constexpr double kSimNoise = 0.05;
// Simulated annealing (kMlBased): walk length per batch, and parallel chains.
constexpr int kSaSteps = 64;
constexpr int kSaChains = 32;

}  // namespace

// Only CPU-target programs execute natively on this host; GPU/accelerator codegen
// runs serialized (SerializeThreadBlocks), so wall-clock there would rank configs
// by an irrelevant machine. Those targets keep the sim model.
TuningTask::TuningTask(topi::OpWorkload wl, Target target, uint64_t seed)
    : wl_(std::move(wl)),
      target_(std::move(target)),
      use_sim_(target_.kind != TargetKind::kCpu),
      seed_(seed) {
  space_ = topi::GetScheduleSpace(wl_, target_);
}

std::string TuningTask::CacheKey() const {
  return TuningKey(wl_, target_);
}

LoweredFunc TuningTask::LowerConfig(int64_t index) const {
  topi::Config config = space_.At(index);
  topi::BuiltOp built = topi::BuildOpCompute(wl_);
  Schedule s = topi::ApplyOpSchedule(wl_, target_, built, config);
  return Lower(s, built.Args(), wl_.Key());
}

void TuningTask::EnsureArgBuffers(const LoweredFunc& func) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!arg_bindings_.empty()) {
    return;
  }
  // Every config lowers the same extern buffer signature (BuildOpCompute's
  // placeholders + output, in Lower() argument order), so one set of buffers
  // serves all trials. Inputs are deterministic per task seed: trials rank
  // configs on identical data.
  //
  // sparse_dense measurement buffers: random values are fine for x/w_data, but
  // w_indices and w_indptr drive address computation inside the kernel, so they
  // must describe a real CSR matrix (monotone indptr summing to nnz, ascending
  // in-bounds columns) or the measured kernel would gather out of bounds. A
  // deterministic valid structure matching the workload's (oc, k, nnz,
  // max_row_nnz) stands in for real pruned weights; args arrive in
  // BuildOpCompute order [x, w_data, w_indices, w_indptr, out].
  bool sparse = wl_.kind == "sparse_dense";
  for (size_t i = 0; i < func.args.size(); ++i) {
    const BufferArg& arg = func.args[i];
    NDArray nd = (i + 1 == func.args.size())
                     ? NDArray::Empty(arg.shape, arg.dtype)
                     : NDArray::Random(arg.shape, arg.dtype, seed_ * 7919 + i);
    if (sparse && (i == 2 || i == 3)) {
      nd = NDArray::Empty(arg.shape, arg.dtype);
      int32_t* p = nd.Data<int32_t>();
      // Spread nnz as evenly as rows allow, capped by the declared ELL bound.
      int64_t oc = wl_.oc, remaining = wl_.nnz, at = 0;
      for (int64_t r = 0; r < oc; ++r) {
        int64_t want = (wl_.nnz + oc - 1) / oc;
        int64_t len = std::min({want, remaining, wl_.max_row_nnz,
                                static_cast<int64_t>(wl_.k)});
        if (i == 2) {  // w_indices: the first `len` columns, ascending
          for (int64_t c = 0; c < len; ++c) {
            p[at + c] = static_cast<int32_t>(c);
          }
        } else {  // w_indptr
          p[r] = static_cast<int32_t>(at);
        }
        at += len;
        remaining -= len;
      }
      if (i == 3) {
        p[oc] = static_cast<int32_t>(at);
      }
    }
    arg_arrays_.push_back(nd);
    arg_bindings_.push_back(nd.Binding());
  }
}

double TuningTask::MeasureReal(int64_t index) {
  LoweredFunc func = LowerConfig(index);
  std::shared_ptr<const vm::Program> program = vm::CompileToProgram(func);
  EnsureArgBuffers(func);
  auto run_once = [&] {
    if (program != nullptr) {
      vm::Run(*program, arg_bindings_, {});
    } else {
      // Deliberate engine choice for a VM-unsupported construct, not a silent
      // downgrade: time what compilation would actually run.
      RunLoweredInterp(func, arg_bindings_);
    }
  };
  // Timed section: serialized across threads so parallel MeasureBatch callers
  // (which overlap the lower/compile above) cannot distort each other's clocks.
  std::lock_guard<std::mutex> timing(time_mu_);
  for (int i = 0; i < kWarmupRuns; ++i) {
    run_once();
  }
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kTimedRuns; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    run_once();
    double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                   .count();
    best = std::min(best, s);
  }
  return best;
}

double TuningTask::CostOf(int64_t index, bool with_noise) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cost_cache_.find(index);
    if (it != cost_cache_.end()) {
      double base = it->second;
      if (!with_noise) {
        return base;
      }
      Rng rng(seed_ * 1000003 + static_cast<uint64_t>(index));
      return base * (1.0 + kSimNoise * rng.Normal());
    }
  }
  double seconds;
  std::vector<double> features;
  try {
    LoweredFunc f = LowerConfig(index);
    ProgramStats stats = AnalyzeProgram(f);
    SimCost cost = target_.kind == TargetKind::kGpu ? EstimateGpuCost(target_, stats)
                                                    : EstimateCpuCost(target_, stats);
    seconds = cost.feasible ? cost.seconds : 1.0;
    features = ExtractFeatures(stats);
    features.resize(static_cast<size_t>(kFullFeatureDim), 0.0);
  } catch (const InternalError&) {
    seconds = 1.0;  // invalid schedule: huge penalty, like a failed on-device run
    features.assign(static_cast<size_t>(kFullFeatureDim), 0.0);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    cost_cache_[index] = seconds;
    feature_cache_[index] = std::move(features);
  }
  if (!with_noise) {
    return seconds;
  }
  Rng rng(seed_ * 1000003 + static_cast<uint64_t>(index));
  return seconds * (1.0 + kSimNoise * rng.Normal());
}

double TuningTask::Measure(int64_t index) {
  if (use_sim_) {
    return CostOf(index, true);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cost_cache_.find(index);
    if (it != cost_cache_.end()) {
      return it->second;
    }
  }
  double seconds;
  try {
    seconds = MeasureReal(index);
  } catch (const InternalError&) {
    seconds = 1.0;  // invalid schedule: huge penalty
  }
  std::lock_guard<std::mutex> lock(mu_);
  return cost_cache_.emplace(index, seconds).first->second;  // first write wins
}

double TuningTask::TrueCost(int64_t index) {
  return use_sim_ ? CostOf(index, false) : Measure(index);
}

std::vector<double> TuningTask::Features(int64_t index) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = feature_cache_.find(index);
    if (it != feature_cache_.end()) {
      return it->second;
    }
  }
  if (use_sim_) {
    CostOf(index, false);  // sim cost + features come from one lowering
    std::lock_guard<std::mutex> lock(mu_);
    return feature_cache_.at(index);
  }
  std::vector<double> features;
  try {
    features = ExtractFeaturesVm(LowerConfig(index));
  } catch (const InternalError&) {
    features.assign(static_cast<size_t>(kFullFeatureDim), 0.0);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return feature_cache_.emplace(index, std::move(features)).first->second;
}

namespace {

// Measures a batch, appending to the history: concurrently on the worker pool
// when provided (lower/compile overlap; real-mode timed sections serialize inside
// the task), else sequentially.
std::vector<double> MeasureBatch(TuningTask* task, const std::vector<int64_t>& batch,
                                 const TuneOptions& options) {
  std::vector<double> out(batch.size());
  if (options.workers != nullptr && batch.size() > 1) {
    std::vector<std::future<double>> futures;
    futures.reserve(batch.size());
    for (int64_t idx : batch) {
      futures.push_back(options.workers->Submit([task, idx] { return task->Measure(idx); }));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      out[i] = futures[i].get();
    }
    return out;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    out[i] = task->Measure(batch[i]);
  }
  return out;
}

// Mutates one knob of a config index by a random step (the SA neighborhood).
int64_t Neighbor(const topi::ConfigSpace& space, int64_t index, Rng* rng) {
  topi::Config c = space.At(index);
  const topi::KnobSpec& knob =
      space.knobs[rng->Uniform(static_cast<uint64_t>(space.knobs.size()))];
  // Move to an adjacent choice.
  int64_t cur = c[knob.name];
  size_t pos = 0;
  for (size_t i = 0; i < knob.choices.size(); ++i) {
    if (knob.choices[i] == cur) {
      pos = i;
      break;
    }
  }
  if (knob.choices.size() > 1) {
    size_t next = rng->Uniform(2) == 0
                      ? (pos == 0 ? 1 : pos - 1)
                      : (pos + 1 >= knob.choices.size() ? pos - 1 : pos + 1);
    c[knob.name] = knob.choices[next];
  }
  return space.IndexOf(c);
}

// Parallel simulated annealing over the model's predicted score; returns up to `want`
// distinct promising unvisited configs (Section 5.3).
std::vector<int64_t> ExploreWithModel(TuningTask* task, const GbtModel& model,
                                      std::vector<int64_t>* sa_state, int want,
                                      const std::unordered_set<int64_t>& visited, Rng* rng) {
  const topi::ConfigSpace& space = task->space();
  auto score = [&](int64_t idx) { return model.Predict(task->Features(idx)); };
  std::vector<double> cur_score(sa_state->size());
  for (size_t i = 0; i < sa_state->size(); ++i) {
    cur_score[i] = score((*sa_state)[i]);
  }
  // Track the best-scored configs seen during the walk.
  std::set<std::pair<double, int64_t>> heap;  // (score, index), ascending
  auto offer = [&](double sc, int64_t idx) {
    if (visited.count(idx)) {
      return;
    }
    heap.insert({sc, idx});
    while (static_cast<int>(heap.size()) > want * 3) {
      heap.erase(heap.begin());
    }
  };
  double temperature = 1.0;
  for (int step = 0; step < kSaSteps; ++step) {
    for (size_t i = 0; i < sa_state->size(); ++i) {
      int64_t proposal = Neighbor(space, (*sa_state)[i], rng);
      double sc = score(proposal);
      double delta = sc - cur_score[i];
      if (delta > 0 || rng->UniformReal() < std::exp(delta / std::max(temperature, 1e-3))) {
        (*sa_state)[i] = proposal;
        cur_score[i] = sc;
      }
      offer(cur_score[i], (*sa_state)[i]);
    }
    temperature *= 0.95;
  }
  std::vector<int64_t> batch;
  std::unordered_set<int64_t> chosen;
  for (auto it = heap.rbegin(); it != heap.rend() && static_cast<int>(batch.size()) < want;
       ++it) {
    if (chosen.insert(it->second).second) {
      batch.push_back(it->second);
    }
  }
  // Top up with random unvisited configs when the walk found too few.
  while (static_cast<int>(batch.size()) < want) {
    int64_t idx = static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(space.size())));
    if (!visited.count(idx) && chosen.insert(idx).second) {
      batch.push_back(idx);
    }
    if (chosen.size() + visited.size() >= static_cast<size_t>(space.size())) {
      break;
    }
  }
  return batch;
}

}  // namespace

TuneResult Tune(TuningTask* task, TunerKind kind, const TuneOptions& options) {
  Rng rng(options.seed);
  TuneResult result;
  result.best_seconds = 1e30;
  std::unordered_set<int64_t> visited;
  int64_t space_size = task->size();

  GbtModel model(GbtParams{40, 5, 0.25, 2, options.objective});
  std::vector<std::vector<double>> train_x;
  std::vector<double> train_y;
  std::vector<int64_t> sa_state;
  // GA population.
  std::vector<std::pair<int64_t, double>> population;

  auto record = [&](int64_t idx, double seconds) {
    visited.insert(idx);
    if (seconds < result.best_seconds) {
      result.best_seconds = seconds;
      result.best_config = idx;
    }
    TrialRecord tr;
    tr.trial = static_cast<int>(result.history.size());
    tr.config_index = idx;
    tr.seconds = seconds;
    tr.best_seconds = result.best_seconds;
    result.history.push_back(tr);
  };

  auto learn = [&](int64_t idx, double seconds) {
    if (kind == TunerKind::kGenetic) {
      population.emplace_back(idx, seconds);
    }
    if (kind == TunerKind::kMlBased) {
      train_x.push_back(task->Features(idx));
      train_y.push_back(-std::log(std::max(seconds, 1e-12)));
    }
  };

  // Trial 0: the untuned default. The search's best can then never lose to what
  // compilation would pick on a cache miss, and the model starts from the one
  // config every production run has already implicitly measured.
  if (options.num_trials > 0 && space_size > 0) {
    int64_t default_idx = task->space().IndexOf(topi::DefaultConfig(task->space()));
    double seconds = MeasureBatch(task, {default_idx}, options)[0];
    record(default_idx, seconds);
    learn(default_idx, seconds);
  }

  while (static_cast<int>(result.history.size()) < options.num_trials &&
         static_cast<int64_t>(visited.size()) < space_size) {
    int want = std::min(options.batch_size,
                        options.num_trials - static_cast<int>(result.history.size()));
    std::vector<int64_t> batch;
    switch (kind) {
      case TunerKind::kRandom: {
        std::unordered_set<int64_t> chosen;
        while (static_cast<int>(batch.size()) < want &&
               static_cast<int64_t>(visited.size() + chosen.size()) < space_size) {
          int64_t idx =
              static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(space_size)));
          if (!visited.count(idx) && chosen.insert(idx).second) {
            batch.push_back(idx);
          }
        }
        break;
      }
      case TunerKind::kGenetic: {
        if (population.empty()) {
          for (int i = 0; i < want; ++i) {
            batch.push_back(
                static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(space_size))));
          }
        } else {
          auto tournament = [&]() {
            const auto& a = population[rng.Uniform(population.size())];
            const auto& b = population[rng.Uniform(population.size())];
            return a.second <= b.second ? a.first : b.first;
          };
          const topi::ConfigSpace& space = task->space();
          std::unordered_set<int64_t> chosen;
          while (static_cast<int>(batch.size()) < want) {
            topi::Config pa = space.At(tournament());
            topi::Config pb = space.At(tournament());
            topi::Config child;
            for (const topi::KnobSpec& k : space.knobs) {
              child[k.name] = rng.Uniform(2) == 0 ? pa[k.name] : pb[k.name];
              if (rng.UniformReal() < 0.1) {
                child[k.name] = k.choices[rng.Uniform(k.choices.size())];
              }
            }
            int64_t idx = space.IndexOf(child);
            if (chosen.insert(idx).second) {
              batch.push_back(idx);
            }
          }
        }
        break;
      }
      case TunerKind::kMlBased: {
        if (!model.trained()) {
          std::unordered_set<int64_t> chosen;
          while (static_cast<int>(batch.size()) < want &&
                 static_cast<int64_t>(visited.size() + chosen.size()) < space_size) {
            int64_t idx =
                static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(space_size)));
            if (!visited.count(idx) && chosen.insert(idx).second) {
              batch.push_back(idx);
            }
          }
        } else {
          if (sa_state.empty()) {
            for (int i = 0; i < kSaChains; ++i) {
              sa_state.push_back(
                  static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(space_size))));
            }
          }
          batch = ExploreWithModel(task, model, &sa_state, want, visited, &rng);
        }
        break;
      }
    }
    if (batch.empty()) {
      break;
    }
    std::vector<double> seconds = MeasureBatch(task, batch, options);
    for (size_t i = 0; i < batch.size(); ++i) {
      record(batch[i], seconds[i]);
      learn(batch[i], seconds[i]);
    }
    if (kind == TunerKind::kGenetic) {
      std::sort(population.begin(), population.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
      if (population.size() > 64) {
        population.resize(64);
      }
    }
    if (kind == TunerKind::kMlBased) {
      model.Fit(train_x, train_y);  // periodic refit on all collected data
    }
  }
  return result;
}

}  // namespace autotune
}  // namespace tvmcpp
