// Auto-tuner tests: GBT model quality (regression + rank objectives), exploration
// methods, the Figure 12 property that the ML-guided search converges faster than
// random search on a conv2d task, real wall-clock measurement on the VM, and the
// persistent tuning cache (round-trip, key stability, corruption/fault fallback,
// compile/serving integration, tuned ≡ untuned bitwise).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/autotune/cache.h"
#include "src/autotune/feature.h"
#include "src/autotune/gbt.h"
#include "src/autotune/tuner.h"
#include "src/graph/executor.h"
#include "src/serve/batch.h"
#include "src/support/failpoint.h"
#include "src/support/random.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace autotune {
namespace {

TEST(Gbt, FitsSyntheticRegression) {
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> f(4);
    for (double& v : f) {
      v = rng.UniformReal() * 4;
    }
    x.push_back(f);
    y.push_back(2 * f[0] + f[1] * f[1] - 3 * (f[2] > 2) + 0.1 * f[3]);
  }
  GbtModel model(GbtParams{60, 5, 0.2, 2, GbtObjective::kRegression});
  model.Fit(x, y);
  double mse = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    double d = model.Predict(x[i]) - y[i];
    mse += d * d;
  }
  mse /= static_cast<double>(x.size());
  double var = 0, mean = 0;
  for (double v : y) {
    mean += v;
  }
  mean /= static_cast<double>(y.size());
  for (double v : y) {
    var += (v - mean) * (v - mean);
  }
  var /= static_cast<double>(y.size());
  EXPECT_LT(mse, 0.2 * var) << "GBT failed to fit synthetic data";
}

TEST(Gbt, RankObjectivePreservesOrder) {
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 150; ++i) {
    std::vector<double> f(3);
    for (double& v : f) {
      v = rng.UniformReal();
    }
    x.push_back(f);
    y.push_back(3 * f[0] - 2 * f[1]);
  }
  GbtModel model(GbtParams{50, 4, 0.3, 2, GbtObjective::kRank});
  model.Fit(x, y);
  // Pairwise order agreement must beat chance decisively.
  int correct = 0, total = 0;
  for (size_t i = 0; i < x.size(); i += 3) {
    for (size_t j = i + 1; j < x.size(); j += 7) {
      if (y[i] == y[j]) {
        continue;
      }
      ++total;
      bool truth = y[i] > y[j];
      bool pred = model.Predict(x[i]) > model.Predict(x[j]);
      correct += truth == pred;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.85);
}

TEST(Tuner, FindsGoodConfigOnConv) {
  topi::OpWorkload wl{"conv2d", 1, 14, 14, 32, 64, 3, 1, 1};
  TuningTask task(wl, Target::TitanX(), /*seed=*/9);
  ASSERT_TRUE(task.use_sim()) << "GPU tasks must stay on the model";
  TuneOptions opt;
  opt.num_trials = 64;
  opt.batch_size = 16;
  TuneResult r = Tune(&task, TunerKind::kMlBased, opt);
  ASSERT_GE(r.best_config, 0);
  // Best found must be well below the median of a random sample.
  Rng rng(4);
  std::vector<double> sample;
  for (int i = 0; i < 32; ++i) {
    sample.push_back(
        task.TrueCost(static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(task.size())))));
  }
  std::sort(sample.begin(), sample.end());
  double median = sample[sample.size() / 2];
  EXPECT_LT(task.TrueCost(r.best_config), median);
}

TEST(Tuner, MlBeatsRandomAtFixedBudget) {
  topi::OpWorkload wl{"conv2d", 1, 14, 14, 32, 64, 3, 1, 1};
  TuneOptions opt;
  opt.num_trials = 96;
  opt.batch_size = 16;
  TuningTask t1(wl, Target::TitanX(), 21);
  TuningTask t2(wl, Target::TitanX(), 21);
  TuneResult ml = Tune(&t1, TunerKind::kMlBased, opt);
  TuneResult rnd = Tune(&t2, TunerKind::kRandom, opt);
  // The ML-guided search should find an equal or better config (Figure 12's gap).
  EXPECT_LE(ml.best_seconds, rnd.best_seconds * 1.10);
}

TEST(Tuner, HistoryIsMonotone) {
  topi::OpWorkload wl{"dense", 64, 1, 1, 1, 64, 64, 1, 0};
  TuningTask task(wl, Target::TitanX(), 2);
  TuneOptions opt;
  opt.num_trials = 40;
  TuneResult r = Tune(&task, TunerKind::kGenetic, opt);
  for (size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_LE(r.history[i].best_seconds, r.history[i - 1].best_seconds);
  }
}

TEST(Tuner, DefaultConfigIsTrialZero) {
  topi::OpWorkload wl{"dense", 16, 1, 1, 1, 64, 64, 1, 0};
  TuningTask task(wl, Target::TitanX(), 2);
  TuneOptions opt;
  opt.num_trials = 8;
  TuneResult r = Tune(&task, TunerKind::kRandom, opt);
  ASSERT_FALSE(r.history.empty());
  EXPECT_EQ(r.history[0].config_index,
            task.space().IndexOf(topi::DefaultConfig(task.space())));
  // With the default seeded, the search result can never lose to what an
  // untuned compile would pick.
  EXPECT_LE(r.best_seconds, r.history[0].seconds);
}

// Real measurement: a CPU task defaults to wall-clock timing of compiled
// vm::Program runs, and its features come from the VM-era pipeline.
TEST(Measure, RealTimingOnCpuDense) {
  topi::OpWorkload wl{"dense", 4, 1, 1, 1, 32, 32, 1, 0};
  TuningTask task(wl, Target::ArmA53(), /*seed=*/11);
  ASSERT_FALSE(task.use_sim())
      << "CPU tasks must default to measuring real programs";
  TuneOptions opt;
  opt.num_trials = 8;
  opt.batch_size = 4;
  TuneResult r = Tune(&task, TunerKind::kRandom, opt);
  ASSERT_GE(r.best_config, 0);
  EXPECT_GT(r.best_seconds, 0.0);
  EXPECT_LT(r.best_seconds, 1.0) << "tiny dense cannot take the failure penalty";
  // Measurements are cached: re-measuring returns the identical number.
  EXPECT_EQ(task.Measure(r.best_config), r.best_seconds);

  std::vector<double> f = task.Features(r.best_config);
  ASSERT_EQ(f.size(), static_cast<size_t>(kFullFeatureDim));
  EXPECT_EQ(f[kFeatureDim], 1.0) << "VM block missing: program did not compile";
}

TEST(Feature, DistinctConfigsProduceDistinctFeatures) {
  topi::OpWorkload wl{"conv2d", 1, 14, 14, 16, 32, 3, 1, 1};
  TuningTask task(wl, Target::TitanX(), 3);
  std::vector<double> f0 = task.Features(0);
  std::vector<double> f1 = task.Features(task.size() - 1);
  EXPECT_EQ(f0.size(), static_cast<size_t>(kFullFeatureDim));
  EXPECT_NE(f0, f1);
}

// The VM feature block must react to specialization decisions: its pass-effect
// features are the log-scaled fire counters of the program the VM compiles by
// default (unroll/hoist/strength-reduction change the opcode mix the model
// learns from).
TEST(Feature, VmBlockRespondsToSpecialization) {
  topi::OpWorkload wl{"dense", 4, 1, 1, 1, 16, 16, 1, 0};
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  topi::ConfigSpace space = topi::GetScheduleSpace(wl, Target::ArmA53());
  Schedule s = topi::ApplyOpSchedule(wl, Target::ArmA53(), built,
                                     topi::DefaultConfig(space));
  LoweredFunc f = Lower(s, built.Args(), "dense_feature_probe");
  std::vector<double> features = ExtractFeaturesVm(f);
  ASSERT_EQ(features.size(), static_cast<size_t>(kFullFeatureDim));
  ASSERT_EQ(features[kFeatureDim], 1.0);
  std::shared_ptr<const vm::Program> program = vm::CompileToProgram(f);
  ASSERT_NE(program, nullptr);
  vm::ProgramStats ps = vm::GetProgramStats(*program);
  const int pass_effects[] = {ps.unrolled_loops, ps.hoisted_lets, ps.csed_muls,
                              ps.strength_reduced, ps.peephole_removed};
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(features[static_cast<size_t>(kFeatureDim + 8 + i)],
              std::log2(1.0 + static_cast<double>(pass_effects[i])))
        << "pass-effect feature " << i;
    fired += pass_effects[i];
  }
  EXPECT_GT(fired, 0) << "no specialization pass fired on the probe";
}

// ---------------------------------------------------------------------------
// Persistent tuning cache
// ---------------------------------------------------------------------------

// The process-wide cache is shared state: each test starts and leaves it empty.
struct ScopedCleanGlobalCache {
  ScopedCleanGlobalCache() { Reset(); }
  ~ScopedCleanGlobalCache() { Reset(); }
  static void Reset() {
    GlobalTuningCache().Clear();
    GlobalTuningCache().ResetCounters();
  }
};

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

topi::OpWorkload DenseWl(int batch = 16) {
  return topi::OpWorkload{"dense", batch, 1, 1, 1, 256, 256, 1, 0};
}

// A config far from the default on every knob that has room to move.
topi::Config ExtremeConfig(const topi::ConfigSpace& space) {
  topi::Config c;
  for (const topi::KnobSpec& k : space.knobs) {
    c[k.name] = k.choices.back();
  }
  return c;
}

TEST(TuningCache, SaveLoadRoundTripPreservesScheduleChoice) {
  topi::OpWorkload wl = DenseWl();
  topi::ConfigSpace space = topi::GetScheduleSpace(wl, Target::ArmA53());
  std::string key = TuningKey(wl, Target::ArmA53());

  TuningCache out;
  TuningCacheEntry e;
  e.key = key;
  e.config = ExtremeConfig(space);
  e.seconds = 1.25e-5;
  e.trials = 64;
  out.Put(e);
  std::string path = TempPath("tune_cache_roundtrip.json");
  ASSERT_TRUE(out.Save(path));

  TuningCache in;
  ASSERT_TRUE(in.Load(path));
  ASSERT_EQ(in.size(), 1u);
  TuningCacheEntry got;
  ASSERT_TRUE(in.Lookup(key, &got));
  EXPECT_EQ(got.config, e.config);
  EXPECT_DOUBLE_EQ(got.seconds, e.seconds);
  EXPECT_EQ(got.trials, e.trials);
  // And the loaded entry instantiates the *identical* schedule choice.
  topi::Config applied;
  ASSERT_TRUE(ApplyCachedConfig(space, got.config, &applied));
  EXPECT_EQ(space.IndexOf(applied), space.IndexOf(e.config));
  EXPECT_EQ(in.hits(), 1);
  std::remove(path.c_str());
}

// The key schema and its FNV-1a hash are pinned: a process tomorrow (or another
// machine) must compute the same key and hash for the same tuning point, or
// caches stop being shareable across processes. Update both constants together
// with a cache version bump if the schema ever changes deliberately.
TEST(TuningCache, KeyStableAcrossProcesses) {
  topi::OpWorkload wl = DenseWl();
  std::string key = TuningKey(wl, Target::ArmA53());
  EXPECT_EQ(key, "dense_n16_h1_w1_ic1_oc256_k256_s1_p0_float32@arm_cpu@u8_h1_s1_p1");
  EXPECT_EQ(TuningKeyHash(key), 0xf096fdae7b7dce47ULL);
  // The batch dimension is part of the key: batch-N variants tune independently.
  EXPECT_NE(TuningKey(DenseWl(64), Target::ArmA53()), key);
}

// One cache-file entry line in the writer's format, with a correct key hash and
// the given seconds and trials spelled verbatim.
std::string EntryLine(const std::string& key, const std::string& seconds,
                      const std::string& trials) {
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(TuningKeyHash(key)));
  return "{\"key\": \"" + key + "\", \"hash\": \"" + hash + "\", \"seconds\": " +
         seconds + ", \"trials\": " + trials + ", \"config\": {\"tile_x\": 4}}\n";
}

TEST(TuningCache, VersionMismatchAndCorruptionFallBackEmpty) {
  // Version-mismatched file: loads nothing, returns false.
  std::string path = TempPath("tune_cache_badversion.json");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "{\"tvmcpp_tuning_cache\": 999}\n");
    std::fprintf(f, "{\"key\": \"k\", \"hash\": \"0\", \"config\": {\"a\": 1}}\n");
    std::fclose(f);
  }
  TuningCache c1;
  EXPECT_FALSE(c1.Load(path));
  EXPECT_EQ(c1.size(), 0u);
  std::remove(path.c_str());

  // Garbage file: same.
  path = TempPath("tune_cache_garbage.json");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "not json at all\n\x01\x02\x03\n");
    std::fclose(f);
  }
  TuningCache c2;
  EXPECT_FALSE(c2.Load(path));
  EXPECT_EQ(c2.size(), 0u);
  std::remove(path.c_str());

  // Missing file: same.
  TuningCache c3;
  EXPECT_FALSE(c3.Load(TempPath("tune_cache_does_not_exist.json")));
  EXPECT_EQ(c3.size(), 0u);

  // Valid header but one bit-flipped entry (hash mismatch): the corrupt line is
  // skipped, intact lines still load.
  topi::OpWorkload wl = DenseWl();
  std::string good_key = TuningKey(wl, Target::ArmA53());
  TuningCache out;
  TuningCacheEntry e;
  e.key = good_key;
  e.config = {{"tile_x", 4}};
  out.Put(e);
  path = TempPath("tune_cache_partial.json");
  ASSERT_TRUE(out.Save(path));
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "{\"key\": \"tampered\", \"hash\": \"0000000000000000\", "
                    "\"config\": {\"tile_x\": 8}}\n");
    std::fclose(f);
  }
  TuningCache c4;
  EXPECT_TRUE(c4.Load(path));
  EXPECT_EQ(c4.size(), 1u);
  EXPECT_TRUE(c4.Lookup(good_key, nullptr));
  std::remove(path.c_str());

  // A header that only truncates to the version is not that version.
  path = TempPath("tune_cache_fractional_version.json");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "{\"tvmcpp_tuning_cache\": 1.9}\n%s",
                 EntryLine(good_key, "1e-05", "64").c_str());
    std::fclose(f);
  }
  TuningCache c5;
  EXPECT_FALSE(c5.Load(path));
  EXPECT_EQ(c5.size(), 0u);
  std::remove(path.c_str());

  // Entries with a correct hash but seconds or trials that are non-finite,
  // negative, or (for trials) past INT_MAX are corrupt: skipped, never converted.
  path = TempPath("tune_cache_out_of_range.json");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "{\"tvmcpp_tuning_cache\": 1}\n%s",
                 EntryLine(good_key, "1e-05", "64").c_str());
    const char* bad[][2] = {{"1e-05", "1e300"}, {"1e-05", "-1"}, {"1e-05", "nan"},
                            {"1e-05", "2147483648"}, {"inf", "64"}, {"-1", "64"},
                            {"nan", "64"}};
    int n = 0;
    for (const auto& b : bad) {
      std::fprintf(f, "%s",
                   EntryLine("bad" + std::to_string(n++), b[0], b[1]).c_str());
    }
    std::fclose(f);
  }
  TuningCache c6;
  EXPECT_TRUE(c6.Load(path));
  EXPECT_EQ(c6.size(), 1u);
  TuningCacheEntry got;
  ASSERT_TRUE(c6.Lookup(good_key, &got));
  EXPECT_EQ(got.trials, 64);
  std::remove(path.c_str());
}

TEST(TuningCache, LoadSaveFailpointsDegradeGracefully) {
  TuningCache cache;
  TuningCacheEntry e;
  e.key = "k";
  e.config = {{"tile_x", 4}};
  cache.Put(e);
  std::string path = TempPath("tune_cache_faulted.json");

  failpoint::Arm("tune.cache_save", {failpoint::ActionKind::kError, 1.0, 0, -1});
  EXPECT_FALSE(cache.Save(path));  // warning, no crash, nothing persisted
  failpoint::DisarmAll();
  EXPECT_TRUE(cache.Save(path));

  failpoint::Arm("tune.cache_load", {failpoint::ActionKind::kError, 1.0, 0, -1});
  TuningCache in;
  EXPECT_FALSE(in.Load(path));  // warning, no crash, empty cache
  EXPECT_EQ(in.size(), 0u);
  failpoint::DisarmAll();
  EXPECT_TRUE(in.Load(path));
  EXPECT_EQ(in.size(), 1u);
  std::remove(path.c_str());
}

TEST(TuningCache, RejectsEntriesOutsideTheSpace) {
  topi::OpWorkload wl = DenseWl();
  topi::ConfigSpace space = topi::GetScheduleSpace(wl, Target::ArmA53());
  topi::Config stale = topi::DefaultConfig(space);
  stale.begin()->second = 123456789;  // not a legal choice for any knob
  topi::Config applied;
  EXPECT_FALSE(ApplyCachedConfig(space, stale, &applied));
  // A knob *missing* from the entry keeps its default (schema grew a knob).
  topi::Config partial;
  ASSERT_FALSE(space.knobs.empty());
  partial[space.knobs[0].name] = space.knobs[0].choices.back();
  ASSERT_TRUE(ApplyCachedConfig(space, partial, &applied));
  EXPECT_EQ(applied[space.knobs[0].name], space.knobs[0].choices.back());
}

// ---------------------------------------------------------------------------
// Compile + serving integration
// ---------------------------------------------------------------------------

graph::Graph DenseGraph(int batch) {
  graph::Graph g;
  int data = g.AddInput("data", {batch, 64}, DataType::Float32());
  int w = g.AddConst("w", {32, 64}, DataType::Float32());
  int d = g.AddOp("dense", "fc", {data, w});
  g.outputs = {g.AddOp("relu", "act", {d})};
  return g;
}

struct ScopedStrictMode {
  bool saved;
  ScopedStrictMode() : saved(vm::StrictMode()) { vm::SetStrictMode(true); }
  ~ScopedStrictMode() { vm::SetStrictMode(saved); }
};

void ExpectBitwiseEqual(const NDArray& a, const NDArray& b, const std::string& what) {
  ASSERT_EQ(a.NumElements(), b.NumElements()) << what;
  EXPECT_EQ(std::memcmp(a.Data<char>(), b.Data<char>(),
                        static_cast<size_t>(a.ByteSize())),
            0)
      << what << ": outputs differ";
}

TEST(TuningCache, CompileConsultsGlobalCache) {
  ScopedCleanGlobalCache clean;
  graph::CompileOptions opts;
  graph::Graph g = DenseGraph(1);
  graph::GraphExecutor probe(DenseGraph(1), Target::ArmA53(), opts);
  ASSERT_EQ(probe.workloads().size(), 1u);
  topi::OpWorkload wl = probe.workloads()[0];
  topi::ConfigSpace space = topi::GetScheduleSpace(wl, Target::ArmA53());
  topi::Config tuned_cfg = ExtremeConfig(space);
  ASSERT_NE(space.IndexOf(tuned_cfg), space.IndexOf(topi::DefaultConfig(space)));

  // Miss: untuned default, no cache-tuned kernels.
  EXPECT_EQ(probe.compiled()->num_cache_tuned_kernels(), 0);
  EXPECT_EQ(probe.compiled()->chosen_configs().at(wl.Key()),
            topi::DefaultConfig(space));

  // Hit: the cached config wins over the default.
  TuningCacheEntry e;
  e.key = TuningKey(wl, Target::ArmA53());
  e.config = tuned_cfg;
  GlobalTuningCache().Put(e);
  graph::GraphExecutor tuned(DenseGraph(1), Target::ArmA53(), opts);
  EXPECT_EQ(tuned.compiled()->num_cache_tuned_kernels(), 1);
  EXPECT_EQ(tuned.compiled()->chosen_configs().at(wl.Key()), tuned_cfg);

  // Explicit `tuned` beats the cache; use_tuning_cache=false ignores it.
  graph::TunedConfigs expl;
  expl[wl.Key()] = topi::DefaultConfig(space);
  graph::CompileOptions opts2 = opts;
  opts2.tuned = &expl;
  graph::GraphExecutor overridden(DenseGraph(1), Target::ArmA53(), opts2);
  EXPECT_EQ(overridden.compiled()->num_cache_tuned_kernels(), 0);
  EXPECT_EQ(overridden.compiled()->chosen_configs().at(wl.Key()),
            topi::DefaultConfig(space));
  graph::CompileOptions opts3 = opts;
  opts3.use_tuning_cache = false;
  graph::GraphExecutor untouched(DenseGraph(1), Target::ArmA53(), opts3);
  EXPECT_EQ(untouched.compiled()->num_cache_tuned_kernels(), 0);
  EXPECT_EQ(untouched.compiled()->chosen_configs().at(wl.Key()),
            topi::DefaultConfig(space));
}

// Tuning and compilation agree on the key: an entry stored under a CPU task's
// CacheKey() is the one compiling the same workload reads.
TEST(TuningCache, TaskKeyIsTheKeyCompileReads) {
  ScopedCleanGlobalCache clean;
  graph::GraphExecutor probe(DenseGraph(1), Target::ArmA53());
  ASSERT_EQ(probe.workloads().size(), 1u);
  TuningTask task(probe.workloads()[0], Target::ArmA53());
  ASSERT_FALSE(task.use_sim());
  topi::Config extreme = ExtremeConfig(task.space());
  ASSERT_NE(task.space().IndexOf(extreme),
            task.space().IndexOf(topi::DefaultConfig(task.space())));

  TuningCacheEntry e;
  e.key = task.CacheKey();
  e.config = extreme;
  GlobalTuningCache().Put(e);
  graph::GraphExecutor tuned(DenseGraph(1), Target::ArmA53());
  EXPECT_EQ(tuned.compiled()->num_cache_tuned_kernels(), 1);
  EXPECT_EQ(tuned.compiled()->chosen_configs().at(task.workload().Key()), extreme);
}

// The differential pin: a cache-tuned compile must produce bitwise-identical
// outputs to the untuned one, under strict mode (no silent interpreter
// fallback), for dense and conv2d.
TEST(TuningCache, TunedBitwiseEqualUntunedStrict) {
  ScopedCleanGlobalCache clean;
  ScopedStrictMode strict;
  graph::CompileOptions opts;

  auto run_model = [](graph::Graph g, const NDArray& in, const NDArray& w,
                      const graph::CompileOptions& o) {
    graph::GraphExecutor exec(std::move(g), Target::ArmA53(), o);
    exec.SetParam("w", w);
    exec.SetInput("data", in);
    exec.Run();
    return exec.GetOutput(0).Copy();
  };

  // dense
  {
    NDArray in = NDArray::Random({1, 64}, DataType::Float32(), 7);
    NDArray w = NDArray::Random({32, 64}, DataType::Float32(), 8);
    NDArray untuned = run_model(DenseGraph(1), in, w, opts);
    graph::GraphExecutor probe(DenseGraph(1), Target::ArmA53(), opts);
    topi::OpWorkload wl = probe.workloads()[0];
    TuningCacheEntry e;
    e.key = TuningKey(wl, Target::ArmA53());
    e.config = ExtremeConfig(topi::GetScheduleSpace(wl, Target::ArmA53()));
    GlobalTuningCache().Put(e);
    NDArray tuned = run_model(DenseGraph(1), in, w, opts);
    ExpectBitwiseEqual(tuned, untuned, "dense tuned-vs-untuned");
  }

  // conv2d
  {
    graph::Graph g;
    int data = g.AddInput("data", {1, 8, 14, 14}, DataType::Float32());
    int w = g.AddConst("w", {16, 8, 3, 3}, DataType::Float32());
    g.outputs = {g.AddOp("conv2d", "conv", {data, w}, {{"stride", 1}, {"pad", 1}})};
    NDArray in = NDArray::Random({1, 8, 14, 14}, DataType::Float32(), 9);
    NDArray wv = NDArray::Random({16, 8, 3, 3}, DataType::Float32(), 10);
    auto clone = [&] {
      graph::Graph c;
      int d2 = c.AddInput("data", {1, 8, 14, 14}, DataType::Float32());
      int w2 = c.AddConst("w", {16, 8, 3, 3}, DataType::Float32());
      c.outputs = {c.AddOp("conv2d", "conv", {d2, w2}, {{"stride", 1}, {"pad", 1}})};
      return c;
    };
    NDArray untuned = run_model(clone(), in, wv, opts);
    graph::GraphExecutor probe(clone(), Target::ArmA53(), opts);
    topi::OpWorkload wl = probe.workloads()[0];
    TuningCacheEntry e;
    e.key = TuningKey(wl, Target::ArmA53());
    e.config = ExtremeConfig(topi::GetScheduleSpace(wl, Target::ArmA53()));
    GlobalTuningCache().Put(e);
    NDArray tuned = run_model(clone(), in, wv, opts);
    ExpectBitwiseEqual(tuned, untuned, "conv2d tuned-vs-untuned");
  }
}

// A conv2d over an OIHW8o kernel [oc/8, ic, kh, kw, 8], oc = 16.
graph::Graph BlockedConvGraph() {
  graph::Graph g;
  int data = g.AddInput("data", {1, 8, 14, 14}, DataType::Float32());
  int w = g.AddConst("w", {2, 8, 3, 3, 8}, DataType::Float32());
  g.outputs = {g.AddOp("conv2d", "conv", {data, w}, {{"stride", 1}, {"pad", 1}})};
  return g;
}

TEST(TuningCache, BlockedConvHasItsOwnSpaceAndKey) {
  ScopedCleanGlobalCache clean;
  ScopedStrictMode strict;
  const Target cpu = Target::ArmA53();
  auto run = [](graph::GraphExecutor& e) {
    e.SetParam("w", NDArray::Random({2, 8, 3, 3, 8}, DataType::Float32(), 10));
    e.SetInput("data", NDArray::Random({1, 8, 14, 14}, DataType::Float32(), 9));
    e.Run();
    return e.GetOutput(0).Copy();
  };
  graph::GraphExecutor untuned(BlockedConvGraph(), cpu);
  ASSERT_EQ(untuned.workloads().size(), 1u);
  const topi::OpWorkload blocked = untuned.workloads()[0];
  EXPECT_EQ(blocked.oc, 16);
  EXPECT_EQ(blocked.oc_block, 8);
  topi::OpWorkload oihw = blocked;
  oihw.oc_block = 0;
  EXPECT_NE(blocked.Key(), oihw.Key());
  EXPECT_NE(TuningKey(blocked, cpu), TuningKey(oihw, cpu));
  EXPECT_EQ(TuningTask(blocked, cpu).CacheKey(), TuningKey(blocked, cpu));

  // The layout fixes the oc tile at whole blocks, so the space has no tile_oc knob,
  // and the template unrolls its tile itself, so it has no unroll knob. The untuned
  // tile_ow is the largest divisor of out_w = 14 up to 4: 2, which the fused
  // template pairs with two oc blocks for a four-vector tile.
  const topi::ConfigSpace space = topi::GetScheduleSpace(blocked, cpu);
  for (const topi::KnobSpec& k : space.knobs) {
    EXPECT_NE(k.name, "tile_oc");
    EXPECT_NE(k.name, "unroll");
  }
  ASSERT_GT(space.size(), 1);
  EXPECT_EQ(topi::DefaultConfig(space).at("tile_ow"), 2);
  EXPECT_EQ(untuned.compiled()->chosen_configs().at(blocked.Key()), topi::DefaultConfig(space));

  // An entry tuned for the OIHW kernel is a clean miss: the untuned default.
  TuningCacheEntry stale;
  stale.key = TuningKey(oihw, cpu);
  stale.config = ExtremeConfig(topi::GetScheduleSpace(oihw, cpu));
  GlobalTuningCache().Put(stale);
  graph::GraphExecutor after_stale(BlockedConvGraph(), cpu);
  EXPECT_EQ(after_stale.compiled()->num_cache_tuned_kernels(), 0);
  EXPECT_EQ(after_stale.compiled()->chosen_configs().at(blocked.Key()),
            topi::DefaultConfig(space));

  // An entry under the blocked key is a hit, and changes no output bit.
  TuningCacheEntry fresh;
  fresh.key = TuningKey(blocked, cpu);
  fresh.config = ExtremeConfig(space);
  GlobalTuningCache().Put(fresh);
  graph::GraphExecutor tuned(BlockedConvGraph(), cpu);
  EXPECT_EQ(tuned.compiled()->num_cache_tuned_kernels(), 1);
  EXPECT_EQ(tuned.compiled()->chosen_configs().at(blocked.Key()), fresh.config);
  ExpectBitwiseEqual(run(tuned), run(untuned), "blocked conv2d tuned-vs-untuned");
}

// Serving integration: a lazily compiled batch-N variant finds its *own* cache
// entry (batch-N workload key), independent of batch-1 — and stays bitwise-equal
// to per-request runs.
TEST(TuningCache, BatchVariantGetsOwnTunedSchedule) {
  ScopedCleanGlobalCache clean;
  ScopedStrictMode strict;
  graph::CompileOptions opts;
  constexpr int kFactor = 4;

  NDArray w = NDArray::Random({32, 64}, DataType::Float32(), 3);
  auto base = std::make_shared<graph::CompiledGraph>(DenseGraph(1), Target::ArmA53(),
                                                     opts);
  base->SetParam("w", w);
  ASSERT_EQ(base->num_cache_tuned_kernels(), 0);
  topi::OpWorkload wl = base->workloads()[0];
  topi::OpWorkload batched_wl = wl;
  batched_wl.n *= kFactor;

  // Tune *only* the batch-4 key.
  topi::ConfigSpace bspace = topi::GetScheduleSpace(batched_wl, Target::ArmA53());
  TuningCacheEntry e;
  e.key = TuningKey(batched_wl, Target::ArmA53());
  e.config = ExtremeConfig(bspace);
  GlobalTuningCache().Put(e);

  serve::BatchedModelCache cache(base);
  EXPECT_EQ(cache.num_tuned_compiled(), 0);
  std::shared_ptr<const graph::CompiledGraph> variant = cache.Get(kFactor);
  EXPECT_EQ(variant->num_cache_tuned_kernels(), 1)
      << "batch variant must consult the cache under its own batch-N key";
  EXPECT_EQ(cache.num_tuned_compiled(), 1);
  EXPECT_EQ(variant->chosen_configs().at(batched_wl.Key()), e.config);
  // The base model's choice is untouched (it was compiled before the entry).
  EXPECT_EQ(base->chosen_configs().at(wl.Key()),
            topi::DefaultConfig(topi::GetScheduleSpace(wl, Target::ArmA53())));

  // Bitwise: batch-tuned coalesced run == per-request untuned runs.
  std::vector<NDArray> inputs;
  std::vector<serve::NamedTensors> reqs(kFactor);
  std::vector<const serve::NamedTensors*> req_ptrs;
  for (int i = 0; i < kFactor; ++i) {
    inputs.push_back(NDArray::Random({1, 64}, DataType::Float32(), 100 + i));
    reqs[static_cast<size_t>(i)] = {{"data", inputs.back()}};
    req_ptrs.push_back(&reqs[static_cast<size_t>(i)]);
  }
  graph::RunContext ctx(variant);
  serve::BindConcatenatedInputs(req_ptrs, &ctx);
  variant->Run(&ctx);
  auto slices = serve::SliceBatchedOutputs(ctx, kFactor);
  for (int i = 0; i < kFactor; ++i) {
    graph::RunContext single(base);
    single.SetInput("data", inputs[static_cast<size_t>(i)]);
    base->Run(&single);
    ExpectBitwiseEqual(slices[static_cast<size_t>(i)][0], single.GetOutput(0),
                       "batch slice " + std::to_string(i));
  }
}

}  // namespace
}  // namespace autotune
}  // namespace tvmcpp
