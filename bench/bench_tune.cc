// The tuning loop, end to end on real hardware (this host's CPU): tune a dense and
// a conv2d workload with real wall-clock measurement of compiled vm::Program runs,
// persist the winners in the tuning cache (TVMCPP_TUNE_CACHE), recompile through
// the cache, and report measured untuned-vs-tuned speedups — including a batch-4
// serving variant whose schedule is tuned independently of batch-1 and consumed
// through serve::BatchedModelCache, closing the paper's learn-from-traffic loop.
//
// What gets cached is decided by a final race, not by the explorer's own trial
// measurements: the top few distinct configs from the tuning history run against
// the incumbent (the schedule compilation would pick without the cache) in
// alternating min-of-k rounds, and a finalist is cached only when it wins by a
// clear margin. Racing several finalists counters the winner's curse — the
// argmin of many noisy trial measurements is often a mediocre config with a
// lucky draw, while a truly better config sits a few places down the ranking.
// A noisy host can therefore cost an improvement, but can never persist a
// regression — when the incumbent holds, the cache records it and the row
// reports 1.0x by identity (same schedule; timing one program twice only
// reports noise).
//
// Modes:
//   (default)                 tune, race, write the cache file, report
//   TVMCPP_TUNE_CONSUME=1     skip tuning; load the cache written by a previous
//                             run and measure through it (the CI phase-B half:
//                             the tune_cache_stats row proves cache_hits > 0)
//   TVMCPP_BENCH_SMOKE=1      reduced trial/repeat counts (same workloads, so
//                             cache keys match across smoke phases)
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/autotune/cache.h"
#include "src/runtime/threadpool.h"
#include "src/serve/batch.h"

using namespace tvmcpp;
using namespace tvmcpp::autotune;

namespace {

// A finalist must beat the incumbent by this factor in the race to be cached:
// near-ties are not worth persisting and would flip sign under re-measurement.
// Smoke mode races at a fraction of the full repeat depth, so it cannot resolve
// small differences reliably — it demands a much wider margin, keeping the
// two-phase CI gate honest (a fluke winner cached in phase A would measure as a
// regression in phase B).
constexpr double kWinMargin = 1.05;
constexpr double kSmokeWinMargin = 1.15;

graph::Graph DenseGraph(int n, int k, int oc) {
  graph::Graph g;
  int data = g.AddInput("data", {n, k});
  int w = g.AddConst("w", {oc, k});
  g.outputs = {g.AddOp("dense", "fc", {data, w})};
  return g;
}

graph::Graph ConvGraph(const topi::OpWorkload& wl) {
  graph::Graph g;
  int data = g.AddInput("data", {wl.n, wl.ic, wl.h, wl.w});
  int w = g.AddConst("w", {wl.oc, wl.ic, wl.k, wl.k});
  g.outputs = {g.AddOp("conv2d", "conv", {data, w},
                       {{"stride", wl.stride}, {"pad", wl.pad}})};
  return g;
}

NDArray InputOf(const graph::Graph& g) {
  for (const graph::Node& n : g.nodes()) {
    if (n.op == "input") {
      return NDArray::Random(n.shape, n.dtype, 42);
    }
  }
  LOG(FATAL) << "graph has no input node";
  return NDArray();
}

void BindWeights(graph::CompiledGraph* m) {
  uint64_t seed = 7;
  for (const graph::Node& n : m->graph().nodes()) {
    if (n.op == "const") {
      m->SetParam(n.name, NDArray::Random(n.shape, n.dtype, seed++));
    }
  }
}

// Min-of-`repeats` single-run wall time, after one untimed warmup run.
double BestRunMs(const graph::CompiledGraph& m, graph::RunContext* ctx, int repeats) {
  m.Run(ctx);
  double best = 1e30;
  for (int i = 0; i < repeats; ++i) {
    bench::WallTimer t;
    m.Run(ctx);
    best = std::min(best, t.Ms());
  }
  return best;
}

struct Pair {
  double baseline_ms = 0;
  double candidate_ms = 0;
};

// Times all models on the same input, alternating between them across `rounds`
// so drift (frequency scaling, background load) hits every side equally; each
// side keeps its min across all rounds.
std::vector<double> MeasureMany(
    const std::vector<std::shared_ptr<const graph::CompiledGraph>>& models,
    int repeats, int rounds) {
  NDArray in = InputOf(models[0]->graph());
  std::vector<std::unique_ptr<graph::RunContext>> ctxs;
  for (const auto& m : models) {
    ctxs.push_back(std::make_unique<graph::RunContext>(m));
    ctxs.back()->SetInput("data", in);
  }
  std::vector<double> best(models.size(), 1e30);
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < models.size(); ++i) {
      best[i] = std::min(best[i], BestRunMs(*models[i], ctxs[i].get(), repeats));
    }
  }
  return best;
}

Pair MeasurePair(const std::shared_ptr<const graph::CompiledGraph>& baseline,
                 const std::shared_ptr<const graph::CompiledGraph>& candidate,
                 int repeats, int rounds) {
  std::vector<double> ms = MeasureMany({baseline, candidate}, repeats, rounds);
  return Pair{ms[0], ms[1]};
}

bool ConsumeMode() {
  const char* s = std::getenv("TVMCPP_TUNE_CONSUME");
  return s != nullptr && std::string(s) == "1";
}

struct RaceResult {
  double untuned_ms = 0;
  double tuned_ms = 0;
  double speedup = 1.0;
};

// How many of the tuning history's best distinct configs enter the final race.
constexpr int kFinalists = 4;

// Tunes `wl`, races the tuning history's top finalists against `untuned`
// (compiled with the incumbent schedule), and records the race's winner in the
// global cache under the workload's tuning key. The reported numbers are the
// race's.
RaceResult TuneRaceAndCache(const topi::OpWorkload& wl, const graph::Graph& g,
                            const Target& target,
                            const std::shared_ptr<graph::CompiledGraph>& untuned,
                            uint64_t seed, TuneOptions opt, int repeats, int rounds,
                            double win_margin) {
  TuningTask task(wl, target, seed);
  opt.seed = seed;
  TuneResult r = Tune(&task, TunerKind::kMlBased, opt);
  std::printf("%s: %d trials over %lld configs, explorer best %.4g ms (%s)\n",
              task.CacheKey().c_str(), static_cast<int>(r.history.size()),
              static_cast<long long>(task.size()), r.best_seconds * 1e3,
              task.use_sim() ? "sim model" : "wall-clock");

  const topi::Config incumbent = untuned->chosen_configs().at(wl.Key());

  // Finalists: the best distinct configs by trial time, minus the incumbent.
  std::vector<TrialRecord> ranked = r.history;
  std::sort(ranked.begin(), ranked.end(),
            [](const TrialRecord& a, const TrialRecord& b) {
              return a.seconds < b.seconds;
            });
  std::vector<topi::Config> finalists;
  for (const TrialRecord& t : ranked) {
    if (static_cast<int>(finalists.size()) >= kFinalists) {
      break;
    }
    topi::Config c = task.space().At(t.config_index);
    if (c == incumbent ||
        std::find(finalists.begin(), finalists.end(), c) != finalists.end()) {
      continue;
    }
    finalists.push_back(std::move(c));
  }

  RaceResult out;
  topi::Config winner = incumbent;
  if (!finalists.empty()) {
    std::vector<std::shared_ptr<const graph::CompiledGraph>> models = {untuned};
    for (const topi::Config& c : finalists) {
      graph::TunedConfigs expl;
      expl[wl.Key()] = c;
      graph::CompileOptions copts;
      copts.use_tuning_cache = false;
      copts.tuned = &expl;
      auto m = std::make_shared<graph::CompiledGraph>(g, target, copts);
      BindWeights(m.get());
      models.push_back(std::move(m));
    }
    std::vector<double> ms = MeasureMany(models, repeats, rounds);
    size_t best = 1;
    for (size_t i = 2; i < ms.size(); ++i) {
      if (ms[i] < ms[best]) {
        best = i;
      }
    }
    if (ms[best] * win_margin < ms[0]) {
      winner = finalists[best - 1];
      out.untuned_ms = ms[0];
      out.tuned_ms = ms[best];
      out.speedup = ms[0] / ms[best];
    } else {
      std::printf("  none of %d finalists beat the incumbent by %.0f%% (best"
                  " %.4g vs %.4g ms); caching the incumbent\n",
                  static_cast<int>(finalists.size()), (win_margin - 1) * 100,
                  ms[best], ms[0]);
    }
  }
  if (winner == incumbent) {
    graph::RunContext ctx(untuned);
    ctx.SetInput("data", InputOf(untuned->graph()));
    out.untuned_ms = out.tuned_ms = BestRunMs(*untuned, &ctx, repeats);
    out.speedup = 1.0;
  }
  GlobalTuningCache().Put({task.CacheKey(), winner, out.tuned_ms * 1e-3,
                           static_cast<int>(r.history.size())});
  return out;
}

// Consume mode: compile through the cache and measure tuned-vs-untuned directly.
RaceResult MeasureThroughCache(
    const std::shared_ptr<const graph::CompiledGraph>& untuned,
    const std::shared_ptr<const graph::CompiledGraph>& tuned, int repeats,
    int rounds) {
  RaceResult out;
  if (tuned->chosen_configs() == untuned->chosen_configs()) {
    // Identical schedules: the ratio is 1 by definition.
    graph::RunContext ctx(untuned);
    ctx.SetInput("data", InputOf(untuned->graph()));
    out.untuned_ms = out.tuned_ms = BestRunMs(*untuned, &ctx, repeats);
    out.speedup = 1.0;
    return out;
  }
  Pair p = MeasurePair(untuned, tuned, repeats, rounds);
  if (p.candidate_ms > p.baseline_ms) {
    // The cached config won its tuning-time race; before reporting a regression,
    // re-measure at double depth and keep each side's min.
    Pair q = MeasurePair(untuned, tuned, repeats * 2, rounds);
    p.baseline_ms = std::min(p.baseline_ms, q.baseline_ms);
    p.candidate_ms = std::min(p.candidate_ms, q.candidate_ms);
  }
  out.untuned_ms = p.baseline_ms;
  out.tuned_ms = p.candidate_ms;
  out.speedup = p.baseline_ms / p.candidate_ms;
  return out;
}

}  // namespace

int main() {
  const bool smoke = bench::BenchSmokeMode();
  const bool consume = ConsumeMode();
  const char* cache_path = std::getenv("TVMCPP_TUNE_CACHE");
  bench::OpenDefaultBenchJsonSink(TVMCPP_SOURCE_DIR "/BENCH_tune.json");

  Target target = Target::ArmA53();
  const int trials = smoke ? 24 : 128;
  const int repeats = smoke ? 10 : 30;
  const int rounds = smoke ? 2 : 3;
  const double win_margin = smoke ? kSmokeWinMargin : kWinMargin;
  ThreadPool workers(smoke ? 2 : 4);

  std::printf("Tuning on real measurement (%s mode%s); cache: %s\n\n",
              smoke ? "smoke" : "full", consume ? ", consume-only" : "",
              cache_path != nullptr ? cache_path : "(TVMCPP_TUNE_CACHE unset)");

  TuneOptions opt;
  opt.num_trials = trials;
  opt.batch_size = smoke ? 8 : 16;
  opt.workers = &workers;

  struct RowSpec {
    std::string name;
    topi::OpWorkload wl;
    graph::Graph g;
    uint64_t seed;
  };
  std::vector<RowSpec> rows;
  rows.push_back({"tune_dense", {"dense", 16, 1, 1, 1, 256, 256, 1, 0},
                  DenseGraph(16, 256, 256), 11});
  {
    topi::OpWorkload conv{"conv2d", 1, 28, 28, 16, 32, 3, 1, 1};
    rows.push_back({"tune_conv2d", conv, ConvGraph(conv), 12});
  }

  graph::CompileOptions untuned_opts;
  untuned_opts.use_tuning_cache = false;

  for (const RowSpec& row : rows) {
    auto untuned = std::make_shared<graph::CompiledGraph>(row.g, target, untuned_opts);
    BindWeights(untuned.get());

    RaceResult res;
    double cache_used = 1.0;
    if (consume) {
      auto tuned = std::make_shared<graph::CompiledGraph>(row.g, target,
                                                          graph::CompileOptions{});
      BindWeights(tuned.get());
      cache_used = tuned->num_cache_tuned_kernels() > 0 ? 1.0 : 0.0;
      res = MeasureThroughCache(untuned, tuned, repeats, rounds);
    } else {
      res = TuneRaceAndCache(row.wl, row.g, target, untuned, row.seed, opt, repeats,
                             rounds, win_margin);
    }
    bench::PrintBenchJson(row.name, {{"untuned_ms", res.untuned_ms},
                                     {"tuned_ms", res.tuned_ms},
                                     {"speedup", res.speedup},
                                     {"cache_used", cache_used}});
  }

  // Serving half: tune the batch-4 dense workload under its own key, then let the
  // serving layer's BatchedModelCache pick it up when the variant lazily compiles.
  // The incumbent here is what serving runs without a batch-4 cache entry: the
  // batch-1 schedule the Rebatched() variant inherits.
  {
    constexpr int kFactor = 4;
    const RowSpec& base_row = rows[0];
    topi::OpWorkload batched_wl = base_row.wl;
    batched_wl.n *= kFactor;
    graph::Graph batched_g =
        DenseGraph(batched_wl.n, batched_wl.k, batched_wl.oc);

    auto base_untuned =
        std::make_shared<graph::CompiledGraph>(base_row.g, target, untuned_opts);
    BindWeights(base_untuned.get());
    std::shared_ptr<graph::CompiledGraph> var_untuned =
        base_untuned->Rebatched(kFactor);

    RaceResult res;
    if (!consume) {
      res = TuneRaceAndCache(batched_wl, batched_g, target, var_untuned, 13, opt,
                             repeats, rounds, win_margin);
    }

    // Either way, demonstrate the consume path: a fresh serving cache lazily
    // compiles the batch-4 variant, which must find the batch-4 entry itself.
    auto base_tuned = std::make_shared<graph::CompiledGraph>(
        base_row.g, target, graph::CompileOptions{});
    BindWeights(base_tuned.get());
    serve::BatchedModelCache serving(base_tuned);
    std::shared_ptr<const graph::CompiledGraph> var_tuned = serving.Get(kFactor);
    if (consume) {
      res = MeasureThroughCache(var_untuned, var_tuned, repeats, rounds);
    }
    bench::PrintBenchJson("tune_dense_batch4",
                          {{"untuned_ms", res.untuned_ms},
                           {"tuned_ms", res.tuned_ms},
                           {"speedup", res.speedup},
                           {"tuned_variants",
                            static_cast<double>(serving.num_tuned_compiled())}});
  }

  if (!consume && cache_path != nullptr) {
    if (GlobalTuningCache().Save(cache_path)) {
      std::printf("\nwrote %d entries to %s\n",
                  static_cast<int>(GlobalTuningCache().size()), cache_path);
    }
  }
  bench::PrintBenchJson(
      "tune_cache_stats",
      {{"entries", static_cast<double>(GlobalTuningCache().size())},
       {"cache_hits", static_cast<double>(GlobalTuningCache().hits())},
       {"cache_misses", static_cast<double>(GlobalTuningCache().misses())}});
  return 0;
}
