// Serving-layer tests: N threads submitting interleaved requests against shared
// CompiledGraphs must produce bitwise-identical outputs to sequential GraphExecutor
// runs (the differential pattern from tests/test_vm.cc), under TVMCPP_VM_STRICT
// semantics so silent engine downgrades fail loudly. Also covers shutdown with
// in-flight requests, post-shutdown rejection, and backpressure on a tiny queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/serve/queue.h"
#include "src/serve/serve.h"
#include "src/support/logging.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

// A 4-deep conv+relu chain (same topology as test_vm.cc's end-to-end graph test):
// fusion yields several kernels and the memory plan recycles intermediate storage,
// so cross-request buffer bleed would corrupt outputs visibly.
graph::Graph MakeConvChain() {
  graph::Graph g;
  int data = g.AddInput("data", {1, 4, 8, 8});
  int w1 = g.AddConst("w1", {8, 4, 3, 3});
  int w2 = g.AddConst("w2", {8, 8, 1, 1});
  int w3 = g.AddConst("w3", {8, 8, 1, 1});
  int w4 = g.AddConst("w4", {8, 8, 1, 1});
  int c1 = g.AddOp("conv2d", "conv1", {data, w1}, {{"stride", 1}, {"pad", 1}});
  int r1 = g.AddOp("relu", "relu1", {c1});
  int c2 = g.AddOp("conv2d", "conv2", {r1, w2}, {{"stride", 1}, {"pad", 0}});
  int r2 = g.AddOp("relu", "relu2", {c2});
  int c3 = g.AddOp("conv2d", "conv3", {r2, w3}, {{"stride", 1}, {"pad", 0}});
  int r3 = g.AddOp("relu", "relu3", {c3});
  g.outputs = {g.AddOp("conv2d", "conv4", {r3, w4}, {{"stride", 1}, {"pad", 0}})};
  return g;
}

std::unordered_map<std::string, NDArray> ChainWeights(uint64_t seed) {
  std::unordered_map<std::string, NDArray> w;
  w["w1"] = NDArray::Random({8, 4, 3, 3}, DataType::Float32(), seed + 1);
  w["w2"] = NDArray::Random({8, 8, 1, 1}, DataType::Float32(), seed + 2);
  w["w3"] = NDArray::Random({8, 8, 1, 1}, DataType::Float32(), seed + 3);
  w["w4"] = NDArray::Random({8, 8, 1, 1}, DataType::Float32(), seed + 4);
  return w;
}

NDArray ChainInput(uint64_t seed) {
  return NDArray::Random({1, 4, 8, 8}, DataType::Float32(), 1000 + seed);
}

std::shared_ptr<graph::CompiledGraph> MakeChainModel(uint64_t weight_seed) {
  auto model = std::make_shared<graph::CompiledGraph>(MakeConvChain(),
                                                      Target::ArmA53(),
                                                      graph::CompileOptions{});
  for (const auto& kv : ChainWeights(weight_seed)) {
    model->SetParam(kv.first, kv.second);
  }
  return model;
}

// Sequential oracle: one GraphExecutor run per input, exactly the pre-serving path.
NDArray SequentialRun(uint64_t weight_seed, const NDArray& input) {
  graph::GraphExecutor exec(MakeConvChain(), Target::ArmA53(), {});
  for (const auto& kv : ChainWeights(weight_seed)) {
    exec.SetParam(kv.first, kv.second);
  }
  exec.SetInput("data", input);
  exec.Run();
  return exec.GetOutput(0).Copy();
}

void ExpectBitwiseEqual(const NDArray& a, const NDArray& b, const std::string& what) {
  ASSERT_EQ(a.NumElements(), b.NumElements()) << what;
  EXPECT_EQ(std::memcmp(a.Data<char>(), b.Data<char>(),
                        static_cast<size_t>(a.ByteSize())),
            0)
      << what << ": outputs differ";
}

// Flips VM strict mode for a scope so any VM->interpreter fallback under concurrent
// serving fails the test loudly instead of quietly de-optimizing.
struct ScopedStrictMode {
  bool saved;
  ScopedStrictMode() : saved(vm::StrictMode()) { vm::SetStrictMode(true); }
  ~ScopedStrictMode() { vm::SetStrictMode(saved); }
};

// A default-constructed ServerOptions is the whole configuration: no environment
// variable can change what it yields.
TEST(Serve, DefaultOptionsYieldDocumentedConfig) {
  const serve::ServerOptions opts;
  EXPECT_EQ(opts.queue_capacity, 64);
  EXPECT_EQ(opts.batch_timeout_ms, 0);
  EXPECT_EQ(opts.default_deadline_ms, 0);
  EXPECT_EQ(opts.max_retries, 1);
  EXPECT_EQ(opts.retry_backoff_ms, 0.5);
  EXPECT_TRUE(opts.enable_fallback);
  EXPECT_TRUE(opts.enable_shedding);
  EXPECT_FALSE(opts.adaptive_linger);

  serve::InferenceServer server(opts);
  EXPECT_EQ(server.max_batch(), 1);
  EXPECT_EQ(server.num_workers(), std::max(2, vm::DefaultNumThreads()));
}

TEST(Serve, OutOfRangeOptionsRejected) {
  serve::ServerOptions retries;
  retries.max_retries = -1;
  EXPECT_THROW(serve::InferenceServer{retries}, InternalError);
  serve::ServerOptions batch;
  batch.max_batch = 0;
  EXPECT_THROW(serve::InferenceServer{batch}, InternalError);
  serve::ServerOptions linger;
  linger.batch_timeout_ms = -1;
  EXPECT_THROW(serve::InferenceServer{linger}, InternalError);
}

TEST(Serve, ConcurrentRequestsMatchSequential) {
  ScopedStrictMode strict;
  const uint64_t kWeightSeed = 7;
  std::shared_ptr<graph::CompiledGraph> model = MakeChainModel(kWeightSeed);

  const int kThreads = 4;
  const int kPerThread = 6;
  std::vector<NDArray> inputs;
  std::vector<NDArray> expected;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    inputs.push_back(ChainInput(static_cast<uint64_t>(i)));
    expected.push_back(SequentialRun(kWeightSeed, inputs.back()));
  }

  serve::ServerOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 8;
  serve::InferenceServer server(opts);

  std::vector<std::future<serve::InferenceResponse>> futures(
      static_cast<size_t>(kThreads * kPerThread));
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int id = t * kPerThread + i;
        serve::InferenceRequest req;
        req.inputs["data"] = inputs[static_cast<size_t>(id)];
        futures[static_cast<size_t>(id)] = server.Submit(model, std::move(req));
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (int id = 0; id < kThreads * kPerThread; ++id) {
    serve::InferenceResponse resp = futures[static_cast<size_t>(id)].get();
    ASSERT_EQ(resp.outputs.size(), 1u);
    ExpectBitwiseEqual(resp.outputs[0], expected[static_cast<size_t>(id)],
                       "request " + std::to_string(id));
    EXPECT_GE(resp.run_ms, 0.0);
    EXPECT_GE(resp.queue_ms, 0.0);
  }
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(Serve, TwoModelsInterleaved) {
  ScopedStrictMode strict;
  std::shared_ptr<graph::CompiledGraph> model_a = MakeChainModel(11);
  std::shared_ptr<graph::CompiledGraph> model_b = MakeChainModel(23);

  const int kRequests = 8;
  serve::InferenceServer server(serve::ServerOptions{});
  std::vector<std::future<serve::InferenceResponse>> futures;
  std::vector<NDArray> expected;
  for (int i = 0; i < kRequests; ++i) {
    bool use_a = i % 2 == 0;
    NDArray input = ChainInput(static_cast<uint64_t>(100 + i));
    expected.push_back(SequentialRun(use_a ? 11 : 23, input));
    serve::InferenceRequest req;
    req.inputs["data"] = input;
    futures.push_back(server.Submit(use_a ? model_a : model_b, std::move(req)));
  }
  for (int i = 0; i < kRequests; ++i) {
    serve::InferenceResponse resp = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.message;
    ExpectBitwiseEqual(resp.outputs[0], expected[static_cast<size_t>(i)],
                       "interleaved request " + std::to_string(i));
  }
}

// Shutdown while most requests are still queued or running: every accepted request
// must still be drained and its future fulfilled. Runs both unbatched and with
// dynamic batching enabled — in the batched case a partial batch lingering for late
// arrivals at Stop() must be flushed by the queue close and drained, not dropped.
void RunShutdownWithInflight(serve::ServerOptions opts) {
  const uint64_t kWeightSeed = 3;
  std::shared_ptr<graph::CompiledGraph> model = MakeChainModel(kWeightSeed);
  serve::InferenceServer server(opts);

  const int kRequests = 12;
  std::vector<NDArray> inputs;
  std::vector<std::future<serve::InferenceResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(ChainInput(static_cast<uint64_t>(50 + i)));
    serve::InferenceRequest req;
    req.inputs["data"] = inputs.back();
    futures.push_back(server.Submit(model, std::move(req)));
  }
  auto t0 = std::chrono::steady_clock::now();
  server.Shutdown();
  double shutdown_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  for (int i = 0; i < kRequests; ++i) {
    serve::InferenceResponse resp = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.message;
    ExpectBitwiseEqual(resp.outputs[0],
                       SequentialRun(kWeightSeed, inputs[static_cast<size_t>(i)]),
                       "inflight request " + std::to_string(i));
  }
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  if (opts.max_batch > 1) {
    // Every request went through the batched path, and each formed batch was
    // accounted as exactly one of full- or timeout-flushed.
    EXPECT_EQ(stats.batched_requests, kRequests);
    EXPECT_GE(stats.batches, 1);
    EXPECT_EQ(stats.batches, stats.full_batches + stats.timeout_batches);
    // The queue close must flush lingering partial batches immediately; waiting
    // out the (deliberately huge) linger deadline instead would show up here.
    EXPECT_LT(shutdown_ms, opts.batch_timeout_ms);
  }
}

TEST(Serve, ShutdownWithInflightRequestsCompletesAll) {
  serve::ServerOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 16;
  opts.max_batch = 1;
  RunShutdownWithInflight(opts);
}

TEST(Serve, ShutdownWithInflightBatchingEnabledDrainsPartialBatches) {
  serve::ServerOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 16;
  opts.max_batch = 4;
  // Long linger: without the queue-close flush, Shutdown would hang on a partial
  // batch waiting out this deadline — the test's 5s watchdog is the ctest timeout.
  opts.batch_timeout_ms = 5000;
  RunShutdownWithInflight(opts);
}

TEST(Serve, SubmitAfterShutdownRejected) {
  std::shared_ptr<graph::CompiledGraph> model = MakeChainModel(5);
  serve::InferenceServer server(serve::ServerOptions{});
  server.Shutdown();
  serve::InferenceRequest req;
  req.inputs["data"] = ChainInput(1);
  std::future<serve::InferenceResponse> f = server.Submit(model, std::move(req));
  // Futures always carry a value: rejection is a typed status, not an exception.
  serve::InferenceResponse resp = f.get();
  EXPECT_EQ(resp.status.code, serve::StatusCode::kRejected);
  EXPECT_FALSE(resp.status.ok());
  EXPECT_EQ(server.stats().rejected, 1);
}

// Pins the torn-read fix: stats() must return one consistent snapshot. Writers
// update the totals and the per-class breakdown under a single lock hold, so a
// concurrent reader may never observe them mid-update (the old per-field atomics
// could return e.g. completed > accepted, or totals != sum of classes).
TEST(Serve, StatsSnapshotConsistent) {
  std::shared_ptr<graph::CompiledGraph> model = MakeChainModel(3);
  serve::ServerOptions options;
  options.num_workers = 4;
  serve::InferenceServer server(options);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    while (!stop.load()) {
      serve::ServerStats s = server.stats();
      int64_t class_accepted = 0;
      int64_t class_completed = 0;
      for (const auto& kv : s.per_class) {
        class_accepted += kv.second.accepted;
        class_completed += kv.second.completed;
      }
      if (s.completed > s.accepted || class_accepted != s.accepted ||
          class_completed != s.completed ||
          s.batches != s.full_batches + s.timeout_batches) {
        violations.fetch_add(1);
      }
    }
  });

  constexpr int kRequests = 200;
  std::vector<std::future<serve::InferenceResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    serve::InferenceRequest req;
    req.inputs["data"] = ChainInput(i);
    req.priority = i % 3;  // several classes so per_class has multiple entries
    futures.push_back(server.Submit(model, std::move(req)));
  }
  for (std::future<serve::InferenceResponse>& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }
  server.Shutdown();
  stop.store(true);
  reader.join();
  EXPECT_EQ(violations.load(), 0);

  serve::ServerStats s = server.stats();
  EXPECT_EQ(s.accepted, kRequests);
  EXPECT_EQ(s.completed, kRequests);
  int64_t ok = 0;
  for (const auto& kv : s.per_class) {
    ok += kv.second.ok;
  }
  EXPECT_EQ(ok, kRequests);
}

TEST(Serve, BackpressureTinyQueue) {
  const uint64_t kWeightSeed = 9;
  std::shared_ptr<graph::CompiledGraph> model = MakeChainModel(kWeightSeed);

  serve::ServerOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 1;  // every Submit beyond one pending blocks on backpressure
  serve::InferenceServer server(opts);

  const int kThreads = 4;
  const int kPerThread = 4;
  std::vector<std::future<serve::InferenceResponse>> futures(
      static_cast<size_t>(kThreads * kPerThread));
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int id = t * kPerThread + i;
        serve::InferenceRequest req;
        req.inputs["data"] = ChainInput(static_cast<uint64_t>(200 + id));
        futures[static_cast<size_t>(id)] = server.Submit(model, std::move(req));
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (int id = 0; id < kThreads * kPerThread; ++id) {
    serve::InferenceResponse resp = futures[static_cast<size_t>(id)].get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.message;
    ExpectBitwiseEqual(
        resp.outputs[0],
        SequentialRun(kWeightSeed, ChainInput(static_cast<uint64_t>(200 + id))),
        "backpressured request " + std::to_string(id));
  }
  EXPECT_EQ(server.stats().completed, kThreads * kPerThread);
}

TEST(Serve, LoneRequestUsesIntraKernelParallelism) {
  // Level-2 policy: with an otherwise idle server, a single request must run with
  // kParallel chunking enabled (backlog 1 < workers), not serial.
  std::shared_ptr<graph::CompiledGraph> model = MakeChainModel(13);
  serve::ServerOptions opts;
  opts.num_workers = 4;
  serve::InferenceServer server(opts);
  serve::InferenceRequest req;
  req.inputs["data"] = ChainInput(77);
  server.Submit(model, std::move(req)).get();
  EXPECT_EQ(server.stats().chunked_runs, 1);
  EXPECT_EQ(server.stats().serial_runs, 0);
}

TEST(ServeQueue, CloseDrainsAndRejects) {
  serve::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v));
  EXPECT_FALSE(q.TryPop(&v));
}

}  // namespace
}  // namespace tvmcpp
