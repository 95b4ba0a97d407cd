// Differential tests for dynamic request batching (src/serve/batch.*, the
// coalescing scheduler in serve.cc, and the Rebatch path in src/graph):
//
// Batched execution must be *bitwise* identical to per-request sequential runs
// under TVMCPP_VM_STRICT=1 — the same bar test_vm.cc / test_vectorize.cc /
// test_serve.cc set — across batch sizes {1, 2, 3 (non-power-of-two), max_batch},
// mixed dtypes (f32/f16), and mixed-model queues where only same-model requests may
// coalesce. ServerStats batch counters (batches formed, mean batch size,
// timeout-flushed vs full-flushed) pin the coalescing policy itself.
//
// Determinism note: coalescing tests run with num_workers = 1 so exactly one
// scheduler job forms batches at a time — batch composition is then a function of
// submission order plus the linger, not of worker racing.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/serve/batch.h"
#include "src/serve/serve.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

// Same topology as test_serve.cc's chain: fusion yields several kernels and the
// memory plan recycles intermediate storage, so batching bugs (mis-sliced outputs,
// cross-request bleed in the concat buffer) corrupt results visibly.
graph::Graph MakeConvChain(DataType dtype) {
  graph::Graph g;
  int data = g.AddInput("data", {1, 4, 8, 8}, dtype);
  int w1 = g.AddConst("w1", {8, 4, 3, 3}, dtype);
  int w2 = g.AddConst("w2", {8, 8, 1, 1}, dtype);
  int c1 = g.AddOp("conv2d", "conv1", {data, w1}, {{"stride", 1}, {"pad", 1}});
  int r1 = g.AddOp("relu", "relu1", {c1});
  int c2 = g.AddOp("conv2d", "conv2", {r1, w2}, {{"stride", 1}, {"pad", 0}});
  g.outputs = {g.AddOp("relu", "relu2", {c2})};
  return g;
}

std::unordered_map<std::string, NDArray> ChainWeights(DataType dtype, uint64_t seed) {
  std::unordered_map<std::string, NDArray> w;
  w["w1"] = NDArray::Random({8, 4, 3, 3}, dtype, seed + 1);
  w["w2"] = NDArray::Random({8, 8, 1, 1}, dtype, seed + 2);
  return w;
}

NDArray ChainInput(DataType dtype, uint64_t seed) {
  return NDArray::Random({1, 4, 8, 8}, dtype, 1000 + seed);
}

std::shared_ptr<graph::CompiledGraph> MakeChainModel(DataType dtype,
                                                     uint64_t weight_seed) {
  auto model = std::make_shared<graph::CompiledGraph>(MakeConvChain(dtype),
                                                      Target::ArmA53(),
                                                      graph::CompileOptions{});
  for (const auto& kv : ChainWeights(dtype, weight_seed)) {
    model->SetParam(kv.first, kv.second);
  }
  return model;
}

// Sequential oracle: one fresh batch-1 GraphExecutor run per input — exactly the
// pre-batching, pre-serving execution path.
NDArray SequentialRun(DataType dtype, uint64_t weight_seed, const NDArray& input) {
  graph::GraphExecutor exec(MakeConvChain(dtype), Target::ArmA53(), {});
  for (const auto& kv : ChainWeights(dtype, weight_seed)) {
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

// Any VM->interpreter fallback during batched execution (including inside the
// lazily compiled batched variants) fails the test loudly.
struct ScopedStrictMode {
  bool saved;
  ScopedStrictMode() : saved(vm::StrictMode()) { vm::SetStrictMode(true); }
  ~ScopedStrictMode() { vm::SetStrictMode(saved); }
};

// ---------------------------------------------------------------------------
// Building blocks
// ---------------------------------------------------------------------------

TEST(Rebatch, GraphShapesScaleOnlyBatchDim) {
  graph::Graph g = MakeConvChain(DataType::Float32());
  graph::Graph b = graph::RebatchGraph(g, 3);
  ASSERT_EQ(b.num_nodes(), g.num_nodes());
  for (const graph::Node& n : g.nodes()) {
    const graph::Node& bn = b.node(n.id);
    EXPECT_EQ(bn.op, n.op);
    EXPECT_EQ(bn.name, n.name);
    if (n.op == "const") {
      EXPECT_EQ(bn.shape, n.shape) << "weights must be batch-invariant: " << n.name;
    } else {
      ASSERT_EQ(bn.shape.size(), n.shape.size());
      EXPECT_EQ(bn.shape[0], n.shape[0] * 3) << n.name;
      for (size_t d = 1; d < n.shape.size(); ++d) {
        EXPECT_EQ(bn.shape[d], n.shape[d]) << n.name << " dim " << d;
      }
    }
  }
  EXPECT_EQ(b.outputs, g.outputs);
}

TEST(Rebatch, CompiledVariantSharesWeightsBitwise) {
  ScopedStrictMode strict;
  std::shared_ptr<graph::CompiledGraph> base = MakeChainModel(DataType::Float32(), 5);
  std::shared_ptr<graph::CompiledGraph> batched = base->Rebatched(2);

  NDArray in0 = ChainInput(DataType::Float32(), 0);
  NDArray in1 = ChainInput(DataType::Float32(), 1);
  // Run the batched variant on the concatenation of two inputs directly.
  graph::RunContext ctx(batched);
  serve::NamedTensors r0{{"data", in0}};
  serve::NamedTensors r1{{"data", in1}};
  serve::BindConcatenatedInputs({&r0, &r1}, &ctx);
  batched->Run(&ctx);
  std::vector<std::vector<NDArray>> slices = serve::SliceBatchedOutputs(ctx, 2);
  ExpectBitwiseEqual(slices[0][0], SequentialRun(DataType::Float32(), 5, in0),
                     "slice 0");
  ExpectBitwiseEqual(slices[1][0], SequentialRun(DataType::Float32(), 5, in1),
                     "slice 1");
}

TEST(Batch, NDArrayOffsetViews) {
  NDArray big = NDArray::Random({4, 3}, DataType::Float32(), 42);
  NDArray slice = NDArray::ShareStorage(big, {2, 3}, DataType::Float32(),
                                        2 * 3 * sizeof(float));
  EXPECT_TRUE(slice.SameStorageAs(big));
  EXPECT_EQ(slice.ByteSize(), 2 * 3 * static_cast<int64_t>(sizeof(float)));
  EXPECT_EQ(std::memcmp(slice.Data<char>(), big.Data<char>() + 2 * 3 * sizeof(float),
                        static_cast<size_t>(slice.ByteSize())),
            0);
  // A view of a view composes offsets; Copy() of a view copies the viewed bytes.
  NDArray row = NDArray::ShareStorage(slice, {1, 3}, DataType::Float32(),
                                      3 * sizeof(float));
  EXPECT_EQ(row.Data<float>()[0], big.Data<float>()[9]);
  NDArray copy = row.Copy();
  EXPECT_FALSE(copy.SameStorageAs(big));
  EXPECT_EQ(std::memcmp(copy.Data<char>(), row.Data<char>(),
                        static_cast<size_t>(row.ByteSize())),
            0);
}

TEST(Batch, ShapesCoalescePredicate) {
  NDArray a = NDArray::Random({1, 4}, DataType::Float32(), 1);
  NDArray b = NDArray::Random({1, 4}, DataType::Float32(), 2);
  NDArray wider = NDArray::Random({2, 4}, DataType::Float32(), 3);
  NDArray half = NDArray::Random({1, 4}, DataType::Float16(), 4);
  EXPECT_TRUE(serve::ShapesCoalesce({{"x", a}}, {{"x", b}}));
  EXPECT_FALSE(serve::ShapesCoalesce({{"x", a}}, {{"x", wider}}));  // shape differs
  EXPECT_FALSE(serve::ShapesCoalesce({{"x", a}}, {{"x", half}}));   // dtype differs
  EXPECT_FALSE(serve::ShapesCoalesce({{"x", a}}, {{"y", b}}));      // name differs
  EXPECT_FALSE(serve::ShapesCoalesce({{"x", a}}, {{"x", a}, {"y", b}}));
}

// ---------------------------------------------------------------------------
// End-to-end coalescing through the server
// ---------------------------------------------------------------------------

// One worker + a generous linger: submit `k` requests, expect exactly one batch of
// size k, flushed by reaching max_batch (k == max) or by the linger deadline
// (k < max). Every response must be bitwise-equal to the sequential oracle.
void RunBatchOfK(int k, int max_batch, DataType dtype) {
  ScopedStrictMode strict;
  const uint64_t kWeightSeed = 7;
  std::shared_ptr<graph::CompiledGraph> model = MakeChainModel(dtype, kWeightSeed);

  serve::ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = max_batch;
  opts.batch_timeout_ms = 400;
  serve::InferenceServer server(opts);

  std::vector<NDArray> inputs;
  std::vector<std::future<serve::InferenceResponse>> futures;
  for (int i = 0; i < k; ++i) {
    inputs.push_back(ChainInput(dtype, static_cast<uint64_t>(i)));
    serve::InferenceRequest req;
    req.inputs["data"] = inputs.back();
    futures.push_back(server.Submit(model, std::move(req)));
  }
  for (int i = 0; i < k; ++i) {
    serve::InferenceResponse resp = futures[static_cast<size_t>(i)].get();
    ASSERT_EQ(resp.outputs.size(), 1u);
    EXPECT_EQ(resp.batch_size, k);
    ExpectBitwiseEqual(resp.outputs[0],
                       SequentialRun(dtype, kWeightSeed,
                                     inputs[static_cast<size_t>(i)]),
                       "batched request " + std::to_string(i));
  }
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, k);
  EXPECT_EQ(stats.completed, k);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.batched_requests, k);
  if (k == max_batch) {
    EXPECT_EQ(stats.full_batches, 1);
    EXPECT_EQ(stats.timeout_batches, 0);
  } else {
    EXPECT_EQ(stats.full_batches, 0);
    EXPECT_EQ(stats.timeout_batches, 1);
  }
}

TEST(Batching, SizeOneThroughBatchedPath) { RunBatchOfK(1, 4, DataType::Float32()); }
TEST(Batching, SizeTwo) { RunBatchOfK(2, 4, DataType::Float32()); }
TEST(Batching, SizeThreeNonPowerOfTwo) { RunBatchOfK(3, 4, DataType::Float32()); }
TEST(Batching, FullBatchFlushesWithoutTimeout) {
  RunBatchOfK(4, 4, DataType::Float32());
}
TEST(Batching, Float16Batch) { RunBatchOfK(3, 4, DataType::Float16()); }

TEST(Batching, MixedModelQueueCoalescesOnlySameModel) {
  ScopedStrictMode strict;
  // Model A is f32, model B is f16 — interleaved in one queue. Only same-model
  // requests may share a batch; a cross-model (or cross-dtype) mixup would corrupt
  // the differential check below.
  std::shared_ptr<graph::CompiledGraph> model_a =
      MakeChainModel(DataType::Float32(), 11);
  std::shared_ptr<graph::CompiledGraph> model_b =
      MakeChainModel(DataType::Float16(), 23);

  serve::ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 8;
  opts.batch_timeout_ms = 300;
  serve::InferenceServer server(opts);

  const int kPerModel = 3;
  std::vector<NDArray> inputs_a, inputs_b;
  std::vector<std::future<serve::InferenceResponse>> fut_a, fut_b;
  for (int i = 0; i < kPerModel; ++i) {
    inputs_a.push_back(ChainInput(DataType::Float32(), static_cast<uint64_t>(i)));
    inputs_b.push_back(
        ChainInput(DataType::Float16(), static_cast<uint64_t>(100 + i)));
    serve::InferenceRequest ra;
    ra.inputs["data"] = inputs_a.back();
    fut_a.push_back(server.Submit(model_a, std::move(ra)));
    serve::InferenceRequest rb;
    rb.inputs["data"] = inputs_b.back();
    fut_b.push_back(server.Submit(model_b, std::move(rb)));
  }
  for (int i = 0; i < kPerModel; ++i) {
    serve::InferenceResponse resp_a = fut_a[static_cast<size_t>(i)].get();
    ASSERT_TRUE(resp_a.status.ok()) << resp_a.status.message;
    ExpectBitwiseEqual(resp_a.outputs[0],
                       SequentialRun(DataType::Float32(), 11,
                                     inputs_a[static_cast<size_t>(i)]),
                       "model A request " + std::to_string(i));
    serve::InferenceResponse resp_b = fut_b[static_cast<size_t>(i)].get();
    ASSERT_TRUE(resp_b.status.ok()) << resp_b.status.message;
    ExpectBitwiseEqual(resp_b.outputs[0],
                       SequentialRun(DataType::Float16(), 23,
                                     inputs_b[static_cast<size_t>(i)]),
                       "model B request " + std::to_string(i));
  }
  // Exactly two batches (one per model), each of size kPerModel, both flushed by
  // the linger deadline: mean batch size == kPerModel.
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.batched_requests, 2 * kPerModel);
  EXPECT_EQ(stats.full_batches, 0);
  EXPECT_EQ(stats.timeout_batches, 2);
  EXPECT_EQ(stats.batched_requests / stats.batches, kPerModel);
}

TEST(Batching, FrontendBuilderPathMultiInputModel) {
  ScopedStrictMode strict;
  // The frontend batch-N construction path: batched variants of the LSTM LM are
  // *built* at batch = N via the model constructor's batch parameter instead of
  // derived by RebatchGraph. Parameters are seeded deterministically per name, so
  // builder(N) carries bitwise-identical weights to builder(1). Also exercises
  // multi-input concat (data, h0, c0).
  const Target target = Target::ArmA53();
  auto build = [&](int batch) {
    return frontend::CompileModel(frontend::LstmLanguageModel(2, 8, batch), target);
  };
  std::shared_ptr<const graph::CompiledGraph> base = build(1);

  serve::ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 3;
  opts.batch_timeout_ms = 400;
  serve::InferenceServer server(opts);
  server.SetBatchBuilder(base, build);

  const int kRequests = 3;  // == max_batch -> one full-flushed batch
  std::vector<serve::NamedTensors> inputs(kRequests);
  std::vector<std::future<serve::InferenceResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    uint64_t s = static_cast<uint64_t>(10 * i);
    inputs[static_cast<size_t>(i)] = {
        {"data", NDArray::Random({1, 8}, DataType::Float32(), 500 + s)},
        {"h0", NDArray::Random({1, 8}, DataType::Float32(), 501 + s)},
        {"c0", NDArray::Random({1, 8}, DataType::Float32(), 502 + s)}};
    serve::InferenceRequest req;
    req.inputs = inputs[static_cast<size_t>(i)];
    futures.push_back(server.Submit(base, std::move(req)));
  }
  for (int i = 0; i < kRequests; ++i) {
    serve::InferenceResponse resp = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.message;
    EXPECT_EQ(resp.batch_size, kRequests);
    // Oracle: the same request run alone on the batch-1 model.
    graph::RunContext ctx(base);
    for (const auto& kv : inputs[static_cast<size_t>(i)]) {
      ctx.SetInput(kv.first, kv.second);
    }
    base->Run(&ctx);
    ExpectBitwiseEqual(resp.outputs[0], ctx.GetOutput(0),
                       "lstm request " + std::to_string(i));
  }
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.full_batches, 1);
}

TEST(Batching, DisabledMaxBatchOneKeepsLegacyCounters) {
  ScopedStrictMode strict;
  std::shared_ptr<graph::CompiledGraph> model = MakeChainModel(DataType::Float32(), 3);
  serve::ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 1;  // explicit: batching off
  serve::InferenceServer server(opts);
  for (int i = 0; i < 4; ++i) {
    serve::InferenceRequest req;
    req.inputs["data"] = ChainInput(DataType::Float32(), static_cast<uint64_t>(i));
    serve::InferenceResponse resp = server.Submit(model, std::move(req)).get();
    EXPECT_EQ(resp.batch_size, 1);
  }
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 4);
  EXPECT_EQ(stats.batches, 0);
  EXPECT_EQ(stats.batched_requests, 0);
  EXPECT_EQ(stats.full_batches, 0);
  EXPECT_EQ(stats.timeout_batches, 0);
}

}  // namespace
}  // namespace tvmcpp
