// Shared-memory transport tests: the slab arena (round-trip, reuse, bad-free
// rejection), zero-copy request decoding (pointer/offset identity, no bytes
// moved), forked client processes whose results are bitwise-identical to
// in-process Submit() under strict mode, ring-full backpressure, client-crash
// slot reclamation, and fail-point-driven attach/push faults surfacing as
// typed Status. POSIX-only, like the transport itself.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/serve/serve.h"
#include "src/serve/shm_arena.h"
#include "src/serve/shm_client.h"
#include "src/serve/shm_server.h"
#include "src/support/failpoint.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

using serve::ShmArena;
using serve::ShmClient;
using serve::ShmTransport;

// Unique per test-process arena names so parallel ctest runs (and leftover
// objects from crashed runs) cannot collide; all match /dev/shm/tvmcpp_* for
// the CI cleanup trap.
std::string UniqueShmName(const std::string& tag) {
  static int counter = 0;
  return "/tvmcpp_test_" + std::to_string(getpid()) + "_" + tag + "_" +
         std::to_string(counter++);
}

// Same conv-chain model as test_serve.cc: 4 fused kernels, recycled
// intermediate storage, so any cross-process buffer bleed corrupts visibly.
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

constexpr uint64_t kWeightSeed = 7;

std::shared_ptr<graph::CompiledGraph> MakeChainModel() {
  auto model = std::make_shared<graph::CompiledGraph>(MakeConvChain(), Target::ArmA53(),
                                                      graph::CompileOptions{});
  for (const auto& kv : ChainWeights(kWeightSeed)) {
    model->SetParam(kv.first, kv.second);
  }
  return model;
}

// Sequential oracle: the exact pre-serving, pre-transport execution path.
NDArray SequentialRun(const NDArray& input) {
  graph::GraphExecutor exec(MakeConvChain(), Target::ArmA53(), {});
  for (const auto& kv : ChainWeights(kWeightSeed)) {
    exec.SetParam(kv.first, kv.second);
  }
  exec.SetInput("data", input);
  exec.Run();
  return exec.GetOutput(0).Copy();
}

struct ScopedStrictMode {
  bool saved;
  ScopedStrictMode() : saved(vm::StrictMode()) { vm::SetStrictMode(true); }
  ~ScopedStrictMode() { vm::SetStrictMode(saved); }
};

serve::ServerOptions QuietServerOptions() {
  serve::ServerOptions o;
  o.num_workers = 2;
  o.default_deadline_ms = 0;  // no deadline: deterministic tests on a slow host
  return o;
}

ShmTransport::Options TransportOptions(const std::string& name, int slots = 64) {
  ShmTransport::Options o;
  o.shm_name = name;
  o.arena_bytes = 8u << 20;
  o.ring_slots = slots;
  return o;
}

// ---------------------------------------------------------------------------
// Arena / slab allocator
// ---------------------------------------------------------------------------

TEST(ShmArenaTest, RoundTripAndSlabReuse) {
  ShmArena::Options o;
  o.bytes = 1u << 20;
  o.ring_slots = 4;
  auto arena = ShmArena::Create(UniqueShmName("arena"), o);

  int64_t a = arena->AllocOffset(1024);
  ASSERT_GT(a, 0);
  EXPECT_EQ(a % static_cast<int64_t>(serve::kShmAlign), 0) << "payloads are cache-aligned";
  std::memset(arena->At(a), 0xAB, 1024);

  int64_t b = arena->AllocOffset(1024);
  ASSERT_GT(b, 0);
  EXPECT_NE(a, b);

  EXPECT_TRUE(arena->FreeOffset(a));
  int64_t a2 = arena->AllocOffset(1024);
  EXPECT_EQ(a2, a) << "same size class reuses the freed slab (LIFO free list)";
  for (int i = 0; i < 1024; ++i) {
    ASSERT_EQ(arena->At(a2)[i], 0) << "reused slab must be re-zeroed at byte " << i;
  }
  EXPECT_TRUE(arena->FreeOffset(a2));
  EXPECT_TRUE(arena->FreeOffset(b));
  EXPECT_EQ(arena->header()->live_blocks.load(), 0);

  // Exhaustion: larger than the whole heap fails typed, not fatally.
  EXPECT_EQ(arena->AllocOffset(2u << 20), serve::kShmNoOffset);
  EXPECT_GT(arena->header()->failed_allocs.load(), 0);
}

TEST(ShmArenaTest, FreeRejectsGarbageAndDoubleFree) {
  ShmArena::Options o;
  o.bytes = 1u << 20;
  o.ring_slots = 4;
  auto arena = ShmArena::Create(UniqueShmName("badfree"), o);
  int64_t a = arena->AllocOffset(512);
  ASSERT_GT(a, 0);
  EXPECT_FALSE(arena->FreeOffset(0));
  EXPECT_FALSE(arena->FreeOffset(a + 8));       // unaligned
  EXPECT_FALSE(arena->FreeOffset(a + (1 << 19)));  // beyond the bump frontier
  EXPECT_TRUE(arena->FreeOffset(a));
  EXPECT_FALSE(arena->FreeOffset(a)) << "double free must be rejected (FREE magic)";
}

TEST(ShmArenaTest, StoragePoolLandsTensorsInArena) {
  ShmArena::Options o;
  o.bytes = 1u << 20;
  o.ring_slots = 4;
  auto arena = ShmArena::Create(UniqueShmName("pool"), o);
  serve::ShmStoragePool pool(arena);
  {
    ScopedStoragePool scope(&pool);
    NDArray t = NDArray::Empty({16, 16}, DataType::Float32());
    EXPECT_TRUE(arena->Contains(t.Data<char>(), static_cast<size_t>(t.ByteSize())));
    EXPECT_EQ(arena->header()->live_blocks.load(), 1);
  }
  // The NDArray dropped: its keeper returned the slab.
  EXPECT_EQ(arena->header()->live_blocks.load(), 0);
  // Outside the scope, Empty goes back to the heap.
  NDArray h = NDArray::Empty({4}, DataType::Float32());
  EXPECT_FALSE(arena->Contains(h.Data<char>(), 16));
}

// ---------------------------------------------------------------------------
// Descriptor decode: the zero-copy request path
// ---------------------------------------------------------------------------

TEST(ShmDecodeTest, PointerOffsetIdentityNoCopies) {
  ShmArena::Options o;
  o.bytes = 1u << 20;
  o.ring_slots = 4;
  auto arena = ShmArena::Create(UniqueShmName("decode"), o);
  serve::ShmStoragePool pool(arena);
  ScopedStoragePool scope(&pool);

  NDArray in = NDArray::Empty({1, 4, 8, 8}, DataType::Float32());
  in.CopyFrom(ChainInput(3));
  NDArray out = NDArray::Empty({1, 8, 6, 6}, DataType::Float32());

  serve::ShmRequestSlot* slot = arena->slot(0);
  slot->num_inputs = 1;
  slot->num_outputs = 1;
  serve::ShmDescribeTensor("data", in, &slot->inputs[0]);
  slot->inputs[0].arena_offset = arena->OffsetOf(in.Data<char>());
  serve::ShmDescribeTensor("conv4", out, &slot->outputs[0]);
  slot->outputs[0].arena_offset = arena->OffsetOf(out.Data<char>());
  slot->priority = 3;
  slot->deadline_ms = 250;

  serve::InferenceRequest req;
  std::string error;
  ASSERT_TRUE(serve::ShmDecodeSlot(arena, slot, &req, &error)) << error;

  // The decoded tensors must BE the client's arena bytes: pointer equality
  // against the descriptor offset, not just value equality — zero copies on
  // the request path.
  ASSERT_EQ(req.inputs.count("data"), 1u);
  EXPECT_EQ(req.inputs["data"].Data<char>(), arena->At(slot->inputs[0].arena_offset));
  EXPECT_EQ(req.inputs["data"].Data<char>(), in.Data<char>());
  ASSERT_EQ(req.bound_outputs.size(), 1u);
  EXPECT_EQ(req.bound_outputs[0].Data<char>(), arena->At(slot->outputs[0].arena_offset));
  EXPECT_EQ(req.bound_outputs[0].Data<char>(), out.Data<char>());
  EXPECT_EQ(req.inputs["data"].shape(), (std::vector<int64_t>{1, 4, 8, 8}));
  EXPECT_EQ(req.priority, 3);
  EXPECT_EQ(req.deadline_ms, 250);
  // Writing through the decoded view is visible through the original handle —
  // same storage, proven end-to-end.
  req.bound_outputs[0].Data<float>()[0] = 42.5f;
  EXPECT_EQ(out.Data<float>()[0], 42.5f);
}

TEST(ShmDecodeTest, BadDescriptorsRejected) {
  ShmArena::Options o;
  o.bytes = 1u << 20;
  o.ring_slots = 4;
  auto arena = ShmArena::Create(UniqueShmName("baddesc"), o);
  serve::ShmRequestSlot* slot = arena->slot(0);
  serve::InferenceRequest req;
  std::string error;

  slot->num_inputs = serve::kShmMaxTensors + 1;
  EXPECT_FALSE(serve::ShmDecodeSlot(arena, slot, &req, &error));

  slot->num_inputs = 1;
  slot->num_outputs = 0;
  std::memset(&slot->inputs[0], 0, sizeof(slot->inputs[0]));
  std::strcpy(slot->inputs[0].name, "data");
  slot->inputs[0].type_code = static_cast<uint8_t>(TypeCode::kFloat);
  slot->inputs[0].bits = 32;
  slot->inputs[0].ndim = 1;
  slot->inputs[0].shape[0] = 1024;
  slot->inputs[0].arena_offset = static_cast<int64_t>(o.bytes) + 4096;  // out of range
  EXPECT_FALSE(serve::ShmDecodeSlot(arena, slot, &req, &error));
  EXPECT_NE(error.find("outside the arena heap"), std::string::npos);

  slot->inputs[0].ndim = serve::kShmMaxDims + 1;
  EXPECT_FALSE(serve::ShmDecodeSlot(arena, slot, &req, &error));
}

// ---------------------------------------------------------------------------
// End-to-end over the ring, single process
// ---------------------------------------------------------------------------

TEST(ShmServeTest, EndToEndZeroCopyBothDirections) {
  ScopedStrictMode strict;
  vm::ResetFallbackCount();
  serve::InferenceServer server(QuietServerOptions());
  ShmTransport transport(&server, TransportOptions(UniqueShmName("e2e")));
  transport.RegisterModel("chain", MakeChainModel());

  serve::Status st;
  auto client = ShmClient::Connect(transport.arena()->name(), &st);
  ASSERT_NE(client, nullptr) << st.message;

  serve::ShmModelMeta meta;
  ASSERT_TRUE(client->GetModelMeta("chain", &meta));
  ASSERT_EQ(meta.inputs.size(), 1u);
  EXPECT_EQ(meta.inputs[0].name, "data");
  EXPECT_EQ(meta.inputs[0].shape, (std::vector<int64_t>{1, 4, 8, 8}));
  ASSERT_EQ(meta.outputs.size(), 1u);

  for (uint64_t seed = 0; seed < 3; ++seed) {
    NDArray in = client->AllocTensor({1, 4, 8, 8}, DataType::Float32());
    ASSERT_TRUE(in.defined());
    in.CopyFrom(ChainInput(seed));
    std::vector<NDArray> outs;
    serve::InferenceResponse resp_meta;
    serve::Status s = client->Call("chain", {{"data", in}}, &outs,
                                   ShmClient::CallOptions(), &resp_meta);
    ASSERT_TRUE(s.ok()) << s.message;
    ASSERT_EQ(outs.size(), 1u);
    // Response is arena-resident: the graph wrote it straight into the
    // client's slab (no copy on the unbatched path). Checked against the
    // client's own mapping — each attach mmaps the arena at its own base.
    EXPECT_TRUE(client->arena()->Contains(outs[0].Data<char>(),
                                          static_cast<size_t>(outs[0].ByteSize())));
    NDArray expect = SequentialRun(ChainInput(seed));
    ASSERT_EQ(outs[0].NumElements(), expect.NumElements());
    EXPECT_EQ(std::memcmp(outs[0].Data<char>(), expect.Data<char>(),
                          static_cast<size_t>(expect.ByteSize())),
              0)
        << "shm result differs from sequential oracle at seed " << seed;
    EXPECT_EQ(resp_meta.batch_size, 1);
  }
  EXPECT_EQ(client->staged_inputs(), 0) << "arena-resident inputs must not be staged";
  EXPECT_EQ(vm::FallbackCount(), 0) << "strict mode: no silent engine downgrades";

  ShmTransport::Stats ts = transport.stats();
  EXPECT_EQ(ts.received, 3);
  EXPECT_EQ(ts.completed, 3);
  EXPECT_EQ(ts.zero_copy_requests, 3);
  EXPECT_EQ(ts.copied_outputs, 0);
  EXPECT_EQ(ts.bad_descriptors, 0);

  transport.Stop();
  server.Shutdown();
}

TEST(ShmServeTest, HeapInputsAreStagedOnce) {
  ScopedStrictMode strict;
  serve::InferenceServer server(QuietServerOptions());
  ShmTransport transport(&server, TransportOptions(UniqueShmName("stage")));
  transport.RegisterModel("chain", MakeChainModel());
  serve::Status st;
  auto client = ShmClient::Connect(transport.arena()->name(), &st);
  ASSERT_NE(client, nullptr) << st.message;

  NDArray heap_in = ChainInput(11);  // plain heap tensor: convenience path
  std::vector<NDArray> outs;
  serve::Status s = client->Call("chain", {{"data", heap_in}}, &outs);
  ASSERT_TRUE(s.ok()) << s.message;
  EXPECT_EQ(client->staged_inputs(), 1);
  NDArray expect = SequentialRun(ChainInput(11));
  EXPECT_EQ(std::memcmp(outs[0].Data<char>(), expect.Data<char>(),
                        static_cast<size_t>(expect.ByteSize())),
            0);
  transport.Stop();
  server.Shutdown();
}

TEST(ShmServeTest, BatchedRequestsCopiedIntoBoundSlabs) {
  // Ring requests participate in dynamic batching like in-process ones; on
  // the batched path the engine computes into a batched buffer and each row
  // is copied into the client's output slab (the one counted copy).
  ScopedStrictMode strict;
  serve::ServerOptions o = QuietServerOptions();
  o.num_workers = 2;
  o.max_batch = 4;
  o.batch_timeout_ms = 25;
  serve::InferenceServer server(o);
  ShmTransport transport(&server, TransportOptions(UniqueShmName("batch")));
  transport.RegisterModel("chain", MakeChainModel());
  const std::string arena_name = transport.arena()->name();

  // Oracle outputs come from the test thread: an injected vm.run fault in
  // SequentialRun then fails this test instead of escaping a client thread.
  std::vector<NDArray> expected;
  for (uint64_t seed = 40; seed < 44; ++seed) {
    expected.push_back(SequentialRun(ChainInput(seed)));
  }

  // Rounds of 4 simultaneous clients until a batch actually coalesces (the
  // linger makes that near-certain in round one; retry absorbs scheduler
  // noise on loaded CI hosts).
  int max_batch_seen = 1;
  for (int round = 0; round < 5 && max_batch_seen < 2; ++round) {
    std::vector<std::thread> threads;
    std::mutex mu;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t]() {
        serve::Status st;
        auto client = ShmClient::Connect(arena_name, &st);
        ASSERT_NE(client, nullptr) << st.message;
        uint64_t seed = 40 + static_cast<uint64_t>(t);
        NDArray in = client->AllocTensor({1, 4, 8, 8}, DataType::Float32());
        ASSERT_TRUE(in.defined());
        in.CopyFrom(ChainInput(seed));
        std::vector<NDArray> outs;
        serve::InferenceResponse meta;
        serve::Status s = client->Call("chain", {{"data", in}}, &outs,
                                       ShmClient::CallOptions(), &meta);
        ASSERT_TRUE(s.ok()) << s.message;
        const NDArray& expect = expected[static_cast<size_t>(t)];
        EXPECT_EQ(std::memcmp(outs[0].Data<char>(), expect.Data<char>(),
                              static_cast<size_t>(expect.ByteSize())),
                  0)
            << "batched shm result differs from oracle for thread " << t;
        std::lock_guard<std::mutex> lock(mu);
        max_batch_seen = std::max(max_batch_seen, meta.batch_size);
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_GE(max_batch_seen, 2) << "4 simultaneous clients never coalesced into a batch";
  EXPECT_GT(transport.stats().copied_outputs, 0)
      << "batched responses must be counted as copies, not claimed zero-copy";
  transport.Stop();
  server.Shutdown();
}

TEST(ShmServeTest, UnknownModelIsTypedFault) {
  serve::InferenceServer server(QuietServerOptions());
  ShmTransport transport(&server, TransportOptions(UniqueShmName("unknown")));
  serve::Status st;
  auto client = ShmClient::Connect(transport.arena()->name(), &st);
  ASSERT_NE(client, nullptr) << st.message;
  std::vector<NDArray> outs;
  serve::Status s = client->Call("no_such_model", {}, &outs);
  EXPECT_EQ(s.code, serve::StatusCode::kTransportFault);
  transport.Stop();
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Multi-process: forked clients vs in-process Submit, bitwise
// ---------------------------------------------------------------------------

// Child process body. Exit codes name the failure for the parent's assert.
int RunChildClient(const std::string& arena_name, int child_idx) {
  vm::SetStrictMode(true);
  serve::Status st;
  auto client = ShmClient::Connect(arena_name, &st, /*attach_timeout_ms=*/30000);
  if (client == nullptr) {
    std::fprintf(stderr, "child %d: attach failed: %s\n", child_idx, st.message.c_str());
    return 2;
  }
  // The arena becomes attachable before RegisterModel publishes the model:
  // wait for the directory entry like a real client would.
  serve::ShmModelMeta mm;
  int64_t publish_deadline = serve::ShmMonotonicMs() + 30000;
  while (!client->GetModelMeta("chain", &mm)) {
    if (serve::ShmMonotonicMs() >= publish_deadline) {
      std::fprintf(stderr, "child %d: model never published\n", child_idx);
      return 9;
    }
    usleep(2000);
  }
  for (int r = 0; r < 3; ++r) {
    uint64_t seed = 100 + static_cast<uint64_t>(child_idx) * 10 + static_cast<uint64_t>(r);
    NDArray in = client->AllocTensor({1, 4, 8, 8}, DataType::Float32());
    if (!in.defined()) return 3;
    in.CopyFrom(ChainInput(seed));
    std::vector<NDArray> outs;
    serve::Status s = client->Call("chain", {{"data", in}}, &outs);
    if (!s.ok()) {
      std::fprintf(stderr, "child %d: call failed: %s\n", child_idx, s.message.c_str());
      return 4;
    }
    NDArray expect = SequentialRun(ChainInput(seed));
    if (outs.size() != 1 || outs[0].NumElements() != expect.NumElements()) return 5;
    if (std::memcmp(outs[0].Data<char>(), expect.Data<char>(),
                    static_cast<size_t>(expect.ByteSize())) != 0) {
      std::fprintf(stderr, "child %d: bitwise mismatch at rep %d\n", child_idx, r);
      return 6;
    }
    if (client->staged_inputs() != 0) return 7;
  }
  if (vm::FallbackCount() > 0) return 8;
  return 0;
}

TEST(ShmMultiProcessTest, TwoForkedClientsBitwiseEqualInProcess) {
  const std::string name = UniqueShmName("mp");
  // Fork BEFORE any server threads exist in this test: forking a process with
  // live threads is where fork bugs live. Children retry-attach until the
  // parent's transport has created and initialized the arena.
  std::vector<pid_t> kids;
  for (int c = 0; c < 2; ++c) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      _exit(RunChildClient(name, c));
    }
    kids.push_back(pid);
  }

  ScopedStrictMode strict;
  vm::ResetFallbackCount();
  serve::InferenceServer server(QuietServerOptions());
  ShmTransport transport(&server, TransportOptions(name));
  auto model = MakeChainModel();
  transport.RegisterModel("chain", model);

  // In-process oracle through the same server object, interleaved with the
  // children's shm traffic.
  for (uint64_t seed = 100; seed < 106; ++seed) {
    serve::InferenceRequest req;
    req.inputs["data"] = ChainInput(seed);
    serve::InferenceResponse r = server.Submit(model, std::move(req)).get();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    NDArray expect = SequentialRun(ChainInput(seed));
    EXPECT_EQ(std::memcmp(r.outputs[0].Data<char>(), expect.Data<char>(),
                          static_cast<size_t>(expect.ByteSize())),
              0)
        << "in-process Submit differs from oracle at seed " << seed;
  }

  for (pid_t pid : kids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "forked client failed (see exit-code map)";
  }

  ShmTransport::Stats ts = transport.stats();
  EXPECT_GE(ts.received, 6) << "2 children x 3 calls must all arrive via the ring";
  EXPECT_EQ(ts.bad_descriptors, 0);
  EXPECT_EQ(ts.completed, ts.received);
  EXPECT_EQ(vm::FallbackCount(), 0);

  transport.Stop();
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Backpressure, crash reclamation, fail-points
// ---------------------------------------------------------------------------

TEST(ShmServeTest, RingFullBackpressure) {
  ScopedStrictMode strict;
  serve::InferenceServer server(QuietServerOptions());
  ShmTransport transport(&server, TransportOptions(UniqueShmName("full"), /*slots=*/2));
  transport.RegisterModel("chain", MakeChainModel());
  serve::Status st;
  auto client = ShmClient::Connect(transport.arena()->name(), &st);
  ASSERT_NE(client, nullptr) << st.message;

  // Occupy both ring slots as a live foreign claimant would.
  auto arena = transport.arena();
  for (int i = 0; i < 2; ++i) {
    uint32_t expect = serve::kSlotFree;
    ASSERT_TRUE(arena->slot(i)->state.compare_exchange_strong(expect, serve::kSlotClaimed));
    arena->slot(i)->client_pid = static_cast<uint32_t>(getpid());
    arena->slot(i)->claim_ms = serve::ShmMonotonicMs();
  }

  NDArray in = client->AllocTensor({1, 4, 8, 8}, DataType::Float32());
  in.CopyFrom(ChainInput(1));
  std::vector<NDArray> outs;
  ShmClient::CallOptions copts;
  copts.timeout_ms = 300;
  serve::Status s = client->Call("chain", {{"data", in}}, &outs, copts);
  EXPECT_EQ(s.code, serve::StatusCode::kTransportFault);
  EXPECT_NE(s.message.find("ring full"), std::string::npos) << s.message;

  // Release one slot: the next call must get through.
  arena->slot(0)->gen.fetch_add(1);
  arena->slot(0)->state.store(serve::kSlotFree);
  s = client->Call("chain", {{"data", in}}, &outs);
  EXPECT_TRUE(s.ok()) << s.message;

  arena->slot(1)->gen.fetch_add(1);
  arena->slot(1)->state.store(serve::kSlotFree);
  transport.Stop();
  server.Shutdown();
}

TEST(ShmServeTest, CrashedClientSlotsAndSlabsReclaimed) {
  serve::InferenceServer server(QuietServerOptions());
  ShmTransport::Options topts = TransportOptions(UniqueShmName("crash"));
  topts.reclaim_after_ms = 50;
  ShmTransport transport(&server, topts);
  auto arena = transport.arena();

  // A genuinely dead pid: fork a child that exits immediately, then reap it.
  pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  int ws = 0;
  ASSERT_EQ(waitpid(dead, &ws, 0), dead);

  // Crash scenario 1: client died after its request completed (kSlotDone held,
  // descriptor slabs still allocated). The sweep must free slabs AND slot.
  int64_t in_off = arena->AllocOffset(1024);
  int64_t out_off = arena->AllocOffset(1024);
  ASSERT_GT(in_off, 0);
  ASSERT_GT(out_off, 0);
  serve::ShmRequestSlot* slot = arena->slot(0);
  uint32_t gen_before = slot->gen.load();
  slot->client_pid = static_cast<uint32_t>(dead);
  slot->claim_ms = serve::ShmMonotonicMs() - 10000;
  slot->num_inputs = 1;
  slot->num_outputs = 1;
  std::memset(&slot->inputs[0], 0, sizeof(slot->inputs[0]));
  std::memset(&slot->outputs[0], 0, sizeof(slot->outputs[0]));
  slot->inputs[0].arena_offset = in_off;
  slot->outputs[0].arena_offset = out_off;
  slot->state.store(serve::kSlotDone);

  // Crash scenario 2: died mid-fill (kSlotClaimed). Slot reclaimed, slabs
  // deliberately not touched (descriptor may be half-written).
  serve::ShmRequestSlot* slot2 = arena->slot(1);
  slot2->client_pid = static_cast<uint32_t>(dead);
  slot2->claim_ms = serve::ShmMonotonicMs() - 10000;
  slot2->state.store(serve::kSlotClaimed);

  // The poller also sweeps on its own cadence; either path must converge to
  // both slots free and both slabs returned.
  int64_t deadline = serve::ShmMonotonicMs() + 5000;
  while ((slot->state.load() != serve::kSlotFree || slot2->state.load() != serve::kSlotFree) &&
         serve::ShmMonotonicMs() < deadline) {
    transport.ReclaimCrashedSlots();
    usleep(10000);
  }
  EXPECT_EQ(slot->state.load(), serve::kSlotFree);
  EXPECT_EQ(slot2->state.load(), serve::kSlotFree);
  EXPECT_GT(slot->gen.load(), gen_before) << "reclaim must bump the generation";
  EXPECT_EQ(arena->header()->live_blocks.load(), 0) << "scenario-1 slabs must be freed";
  EXPECT_GE(transport.stats().reclaimed_slots, 2);

  transport.Stop();
  server.Shutdown();
}

TEST(ShmFaultTest, AttachFaultReturnsTypedStatus) {
  serve::InferenceServer server(QuietServerOptions());
  ShmTransport transport(&server, TransportOptions(UniqueShmName("attach")));

  failpoint::Action err;
  err.kind = failpoint::ActionKind::kError;
  failpoint::Arm("serve.shm_attach", err);
  serve::Status st;
  auto client = ShmClient::Connect(transport.arena()->name(), &st);
  EXPECT_EQ(client, nullptr);
  EXPECT_EQ(st.code, serve::StatusCode::kTransportFault);
  failpoint::DisarmAll();

  // Server-side creation hits the same seam.
  failpoint::Arm("serve.shm_attach", err);
  EXPECT_THROW(ShmArena::Create(UniqueShmName("attach2")), failpoint::InjectedFault);
  failpoint::DisarmAll();

  client = ShmClient::Connect(transport.arena()->name(), &st);
  EXPECT_NE(client, nullptr) << "disarmed attach must succeed again";
  transport.Stop();
  server.Shutdown();
}

TEST(ShmFaultTest, RingPushFaultReleasesSlotAndTypes) {
  ScopedStrictMode strict;
  serve::InferenceServer server(QuietServerOptions());
  ShmTransport transport(&server, TransportOptions(UniqueShmName("push"), /*slots=*/4));
  transport.RegisterModel("chain", MakeChainModel());
  serve::Status st;
  auto client = ShmClient::Connect(transport.arena()->name(), &st);
  ASSERT_NE(client, nullptr) << st.message;
  NDArray in = client->AllocTensor({1, 4, 8, 8}, DataType::Float32());
  in.CopyFrom(ChainInput(5));

  failpoint::Action err;
  err.kind = failpoint::ActionKind::kError;
  failpoint::Arm("serve.shm_ring_push", err);
  std::vector<NDArray> outs;
  serve::Status s = client->Call("chain", {{"data", in}}, &outs);
  EXPECT_EQ(s.code, serve::StatusCode::kTransportFault);
  EXPECT_NE(s.message.find("ring push fault"), std::string::npos) << s.message;
  failpoint::DisarmAll();

  // The claimed slot was released on the fault path: every slot free again...
  auto arena = transport.arena();
  for (int i = 0; i < arena->num_slots(); ++i) {
    EXPECT_EQ(arena->slot(i)->state.load(), serve::kSlotFree) << "slot " << i;
  }
  // ...and the ring still works.
  s = client->Call("chain", {{"data", in}}, &outs);
  EXPECT_TRUE(s.ok()) << s.message;
  NDArray expect = SequentialRun(ChainInput(5));
  EXPECT_EQ(std::memcmp(outs[0].Data<char>(), expect.Data<char>(),
                        static_cast<size_t>(expect.ByteSize())),
            0);
  transport.Stop();
  server.Shutdown();
}

TEST(ShmFaultTest, ServerExecutionFailurePropagatesTypedThroughDescriptor) {
  serve::ServerOptions o = QuietServerOptions();
  o.max_retries = 0;
  o.enable_fallback = 0;
  serve::InferenceServer server(o);
  ShmTransport transport(&server, TransportOptions(UniqueShmName("exec")));
  transport.RegisterModel("chain", MakeChainModel());
  serve::Status st;
  auto client = ShmClient::Connect(transport.arena()->name(), &st);
  ASSERT_NE(client, nullptr) << st.message;
  NDArray in = client->AllocTensor({1, 4, 8, 8}, DataType::Float32());
  in.CopyFrom(ChainInput(9));

  failpoint::Action err;
  err.kind = failpoint::ActionKind::kError;
  failpoint::Arm("serve.run", err);
  std::vector<NDArray> outs;
  serve::Status s = client->Call("chain", {{"data", in}}, &outs);
  failpoint::DisarmAll();
  EXPECT_EQ(s.code, serve::StatusCode::kExecutionFailed)
      << "server-side typed status must cross the ring: " << s.message;

  transport.Stop();
  server.Shutdown();
}

}  // namespace
}  // namespace tvmcpp
