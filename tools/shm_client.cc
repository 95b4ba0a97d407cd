// shm_client: operator tool for the shared-memory serving transport.
//
// Server mode — create the arena, register the built-in model zoo, serve:
//   shm_client --serve [--shm-name /tvmcpp_serve] [--duration-s 0]
//
// Client mode — attach to a running server's arena and submit requests:
//   shm_client --model chain [--shm-name /tvmcpp_serve] [--seed 1]
//              [--repeat 1] [--priority 0] [--deadline-ms -1] [--verify]
//   shm_client --list [--shm-name /tvmcpp_serve]
//
// The built-in models are deterministic (weights derived from fixed seeds), so
// --verify can recompute the expected result locally in the client process and
// check the bytes that crossed the arena bitwise. See docs/DEPLOYMENT.md for a
// copy-pasteable walkthrough.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/serve/serve.h"
#include "src/serve/shm_client.h"
#include "src/serve/shm_server.h"

namespace {

using namespace tvmcpp;  // NOLINT: small tool binary

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

// The same deterministic conv chain the test suite and benches use: any
// client that knows the model name can recompute the oracle.
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

constexpr uint64_t kWeightSeed = 7;

std::unordered_map<std::string, NDArray> ChainWeights() {
  std::unordered_map<std::string, NDArray> w;
  w["w1"] = NDArray::Random({8, 4, 3, 3}, DataType::Float32(), kWeightSeed + 1);
  w["w2"] = NDArray::Random({8, 8, 1, 1}, DataType::Float32(), kWeightSeed + 2);
  w["w3"] = NDArray::Random({8, 8, 1, 1}, DataType::Float32(), kWeightSeed + 3);
  w["w4"] = NDArray::Random({8, 8, 1, 1}, DataType::Float32(), kWeightSeed + 4);
  return w;
}

NDArray ChainInput(uint64_t seed) {
  return NDArray::Random({1, 4, 8, 8}, DataType::Float32(), 1000 + seed);
}

NDArray OracleRun(const NDArray& input) {
  graph::GraphExecutor exec(MakeConvChain(), Target::ArmA53(), {});
  for (const auto& kv : ChainWeights()) exec.SetParam(kv.first, kv.second);
  exec.SetInput("data", input);
  exec.Run();
  return exec.GetOutput(0).Copy();
}

uint64_t Checksum(const NDArray& t) {
  // FNV-1a over the raw bytes: stable across processes for bitwise comparison.
  const char* p = t.Data<char>();
  uint64_t h = 1469598103934665603ull;
  for (int64_t i = 0; i < t.ByteSize(); ++i) {
    h = (h ^ static_cast<unsigned char>(p[i])) * 1099511628211ull;
  }
  return h;
}

int Usage() {
  std::fprintf(stderr,
               "usage: shm_client --serve [--shm-name N] [--duration-s S]\n"
               "       shm_client --model M [--shm-name N] [--seed K] [--repeat R]\n"
               "                  [--priority P] [--deadline-ms D] [--timeout-ms T] [--verify]\n"
               "       shm_client --list [--shm-name N]\n");
  return 2;
}

int RunServer(const std::string& shm_name, int duration_s) {
  serve::InferenceServer server(serve::ServerOptions{});
  serve::ShmTransport::Options topts;
  topts.shm_name = shm_name;
  serve::ShmTransport transport(&server, topts);

  auto model = std::make_shared<graph::CompiledGraph>(MakeConvChain(), Target::ArmA53(),
                                                      graph::CompileOptions{});
  for (const auto& kv : ChainWeights()) model->SetParam(kv.first, kv.second);
  transport.RegisterModel("chain", model);

  std::printf("serving arena %s (model: chain), pid %d — Ctrl-C to stop\n",
              transport.arena()->name().c_str(), static_cast<int>(getpid()));
  std::fflush(stdout);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  int64_t stop_at =
      duration_s > 0 ? serve::ShmMonotonicMs() + 1000ll * duration_s : INT64_MAX;
  while (!g_stop && serve::ShmMonotonicMs() < stop_at) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  serve::ShmTransport::Stats ts = transport.stats();
  std::printf("shutting down: received=%lld completed=%lld bad_descriptors=%lld "
              "reclaimed=%lld zero_copy=%lld\n",
              static_cast<long long>(ts.received), static_cast<long long>(ts.completed),
              static_cast<long long>(ts.bad_descriptors),
              static_cast<long long>(ts.reclaimed_slots),
              static_cast<long long>(ts.zero_copy_requests));
  transport.Stop();
  server.Shutdown();
  return 0;
}

int RunClient(const std::string& shm_name, const std::string& model, uint64_t seed,
              int repeat, int priority, double deadline_ms, double timeout_ms,
              bool verify) {
  serve::Status st;
  auto client = serve::ShmClient::Connect(shm_name, &st);
  if (client == nullptr) {
    std::fprintf(stderr, "connect failed: %s\n", st.message.c_str());
    return 1;
  }
  // The arena is attachable before the server finishes RegisterModel: give
  // the directory entry a few seconds to appear before giving up.
  serve::ShmModelMeta mm;
  int64_t publish_deadline = serve::ShmMonotonicMs() + 5000;
  while (!client->GetModelMeta(model, &mm)) {
    if (serve::ShmMonotonicMs() >= publish_deadline) {
      std::fprintf(stderr, "model '%s' not published; available:", model.c_str());
      for (const std::string& n : client->ListModels()) {
        std::fprintf(stderr, " %s", n.c_str());
      }
      std::fprintf(stderr, "\n");
      return 1;
    }
    usleep(10000);
  }

  serve::ShmClient::CallOptions copts;
  copts.priority = priority;
  copts.deadline_ms = deadline_ms;
  copts.timeout_ms = timeout_ms;
  int failures = 0;
  for (int r = 0; r < repeat; ++r) {
    uint64_t s = seed + static_cast<uint64_t>(r);
    NDArray in = client->AllocTensor(mm.inputs[0].shape, mm.inputs[0].dtype);
    if (!in.defined()) {
      std::fprintf(stderr, "arena exhausted allocating input\n");
      return 1;
    }
    in.CopyFrom(ChainInput(s));
    std::vector<NDArray> outs;
    serve::InferenceResponse meta;
    int64_t t0 = serve::ShmMonotonicMs();
    serve::Status call =
        client->Call(model, {{mm.inputs[0].name, in}}, &outs, copts, &meta);
    int64_t ms = serve::ShmMonotonicMs() - t0;
    if (!call.ok()) {
      std::printf("rep %d seed %llu: %s (%s) after %lld ms\n", r,
                  static_cast<unsigned long long>(s),
                  serve::StatusCodeName(call.code), call.message.c_str(),
                  static_cast<long long>(ms));
      ++failures;
      continue;
    }
    std::printf("rep %d seed %llu: ok in %lld ms (queue %.2f ms, run %.2f ms, "
                "batch %d, retries %d) checksum %016llx",
                r, static_cast<unsigned long long>(s), static_cast<long long>(ms),
                meta.queue_ms, meta.run_ms, meta.batch_size, meta.retries,
                static_cast<unsigned long long>(Checksum(outs[0])));
    if (verify && model == "chain") {
      NDArray expect = OracleRun(ChainInput(s));
      bool same = outs[0].ByteSize() == expect.ByteSize() &&
                  std::memcmp(outs[0].Data<char>(), expect.Data<char>(),
                              static_cast<size_t>(expect.ByteSize())) == 0;
      std::printf(" verify=%s", same ? "bitwise-ok" : "MISMATCH");
      if (!same) ++failures;
    }
    std::printf("\n");
  }
  if (client->staged_inputs() != 0) {
    std::printf("note: %lld inputs were staged (heap->arena copies)\n",
                static_cast<long long>(client->staged_inputs()));
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string shm_name;  // "" → /tvmcpp_serve
  std::string model;
  bool serve_mode = false, list_mode = false, verify = false;
  int duration_s = 0, repeat = 1, priority = 0;
  uint64_t seed = 1;
  double deadline_ms = -1, timeout_ms = 30000;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--serve") serve_mode = true;
    else if (a == "--list") list_mode = true;
    else if (a == "--verify") verify = true;
    else if (a == "--shm-name") shm_name = next("--shm-name");
    else if (a == "--model") model = next("--model");
    else if (a == "--duration-s") duration_s = std::atoi(next("--duration-s"));
    else if (a == "--seed") seed = std::strtoull(next("--seed"), nullptr, 10);
    else if (a == "--repeat") repeat = std::atoi(next("--repeat"));
    else if (a == "--priority") priority = std::atoi(next("--priority"));
    else if (a == "--deadline-ms") deadline_ms = std::atof(next("--deadline-ms"));
    else if (a == "--timeout-ms") timeout_ms = std::atof(next("--timeout-ms"));
    else return Usage();
  }

  if (serve_mode) return RunServer(shm_name, duration_s);
  if (list_mode) {
    serve::Status st;
    auto client = serve::ShmClient::Connect(shm_name, &st);
    if (client == nullptr) {
      std::fprintf(stderr, "connect failed: %s\n", st.message.c_str());
      return 1;
    }
    for (const std::string& n : client->ListModels()) std::printf("%s\n", n.c_str());
    return 0;
  }
  if (model.empty()) return Usage();
  return RunClient(shm_name, model, seed, repeat, priority, deadline_ms, timeout_ms,
                   verify);
}
