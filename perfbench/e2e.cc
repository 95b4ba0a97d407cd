// End-to-end benchmark binary: one process runs one workload through the public
// API (frontend -> graph::CompiledGraph + RunContext on the VM and native tiers ->
// serve::InferenceServer -> ShmTransport / ShmClient), checks every output, and
// prints its metrics as the last line of stdout. perfbench/run.py builds this
// binary, repeats set-up, and prints the benchmark's result line.
//
//   perfbench_e2e --workload W --seed N --seconds S --trace 0|1 --work-dir DIR
//                 [--trace-out FILE] [--oracle-fnv HEX] [--record-oracle]
//
// Workloads:
//   resnet18-b1     ResNet-18 (batch 1, 32x32) compiled cold on the interpreter,
//                   VM and native tiers, then run in a closed loop per tier.
//   mlp-serve-open  SparseMlp on a native-tier InferenceServer (3 workers,
//                   max_batch 8, linger 0, no deadline), open-loop Poisson load.
//   mlp-serve-shm   The same server behind ShmTransport, two forked client
//                   processes calling it in a closed loop on arena tensors.
//
// --seconds 0 stops after set-up (run.py uses it to repeat set-up). --trace 1
// traces half the measured requests, interleaved with untraced ones, reports the
// per-layer metrics from the traced half and the tracing overhead from the
// difference, and writes the spans as Chrome trace JSON to --trace-out.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/trace.h"
#include "src/codegen/native.h"
#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/runtime/threadpool.h"
#include "src/serve/serve.h"
#include "src/serve/shm_client.h"
#include "src/serve/shm_server.h"
#include "src/vm/vm.h"

extern char** environ;

namespace perfbench {
namespace {

using tvmcpp::DataType;
using tvmcpp::ExecEngine;
using tvmcpp::NDArray;
namespace graph = tvmcpp::graph;
namespace serve = tvmcpp::serve;
namespace frontend = tvmcpp::frontend;

constexpr char kResnet[] = "resnet18-b1";
constexpr char kServeOpen[] = "mlp-serve-open";
constexpr char kServeShm[] = "mlp-serve-shm";

// The served model: frontend::SparseMlp(batch, 256, 256, 32, 0.95).
constexpr int kMlpIn = 256;
constexpr int kMlpHidden = 256;
constexpr int kMlpClasses = 32;
constexpr double kMlpSparsity = 0.95;
constexpr int kServeWorkers = 3;
constexpr int kMaxBatch = 8;
constexpr int kShmClients = 2;
// Distinct seeded inputs the serve workloads draw from; each has its own
// interpreter-tier oracle output.
constexpr int kInputPool = 64;
// Open-loop arrival rate of mlp-serve-open, in requests per second. Fixed here,
// never derived from the host's capacity at run time.
// At 8000 req/s the 3 workers batch (mean batch about 1.5) and the backlog does
// not grow: the ok responses per second match the rate. At 3000 req/s batches
// were almost always of one request.
constexpr double kOpenRateRps = 8000;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  std::string oracle_fnv;  // expected FNV-1a of the resnet18-b1 output, as hex
  bool record_oracle = false;
};

// Everything a failed run must undo before it exits: the private work directory,
// the shm arena, and forked clients.
struct Cleanup {
  std::string work_dir;
  std::string shm_name;
  std::vector<pid_t> children;
};
Cleanup g_cleanup;

void RemoveLeftovers() {
  for (pid_t pid : g_cleanup.children) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  g_cleanup.children.clear();
  if (!g_cleanup.shm_name.empty()) ::shm_unlink(g_cleanup.shm_name.c_str());
  if (!g_cleanup.work_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(g_cleanup.work_dir, ec);
  }
}

// Fails the run without printing a result: a hang or a broken set-up is not a
// measurement. Exits at once, so no thread of the library is waited on.
[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fflush(stderr);
  RemoveLeftovers();
  std::_Exit(3);
}

int Nproc() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

uint64_t Fnv1a(const NDArray& t) {
  uint64_t h = 1469598103934665603ULL;
  const unsigned char* p = t.Data<unsigned char>();
  for (int64_t i = 0; i < t.ByteSize(); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

bool SameBytes(const NDArray& a, const NDArray& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         a.ByteSize() == b.ByteSize() &&
         std::memcmp(a.Data<char>(), b.Data<char>(), static_cast<size_t>(a.ByteSize())) ==
             0;
}

// SplitMix64: the benchmark's only randomness, so a seed fixes every input and
// every arrival time on any standard library.
struct Rng {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

uint64_t InputSeed(uint64_t seed, int k) {
  return seed * 1000003ULL + static_cast<uint64_t>(k) + 1;
}

// Unsets every TVMCPP_* variable so no engine, thread, cache, serving or
// fail-point setting leaks in from the host, then points the native module cache
// and the C compiler's temporaries at a fresh private directory.
void PinEnvironment(const std::string& work_dir) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string kv = *e;
    if (kv.rfind("TVMCPP_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::filesystem::create_directories(work_dir + "/native", ec);
  std::filesystem::create_directories(work_dir + "/tmp", ec);
  if (ec) Die("cannot create work directory " + work_dir);
  g_cleanup.work_dir = work_dir;
  ::setenv("TVMCPP_NATIVE_CACHE", (work_dir + "/native").c_str(), 1);
  ::setenv("TMPDIR", (work_dir + "/tmp").c_str(), 1);
}

// The result line: counts plus named metrics. Values of per-layer metrics that do
// not apply to a workload stay 0.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> values;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void Set(const std::string& name, double v) { values[name] = v; }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by untraced runs. Must match "end_to_end" in BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

// Printed by traced runs. Must match "per_layer" in BENCHMARK.json.
constexpr MetricDef kPerLayer[] = {
    {"frontend.build_ms", "ms"},
    {"graph.fuse_ms", "ms"},
    {"graph.plan_ms", "ms"},
    {"graph.kernels", "count"},
    {"graph.planned_mb", "MiB"},
    {"lower.compile_ms", "ms"},
    {"vm.compile_ms", "ms"},
    {"codegen.compile_ms", "ms"},
    {"codegen.variants_ms", "ms"},
    {"codegen.compiles", "count"},
    {"codegen.compile_failures", "count"},
    {"exec.fallbacks", "count"},
    {"exec.native_p50_ms", "ms"},
    {"exec.native_p90_ms", "ms"},
    {"exec.vm_p50_ms", "ms"},
    {"exec.vm_p90_ms", "ms"},
    {"exec.native_scaling", "ratio"},
    {"exec.vm_scaling", "ratio"},
    {"runtime.runcontext_us", "us"},
    {"serve.queue_p50_ms", "ms"},
    {"serve.queue_p99_ms", "ms"},
    {"serve.run_p50_ms", "ms"},
    {"serve.overhead_p50_ms", "ms"},
    {"serve.mean_batch", "count"},
    {"serve.retries", "count"},
    {"serve.fallbacks", "count"},
    {"serve.chunked_share", "ratio"},
    {"shm.attach_ms", "ms"},
    {"shm.transport_p50_ms", "ms"},
    {"shm.copied_outputs", "count"},
    {"shm.staged_inputs", "count"},
    {"loadgen.latency_p90_ms", "ms"},
    {"loadgen.latency_p99_ms", "ms"},
    {"loadgen.throughput_rps", "1/s"},
    {"loadgen.lag_p99_ms", "ms"},
    {"failed_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.unaccounted_pct", "%"},
    {"trace.setup_unaccounted_pct", "%"},
};

// The one reader of the library's stats structs (NativeStats, ServerStats,
// ShmTransport::Stats), used only for counts that have no other source.
struct Counters {
  int64_t native_compiles = 0;
  int64_t native_compile_failures = 0;
  int64_t chunked_runs = 0;
  int64_t serial_runs = 0;
  int64_t copied_outputs = 0;
};

Counters ReadCounters(const serve::InferenceServer* server,
                      const serve::ShmTransport* transport) {
  Counters c;
  tvmcpp::codegen::NativeStats ns = tvmcpp::codegen::GetNativeStats();
  c.native_compiles = ns.compiles;
  c.native_compile_failures = ns.compile_failures;
  if (server != nullptr) {
    serve::ServerStats s = server->stats();
    c.chunked_runs = s.chunked_runs;
    c.serial_runs = s.serial_runs;
  }
  if (transport != nullptr) c.copied_outputs = transport->stats().copied_outputs;
  return c;
}

// CPU seconds used since the process started, by the process and by the children
// it has waited for, which include every C compiler run of the native tier. The
// shm clients are not among them: they are reaped after the load.
double CpuSeconds() {
  auto sum = [](int who) {
    struct rusage ru;
    ::getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  };
  return sum(RUSAGE_SELF) + sum(RUSAGE_CHILDREN);
}

// Set-up cost is taken in CPU seconds rather than wall time: on a virtual machine
// CPU time leaves out the stretches in which the hypervisor runs other guests on
// this vCPU (steal time). It does not remove the rest of a shared host's noise:
// on a shared 4-vCPU guest, the C compiler's CPU time for ResNet-18 ranged from
// 2.8 to 4.1 s between consecutive runs.
void EndSetup(double t_main, int64_t setup_id, Tracer* tr, Report* rep) {
  tr->Add("setup", t_main, NowUs(), -1, -1, setup_id);
  Tracer::Current() = -1;
  rep->Set("setup_s", CpuSeconds());
}

// ---------------------------------------------------------------------------
// Compile: one model on every tier
// ---------------------------------------------------------------------------

struct Tiers {
  std::shared_ptr<graph::CompiledGraph> interp;  // lowered only
  std::shared_ptr<graph::CompiledGraph> vm;      // + bytecode
  std::shared_ptr<graph::CompiledGraph> native;  // + emitted C, cc, dlopen
  std::string input_name;
};

// The CPU target every tier compiles for.
tvmcpp::Target CpuTarget() { return tvmcpp::Target::ArmA53(); }

// Compiles cold on each tier. The engine slot decides what a CompiledGraph
// constructor builds, so each constructor runs under its own engine; the
// differences between their times split compile cost into lowering, VM bytecode
// and native code generation.
Tiers CompileTiers(const std::function<frontend::Model()>& build, Tracer* tr) {
  frontend::Model m;
  {
    Span s(tr, "frontend.build");
    m = build();
  }
  std::vector<graph::FusedGroup> groups;
  {
    Span s(tr, "graph.FuseOps");
    groups = graph::FuseOps(m.graph);
  }
  {
    Span s(tr, "graph.PlanMemory");
    graph::PlanMemory(m.graph, groups);
  }
  Tiers t;
  t.input_name = m.input_name;
  tvmcpp::SetExecEngine(ExecEngine::kInterp);
  {
    Span s(tr, "lower.compile");
    t.interp = frontend::CompileModel(m, CpuTarget());
  }
  tvmcpp::SetExecEngine(ExecEngine::kVm);
  {
    Span s(tr, "vm.compile");
    t.vm = frontend::CompileModel(m, CpuTarget());
  }
  tvmcpp::SetExecEngine(ExecEngine::kNative);
  {
    Span s(tr, "codegen.compile");
    t.native = frontend::CompileModel(m, CpuTarget());
  }
  return t;
}

// Runs one request on `model` under the current engine and returns a copy of
// its first output.
NDArray RunOnce(const std::shared_ptr<graph::CompiledGraph>& model, const std::string& input,
                const NDArray& value, const tvmcpp::vm::ExecOptions& exec) {
  graph::RunContext ctx(model);
  ctx.SetInput(input, value);
  model->Run(&ctx, exec);
  return ctx.GetOutput(0).Copy();
}

// ---------------------------------------------------------------------------
// Direct per-tier runs (closed loop, one caller)
// ---------------------------------------------------------------------------

// One way of running the model directly: a tier at a thread count.
struct TierPass {
  const char* run_span = nullptr;  // "graph.Run.native" or "graph.Run.vm"
  std::shared_ptr<graph::CompiledGraph> model;
  ExecEngine engine = ExecEngine::kNative;
  tvmcpp::vm::ExecOptions exec;
  double share = 0;  // of the time all passes get
  Tracer* tracer = nullptr;
  std::vector<double> run_ms;      // CompiledGraph::Run alone
  std::vector<double> request_ms;  // RunContext + SetInput + Run + GetOutput
  // Per RunTierSlice: p50 and p90 of run_ms, p50 of request_ms.
  std::vector<double> slice_run_p50_ms, slice_run_p90_ms, slice_request_p50_ms;
  double spent_s = 0;
};

// Indices into TierMix::passes.
enum { kNativePar, kVmPar, kNativeSerial, kVmSerial, kNativeParUntraced };

// The direct passes of resnet18-b1: native and VM at nproc threads and at 1
// thread. Their requests are interleaved, each going to the pass furthest behind
// its share of the time, so every pass samples the whole measured window rather
// than one stretch of it; on a shared host the speed of a core drifts by tens of
// percent over seconds.
struct TierMix {
  std::vector<TierPass> passes;
  std::string input_name;
  std::vector<NDArray> inputs;  // request i uses inputs[i % n] ...
  std::vector<NDArray> refs;    // ... and must reproduce refs[i % n] bitwise
  int64_t next_req = 0;
};

TierMix MakeTierMix(const Tiers& t, std::vector<NDArray> inputs, std::vector<NDArray> refs,
                    tvmcpp::ThreadPool* pool, const double shares[4], Tracer* tr) {
  tvmcpp::vm::ExecOptions par;
  par.num_threads = Nproc();
  par.pool = pool;
  tvmcpp::vm::ExecOptions serial;
  serial.num_threads = 1;
  auto pass = [tr](const char* run_span, const std::shared_ptr<graph::CompiledGraph>& model,
                   ExecEngine engine, const tvmcpp::vm::ExecOptions& exec, double share) {
    TierPass p;
    p.run_span = run_span;
    p.model = model;
    p.engine = engine;
    p.exec = exec;
    p.share = share;
    p.tracer = tr;
    return p;
  };
  TierMix mix;
  mix.passes = {
      pass("graph.Run.native", t.native, ExecEngine::kNative, par, shares[0]),
      pass("graph.Run.vm", t.vm, ExecEngine::kVm, par, shares[1]),
      pass("graph.Run.native", t.native, ExecEngine::kNative, serial, shares[2]),
      pass("graph.Run.vm", t.vm, ExecEngine::kVm, serial, shares[3]),
  };
  mix.input_name = t.input_name;
  mix.inputs = std::move(inputs);
  mix.refs = std::move(refs);
  return mix;
}

// One request on `p`: a fresh RunContext, SetInput, Run, GetOutput.
void RunTierRequest(TierMix* mix, TierPass* p, Report* rep) {
  const size_t k = static_cast<size_t>(mix->next_req) % mix->inputs.size();
  const int64_t req = mix->next_req++;
  Tracer* tr = p->tracer;
  tvmcpp::SetExecEngine(p->engine);
  const double t0 = NowUs();
  Span request(tr, "tier.request", req);
  graph::RunContext ctx = [&] {
    Span s(tr, "runtime.RunContext", req);
    return graph::RunContext(p->model);
  }();
  {
    Span s(tr, "graph.SetInput", req);
    ctx.SetInput(mix->input_name, mix->inputs[k]);
  }
  const double t1 = NowUs();
  {
    Span s(tr, p->run_span, req);
    p->model->Run(&ctx, p->exec);
  }
  const double t2 = NowUs();
  NDArray result;
  {
    Span s(tr, "graph.GetOutput", req);
    result = ctx.GetOutput(0);
  }
  request.End();
  const double t3 = NowUs();
  p->run_ms.push_back((t2 - t1) / 1000.0);
  p->request_ms.push_back((t3 - t0) / 1000.0);
  p->spent_s += (t3 - t0) / 1e6;
  rep->Check(SameBytes(result, mix->refs[k]), std::string(p->run_span) + " output differs");
}

// Runs requests for `budget_s` (at least one). Leaves the engine on native.
void RunTierSlice(TierMix* mix, double budget_s, Report* rep) {
  std::vector<size_t> before;
  for (const TierPass& p : mix->passes) before.push_back(p.run_ms.size());
  const double end = NowUs() + budget_s * 1e6;
  do {
    TierPass* behind = &mix->passes[0];
    for (TierPass& p : mix->passes) {
      if (p.spent_s / p.share < behind->spent_s / behind->share) behind = &p;
    }
    RunTierRequest(mix, behind, rep);
  } while (NowUs() < end);
  tvmcpp::SetExecEngine(ExecEngine::kNative);
  for (size_t i = 0; i < mix->passes.size(); ++i) {
    TierPass& p = mix->passes[i];
    if (p.run_ms.size() == before[i]) continue;
    const auto from = static_cast<std::ptrdiff_t>(before[i]);
    const std::vector<double> run(p.run_ms.begin() + from, p.run_ms.end());
    p.slice_run_p50_ms.push_back(Percentile(run, 0.5));
    p.slice_run_p90_ms.push_back(Percentile(run, 0.9));
    p.slice_request_p50_ms.push_back(Percentile(
        std::vector<double>(p.request_ms.begin() + from, p.request_ms.end()), 0.5));
  }
}

// An end-to-end timing is taken within each slice of the run and summarised by
// the lower decile across slices. On the shared host this benchmark was built on,
// the same code ran up to 1.5x slower for stretches of seconds to minutes,
// depending on the host's other load; a low quantile over slices follows the code
// rather than how much of the run such a stretch covered.
double AcrossSlices(const std::vector<double>& per_slice) {
  return Percentile(per_slice, 0.1);
}

void SetTierMetrics(const TierMix& mix, Report* rep) {
  const auto& p = mix.passes;
  rep->Set("exec.native_p50_ms", AcrossSlices(p[kNativePar].slice_run_p50_ms));
  rep->Set("exec.native_p90_ms", AcrossSlices(p[kNativePar].slice_run_p90_ms));
  rep->Set("exec.vm_p50_ms", AcrossSlices(p[kVmPar].slice_run_p50_ms));
  rep->Set("exec.vm_p90_ms", AcrossSlices(p[kVmPar].slice_run_p90_ms));
  rep->Set("exec.native_scaling", Percentile(p[kNativeSerial].run_ms, 0.5) /
                                      Percentile(p[kNativePar].run_ms, 0.5));
  rep->Set("exec.vm_scaling",
           Percentile(p[kVmSerial].run_ms, 0.5) / Percentile(p[kVmPar].run_ms, 0.5));
}

// Per-layer metrics every workload shares: compile phases from the set-up spans.
void SetCompileMetrics(const Tracer& tr, const Tiers& t, Report* rep) {
  rep->Set("frontend.build_ms", tr.SelfMs("frontend.build").first);
  rep->Set("graph.fuse_ms", tr.SelfMs("graph.FuseOps").first);
  rep->Set("graph.plan_ms", tr.SelfMs("graph.PlanMemory").first);
  const double lower = tr.TotalMs("lower.compile").first;
  const double vm = tr.TotalMs("vm.compile").first;
  rep->Set("lower.compile_ms", lower);
  rep->Set("vm.compile_ms", vm - lower);
  rep->Set("codegen.compile_ms", tr.TotalMs("codegen.compile").first - vm);
  rep->Set("codegen.variants_ms", tr.SelfMs("codegen.variants").first);
  rep->Set("graph.kernels", t.native->num_kernels());
  rep->Set("graph.planned_mb",
           static_cast<double>(t.native->memory_plan().planned_bytes) / (1 << 20));
  auto [rc_ms, rc_n] = tr.TotalMs("runtime.RunContext");
  rep->Set("runtime.runcontext_us", rc_n > 0 ? 1000.0 * rc_ms / rc_n : 0);
}

// Times RunContext construction on its own, over many constructions.
void TimeRunContexts(const std::shared_ptr<graph::CompiledGraph>& model, int n,
                     Tracer* tr) {
  for (int i = 0; i < n; ++i) {
    Span s(tr, "runtime.RunContext");
    graph::RunContext ctx(model);
  }
}

// ---------------------------------------------------------------------------
// resnet18-b1
// ---------------------------------------------------------------------------

void RunResnet(const Args& a, double t_main, Tracer* tr, Report* rep) {
  const int64_t setup_id = tr->NewId();
  Tracer::Current() = setup_id;
  const int64_t fallbacks0 = tvmcpp::vm::FallbackCount();
  const Counters c0 = ReadCounters(nullptr, nullptr);
  tvmcpp::ThreadPool pool(Nproc());
  Tiers t = CompileTiers([] { return frontend::ResNet18(1, 32); }, tr);
  const Counters c1 = ReadCounters(nullptr, nullptr);
  rep->Set("codegen.compiles", static_cast<double>(c1.native_compiles - c0.native_compiles));
  rep->Set("codegen.compile_failures", static_cast<double>(c1.native_compile_failures -
                                                           c0.native_compile_failures));
  std::vector<int64_t> shape = t.native->graph().node(t.native->NodeIdOf(t.input_name)).shape;
  const NDArray input = NDArray::Random(shape, DataType::Float32(), InputSeed(a.seed, 0));

  if (a.record_oracle) {
    tvmcpp::SetExecEngine(ExecEngine::kInterp);
    NDArray out = RunOnce(t.interp, t.input_name, input, {});
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"fnv1a64\": \"%s\"}\n",
                kResnet, a.seed, Hex(Fnv1a(out)).c_str());
    return;
  }

  // Warm-up doubles as the oracle check: VM and native must agree bitwise, and on
  // the seed the stored checksum was recorded for, match the interpreter.
  tvmcpp::vm::ExecOptions par;
  par.num_threads = Nproc();
  par.pool = &pool;
  NDArray ref;
  {
    Span s(tr, "warmup");
    tvmcpp::SetExecEngine(ExecEngine::kVm);
    NDArray vm_out = RunOnce(t.vm, t.input_name, input, par);
    tvmcpp::SetExecEngine(ExecEngine::kNative);
    ref = RunOnce(t.native, t.input_name, input, par);
    rep->Check(SameBytes(ref, vm_out), "resnet18-b1: VM and native outputs differ");
    if (!a.oracle_fnv.empty()) {
      rep->Check(Hex(Fnv1a(ref)) == a.oracle_fnv,
                 "resnet18-b1: output checksum " + Hex(Fnv1a(ref)) +
                     " differs from the interpreter's " + a.oracle_fnv);
    }
  }
  EndSetup(t_main, setup_id, tr, rep);
  if (a.seconds <= 0) return;

  // Closed loop per tier. The native tier at nproc threads is the deployed
  // configuration: its requests are this workload's latency and throughput.
  const double shares[4] = {0.40, 0.40, 0.07, 0.13};
  TierMix mix = MakeTierMix(t, {input}, {ref}, &pool, shares, tr);
  Tracer off(false);
  if (tr->enabled()) {
    // Half the native requests run untraced, for the tracing overhead.
    mix.passes[kNativePar].share /= 2;
    mix.passes.push_back(mix.passes[kNativePar]);
    mix.passes[kNativeParUntraced].tracer = &off;
  }
  // Slices of about four seconds: each holds several requests of every pass.
  const int slices = std::max(2, static_cast<int>(std::lround(a.seconds / 4)));
  for (int k = 0; k < slices; ++k) RunTierSlice(&mix, a.seconds / slices, rep);
  rep->Set("peak_rss_mb", PeakRssMb());
  SetTierMetrics(mix, rep);
  const TierPass& native = mix.passes[kNativePar];
  rep->Set("latency_p50_ms", AcrossSlices(native.slice_request_p50_ms));
  rep->Set("loadgen.latency_p90_ms", Percentile(native.request_ms, 0.9));
  rep->Set("loadgen.latency_p99_ms", Percentile(native.request_ms, 0.99));
  rep->Set("loadgen.throughput_rps",
           static_cast<double>(native.request_ms.size()) / native.spent_s);
  rep->Set("exec.fallbacks", static_cast<double>(tvmcpp::vm::FallbackCount() - fallbacks0));
  if (tr->enabled()) {
    TimeRunContexts(t.native, 20, tr);
    SetCompileMetrics(*tr, t, rep);
    const double on = Percentile(native.request_ms, 0.5);
    const double untraced = Percentile(mix.passes[kNativeParUntraced].request_ms, 0.5);
    rep->Set("trace.overhead_pct", 100.0 * (on - untraced) / untraced);
    rep->Set("trace.unaccounted_pct", tr->UnaccountedPct("tier.request"));
  }
}

// ---------------------------------------------------------------------------
// The served MLP (both serve workloads)
// ---------------------------------------------------------------------------

frontend::Model Mlp(int batch) {
  return frontend::SparseMlp(batch, kMlpIn, kMlpHidden, kMlpClasses, kMlpSparsity);
}

struct MlpServing {
  Tiers tiers;
  std::vector<NDArray> inputs;         // seeded input pool
  std::vector<NDArray> oracle;         // interpreter-tier output per input
  std::vector<uint64_t> oracle_fnv;    // and its checksum, for shm clients
  std::unique_ptr<serve::InferenceServer> server;
};

std::vector<NDArray> MlpInputs(uint64_t seed) {
  std::vector<NDArray> v;
  for (int k = 0; k < kInputPool; ++k) {
    v.push_back(NDArray::Random({1, kMlpIn}, DataType::Float32(), InputSeed(seed, k)));
  }
  return v;
}

// Compiles the MLP on every tier, computes the interpreter oracle, precompiles
// the batch variants 2..max_batch, and starts the native-tier server.
void SetupMlp(const Args& a, Tracer* tr, Report* rep, MlpServing* m) {
  const Counters c0 = ReadCounters(nullptr, nullptr);
  m->tiers = CompileTiers([] { return Mlp(1); }, tr);
  m->inputs = MlpInputs(a.seed);
  {
    Span s(tr, "oracle.interp");
    tvmcpp::SetExecEngine(ExecEngine::kInterp);
    for (const NDArray& in : m->inputs) {
      m->oracle.push_back(RunOnce(m->tiers.interp, m->tiers.input_name, in, {}));
      m->oracle_fnv.push_back(Fnv1a(m->oracle.back()));
    }
    tvmcpp::SetExecEngine(ExecEngine::kNative);
  }
  // Prebuilt so no cc run lands on the request path when a new batch size first
  // forms.
  std::map<int, std::shared_ptr<const graph::CompiledGraph>> variants;
  {
    Span s(tr, "codegen.variants");
    for (int b = 2; b <= kMaxBatch; ++b) {
      variants[b] = frontend::CompileModel(Mlp(b), CpuTarget());
    }
  }
  const Counters c1 = ReadCounters(nullptr, nullptr);
  rep->Set("codegen.compiles", static_cast<double>(c1.native_compiles - c0.native_compiles));
  rep->Set("codegen.compile_failures", static_cast<double>(c1.native_compile_failures -
                                                           c0.native_compile_failures));
  Span s(tr, "serve.start");
  serve::ServerOptions o;
  o.num_workers = kServeWorkers;
  o.queue_capacity = 64;
  o.max_batch = kMaxBatch;
  o.batch_timeout_ms = 0;
  o.default_deadline_ms = 0;
  o.max_retries = 1;
  o.retry_backoff_ms = 0.5;
  o.enable_fallback = 1;
  o.enable_shedding = 0;
  o.adaptive_linger = 0;
  m->server = std::make_unique<serve::InferenceServer>(o);
  m->server->SetBatchBuilder(m->tiers.native, [variants](int b) { return variants.at(b); });
}

// Responses as the serve workloads see them, whichever side measured them.
struct ServeSample {
  double latency_ms = 0;
  double queue_ms = 0;
  double run_ms = 0;
  int batch = 1;
  int retries = 0;
  bool fell_back = false;
};

// A serve run cuts its measured seconds into load segments of about a second. In
// a traced run the odd segments are traced and the even ones give the untraced
// baseline, so both sample the whole window.
int Segments(const Args& a) {
  const int k = std::max(2, static_cast<int>(std::lround(a.seconds)));
  return a.trace ? k + k % 2 : k;
}

double SegmentSeconds(const Args& a) { return a.seconds / Segments(a); }

bool Measured(const Args& a, int segment) { return !a.trace || segment % 2 == 1; }

// Per-segment latency of the measured segments. Traced runs also keep every
// served request, of the measured segments and of the untraced ones, for the
// per-layer metrics. Untraced runs keep none across segments: at 8000 req/s that
// bookkeeping would outgrow the server's own memory and set peak_rss_mb.
struct LoadStats {
  std::vector<ServeSample> measured;
  std::vector<ServeSample> untraced;
  std::vector<double> segment_p50_ms;
  std::vector<double> segment_p90_ms;
  int64_t ok = 0;
  double window_s = 0;

  void AddSegment(const Args& a, int segment, std::vector<ServeSample> seg, int64_t seg_ok,
                  double seg_window_s) {
    if (!Measured(a, segment)) {
      untraced.insert(untraced.end(), seg.begin(), seg.end());
      return;
    }
    std::vector<double> lat;
    for (const ServeSample& s : seg) lat.push_back(s.latency_ms);
    segment_p50_ms.push_back(Percentile(lat, 0.5));
    segment_p90_ms.push_back(Percentile(lat, 0.9));
    if (a.trace) measured.insert(measured.end(), seg.begin(), seg.end());
    ok += seg_ok;
    window_s += seg_window_s;
  }
};

double LatencyP50(const std::vector<ServeSample>& v) {
  std::vector<double> lat;
  for (const ServeSample& s : v) lat.push_back(s.latency_ms);
  return Percentile(lat, 0.5);
}

void SetLoadMetrics(const LoadStats& l, Report* rep) {
  rep->Set("latency_p50_ms", AcrossSlices(l.segment_p50_ms));
  rep->Set("loadgen.latency_p90_ms", AcrossSlices(l.segment_p90_ms));
  rep->Set("loadgen.throughput_rps", static_cast<double>(l.ok) / l.window_s);
  if (l.measured.empty()) return;  // an untraced run
  std::vector<double> latency, queue, run, overhead;
  double batch_sum = 0;
  int64_t retries = 0, fallbacks = 0;
  for (const ServeSample& s : l.measured) {
    latency.push_back(s.latency_ms);
    queue.push_back(s.queue_ms);
    run.push_back(s.run_ms);
    overhead.push_back(s.latency_ms - s.queue_ms - s.run_ms);
    batch_sum += s.batch;
    retries += s.retries;
    fallbacks += s.fell_back ? 1 : 0;
  }
  rep->Set("loadgen.latency_p99_ms", Percentile(latency, 0.99));
  rep->Set("serve.queue_p50_ms", Percentile(queue, 0.5));
  rep->Set("serve.queue_p99_ms", Percentile(queue, 0.99));
  rep->Set("serve.run_p50_ms", Percentile(run, 0.5));
  rep->Set("serve.overhead_p50_ms", Percentile(overhead, 0.5));
  rep->Set("serve.mean_batch", batch_sum / static_cast<double>(l.measured.size()));
  rep->Set("serve.retries", static_cast<double>(retries));
  rep->Set("serve.fallbacks", static_cast<double>(fallbacks));
  if (!l.untraced.empty()) {
    const double off = LatencyP50(l.untraced);
    rep->Set("trace.overhead_pct", 100.0 * (LatencyP50(l.measured) - off) / off);
  }
}

void SetChunkedShare(const Counters& c0, const Counters& c1, Report* rep) {
  const int64_t chunked = c1.chunked_runs - c0.chunked_runs;
  const int64_t serial = c1.serial_runs - c0.serial_runs;
  rep->Set("serve.chunked_share",
           chunked + serial > 0 ? static_cast<double>(chunked) / (chunked + serial) : 0);
}

// ---------------------------------------------------------------------------
// mlp-serve-open: open-loop Poisson arrivals from one generator thread
// ---------------------------------------------------------------------------

struct OpenRecord {
  double due_us = 0;
  double send_us = 0;
  double submitted_us = 0;
  double done_us = 0;  // written by the server's on_complete
  int idx = 0;
  bool correct = false;
  serve::InferenceResponse resp;  // without its outputs
};

// Sends arrivals due in [0, duration_s) at kOpenRateRps. Each request is timed
// from its due time to its on_complete callback, so a stalled generator or a
// backed-up queue shows in the latency of every request it delays.
std::vector<OpenRecord> OpenLoop(MlpServing* m, double duration_s, uint64_t seed) {
  Rng rng{seed};
  std::vector<OpenRecord> recs;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.Uniform()) / kOpenRateRps * 1e6;
    if (t >= duration_s * 1e6) break;
    OpenRecord r;
    r.due_us = t;
    r.idx = static_cast<int>(rng.Next() % kInputPool);
    recs.push_back(std::move(r));
  }
  std::atomic<int64_t> completed{0};
  const double t0 = NowUs() + 2000;
  for (OpenRecord& r : recs) {
    r.due_us += t0;
    // Sleep to just short of the due time, then spin: on a virtual machine a
    // sleeping thread can wake milliseconds late.
    const double ahead_us = r.due_us - NowUs();
    if (ahead_us > 300) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(ahead_us) - 200));
    }
    while (NowUs() < r.due_us) {
    }
    r.send_us = NowUs();
    serve::InferenceRequest req;
    req.inputs[m->tiers.input_name] = m->inputs[static_cast<size_t>(r.idx)];
    req.deadline_ms = 0;
    req.on_complete = [&r, &completed, m](const serve::InferenceResponse& resp) {
      r.done_us = NowUs();
      // Checked here so that no record keeps an output alive: a batched request's
      // output is a view of the whole batch's buffer, and holding those would make
      // peak RSS follow how the requests happened to batch.
      r.correct = resp.status.ok() && !resp.fell_back && !resp.outputs.empty() &&
                  SameBytes(resp.outputs[0], m->oracle[static_cast<size_t>(r.idx)]);
      r.resp = resp;
      r.resp.outputs.clear();
      completed.fetch_add(1, std::memory_order_release);
    };
    // The future is not kept: completion is observed through on_complete, never
    // in submission order.
    m->server->Submit(m->tiers.native, std::move(req));
    r.submitted_us = NowUs();
  }
  const double give_up = NowUs() + 30e6;
  while (completed.load(std::memory_order_acquire) < static_cast<int64_t>(recs.size())) {
    if (NowUs() > give_up) Die("mlp-serve-open: responses missing after 30 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return recs;
}

std::vector<ServeSample> CheckOpen(const std::vector<OpenRecord>& recs, Report* rep) {
  std::vector<ServeSample> out;
  for (const OpenRecord& r : recs) {
    rep->Check(r.correct, "mlp-serve-open: request failed or differs from the oracle (" +
                              std::string(serve::StatusCodeName(r.resp.status.code)) + ")");
    ServeSample s;
    s.latency_ms = (r.done_us - r.due_us) / 1000.0;
    s.queue_ms = r.resp.queue_ms;
    s.run_ms = r.resp.run_ms;
    s.batch = r.resp.batch_size;
    s.retries = r.resp.retries;
    s.fell_back = r.resp.fell_back;
    out.push_back(s);
  }
  return out;
}

// Spans of one served request: the generator's lag and Submit call, plus the
// server-reported queue wait and run placed at the end of the request. What they
// leave uncovered is batching, RunContext allocation and delivery.
void TraceOpen(const std::vector<OpenRecord>& recs, int64_t req_base, Tracer* tr) {
  for (size_t i = 0; i < recs.size(); ++i) {
    const OpenRecord& r = recs[i];
    const int64_t req = req_base + static_cast<int64_t>(i);
    const int64_t root = tr->Add("request", r.due_us, r.done_us, -1, req);
    tr->Add("loadgen.lag", r.due_us, r.send_us, root, req);
    tr->Add("serve.Submit", r.send_us, r.submitted_us, root, req);
    const double run_start = r.done_us - r.resp.run_ms * 1000.0;
    tr->Add("serve.run", run_start, r.done_us, root, req);
    tr->Add("serve.queue", run_start - r.resp.queue_ms * 1000.0, run_start, root, req);
  }
}

void RunServeOpen(const Args& a, double t_main, Tracer* tr, Report* rep) {
  const int64_t setup_id = tr->NewId();
  Tracer::Current() = setup_id;
  const int64_t fallbacks0 = tvmcpp::vm::FallbackCount();
  MlpServing m;
  SetupMlp(a, tr, rep, &m);
  {
    // A short burst at the measured rate warms the workers and every batch size.
    Span s(tr, "warmup");
    CheckOpen(OpenLoop(&m, 0.25, a.seed ^ 0x5eedULL), rep);
  }
  EndSetup(t_main, setup_id, tr, rep);
  if (a.seconds <= 0) return;

  const int segments = Segments(a);
  LoadStats load;
  std::vector<double> lag;
  int64_t req_base = 0;
  const Counters c0 = ReadCounters(m.server.get(), nullptr);
  for (int k = 0; k < segments; ++k) {
    std::vector<OpenRecord> recs = OpenLoop(&m, SegmentSeconds(a), a.seed * 1000 + k + 1);
    int64_t ok = 0;
    double last_done = 0;
    for (const OpenRecord& r : recs) {
      ok += r.resp.status.ok() ? 1 : 0;
      last_done = std::max(last_done, r.done_us);
    }
    if (tr->enabled() && Measured(a, k)) {
      for (const OpenRecord& r : recs) lag.push_back((r.send_us - r.due_us) / 1000.0);
      TraceOpen(recs, req_base, tr);
      req_base += static_cast<int64_t>(recs.size());
    }
    load.AddSegment(a, k, CheckOpen(recs, rep), ok,
                    (last_done - recs.front().due_us) / 1e6);
  }
  const Counters c1 = ReadCounters(m.server.get(), nullptr);
  rep->Set("peak_rss_mb", PeakRssMb());
  SetLoadMetrics(load, rep);
  SetChunkedShare(c0, c1, rep);
  rep->Set("loadgen.lag_p99_ms", Percentile(lag, 0.99));
  rep->Set("exec.fallbacks", static_cast<double>(tvmcpp::vm::FallbackCount() - fallbacks0));
  if (tr->enabled()) {
    TimeRunContexts(m.tiers.native, 500, tr);
    SetCompileMetrics(*tr, m.tiers, rep);
    rep->Set("trace.unaccounted_pct", tr->UnaccountedPct("request"));
  }
  m.server->Shutdown();
}

// ---------------------------------------------------------------------------
// mlp-serve-shm: two forked client processes, closed loop through the arena
// ---------------------------------------------------------------------------

// One client call, written raw to the client's record file.
struct CallRecord {
  double start_us;
  double end_us;
  double queue_ms;
  double run_ms;
  uint64_t fnv;
  int32_t idx;
  int32_t status;
  int32_t batch;
  int32_t retries;
  int32_t fell_back;
  int32_t segment;
};

// Client -> server messages on the report pipe.
struct ClientMsg {
  char tag;  // 'R' attached and warmed up, 'S' segment done, 'D' records written
  double attach_start_us;
  double attach_end_us;
  int64_t warmup_failed;
  int64_t calls;
  int64_t staged_inputs;
};

// Server -> client commands: 'A' attach, 'S' run one load segment, 'E' end and
// write the records, 'Q' quit.
bool ReadExact(int fd, void* buf, size_t n, double timeout_s) {
  char* p = static_cast<char*>(buf);
  const double give_up = NowUs() + timeout_s * 1e6;
  while (n > 0) {
    const double left_ms = (give_up - NowUs()) / 1000.0;
    if (left_ms <= 0) return false;
    struct pollfd pfd = {fd, POLLIN, 0};
    int rc = ::poll(&pfd, 1, static_cast<int>(left_ms) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    ssize_t got = ::read(fd, p, n);
    if (got <= 0) return false;
    p += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

bool WriteExact(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    ssize_t put = ::write(fd, p, n);
    if (put <= 0) return false;
    p += put;
    n -= static_cast<size_t>(put);
  }
  return true;
}

// Client body, run in a child forked before the server process starts any thread.
// Touches only the client API and NDArray. Returns the exit code.
int ShmClientMain(const Args& a, int client, int cmd_fd, int rep_fd,
                  const std::string& arena_name, const std::string& record_path,
                  double segment_s) {
  char cmd = 0;
  if (!ReadExact(cmd_fd, &cmd, 1, 150) || cmd != 'A') return cmd == 'Q' ? 0 : 10;
  ClientMsg msg{};
  msg.tag = 'R';
  msg.attach_start_us = NowUs();
  serve::Status st;
  std::unique_ptr<serve::ShmClient> c = serve::ShmClient::Connect(arena_name, &st, 10000);
  if (c == nullptr) return 11;
  serve::ShmModelMeta meta;
  for (const double give_up = NowUs() + 10e6; !c->GetModelMeta("mlp", &meta);) {
    if (NowUs() > give_up) return 12;
    ::usleep(1000);
  }
  msg.attach_end_us = NowUs();
  const serve::ShmTensorMeta& in = meta.inputs[0];
  std::vector<NDArray> inputs;
  for (int k = 0; k < kInputPool; ++k) {
    NDArray t = c->AllocTensor(in.shape, in.dtype);
    if (!t.defined()) return 13;
    t.CopyFrom(NDArray::Random(in.shape, in.dtype, InputSeed(a.seed, k)));
    inputs.push_back(std::move(t));
  }
  serve::ShmCallOptions opts;
  opts.deadline_ms = 0;
  opts.timeout_ms = 10000;
  Rng rng{a.seed * 31 + static_cast<uint64_t>(client)};
  auto call = [&](int idx, serve::InferenceResponse* resp, uint64_t* fnv) {
    std::vector<NDArray> outs;
    serve::Status s = c->Call("mlp", {{in.name, inputs[static_cast<size_t>(idx)]}}, &outs,
                              opts, resp);
    *fnv = s.ok() && !outs.empty() ? Fnv1a(outs[0]) : 0;
    return s;
  };
  for (int i = 0; i < 32; ++i) {
    serve::InferenceResponse resp;
    uint64_t fnv = 0;
    msg.warmup_failed += call(i % kInputPool, &resp, &fnv).ok() ? 0 : 1;
  }
  if (!WriteExact(rep_fd, &msg, sizeof(msg))) return 14;

  std::vector<CallRecord> recs;
  for (int32_t segment = 0;; ++segment) {
    if (!ReadExact(cmd_fd, &cmd, 1, 150)) return 15;
    if (cmd != 'S') break;
    for (const double end = NowUs() + segment_s * 1e6; NowUs() < end;) {
      CallRecord r{};
      r.idx = static_cast<int32_t>(rng.Next() % kInputPool);
      r.segment = segment;
      serve::InferenceResponse resp;
      r.start_us = NowUs();
      serve::Status s = call(r.idx, &resp, &r.fnv);
      r.end_us = NowUs();
      r.status = static_cast<int32_t>(s.code);
      r.queue_ms = resp.queue_ms;
      r.run_ms = resp.run_ms;
      r.batch = resp.batch_size;
      r.retries = resp.retries;
      r.fell_back = resp.fell_back ? 1 : 0;
      recs.push_back(r);
    }
    msg.tag = 'S';
    if (!WriteExact(rep_fd, &msg, sizeof(msg))) return 16;
  }
  if (cmd != 'E') return 0;
  std::FILE* f = std::fopen(record_path.c_str(), "wb");
  if (f == nullptr) return 17;
  const size_t wrote = std::fwrite(recs.data(), sizeof(CallRecord), recs.size(), f);
  if (std::fclose(f) != 0 || wrote != recs.size()) return 18;
  msg.tag = 'D';
  msg.calls = static_cast<int64_t>(recs.size());
  msg.staged_inputs = c->staged_inputs();
  return WriteExact(rep_fd, &msg, sizeof(msg)) ? 0 : 19;
}

struct ClientProc {
  pid_t pid = -1;
  int cmd_fd = -1;  // server writes commands
  int rep_fd = -1;  // server reads reports
  std::string record_path;
};

// Forks the clients. Must run before anything in this process starts a thread:
// a child forked after a pool exists inherits the pool but none of its threads.
std::vector<ClientProc> ForkClients(const Args& a, const std::string& arena_name,
                                    double segment_s) {
  std::vector<ClientProc> procs;
  const pid_t parent = ::getpid();
  for (int c = 0; c < kShmClients; ++c) {
    int cmd[2], rep[2];
    if (::pipe(cmd) != 0 || ::pipe(rep) != 0) Die("pipe failed");
    ClientProc p;
    p.record_path = a.work_dir + "/client" + std::to_string(c) + ".bin";
    p.pid = ::fork();
    if (p.pid < 0) Die("fork failed");
    if (p.pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) std::_Exit(9);
      ::close(cmd[1]);
      ::close(rep[0]);
      for (const ClientProc& q : procs) {
        ::close(q.cmd_fd);
        ::close(q.rep_fd);
      }
      int code = 20;
      try {
        code = ShmClientMain(a, c, cmd[0], rep[1], arena_name, p.record_path, segment_s);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench client %d: %s\n", c, e.what());
      }
      std::fflush(stderr);
      std::_Exit(code);
    }
    ::close(cmd[0]);
    ::close(rep[1]);
    p.cmd_fd = cmd[1];
    p.rep_fd = rep[0];
    g_cleanup.children.push_back(p.pid);
    procs.push_back(p);
  }
  return procs;
}

void SendAll(const std::vector<ClientProc>& procs, char cmd) {
  for (const ClientProc& p : procs) {
    if (!WriteExact(p.cmd_fd, &cmd, 1)) Die("mlp-serve-shm: a client exited early");
  }
}

ClientMsg Await(const ClientProc& p, char tag, double timeout_s) {
  ClientMsg msg{};
  if (!ReadExact(p.rep_fd, &msg, sizeof(msg), timeout_s) || msg.tag != tag) {
    Die(std::string("mlp-serve-shm: no '") + tag + "' from client pid " +
        std::to_string(p.pid));
  }
  return msg;
}

// Reaps every client, failing the run on a hang or a non-zero exit.
void ReapClients(const std::vector<ClientProc>& procs) {
  const double give_up = NowUs() + 20e6;
  for (const ClientProc& p : procs) {
    int status = 0;
    while (::waitpid(p.pid, &status, WNOHANG) == 0) {
      if (NowUs() > give_up) Die("mlp-serve-shm: client did not exit");
      ::usleep(1000);
    }
    g_cleanup.children.erase(
        std::find(g_cleanup.children.begin(), g_cleanup.children.end(), p.pid));
    ::close(p.cmd_fd);
    ::close(p.rep_fd);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      Die("mlp-serve-shm: client exited with status " + std::to_string(status));
    }
  }
}

std::string ArenaName() { return "/tvmcpp_perfbench_" + std::to_string(::getpid()); }

// `procs` were forked at [fork_start_us, fork_end_us).
void RunServeShm(const Args& a, double t_main, const std::vector<ClientProc>& procs,
                 double fork_start_us, double fork_end_us, Tracer* tr, Report* rep) {
  const std::string arena_name = ArenaName();
  const int segments = Segments(a);
  const int64_t setup_id = tr->NewId();
  tr->Add("shm.fork", fork_start_us, fork_end_us, setup_id);
  Tracer::Current() = setup_id;
  const int64_t fallbacks0 = tvmcpp::vm::FallbackCount();
  MlpServing m;
  SetupMlp(a, tr, rep, &m);
  std::unique_ptr<serve::ShmTransport> transport;
  {
    Span s(tr, "shm.ShmTransport");
    serve::ShmTransport::Options o;
    o.shm_name = arena_name;
    o.arena_bytes = 16u << 20;
    o.ring_slots = 64;
    o.reclaim_after_ms = 1000;
    g_cleanup.shm_name = arena_name;
    transport = std::make_unique<serve::ShmTransport>(m.server.get(), o);
    transport->RegisterModel("mlp", m.tiers.native);
  }
  {
    Span s(tr, "shm.clients_ready");
    SendAll(procs, 'A');
    double attach_ms = 0;
    for (const ClientProc& p : procs) {
      ClientMsg msg = Await(p, 'R', 60);
      rep->Check(msg.warmup_failed == 0, "mlp-serve-shm: warm-up call failed");
      tr->Add("shm.attach", msg.attach_start_us, msg.attach_end_us, s.id(), -1, -1, p.pid);
      attach_ms += (msg.attach_end_us - msg.attach_start_us) / 1000.0;
    }
    rep->Set("shm.attach_ms", attach_ms / kShmClients);
  }
  EndSetup(t_main, setup_id, tr, rep);
  if (a.seconds <= 0) {
    SendAll(procs, 'Q');
    ReapClients(procs);
    transport->Stop();
    m.server->Shutdown();
    return;
  }

  const Counters c0 = ReadCounters(m.server.get(), transport.get());
  for (int k = 0; k < segments; ++k) {
    SendAll(procs, 'S');
    for (const ClientProc& p : procs) Await(p, 'S', SegmentSeconds(a) + 30);
  }
  const Counters c1 = ReadCounters(m.server.get(), transport.get());
  // Before this process reads the clients' records, which are the benchmark's
  // bookkeeping, not the server's.
  rep->Set("peak_rss_mb", PeakRssMb());
  SendAll(procs, 'E');
  int64_t staged = 0;
  for (const ClientProc& p : procs) staged += Await(p, 'D', 30).staged_inputs;
  ReapClients(procs);

  struct Segment {
    std::vector<ServeSample> samples;
    int64_t ok = 0;
    double start_us = 0, end_us = 0;
  };
  std::vector<Segment> segs(static_cast<size_t>(segments));
  std::vector<double> transport_ms;
  int64_t req = 0;
  for (const ClientProc& p : procs) {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(p.record_path, ec);
    std::vector<CallRecord> recs(ec ? 0 : bytes / sizeof(CallRecord));
    std::FILE* f = std::fopen(p.record_path.c_str(), "rb");
    if (f == nullptr || std::fread(recs.data(), sizeof(CallRecord), recs.size(), f) !=
                            recs.size()) {
      Die("mlp-serve-shm: cannot read client records");
    }
    std::fclose(f);
    for (const CallRecord& r : recs) {
      const bool good = r.status == 0 && r.fell_back == 0 &&
                        r.fnv == m.oracle_fnv[static_cast<size_t>(r.idx)];
      rep->Check(good, "mlp-serve-shm: call failed or differs from the oracle (status " +
                           std::to_string(r.status) + ")");
      ServeSample s;
      s.latency_ms = (r.end_us - r.start_us) / 1000.0;
      s.queue_ms = r.queue_ms;
      s.run_ms = r.run_ms;
      s.batch = r.batch;
      s.retries = r.retries;
      s.fell_back = r.fell_back != 0;
      Segment& seg = segs[static_cast<size_t>(r.segment)];
      seg.samples.push_back(s);
      seg.ok += r.status == 0 ? 1 : 0;
      seg.start_us = seg.start_us == 0 ? r.start_us : std::min(seg.start_us, r.start_us);
      seg.end_us = std::max(seg.end_us, r.end_us);
      if (!Measured(a, r.segment)) continue;
      transport_ms.push_back(s.latency_ms - s.queue_ms - s.run_ms);
      if (tr->enabled()) {
        // The client's Call, with the server-reported queue wait and run placed at
        // its end; what they leave uncovered is the transport.
        const int64_t root = tr->Add("request", r.start_us, r.end_us, -1, req, -1, p.pid);
        const double run_start = r.end_us - r.run_ms * 1000.0;
        tr->Add("serve.run", run_start, r.end_us, root, req, -1, p.pid);
        tr->Add("serve.queue", run_start - r.queue_ms * 1000.0, run_start, root, req, -1,
                p.pid);
      }
      ++req;
    }
  }
  LoadStats load;
  for (int k = 0; k < segments; ++k) {
    Segment& seg = segs[static_cast<size_t>(k)];
    if (seg.samples.empty()) Die("mlp-serve-shm: a load segment made no calls");
    load.AddSegment(a, k, std::move(seg.samples), seg.ok, (seg.end_us - seg.start_us) / 1e6);
  }
  SetLoadMetrics(load, rep);
  SetChunkedShare(c0, c1, rep);
  rep->Set("exec.fallbacks", static_cast<double>(tvmcpp::vm::FallbackCount() - fallbacks0));
  rep->Set("shm.transport_p50_ms", Percentile(transport_ms, 0.5));
  rep->Set("shm.copied_outputs", static_cast<double>(c1.copied_outputs - c0.copied_outputs));
  rep->Set("shm.staged_inputs", static_cast<double>(staged));
  if (tr->enabled()) {
    TimeRunContexts(m.tiers.native, 500, tr);
    SetCompileMetrics(*tr, m.tiers, rep);
    rep->Set("trace.unaccounted_pct", tr->UnaccountedPct("request"));
  }
  transport->Stop();
  m.server->Shutdown();
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--work-dir") {
      a.work_dir = value();
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else if (k == "--oracle-fnv") {
      a.oracle_fnv = value();
    } else if (k == "--record-oracle") {
      a.record_oracle = true;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.workload != kResnet && a.workload != kServeOpen && a.workload != kServeShm) {
    Die("unknown workload '" + a.workload + "'");
  }
  if (a.work_dir.empty()) Die("--work-dir is required");
  return a;
}

void PrintResult(const Args& a, const Report& rep) {
  std::printf("{\"host\": {\"nproc\": %d, \"cxx\": \"%s %s\", \"build_type\": \"%s\", "
              "\"cxx_flags\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64 "}}\n",
              Nproc(), PERFBENCH_CXX_ID, PERFBENCH_CXX_VERSION, PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS, a.workload.c_str(), a.seed);
  std::string metrics;
  auto add = [&](const MetricDef& d) {
    auto it = rep.values.find(d.name);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name,
                  it == rep.values.end() ? 0.0 : it->second, d.unit);
    metrics += buf;
  };
  if (a.seconds <= 0) {
    add(kEndToEnd[0]);  // set-up only
  } else if (a.trace) {
    for (const MetricDef& d : kPerLayer) add(d);
  } else {
    for (const MetricDef& d : kEndToEnd) add(d);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {%s}}\n",
              rep.failed == 0 ? "true" : "false", rep.attempted, rep.failed,
              metrics.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const double t_main = NowUs();
  const Args a = ParseArgs(argc, argv);
  PinEnvironment(a.work_dir);
  ::signal(SIGPIPE, SIG_IGN);
  Tracer tracer(a.trace);
  Report rep;
  std::vector<ClientProc> clients;
  const double fork_start = NowUs();
  if (a.workload == kServeShm) clients = ForkClients(a, ArenaName(), SegmentSeconds(a));
  const double fork_end = NowUs();
  try {
    if (a.workload == kResnet) {
      RunResnet(a, t_main, &tracer, &rep);
    } else if (a.workload == kServeOpen) {
      RunServeOpen(a, t_main, &tracer, &rep);
    } else {
      RunServeShm(a, t_main, clients, fork_start, fork_end, &tracer, &rep);
    }
  } catch (const std::exception& e) {
    Die(a.workload + ": " + e.what());
  }
  if (a.record_oracle) {
    RemoveLeftovers();
    return 0;
  }
  rep.Set("failed_ratio", rep.attempted > 0 ? static_cast<double>(rep.failed) / rep.attempted
                                            : 0);
  if (tracer.enabled()) {
    rep.Set("trace.setup_unaccounted_pct", tracer.UnaccountedPct("setup"));
    if (!a.trace_out.empty() && !tracer.WriteChromeJson(a.trace_out)) {
      Die("cannot write " + a.trace_out);
    }
  }
  for (const std::string& e : rep.errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  PrintResult(a, rep);
  RemoveLeftovers();
  return rep.failed == 0 && rep.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
