// Graph executor (Section 2's runtime module): compiles a computational graph into fused
// kernels for a target and runs them on the selected execution engine.
//
// This layer is the single owner of engine choice: ExecEngine / TVMCPP_ENGINE, the
// per-kernel tier compile (VM program, batched native module) and the down-tier
// ladder native -> VM -> interpreter live here, shared by CompiledGraph::Run and the
// single-function RunLowered. The engines below (src/vm, src/codegen, src/interp)
// only execute what they are handed.
//
// The execution path is split for concurrent serving (src/serve):
//   - CompiledGraph: the immutable product of graph compilation — fused groups, memory
//     plan, lowered funcs, and each kernel's compiled tiers. Shared read-only by any
//     number of in-flight requests; Run() is const and reentrant.
//   - RunContext: the cheap per-request state — input/output/intermediate buffers laid
//     out per the memory plan. One per logically-concurrent request.
//   - GraphExecutor: the original single-request convenience facade, now a thin
//     CompiledGraph + RunContext pair with the same API as before the split.
#ifndef SRC_GRAPH_EXECUTOR_H_
#define SRC_GRAPH_EXECUTOR_H_

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/codegen/native.h"
#include "src/graph/graph.h"
#include "src/interp/interp.h"
#include "src/lower/lower.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/vm/vm.h"

namespace tvmcpp {

// Which engine runs compiled kernels. The bytecode VM (src/vm) is the default; the
// tree-walking interpreter (src/interp) is the reference semantics and the last
// fallback tier; kNative (src/codegen) is the AOT tier-2 backend. Higher tiers fall
// down-tier per kernel (native -> VM -> interp) when they cannot compile it; each such
// silent downgrade is counted by vm::FallbackCount and fatal under TVMCPP_VM_STRICT=1.
// Initialized from env TVMCPP_ENGINE=vm|interp|native. The slot is atomic:
// concurrent serving threads may read it while a test flips it, and each Run observes
// one coherent value (see src/vm/README.md, "Concurrency").
enum class ExecEngine { kVm, kInterp, kNative };
void SetExecEngine(ExecEngine engine);
ExecEngine GetExecEngine();

// Executes `func` with `args` bound positionally to func.args on the selected engine:
// compiles it the way CompiledGraph compiles one kernel, then runs it through the same
// down-tier ladder. Nothing is memoized: a repeat call re-emits and recompiles (the
// native tier's content-addressed module registry makes that a map lookup, not a
// compiler run), so callers that run a function many times should build a
// CompiledGraph instead.
void RunLowered(const LoweredFunc& func, const std::vector<BufferBinding>& args);

namespace graph {

// Per-operator tuned configs, keyed by OpWorkload::Key().
using TunedConfigs = std::unordered_map<std::string, topi::Config>;

struct CompileOptions {
  bool enable_fusion = true;  // graph-level operator fusion (Section 3)
  // Explicit per-workload configs; wins over every other config source.
  const TunedConfigs* tuned = nullptr;
  // Consult the process-wide persistent tuning cache (autotune::GlobalTuningCache,
  // loaded from TVMCPP_TUNE_CACHE) for each master workload at lowering time.
  // The lookup key includes the workload's batch dimension, so a Rebatched()
  // variant's batch-N kernels find their own tuned schedules when the fleet has
  // tuned them. Misses (or entries that no longer fit the schedule space) fall
  // back to `inherited`, then to the untuned default config.
  bool use_tuning_cache = true;
  // Fallback configs consulted *below* the tuning cache: Rebatched() passes the
  // base model's chosen configs remapped to batch-N keys here, so batch variants
  // keep the base schedules unless the cache knows something batch-specific.
  const TunedConfigs* inherited = nullptr;
};

// One lowered function with the tiers compiled for it once, before any run: the
// bytecode program unless the engine is interp (under native it is the first
// fallback tier), plus the AOT kernel under native. Either is empty when that tier
// cannot compile the function, and the run ladder falls past it.
struct TieredFunc {
  LoweredFunc func;
  std::shared_ptr<const vm::Program> program;
  codegen::NativeKernel native;
};

// The identity of a function's compiled code; functions with equal keys share one
// bytecode program. See executor.cc.
std::string CodeKey(const LoweredFunc& f);

class CompiledGraph;

// Thrown by CompiledGraph::Run when vm::ExecOptions::deadline passes between kernel
// invocations: a request popped just before its deadline stops after the current
// kernel instead of running the remaining graph to completion. The serving layer
// maps it to StatusCode::kDeadlineExceeded (no retry — the budget is already gone).
class DeadlineExceededError : public std::runtime_error {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : std::runtime_error(what) {}
};

// Per-request mutable state: one buffer per materialized node, with intermediates
// sharing storage tokens per the memory plan. Construction is cheap relative to
// compilation (a handful of allocations); N concurrent requests hold N RunContexts
// against one shared CompiledGraph.
class RunContext {
 public:
  explicit RunContext(std::shared_ptr<const CompiledGraph> compiled);

  void SetInput(const std::string& name, const NDArray& value);
  NDArray GetOutput(int index) const;
  // Replaces graph output `index`'s buffer with caller-owned storage (e.g. a
  // shared-memory slab), so Run() writes that output directly there instead of
  // into the memory plan's token — the zero-copy response half of the shm
  // transport. Must be called before Run(); shape and dtype must match the
  // output node exactly. Safe even when the output node's plan token is shared:
  // rebinding redirects only this node's buffer, other tensors keep their own
  // views of the token.
  void BindOutput(int index, const NDArray& buffer);
  const CompiledGraph& compiled() const { return *compiled_; }

 private:
  friend class CompiledGraph;
  std::shared_ptr<const CompiledGraph> compiled_;
  std::unordered_map<int, NDArray> values_;  // node id -> buffer
};

// The immutable compiled form of a graph: safe to share across threads. Parameters
// (weights) bound via SetParam before serving starts are shared by every RunContext;
// SetParam itself is not synchronized against concurrent Run() calls.
class CompiledGraph {
 public:
  CompiledGraph(Graph g, Target target, CompileOptions options = {});

  // Binds a weight shared by all requests. Call before concurrent Run()s begin.
  void SetParam(const std::string& name, const NDArray& value);

  // Executes all kernels against the request's buffers: each fused kernel runs on the
  // highest tier GetExecEngine() allows that compiled it at construction time (native,
  // then VM, then the reference interpreter). Const and reentrant: any number of
  // Run()s on distinct RunContexts may be in flight; `exec` selects the worker pool /
  // thread count for intra-kernel kParallel chunking.
  void Run(RunContext* ctx, const vm::ExecOptions& exec = {}) const;

  // Compiles a batched variant of this graph: every `input` node's leading (batch)
  // dimension is scaled by `factor` (RebatchGraph) and the result is compiled for the
  // same target/options, sharing this model's parameter NDArrays (weights are
  // batch-invariant). Used by the serving layer's dynamic batching to run N coalesced
  // requests as one kernel invocation; the per-request FP operation order is
  // unchanged (CPU schedules never split reduction axes or reorder them among
  // themselves, whatever the batch), so per-slice results stay bitwise-identical
  // to batch-1 runs.
  std::shared_ptr<CompiledGraph> Rebatched(int factor) const;

  // Sum of per-kernel machine-model costs: the end-to-end latency estimate.
  double EstimateSeconds() const;
  // Per-kernel breakdown (kernel name, seconds).
  std::vector<std::pair<std::string, double>> KernelCosts() const;

  int num_kernels() const { return static_cast<int>(kernels_.size()); }
  // Distinct bytecode programs behind the kernels: kernels whose lowered functions
  // differ only in variable names share one.
  int num_programs() const;
  const MemoryPlan& memory_plan() const { return plan_; }
  const Graph& graph() const { return graph_; }
  // The master workloads encountered (for tuning ahead of compilation).
  const std::vector<topi::OpWorkload>& workloads() const { return workloads_; }
  // Schedule config actually used per workload key (explicit, cached, inherited,
  // or default), for tests and for Rebatched() inheritance.
  const TunedConfigs& chosen_configs() const { return chosen_configs_; }
  // Kernels whose schedule came from the persistent tuning cache (as opposed to
  // an explicit `tuned` entry, an inherited config, or the untuned default).
  int num_cache_tuned_kernels() const { return cache_tuned_kernels_; }
  int NodeIdOf(const std::string& name) const;

 private:
  friend class RunContext;

  struct Kernel : TieredFunc {
    std::vector<int> input_nodes;  // graph node ids bound to func args (last = output)
    int output_node = -1;
  };

  void Compile();
  topi::OpWorkload WorkloadOf(const Node& master) const;
  // Allocates the per-request buffers for all materialized nodes, sharing byte
  // storage between nodes assigned to the same memory-plan token.
  void AllocateBuffers(std::unordered_map<int, NDArray>* values) const;

  Graph graph_;
  Target target_;
  CompileOptions options_;
  std::vector<FusedGroup> groups_;
  MemoryPlan plan_;
  std::vector<Kernel> kernels_;
  std::vector<topi::OpWorkload> workloads_;
  // Schedule config actually used per workload key (tuned or default) — inherited
  // verbatim by Rebatched() variants so batching never changes per-row schedules
  // unless the tuning cache holds a batch-specific entry.
  TunedConfigs chosen_configs_;
  int cache_tuned_kernels_ = 0;
  std::unordered_map<int, NDArray> params_;  // weights shared by all RunContexts
  std::unordered_map<std::string, int> name_to_node_;
};

// Single-request facade over a private CompiledGraph + RunContext, preserving the
// pre-split API. Tests, benches, and examples that run one request at a time use
// this; the serving layer shares the CompiledGraph across many RunContexts instead.
class GraphExecutor {
 public:
  GraphExecutor(Graph g, Target target, CompileOptions options = {})
      : compiled_(std::make_shared<CompiledGraph>(std::move(g), std::move(target),
                                                  options)),
        ctx_(compiled_) {}

  void SetInput(const std::string& name, const NDArray& value) {
    ctx_.SetInput(name, value);
  }
  // Binds a weight on the shared CompiledGraph (not this facade's RunContext), so a
  // compiled() handle later given to serve::InferenceServer carries the params. For
  // this facade's own Run() the lookup order (context first, params second) makes
  // the two destinations indistinguishable.
  void SetParam(const std::string& name, const NDArray& value) {
    compiled_->SetParam(name, value);
  }
  void Run() { compiled_->Run(&ctx_); }
  NDArray GetOutput(int index) const { return ctx_.GetOutput(index); }

  double EstimateSeconds() const { return compiled_->EstimateSeconds(); }
  std::vector<std::pair<std::string, double>> KernelCosts() const {
    return compiled_->KernelCosts();
  }

  int num_kernels() const { return compiled_->num_kernels(); }
  const MemoryPlan& memory_plan() const { return compiled_->memory_plan(); }
  const Graph& graph() const { return compiled_->graph(); }
  const std::vector<topi::OpWorkload>& workloads() const {
    return compiled_->workloads();
  }
  // The shared compiled form, e.g. to hand to serve::InferenceServer.
  std::shared_ptr<const CompiledGraph> compiled() const { return compiled_; }

 private:
  std::shared_ptr<CompiledGraph> compiled_;
  RunContext ctx_;
};

}  // namespace graph
}  // namespace tvmcpp

#endif  // SRC_GRAPH_EXECUTOR_H_
