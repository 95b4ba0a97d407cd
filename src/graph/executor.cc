#include "src/graph/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/autotune/cache.h"
#include "src/ir/printer.h"
#include "src/sim/machine.h"
#include "src/support/failpoint.h"

namespace tvmcpp {

namespace {

// Atomic so concurrent serving threads reading the engine while a test or tool flips
// it (SetExecEngine) stay race-free; each Run() call observes one coherent value.
std::atomic<ExecEngine>& EngineSlot() {
  static std::atomic<ExecEngine> engine = [] {
    const char* s = std::getenv("TVMCPP_ENGINE");
    if (s != nullptr && std::string(s) == "interp") {
      return ExecEngine::kInterp;
    }
    if (s != nullptr && std::string(s) == "native") {
      return ExecEngine::kNative;
    }
    return ExecEngine::kVm;
  }();
  return engine;
}

}  // namespace

void SetExecEngine(ExecEngine engine) {
  EngineSlot().store(engine, std::memory_order_relaxed);
}
ExecEngine GetExecEngine() { return EngineSlot().load(std::memory_order_relaxed); }

namespace graph {
namespace {

// Compiles the tiers `engine` will try for each of `fns`: a bytecode program unless
// the engine is interp — under native it is the first fallback tier, so it is
// compiled eagerly rather than on the first native miss — plus, under native, every
// function emitted into one C translation unit and built as a single .so (one
// compiler invocation, one dlopen'd module kept alive by every kernel's shared_ptr).
// Functions with the same CodeKey share one program.
void CompileTiers(ExecEngine engine, const std::vector<TieredFunc*>& fns) {
  if (engine == ExecEngine::kInterp) {
    return;
  }
  std::vector<const LoweredFunc*> funcs;
  funcs.reserve(fns.size());
  std::unordered_map<std::string, std::shared_ptr<const vm::Program>> programs;
  for (TieredFunc* f : fns) {
    auto [it, fresh] = programs.emplace(CodeKey(f->func), nullptr);
    if (fresh) {
      it->second = vm::CompileToProgram(f->func);
    }
    f->program = it->second;
    funcs.push_back(&f->func);
  }
  if (engine == ExecEngine::kNative) {
    std::vector<codegen::NativeKernel> native = codegen::CompileNativeKernels(funcs);
    for (size_t i = 0; i < fns.size() && i < native.size(); ++i) {
      fns[i]->native = native[i];
    }
  }
}

// Runs `f` on the highest tier `engine` allows that compiled it. Each tier it has
// to fall past is a silent downgrade, so it is counted (fatal under
// TVMCPP_VM_STRICT=1) before the next tier runs.
void RunTiers(ExecEngine engine, const TieredFunc& f, const std::vector<BufferBinding>& args,
              const vm::ExecOptions& exec) {
  if (exec.force_interp) {
    // Explicit down-tier (the serving layer's fault-fallback ladder): run the
    // reference interpreter deliberately. Not a silent downgrade, so it is not
    // counted by FallbackCount and does not trip TVMCPP_VM_STRICT.
    RunLoweredInterp(f.func, args);
    return;
  }
  if (engine == ExecEngine::kNative) {
    if (f.native) {
      codegen::RunNativeKernel(f.native, args, exec);
      return;
    }
    vm::NoteFallback(f.func.name);
  }
  if (engine != ExecEngine::kInterp) {
    if (f.program != nullptr) {
      vm::Run(*f.program, args, exec);
      return;
    }
    vm::NoteFallback(f.func.name);
  }
  RunLoweredInterp(f.func, args);
}

}  // namespace

// The identity of a function's compiled code: its signature and body printed with
// positional variable names, the buffer arguments named first in argument order (the
// VM binds buffers by position). Like the native symbol (a hash of C text that names
// arguments a0..aN by position), it is equal for kernels that differ only in the
// names of their graph nodes, and differs for kernels that bind the same-shaped
// arguments to different roles.
std::string CodeKey(const LoweredFunc& f) {
  std::ostringstream os;
  std::vector<Var> params;
  params.reserve(f.args.size());
  for (const BufferArg& a : f.args) {
    params.push_back(a.var);
    os << a.dtype;
    for (int64_t d : a.shape) {
      os << ' ' << d;
    }
    os << ';';
  }
  os << '\n' << ToPositionalString(params, f.body);
  return os.str();
}

CompiledGraph::CompiledGraph(Graph g, Target target, CompileOptions options)
    : graph_(std::move(g)), target_(std::move(target)), options_(options) {
  for (const Node& n : graph_.nodes()) {
    name_to_node_[n.name] = n.id;
  }
  Compile();
}

int CompiledGraph::NodeIdOf(const std::string& name) const {
  auto it = name_to_node_.find(name);
  CHECK(it != name_to_node_.end()) << "no node named " << name;
  return it->second;
}

topi::OpWorkload CompiledGraph::WorkloadOf(const Node& master) const {
  topi::OpWorkload wl;
  wl.kind = master.op;
  const Node& data = graph_.node(master.inputs[0]);
  if (master.op == "dense") {
    wl.n = static_cast<int>(data.shape[0]);
    wl.k = static_cast<int>(data.shape[1]);
    wl.oc = static_cast<int>(master.shape[1]);
    return wl;
  }
  if (master.op == "sparse_dense") {
    wl.n = static_cast<int>(data.shape[0]);
    wl.k = static_cast<int>(data.shape[1]);
    wl.oc = static_cast<int>(master.shape[1]);
    wl.nnz = master.attrs.count("nnz") ? master.attrs.at("nnz") : 0;
    wl.max_row_nnz =
        master.attrs.count("max_row_nnz") ? master.attrs.at("max_row_nnz") : 0;
    return wl;
  }
  const Node& kernel = graph_.node(master.inputs[1]);
  wl.n = static_cast<int>(data.shape[0]);
  wl.ic = static_cast<int>(data.shape[1]);
  wl.h = static_cast<int>(data.shape[2]);
  wl.w = static_cast<int>(data.shape[3]);
  wl.oc = static_cast<int>(master.shape[1]);
  wl.k = static_cast<int>(kernel.shape[2]);
  if (master.op == "conv2d" && kernel.shape.size() == 5) {
    wl.oc_block = static_cast<int>(kernel.shape[4]);
  }
  wl.stride = static_cast<int>(master.attrs.count("stride") ? master.attrs.at("stride") : 1);
  wl.pad = static_cast<int>(master.attrs.count("pad") ? master.attrs.at("pad") : 0);
  return wl;
}

void CompiledGraph::Compile() {
  groups_ = FuseOps(graph_, options_.enable_fusion);
  plan_ = PlanMemory(graph_, groups_);

  for (const FusedGroup& grp : groups_) {
    std::unordered_set<int> in_group(grp.nodes.begin(), grp.nodes.end());
    // External inputs of the group, in first-use order.
    std::vector<int> externals;
    auto add_external = [&](int id) {
      if (std::find(externals.begin(), externals.end(), id) == externals.end()) {
        externals.push_back(id);
      }
    };
    for (int id : grp.nodes) {
      for (int in : graph_.node(id).inputs) {
        if (!in_group.count(in)) {
          add_external(in);
        }
      }
    }
    // Build te tensors for the group.
    std::unordered_map<int, Tensor> tensor_of;
    std::vector<Tensor> arg_tensors;
    for (int id : externals) {
      const Node& n = graph_.node(id);
      std::vector<Expr> shape;
      for (int64_t d : n.shape) {
        shape.push_back(make_int(d));
      }
      Tensor t = placeholder(shape, n.dtype, n.name);
      tensor_of[id] = t;
      arg_tensors.push_back(t);
    }
    Tensor master_tensor;
    for (int id : grp.nodes) {
      const Node& n = graph_.node(id);
      std::vector<Tensor> ins;
      for (int in : n.inputs) {
        ins.push_back(tensor_of.at(in));
      }
      Tensor t = GetOpInfo(n.op).build(ins, n.attrs, n.name);
      tensor_of[id] = t;
      if (id == grp.master) {
        master_tensor = t;
      }
    }
    Tensor output = tensor_of.at(grp.nodes.back());

    // Pick the schedule config.
    topi::Config config;
    const topi::OpWorkload* wl_ptr = nullptr;
    topi::OpWorkload wl;
    if (grp.master >= 0) {
      const Node& mnode = graph_.node(grp.master);
      if (mnode.op == "conv2d" || mnode.op == "depthwise_conv2d" || mnode.op == "dense" ||
          mnode.op == "sparse_dense" || mnode.op == "conv2d_transpose") {
        wl = WorkloadOf(mnode);
        wl_ptr = &wl;
        workloads_.push_back(wl);
        topi::ConfigSpace space = topi::GetScheduleSpace(wl, target_);
        // Config precedence, lowest to highest: untuned default < inherited
        // (Rebatched's base-model choices) < persistent tuning cache < explicit
        // `tuned`. Every source instantiates the same template with different
        // knob values — CPU templates never split reduction axes or reorder them
        // among themselves, so the choice changes performance, never results.
        config = topi::DefaultConfig(space);
        bool from_cache = false;
        if (options_.inherited != nullptr) {
          auto it = options_.inherited->find(wl.Key());
          if (it != options_.inherited->end()) {
            config = it->second;
          }
        }
        if (options_.use_tuning_cache) {
          autotune::TuningCacheEntry entry;
          if (autotune::GlobalTuningCache().Lookup(autotune::TuningKey(wl, target_),
                                                   &entry)) {
            topi::Config validated;
            if (autotune::ApplyCachedConfig(space, entry.config, &validated)) {
              config = std::move(validated);
              from_cache = true;
            } else {
              LOG(WARNING) << "tuning-cache entry for " << wl.Key()
                           << " no longer fits the schedule space; using untuned"
                              " fallback";
            }
          }
        }
        if (options_.tuned != nullptr) {
          auto it = options_.tuned->find(wl.Key());
          if (it != options_.tuned->end()) {
            config = it->second;
            from_cache = false;
          }
        }
        if (from_cache) {
          ++cache_tuned_kernels_;
        }
        // Remembered for Rebatched(): batched variants must inherit these exact
        // configs rather than re-derive defaults from the batched workload, so the
        // per-row schedule (and thus per-element FP order and performance) is
        // unchanged by batching.
        chosen_configs_[wl.Key()] = config;
      }
    }
    Schedule sch = topi::ScheduleFusedGroup(target_, {output},
                                            master_tensor.defined() ? master_tensor
                                                                    : Tensor(),
                                            config, wl_ptr);
    std::vector<Tensor> args = arg_tensors;
    args.push_back(output);
    Kernel k;
    k.func = Lower(sch, args, "fused_" + graph_.node(grp.nodes.back()).name);
    k.input_nodes = externals;
    k.output_node = grp.nodes.back();
    kernels_.push_back(std::move(k));
  }

  // Compiled once, reused by every Run().
  std::vector<TieredFunc*> fns;
  fns.reserve(kernels_.size());
  for (Kernel& k : kernels_) {
    fns.push_back(&k);
  }
  CompileTiers(GetExecEngine(), fns);
}

void CompiledGraph::AllocateBuffers(std::unordered_map<int, NDArray>* values) const {
  // One buffer per materialized node, sharing byte storage between nodes the memory
  // plan assigned to the same storage token (their live ranges are disjoint, so
  // intermediates reuse buffers instead of each getting a fresh allocation). Tokens
  // are request-local: concurrent requests never share writable storage.
  std::unordered_map<int, NDArray> token_storage;
  for (const FusedGroup& grp : groups_) {
    const Node& out = graph_.node(grp.nodes.back());
    int sid = plan_.storage_id[static_cast<size_t>(out.id)];
    if (sid < 0) {
      (*values)[out.id] = NDArray::Empty(out.shape, out.dtype);
      continue;
    }
    NDArray& storage = token_storage[sid];
    if (!storage.defined()) {
      storage = NDArray::Empty({plan_.storage_bytes[static_cast<size_t>(sid)]},
                               DataType::Int8());
    }
    (*values)[out.id] = NDArray::ShareStorage(storage, out.shape, out.dtype);
  }
}

void CompiledGraph::SetParam(const std::string& name, const NDArray& value) {
  params_[NodeIdOf(name)] = value;
}

std::shared_ptr<CompiledGraph> CompiledGraph::Rebatched(int factor) const {
  // The batched variant inherits this model's schedule configs, remapped to the
  // batched workload keys (batch-1 tile choices stay valid: their divisors divide
  // the scaled n too). Re-deriving DefaultConfig from the batched workload would
  // pick different tilings — e.g. dense tile_y > 1 — changing per-row code for no
  // benefit and costing per-row performance in the small-kernel regime batching
  // exists to amortize. The remap rides in `inherited`, not `tuned`: the compile
  // consults the persistent tuning cache *above* it, so a batch-N workload the
  // fleet has tuned gets its own schedule instead of the batch-1 hand-me-down.
  TunedConfigs inherited;
  for (const topi::OpWorkload& wl : workloads_) {
    auto it = chosen_configs_.find(wl.Key());
    if (it != chosen_configs_.end()) {
      topi::OpWorkload batched_wl = wl;
      batched_wl.n *= factor;
      inherited[batched_wl.Key()] = it->second;
    }
  }
  CompileOptions options = options_;
  options.tuned = nullptr;  // explicit configs were keyed for this batch, not N
  options.inherited = &inherited;
  auto batched = std::make_shared<CompiledGraph>(RebatchGraph(graph_, factor),
                                                 target_, options);
  // `inherited` is only read during Compile() (in the constructor above); null
  // the pointer so the stored options never dangle into this stack frame.
  batched->options_.inherited = nullptr;
  // RebatchGraph preserves node ids, so the id-keyed weight bindings transfer
  // directly; the NDArrays themselves are shared (read-only at run time).
  batched->params_ = params_;
  return batched;
}

void CompiledGraph::Run(RunContext* ctx, const vm::ExecOptions& exec) const {
  CHECK(ctx != nullptr && ctx->compiled_.get() == this)
      << "RunContext belongs to a different CompiledGraph";
  auto buffer_of = [&](int id) -> const NDArray& {
    auto it = ctx->values_.find(id);
    if (it != ctx->values_.end()) {
      return it->second;  // per-request inputs and intermediates win over params
    }
    auto pit = params_.find(id);
    CHECK(pit != params_.end()) << "unbound graph buffer " << graph_.node(id).name;
    return pit->second;
  };
  // One coherent engine choice for the whole request, even if a test flips the
  // process-wide slot mid-run.
  const ExecEngine engine = GetExecEngine();
  size_t ki = 0;
  for (const Kernel& k : kernels_) {
    if (ki++ > 0) {
      // Mid-run cancellation seam: a request popped just before its deadline must
      // not run the remaining kernels to completion once the budget is gone. The
      // failpoint sits before the check so fault tests can delay here and observe
      // the cancellation fire.
      FAILPOINT("graph.kernel");
      if (exec.deadline != std::chrono::steady_clock::time_point::max() &&
          std::chrono::steady_clock::now() >= exec.deadline) {
        throw DeadlineExceededError("deadline exceeded before kernel " + k.func.name);
      }
    }
    std::vector<BufferBinding> bindings;
    for (int id : k.input_nodes) {
      bindings.push_back(buffer_of(id).Binding());
    }
    bindings.push_back(buffer_of(k.output_node).Binding());
    RunTiers(engine, k, bindings, exec);
  }
}

int CompiledGraph::num_programs() const {
  std::unordered_set<const vm::Program*> distinct;
  for (const Kernel& k : kernels_) {
    if (k.program != nullptr) {
      distinct.insert(k.program.get());
    }
  }
  return static_cast<int>(distinct.size());
}

double CompiledGraph::EstimateSeconds() const {
  double total = 0;
  for (const Kernel& k : kernels_) {
    total += EstimateCost(target_, k.func).seconds;
  }
  return total;
}

std::vector<std::pair<std::string, double>> CompiledGraph::KernelCosts() const {
  std::vector<std::pair<std::string, double>> out;
  for (const Kernel& k : kernels_) {
    out.emplace_back(k.func.name, EstimateCost(target_, k.func).seconds);
  }
  return out;
}

RunContext::RunContext(std::shared_ptr<const CompiledGraph> compiled)
    : compiled_(std::move(compiled)) {
  CHECK(compiled_ != nullptr) << "RunContext over a null CompiledGraph";
  compiled_->AllocateBuffers(&values_);
}

void RunContext::SetInput(const std::string& name, const NDArray& value) {
  values_[compiled_->NodeIdOf(name)] = value;
}

NDArray RunContext::GetOutput(int index) const {
  return values_.at(compiled_->graph().outputs[static_cast<size_t>(index)]);
}

void RunContext::BindOutput(int index, const NDArray& buffer) {
  const std::vector<int>& outputs = compiled_->graph().outputs;
  CHECK(index >= 0 && static_cast<size_t>(index) < outputs.size())
      << "BindOutput index " << index << " out of range";
  const Node& node = compiled_->graph().node(outputs[static_cast<size_t>(index)]);
  CHECK(buffer.shape() == node.shape && buffer.dtype() == node.dtype)
      << "BindOutput buffer shape/dtype mismatch for output " << index << " (" << node.name
      << ")";
  values_[outputs[static_cast<size_t>(index)]] = buffer;
}

}  // namespace graph

void RunLowered(const LoweredFunc& func, const std::vector<BufferBinding>& args) {
  CHECK_EQ(args.size(), func.args.size()) << "argument count mismatch for " << func.name;
  const ExecEngine engine = GetExecEngine();
  graph::TieredFunc f;
  f.func = func;
  graph::CompileTiers(engine, {&f});
  graph::RunTiers(engine, f, args, {});
}

}  // namespace tvmcpp
