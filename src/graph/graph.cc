#include "src/graph/graph.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/graph/executor.h"
#include "src/interp/interp.h"
#include "src/ir/simplify.h"
#include "src/topi/nn.h"
#include "src/topi/sparse.h"

namespace tvmcpp {
namespace graph {

namespace {

int64_t AttrOr(const Attrs& a, const std::string& k, int64_t fallback) {
  auto it = a.find(k);
  return it == a.end() ? fallback : it->second;
}

std::unordered_map<std::string, OpInfo> BuildRegistry() {
  using Shapes = std::vector<std::vector<int64_t>>;
  std::unordered_map<std::string, OpInfo> reg;

  auto same_shape = [](const Shapes& in, const Attrs&) { return in[0]; };
  auto zero_flops = [](const Shapes&, const std::vector<int64_t>&, const Attrs&) {
    return 0.0;
  };
  auto elems_flops = [](const Shapes&, const std::vector<int64_t>& out, const Attrs&) {
    double n = 1;
    for (int64_t d : out) {
      n *= static_cast<double>(d);
    }
    return n;
  };

  // --- complex-out-fusable anchors ---
  {
    OpInfo conv;
    conv.pattern = OpPattern::kComplexOutFusable;
    // The kernel is OIHW or, at rank 5, OIHW<b>o [OC/b, IC, KH, KW, b].
    conv.infer_shape = [](const Shapes& in, const Attrs& a) {
      int64_t s = AttrOr(a, "stride", 1), p = AttrOr(a, "pad", 0);
      int64_t k = in[1][2];
      int64_t out_c = in[1].size() == 5 ? in[1][0] * in[1][4] : in[1][0];
      return std::vector<int64_t>{in[0][0], out_c, topi::ConvOutDim(in[0][2], k, s, p),
                                  topi::ConvOutDim(in[0][3], k, s, p)};
    };
    conv.build = [](const std::vector<Tensor>& in, const Attrs& a, const std::string& name) {
      return topi::Conv2dNCHW(in[0], in[1], static_cast<int>(AttrOr(a, "stride", 1)),
                              static_cast<int>(AttrOr(a, "pad", 0)), name);
    };
    conv.flops = [](const Shapes& in, const std::vector<int64_t>& out, const Attrs&) {
      return 2.0 * out[0] * out[1] * out[2] * out[3] * in[0][1] * in[1][2] * in[1][3];
    };
    reg["conv2d"] = conv;

    OpInfo dw = conv;
    dw.infer_shape = [](const Shapes& in, const Attrs& a) {
      int64_t s = AttrOr(a, "stride", 1), p = AttrOr(a, "pad", 0);
      int64_t k = in[1][2];
      return std::vector<int64_t>{in[0][0], in[0][1], topi::ConvOutDim(in[0][2], k, s, p),
                                  topi::ConvOutDim(in[0][3], k, s, p)};
    };
    dw.build = [](const std::vector<Tensor>& in, const Attrs& a, const std::string& name) {
      return topi::DepthwiseConv2dNCHW(in[0], in[1], static_cast<int>(AttrOr(a, "stride", 1)),
                                       static_cast<int>(AttrOr(a, "pad", 0)), name);
    };
    dw.flops = [](const Shapes& in, const std::vector<int64_t>& out, const Attrs&) {
      return 2.0 * out[0] * out[1] * out[2] * out[3] * in[1][2] * in[1][3];
    };
    reg["depthwise_conv2d"] = dw;

    OpInfo dense;
    dense.pattern = OpPattern::kComplexOutFusable;
    dense.infer_shape = [](const Shapes& in, const Attrs&) {
      return std::vector<int64_t>{in[0][0], in[1][0]};
    };
    dense.build = [](const std::vector<Tensor>& in, const Attrs&, const std::string& name) {
      return topi::Dense(in[0], in[1], name);
    };
    dense.flops = [](const Shapes& in, const std::vector<int64_t>& out, const Attrs&) {
      return 2.0 * out[0] * out[1] * in[0][1];
    };
    reg["dense"] = dense;

    // CSR SpMM: inputs [x, w_data, w_indices, w_indptr] (the CSR arrays are const
    // nodes shaped by src/runtime/csr.h), attrs {nnz, max_row_nnz}. The output
    // width comes from the indptr length, so rebatching's re-inference only ever
    // scales the batch row of in[0].
    OpInfo sparse;
    sparse.pattern = OpPattern::kComplexOutFusable;
    sparse.infer_shape = [](const Shapes& in, const Attrs&) {
      return std::vector<int64_t>{in[0][0], in[3][0] - 1};
    };
    sparse.build = [](const std::vector<Tensor>& in, const Attrs& a,
                      const std::string& name) {
      return topi::SparseDense(in[0], in[1], in[2], in[3],
                               AttrOr(a, "max_row_nnz", 0), name);
    };
    sparse.flops = [](const Shapes&, const std::vector<int64_t>& out, const Attrs& a) {
      return 2.0 * static_cast<double>(out[0]) *
             static_cast<double>(AttrOr(a, "nnz", 0));
    };
    reg["sparse_dense"] = sparse;

    OpInfo dconv;
    dconv.pattern = OpPattern::kComplexOutFusable;
    dconv.infer_shape = [](const Shapes& in, const Attrs& a) {
      int64_t s = AttrOr(a, "stride", 1), p = AttrOr(a, "pad", 0);
      int64_t k = in[1][2];
      return std::vector<int64_t>{in[0][0], in[1][1], (in[0][2] - 1) * s + k - 2 * p,
                                  (in[0][3] - 1) * s + k - 2 * p};
    };
    dconv.build = [](const std::vector<Tensor>& in, const Attrs& a,
                     const std::string& name) {
      return topi::Conv2dTransposeNCHW(in[0], in[1],
                                       static_cast<int>(AttrOr(a, "stride", 1)),
                                       static_cast<int>(AttrOr(a, "pad", 0)), name);
    };
    dconv.flops = [](const Shapes& in, const std::vector<int64_t>& out, const Attrs&) {
      return 2.0 * in[0][0] * in[0][1] * out[1] * in[0][2] * in[0][3] * 16;
    };
    reg["conv2d_transpose"] = dconv;
  }

  // --- injective elementwise ---
  auto add_injective = [&](const std::string& name,
                           std::function<Tensor(const std::vector<Tensor>&, const Attrs&,
                                                const std::string&)>
                               build) {
    OpInfo info;
    info.pattern = OpPattern::kInjective;
    info.infer_shape = same_shape;
    info.build = std::move(build);
    info.flops = elems_flops;
    reg[name] = info;
  };
  add_injective("relu", [](const std::vector<Tensor>& in, const Attrs&,
                           const std::string& n) { return topi::Relu(in[0], n); });
  add_injective("tanh", [](const std::vector<Tensor>& in, const Attrs&,
                           const std::string& n) { return topi::TanhOp(in[0], n); });
  add_injective("sigmoid", [](const std::vector<Tensor>& in, const Attrs&,
                              const std::string& n) { return topi::SigmoidOp(in[0], n); });
  add_injective("add", [](const std::vector<Tensor>& in, const Attrs&,
                          const std::string& n) { return topi::Add(in[0], in[1], n); });
  add_injective("mul", [](const std::vector<Tensor>& in, const Attrs&,
                          const std::string& n) { return topi::Mul(in[0], in[1], n); });
  add_injective("batch_norm",
                [](const std::vector<Tensor>& in, const Attrs&, const std::string& n) {
                  return topi::BatchNorm(in[0], in[1], in[2], n);
                });
  add_injective("bias_add",
                [](const std::vector<Tensor>& in, const Attrs&, const std::string& n) {
                  return topi::BiasAdd(in[0], in[1], n);
                });

  {
    OpInfo flat;
    flat.pattern = OpPattern::kInjective;
    flat.infer_shape = [](const Shapes& in, const Attrs&) {
      int64_t n = 1;
      for (size_t i = 1; i < in[0].size(); ++i) {
        n *= in[0][i];
      }
      return std::vector<int64_t>{in[0][0], n};
    };
    flat.build = [](const std::vector<Tensor>& in, const Attrs&, const std::string& n) {
      return topi::Flatten(in[0], n);
    };
    flat.flops = zero_flops;
    reg["flatten"] = flat;
  }

  // --- reductions ---
  {
    OpInfo pool;
    pool.pattern = OpPattern::kReduction;
    pool.infer_shape = [](const Shapes& in, const Attrs& a) {
      int64_t k = AttrOr(a, "kernel", 2), s = AttrOr(a, "stride", 2), p = AttrOr(a, "pad", 0);
      return std::vector<int64_t>{in[0][0], in[0][1], topi::ConvOutDim(in[0][2], k, s, p),
                                  topi::ConvOutDim(in[0][3], k, s, p)};
    };
    pool.build = [](const std::vector<Tensor>& in, const Attrs& a, const std::string& n) {
      return topi::MaxPool2d(in[0], static_cast<int>(AttrOr(a, "kernel", 2)),
                             static_cast<int>(AttrOr(a, "stride", 2)),
                             static_cast<int>(AttrOr(a, "pad", 0)), n);
    };
    pool.flops = elems_flops;
    reg["max_pool2d"] = pool;

    OpInfo gap;
    gap.pattern = OpPattern::kReduction;
    gap.infer_shape = [](const Shapes& in, const Attrs&) {
      return std::vector<int64_t>{in[0][0], in[0][1]};
    };
    gap.build = [](const std::vector<Tensor>& in, const Attrs&, const std::string& n) {
      return topi::GlobalAvgPool(in[0], n);
    };
    gap.flops = elems_flops;
    reg["global_avg_pool"] = gap;

    OpInfo sm;
    sm.pattern = OpPattern::kOpaque;  // multi-stage; keep as its own kernel
    sm.infer_shape = same_shape;
    sm.build = [](const std::vector<Tensor>& in, const Attrs&, const std::string& n) {
      return topi::Softmax(in[0], n);
    };
    sm.flops = elems_flops;
    reg["softmax"] = sm;
  }
  return reg;
}

std::unordered_map<std::string, OpInfo>& Registry() {
  static std::unordered_map<std::string, OpInfo> reg = BuildRegistry();
  return reg;
}

}  // namespace

const OpInfo& GetOpInfo(const std::string& op) {
  auto& reg = Registry();
  auto it = reg.find(op);
  CHECK(it != reg.end()) << "unregistered operator " << op;
  return it->second;
}

bool HasOpInfo(const std::string& op) { return Registry().count(op) > 0; }

int Graph::AddInput(const std::string& name, std::vector<int64_t> shape, DataType dtype) {
  Node n;
  n.id = num_nodes();
  n.op = "input";
  n.name = name;
  n.shape = std::move(shape);
  n.dtype = dtype;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

int Graph::AddConst(const std::string& name, std::vector<int64_t> shape, DataType dtype) {
  Node n;
  n.id = num_nodes();
  n.op = "const";
  n.name = name;
  n.shape = std::move(shape);
  n.dtype = dtype;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

int Graph::AddOp(const std::string& op, const std::string& name, std::vector<int> inputs,
                 Attrs attrs) {
  const OpInfo& info = GetOpInfo(op);
  std::vector<std::vector<int64_t>> in_shapes;
  for (int i : inputs) {
    in_shapes.push_back(node(i).shape);
  }
  Node n;
  n.id = num_nodes();
  n.op = op;
  n.name = name;
  n.inputs = std::move(inputs);
  n.attrs = std::move(attrs);
  n.shape = info.infer_shape(in_shapes, n.attrs);
  n.dtype = node(n.inputs[0]).dtype;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

Graph RebatchGraph(const Graph& g, int factor) {
  CHECK_GE(factor, 1) << "RebatchGraph factor must be positive";
  Graph out;
  for (const Node& n : g.nodes()) {
    int id;
    if (n.op == "input") {
      CHECK(!n.shape.empty()) << "cannot rebatch scalar input " << n.name;
      std::vector<int64_t> shape = n.shape;
      shape[0] *= factor;
      id = out.AddInput(n.name, std::move(shape), n.dtype);
    } else if (n.op == "const") {
      id = out.AddConst(n.name, n.shape, n.dtype);
    } else {
      id = out.AddOp(n.op, n.name, n.inputs, n.attrs);
    }
    CHECK_EQ(id, n.id) << "RebatchGraph must preserve node ids";
  }
  out.outputs = g.outputs;
  return out;
}

// ---------------------------------------------------------------------------
// Operator fusion (the paper's rules over the four categories)
// ---------------------------------------------------------------------------

std::vector<FusedGroup> FuseOps(const Graph& g, bool enable_fusion) {
  int n = g.num_nodes();
  std::vector<int> consumers(static_cast<size_t>(n), 0);
  for (const Node& node : g.nodes()) {
    for (int i : node.inputs) {
      consumers[static_cast<size_t>(i)]++;
    }
  }
  std::unordered_set<int> output_set(g.outputs.begin(), g.outputs.end());

  std::vector<int> group_of(static_cast<size_t>(n), -1);
  std::vector<FusedGroup> groups;
  for (const Node& node : g.nodes()) {
    if (node.op == "input" || node.op == "const") {
      continue;
    }
    OpPattern pat = GetOpInfo(node.op).pattern;
    int target_group = -1;
    if (enable_fusion && pat != OpPattern::kOpaque) {
      // Try to fuse this node into the group of one of its producers, following the
      // paper's rules:
      //   injective + injective -> fuse
      //   injective consumer onto complex-out-fusable producer output -> fuse
      //   reduction with injective inputs -> fuse the input chain
      for (int in : node.inputs) {
        const Node& producer = g.node(in);
        if (producer.op == "input" || producer.op == "const") {
          continue;
        }
        int pg = group_of[static_cast<size_t>(in)];
        if (pg < 0) {
          continue;
        }
        // Only fuse along a single-consumer edge (otherwise the intermediate is needed
        // elsewhere) and never across graph outputs.
        if (consumers[static_cast<size_t>(in)] != 1 || output_set.count(in)) {
          continue;
        }
        OpPattern ppat = GetOpInfo(producer.op).pattern;
        bool ok = false;
        if (pat == OpPattern::kInjective &&
            (ppat == OpPattern::kInjective || ppat == OpPattern::kComplexOutFusable ||
             ppat == OpPattern::kReduction)) {
          // Elementwise consumer fuses onto any producer's output...
          // ...but a group can hold at most one non-injective op, and a group with a
          // master accepts only shape-preserving (element-wise) epilogues: shape-changing
          // injective ops like flatten would break the master's schedule template.
          ok = node.shape == producer.shape ||
               groups[static_cast<size_t>(pg)].master < 0;
        } else if (pat == OpPattern::kReduction && ppat == OpPattern::kInjective) {
          ok = groups[static_cast<size_t>(pg)].master < 0;
        } else if (pat == OpPattern::kComplexOutFusable && ppat == OpPattern::kInjective) {
          ok = groups[static_cast<size_t>(pg)].master < 0;
        }
        if (ok && (pat == OpPattern::kInjective ||
                   groups[static_cast<size_t>(pg)].master < 0)) {
          target_group = pg;
          break;
        }
      }
    }
    if (target_group < 0) {
      FusedGroup grp;
      groups.push_back(grp);
      target_group = static_cast<int>(groups.size()) - 1;
    }
    FusedGroup& grp = groups[static_cast<size_t>(target_group)];
    grp.nodes.push_back(node.id);
    if (pat != OpPattern::kInjective && grp.master < 0) {
      grp.master = node.id;
    }
    group_of[static_cast<size_t>(node.id)] = target_group;
  }

  // The greedy pass above creates groups in node-id order, but a node may fuse into
  // a group *created earlier* than the group of one of its other producers (diamond
  // shapes: add(gx, gh) fuses onto gx's group, which predates gh's) — so creation
  // order is not a valid execution order. The executor runs kernels, and PlanMemory
  // computes buffer liveness, in list-position order, so sort groups topologically
  // over cross-group data edges. Stable: independent groups keep creation order.
  size_t m = groups.size();
  std::vector<std::vector<size_t>> succ(m);
  std::vector<int> indeg(static_cast<size_t>(m), 0);
  for (size_t gi = 0; gi < m; ++gi) {
    for (int id : groups[gi].nodes) {
      for (int in : g.node(id).inputs) {
        int pg = group_of[static_cast<size_t>(in)];
        if (pg >= 0 && static_cast<size_t>(pg) != gi) {
          succ[static_cast<size_t>(pg)].push_back(gi);
          indeg[gi]++;
        }
      }
    }
  }
  std::vector<FusedGroup> ordered;
  ordered.reserve(m);
  std::vector<bool> emitted(m, false);
  for (size_t done = 0; done < m;) {
    size_t picked = m;
    for (size_t gi = 0; gi < m; ++gi) {
      if (!emitted[gi] && indeg[gi] == 0) {
        picked = gi;
        break;
      }
    }
    CHECK_LT(picked, m) << "cycle in fused-group dependencies";
    emitted[picked] = true;
    ordered.push_back(std::move(groups[picked]));
    for (size_t s : succ[picked]) {
      indeg[s]--;
    }
    ++done;
  }
  return ordered;
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

int ConstantFold(Graph* g, std::unordered_map<int, NDArray>* params) {
  // A node is foldable if every input is const and its op is registered.
  int folded = 0;
  for (int id = 0; id < g->num_nodes(); ++id) {
    Node& node = g->node(id);
    if (node.op == "input" || node.op == "const") {
      continue;
    }
    bool all_const = !node.inputs.empty();
    for (int in : node.inputs) {
      all_const &= g->node(in).op == "const" && params->count(in) > 0;
    }
    if (!all_const) {
      continue;
    }
    // Evaluate the node with the interpreter on a naive schedule.
    const OpInfo& info = GetOpInfo(node.op);
    std::vector<Tensor> in_tensors;
    std::vector<NDArray> in_arrays;
    for (int in : node.inputs) {
      const Node& p = g->node(in);
      std::vector<Expr> shape;
      for (int64_t d : p.shape) {
        shape.push_back(make_int(d));
      }
      in_tensors.push_back(placeholder(shape, p.dtype, p.name));
      in_arrays.push_back(params->at(in));
    }
    Tensor out = info.build(in_tensors, node.attrs, node.name);
    Schedule s = create_schedule({out});
    std::vector<Tensor> args = in_tensors;
    args.push_back(out);
    LoweredFunc f = Lower(s, args, "fold_" + node.name);
    NDArray result = NDArray::Empty(node.shape, node.dtype);
    std::vector<BufferBinding> bindings;
    for (const NDArray& a : in_arrays) {
      bindings.push_back(a.Binding());
    }
    bindings.push_back(result.Binding());
    RunLowered(f, bindings);
    // Rewrite the node into a constant.
    node.op = "const";
    node.inputs.clear();
    (*params)[id] = result;
    ++folded;
  }
  return folded;
}

// ---------------------------------------------------------------------------
// Static memory planning
// ---------------------------------------------------------------------------

MemoryPlan PlanMemory(const Graph& g, const std::vector<FusedGroup>& groups) {
  MemoryPlan plan;
  plan.storage_id.assign(static_cast<size_t>(g.num_nodes()), -1);
  std::unordered_set<int> output_set(g.outputs.begin(), g.outputs.end());

  // Liveness must be computed in kernel-execution order (group positions), not node
  // ids: a consumer fused as the epilogue of a much later group reads its input buffer
  // at that group's execution time, long after the consumer's own node id.
  std::unordered_map<int, int> produced_at;  // group-output node id -> group position
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    produced_at[groups[gi].nodes.back()] = static_cast<int>(gi);
  }
  // Last group position that reads each materialized buffer.
  std::vector<int> last_read(static_cast<size_t>(g.num_nodes()), -1);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    std::unordered_set<int> in_group(groups[gi].nodes.begin(), groups[gi].nodes.end());
    for (int id : groups[gi].nodes) {
      for (int in : g.node(id).inputs) {
        if (!in_group.count(in) && produced_at.count(in)) {
          last_read[static_cast<size_t>(in)] =
              std::max(last_read[static_cast<size_t>(in)], static_cast<int>(gi));
        }
      }
    }
  }
  int num_groups = static_cast<int>(groups.size());
  for (int out : g.outputs) {
    last_read[static_cast<size_t>(out)] = num_groups + 1;
  }

  struct Storage {
    int64_t bytes;
    int free_after;  // group position after which this storage is free
  };
  std::vector<Storage> pool;
  // Widened storage bytes, the same metric the executor allocates with (float16 is
  // stored as float32, sub-byte ints as int8) — packed device bytes would make the
  // best-fit ranking diverge from the buffers actually shared at runtime.
  auto bytes_of = [&](const Node& n) {
    int64_t e = 1;
    for (int64_t d : n.shape) {
      e *= d;
    }
    return e * InterpElementBytes(n.dtype);
  };

  for (int gi = 0; gi < num_groups; ++gi) {
    const Node& node = g.node(groups[static_cast<size_t>(gi)].nodes.back());
    int64_t bytes = bytes_of(node);
    plan.unplanned_bytes += bytes;
    if (output_set.count(node.id)) {
      // Outputs get dedicated storage.
      pool.push_back(Storage{bytes, num_groups + 2});
      plan.storage_id[static_cast<size_t>(node.id)] = static_cast<int>(pool.size()) - 1;
      continue;
    }
    // Greedy best-fit reuse. Strict <: a storage last read by this very kernel must
    // not be handed to its output — kernels are not in-place (a conv output element
    // reads a neighborhood of inputs), so aliasing input and output corrupts results.
    int best = -1;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (pool[i].free_after < gi && pool[i].bytes >= bytes) {
        if (best < 0 || pool[static_cast<size_t>(best)].bytes > pool[i].bytes) {
          best = static_cast<int>(i);
        }
      }
    }
    if (best < 0) {
      // Allow growing a free slot when nothing fits.
      for (size_t i = 0; i < pool.size(); ++i) {
        if (pool[i].free_after < gi) {
          best = static_cast<int>(i);
          pool[i].bytes = std::max(pool[i].bytes, bytes);
          break;
        }
      }
    }
    if (best < 0) {
      pool.push_back(Storage{bytes, -1});
      best = static_cast<int>(pool.size()) - 1;
    }
    pool[static_cast<size_t>(best)].free_after = last_read[static_cast<size_t>(node.id)];
    plan.storage_id[static_cast<size_t>(node.id)] = best;
  }
  for (const Storage& s : pool) {
    plan.storage_bytes.push_back(s.bytes);
    plan.planned_bytes += s.bytes;
  }
  return plan;
}

}  // namespace graph
}  // namespace tvmcpp
