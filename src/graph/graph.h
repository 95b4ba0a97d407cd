// The computational-graph layer (Section 3): graph IR, operator registry with the
// paper's four fusion categories, and the high-level optimization passes
// (operator fusion, constant folding, static memory planning, layout transformation).
#ifndef SRC_GRAPH_GRAPH_H_
#define SRC_GRAPH_GRAPH_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/ndarray.h"
#include "src/te/tensor.h"
#include "src/topi/schedules.h"

namespace tvmcpp {
namespace graph {

// The paper's operator categories (Section 3, Operator Fusion).
enum class OpPattern {
  kInjective,         // one-to-one maps (add, relu, reshape-like)
  kReduction,         // e.g. sum, pooling
  kComplexOutFusable, // conv2d/dense: elementwise ops can fuse onto the output
  kOpaque,            // cannot fuse (e.g. sort)
};

// Node attributes: integer parameters (stride, pad, ...) only.
using Attrs = std::map<std::string, int64_t>;

struct Node {
  int id = -1;
  std::string op;              // operator name, or "input" / "const"
  std::string name;            // unique node name
  std::vector<int> inputs;     // node ids
  Attrs attrs;
  std::vector<int64_t> shape;  // inferred output shape
  DataType dtype = DataType::Float32();
};

class Graph {
 public:
  // Adds an input (placeholder) node.
  int AddInput(const std::string& name, std::vector<int64_t> shape,
               DataType dtype = DataType::Float32());
  // Adds a parameter (constant) node; the value is bound at executor creation.
  int AddConst(const std::string& name, std::vector<int64_t> shape,
               DataType dtype = DataType::Float32());
  // Adds an operator node; shape is inferred via the registry.
  int AddOp(const std::string& op, const std::string& name, std::vector<int> inputs,
            Attrs attrs = {});

  const Node& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  Node& node(int id) { return nodes_[static_cast<size_t>(id)]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<Node>& nodes() const { return nodes_; }

  std::vector<int> outputs;  // output node ids

 private:
  std::vector<Node> nodes_;
};

// ---------------------------------------------------------------------------
// Operator registry
// ---------------------------------------------------------------------------

struct OpInfo {
  OpPattern pattern = OpPattern::kInjective;
  // Shape inference from input shapes + attrs.
  std::function<std::vector<int64_t>(const std::vector<std::vector<int64_t>>&, const Attrs&)>
      infer_shape;
  // te compute builder from input tensors + attrs.
  std::function<Tensor(const std::vector<Tensor>&, const Attrs&, const std::string&)> build;
  // Approximate flops for a node (for baselines and summaries).
  std::function<double(const std::vector<std::vector<int64_t>>&,
                       const std::vector<int64_t>&, const Attrs&)>
      flops;
};

const OpInfo& GetOpInfo(const std::string& op);
bool HasOpInfo(const std::string& op);

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

// One fused group: nodes executed as a single kernel.
struct FusedGroup {
  std::vector<int> nodes;  // in topological order; last is the group output
  int master = -1;         // complex-out-fusable anchor node (-1 if none)
};

// The paper's fusion rules over the four categories.
std::vector<FusedGroup> FuseOps(const Graph& g, bool enable_fusion = true);

// Folds subgraphs whose inputs are all constants into precomputed parameters.
// Returns the set of node ids that became constants (their values in `folded`).
int ConstantFold(Graph* g, std::unordered_map<int, NDArray>* params);

// Static memory planning: assigns each non-input node a storage id, reusing buffers
// whose live ranges do not overlap. Returns storage id per node and the total/peak bytes.
struct MemoryPlan {
  std::vector<int> storage_id;        // per node; -1 for inputs/consts
  std::vector<int64_t> storage_bytes; // widened bytes per storage id (executor metric)
  int64_t planned_bytes = 0;          // with reuse
  int64_t unplanned_bytes = 0;        // naive sum of all intermediates
};
MemoryPlan PlanMemory(const Graph& g, const std::vector<FusedGroup>& groups);

// Rebuilds `g` with every `input` node's leading (batch) dimension scaled by
// `factor`, re-running shape inference so all downstream op shapes pick up the new
// batch extent; `const` nodes (weights) keep their shapes, and node ids/names/attrs
// are preserved verbatim. This is the generic path the serving layer uses to compile
// batched variants of a model for dynamic request batching (concat along N).
// Requires every operator in the graph to be batch-covariant in dimension 0 —
// true for the conv/dense/elementwise operator registry here.
Graph RebatchGraph(const Graph& g, int factor);

}  // namespace graph
}  // namespace tvmcpp

#endif  // SRC_GRAPH_GRAPH_H_
