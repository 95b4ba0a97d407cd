// Model zoo: graph builders for the paper's evaluation workloads (Section 6) —
// ResNet-18, MobileNet, DQN, DCGAN, and the LSTM language model — plus the Table 2
// single-operator workload lists (C1–C12, D1–D9).
#ifndef SRC_FRONTEND_MODELS_H_
#define SRC_FRONTEND_MODELS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/topi/schedules.h"

namespace tvmcpp {
namespace frontend {

struct Model {
  graph::Graph graph;
  // Random-initialized parameters keyed by node name (the paper's `params`).
  std::unordered_map<std::string, NDArray> params;
  std::string input_name = "data";
  std::vector<int64_t> input_shape;
};

Model ResNet18(int batch = 1, int image_size = 224);
Model MobileNet(int batch = 1, int image_size = 224);
Model Dqn(int batch = 1);      // Nature DQN conv trunk (84x84x4 input)
Model Dcgan(int batch = 1);    // DCGAN generator (100-d code -> 64x64 image)
Model LstmLanguageModel(int num_steps = 4, int hidden = 650, int batch = 1);

// A pruned two-layer MLP served as CSR sparse_dense ops:
//   data [batch, in_dim] -> sparse_dense -> relu -> sparse_dense -> softmax.
// Weights are dense random matrices pruned elementwise with probability
// `sparsity` (deterministic per layer, batch-invariant), then compressed to CSR
// const params (<name>_w_data / _w_indices / _w_indptr per layer).
Model SparseMlp(int batch = 1, int in_dim = 128, int hidden = 128, int classes = 32,
                double sparsity = 0.95);
// The same pruned MLP with the zeros materialized back into ordinary dense ops —
// the bitwise reference for the sparse path (identical weights, identical
// reduction order on the surviving terms).
Model SparseMlpDenseReference(int batch = 1, int in_dim = 128, int hidden = 128,
                              int classes = 32, double sparsity = 0.95);

// The conv2d weight the zoo binds for an OIHW kernel [out_c, in_c, k, k]: the
// values NDArray::Random(that shape, seed) draws, in the same Rng order. When 8
// divides out_c they land straight in OIHW8o positions [out_c/8, in_c, k, k, 8],
// so the CPU conv template vectorizes one 8-lane f32 vector of output channels
// and no OIHW copy is ever held; otherwise the kernel stays OIHW.
NDArray RandomConvWeight(int64_t out_c, int64_t in_c, int64_t k, uint64_t seed);

// Compiles a frontend model for `target` with its parameters bound. Model builders
// seed their random parameters deterministically per parameter name, so two builds
// of the same model at different batch sizes carry bitwise-identical weights — which
// makes this the batch-N construction path for the serving layer's dynamic
// batching, e.g.:
//   server.SetBatchBuilder(base, [&](int b) {
//     return frontend::CompileModel(frontend::Dqn(b), target);
//   });
std::shared_ptr<graph::CompiledGraph> CompileModel(const Model& m, const Target& target,
                                                   graph::CompileOptions options = {});

// Table 2: all conv2d workloads of ResNet-18 (C1..C12).
std::vector<topi::OpWorkload> ResnetConvWorkloads();
// Table 2: all depthwise conv2d workloads of MobileNet (D1..D9).
std::vector<topi::OpWorkload> MobilenetDepthwiseWorkloads();

}  // namespace frontend
}  // namespace tvmcpp

#endif  // SRC_FRONTEND_MODELS_H_
