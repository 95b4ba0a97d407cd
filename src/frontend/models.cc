#include "src/frontend/models.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/csr.h"
#include "src/support/random.h"

namespace tvmcpp {
namespace frontend {

std::shared_ptr<graph::CompiledGraph> CompileModel(const Model& m, const Target& target,
                                                   graph::CompileOptions options) {
  auto compiled =
      std::make_shared<graph::CompiledGraph>(m.graph, target, std::move(options));
  for (const auto& kv : m.params) {
    compiled->SetParam(kv.first, kv.second);
  }
  return compiled;
}

namespace {

// Output-channel block of the zoo's conv2d kernels.
constexpr int64_t kConvBlock = 8;

// Adds a parameter node + random value.
int Param(Model* m, const std::string& name, std::vector<int64_t> shape, uint64_t seed) {
  int id = m->graph.AddConst(name, shape);
  m->params[name] = NDArray::Random(shape, DataType::Float32(), seed);
  return id;
}

// Adds a conv2d weight node [out_c, in_c, k, k] with RandomConvWeight's value.
int ConvWeight(Model* m, const std::string& name, int64_t out_c, int64_t in_c, int64_t k,
               uint64_t seed) {
  NDArray w = RandomConvWeight(out_c, in_c, k, seed);
  int id = m->graph.AddConst(name, w.shape());
  m->params[name] = std::move(w);
  return id;
}

// conv -> bn -> relu block.
int ConvBnRelu(Model* m, int data, const std::string& name, int in_c, int out_c, int k,
               int stride, int pad, uint64_t seed, bool relu = true) {
  int w = ConvWeight(m, name + "_w", out_c, in_c, k, seed);
  int conv = m->graph.AddOp("conv2d", name, {data, w}, {{"stride", stride}, {"pad", pad}});
  int scale = Param(m, name + "_bn_scale", {out_c}, seed + 1);
  int shift = Param(m, name + "_bn_shift", {out_c}, seed + 2);
  int bn = m->graph.AddOp("batch_norm", name + "_bn", {conv, scale, shift});
  if (!relu) {
    return bn;
  }
  return m->graph.AddOp("relu", name + "_relu", {bn});
}

}  // namespace

NDArray RandomConvWeight(int64_t out_c, int64_t in_c, int64_t k, uint64_t seed) {
  if (out_c % kConvBlock != 0) {
    return NDArray::Random({out_c, in_c, k, k}, DataType::Float32(), seed);
  }
  NDArray w = NDArray::Empty({out_c / kConvBlock, in_c, k, k, kConvBlock});
  float* p = w.Data<float>();
  Rng rng(seed);
  const int64_t taps = in_c * k * k;
  for (int64_t oc = 0; oc < out_c; ++oc) {
    for (int64_t t = 0; t < taps; ++t) {
      p[((oc / kConvBlock) * taps + t) * kConvBlock + oc % kConvBlock] =
          NDArray::RandomFloat(&rng);
    }
  }
  return w;
}

Model ResNet18(int batch, int image_size) {
  Model m;
  m.input_shape = {batch, 3, image_size, image_size};
  int data = m.graph.AddInput("data", m.input_shape);
  uint64_t seed = 100;
  // Stem: 7x7/2 conv + 3x3/2 max pool.
  int x = ConvBnRelu(&m, data, "conv0", 3, 64, 7, 2, 3, seed);
  x = m.graph.AddOp("max_pool2d", "pool0", {x}, {{"kernel", 3}, {"stride", 2}, {"pad", 1}});
  // 4 stages of 2 basic blocks each: channels 64,128,256,512.
  int channels[4] = {64, 128, 256, 512};
  int in_c = 64;
  for (int stage = 0; stage < 4; ++stage) {
    int out_c = channels[stage];
    for (int block = 0; block < 2; ++block) {
      int stride = (stage > 0 && block == 0) ? 2 : 1;
      std::string base = "s" + std::to_string(stage) + "b" + std::to_string(block);
      seed += 10;
      int branch = ConvBnRelu(&m, x, base + "_conv1", in_c, out_c, 3, stride, 1, seed);
      seed += 10;
      int branch2 =
          ConvBnRelu(&m, branch, base + "_conv2", out_c, out_c, 3, 1, 1, seed, false);
      int shortcut = x;
      if (stride != 1 || in_c != out_c) {
        seed += 10;
        shortcut = ConvBnRelu(&m, x, base + "_down", in_c, out_c, 1, stride, 0, seed, false);
      }
      int sum = m.graph.AddOp("add", base + "_add", {branch2, shortcut});
      x = m.graph.AddOp("relu", base + "_relu", {sum});
      in_c = out_c;
    }
  }
  x = m.graph.AddOp("global_avg_pool", "gap", {x});
  int fcw = Param(&m, "fc_w", {1000, 512}, 999);
  x = m.graph.AddOp("dense", "fc", {x, fcw});
  x = m.graph.AddOp("softmax", "prob", {x});
  m.graph.outputs = {x};
  return m;
}

Model MobileNet(int batch, int image_size) {
  Model m;
  m.input_shape = {batch, 3, image_size, image_size};
  int data = m.graph.AddInput("data", m.input_shape);
  uint64_t seed = 300;
  int x = ConvBnRelu(&m, data, "conv0", 3, 32, 3, 2, 1, seed);
  // (channels, stride) per depthwise-separable block.
  struct Block {
    int in_c, out_c, stride;
  };
  std::vector<Block> blocks = {{32, 64, 1},   {64, 128, 2},  {128, 128, 1}, {128, 256, 2},
                               {256, 256, 1}, {256, 512, 2}, {512, 512, 1}, {512, 512, 1},
                               {512, 512, 1}, {512, 512, 1}, {512, 512, 1}, {512, 1024, 2},
                               {1024, 1024, 1}};
  int idx = 0;
  for (const Block& b : blocks) {
    std::string base = "dw" + std::to_string(idx++);
    seed += 10;
    int dww = Param(&m, base + "_w", {b.in_c, 1, 3, 3}, seed);
    int dw = m.graph.AddOp("depthwise_conv2d", base, {x, dww},
                           {{"stride", b.stride}, {"pad", 1}});
    int sc = Param(&m, base + "_bn_scale", {b.in_c}, seed + 1);
    int sh = Param(&m, base + "_bn_shift", {b.in_c}, seed + 2);
    int bn = m.graph.AddOp("batch_norm", base + "_bn", {dw, sc, sh});
    int r = m.graph.AddOp("relu", base + "_relu", {bn});
    seed += 10;
    x = ConvBnRelu(&m, r, base + "_pw", b.in_c, b.out_c, 1, 1, 0, seed);
  }
  x = m.graph.AddOp("global_avg_pool", "gap", {x});
  int fcw = Param(&m, "fc_w", {1000, 1024}, 998);
  x = m.graph.AddOp("dense", "fc", {x, fcw});
  x = m.graph.AddOp("softmax", "prob", {x});
  m.graph.outputs = {x};
  return m;
}

Model Dqn(int batch) {
  // Mnih et al. Nature DQN: 84x84x4 -> conv8x8s4x32 -> conv4x4s2x64 -> conv3x3s1x64
  // -> fc512 -> fc(actions).
  Model m;
  m.input_shape = {batch, 4, 84, 84};
  int data = m.graph.AddInput("data", m.input_shape);
  int w1 = ConvWeight(&m, "c1_w", 32, 4, 8, 1);
  int c1 = m.graph.AddOp("conv2d", "c1", {data, w1}, {{"stride", 4}, {"pad", 0}});
  int r1 = m.graph.AddOp("relu", "r1", {c1});
  int w2 = ConvWeight(&m, "c2_w", 64, 32, 4, 2);
  int c2 = m.graph.AddOp("conv2d", "c2", {r1, w2}, {{"stride", 2}, {"pad", 0}});
  int r2 = m.graph.AddOp("relu", "r2", {c2});
  int w3 = ConvWeight(&m, "c3_w", 64, 64, 3, 3);
  int c3 = m.graph.AddOp("conv2d", "c3", {r2, w3}, {{"stride", 1}, {"pad", 0}});
  int r3 = m.graph.AddOp("relu", "r3", {c3});
  int flat = m.graph.AddOp("flatten", "flat", {r3});
  int w4 = Param(&m, "fc1_w", {512, 64 * 7 * 7}, 4);
  int fc1 = m.graph.AddOp("dense", "fc1", {flat, w4});
  int r4 = m.graph.AddOp("relu", "r4", {fc1});
  int w5 = Param(&m, "fc2_w", {18, 512}, 5);
  int fc2 = m.graph.AddOp("dense", "fc2", {r4, w5});
  m.graph.outputs = {fc2};
  return m;
}

Model Dcgan(int batch) {
  // DCGAN generator trunk: the latent projection is folded into the 4-D input
  // [batch, 512, 4, 4]; four 4x4 stride-2 transposed convolutions produce 64x64x3.
  Model m;
  m.input_shape = {batch, 512, 4, 4};
  int x = m.graph.AddInput("data", m.input_shape);
  uint64_t seed = 20;
  struct Layer {
    int in_c, out_c;
  };
  std::vector<Layer> layers = {{512, 256}, {256, 128}, {128, 64}, {64, 3}};
  int li = 0;
  for (const Layer& l : layers) {
    std::string base = "deconv" + std::to_string(li++);
    seed += 7;
    int w = Param(&m, base + "_w", {l.in_c, l.out_c, 4, 4}, seed);
    x = m.graph.AddOp("conv2d_transpose", base, {x, w}, {{"stride", 2}, {"pad", 1}});
    if (li < static_cast<int>(layers.size())) {
      x = m.graph.AddOp("relu", base + "_relu", {x});
    } else {
      x = m.graph.AddOp("tanh", base + "_tanh", {x});
    }
  }
  m.graph.outputs = {x};
  return m;
}

Model LstmLanguageModel(int num_steps, int hidden, int batch) {
  // One-layer LSTM LM unrolled for num_steps; gates computed as two dense ops per step.
  Model m;
  m.input_shape = {batch, hidden};
  int x0 = m.graph.AddInput("data", m.input_shape);
  int h = m.graph.AddInput("h0", {batch, hidden});
  int c = m.graph.AddInput("c0", {batch, hidden});
  int wx = m.graph.AddConst("w_x", {4 * hidden, hidden});
  int wh = m.graph.AddConst("w_h", {4 * hidden, hidden});
  m.params["w_x"] = NDArray::Random({4 * hidden, hidden}, DataType::Float32(), 31);
  m.params["w_h"] = NDArray::Random({4 * hidden, hidden}, DataType::Float32(), 32);
  int x = x0;
  for (int t = 0; t < num_steps; ++t) {
    std::string base = "t" + std::to_string(t);
    int gx = m.graph.AddOp("dense", base + "_gx", {x, wx});
    int gh = m.graph.AddOp("dense", base + "_gh", {h, wh});
    int gates = m.graph.AddOp("add", base + "_gates", {gx, gh});
    // Gate nonlinearities modeled on the full gate vector (i,f,o g composition is
    // approximated elementwise; the compute/flop structure matches an LSTM cell).
    int ig = m.graph.AddOp("sigmoid", base + "_sig", {gates});
    int gg = m.graph.AddOp("tanh", base + "_tanh", {gates});
    int prod = m.graph.AddOp("mul", base + "_ig", {ig, gg});
    // c' and h' share the [batch, 4*hidden] shaped intermediates; slice is modeled by a
    // dense projection back to hidden.
    int wslice = m.graph.AddConst(base + "_proj", {hidden, 4 * hidden});
    m.params[base + "_proj"] =
        NDArray::Random({hidden, 4 * hidden}, DataType::Float32(), 40 + t);
    int cnew = m.graph.AddOp("dense", base + "_c", {prod, wslice});
    int hnew = m.graph.AddOp("tanh", base + "_h", {cnew});
    c = cnew;
    h = hnew;
    x = hnew;
  }
  m.graph.outputs = {h};
  return m;
}

namespace {

// The pruned weight both SparseMlp variants share: dense random values, then
// elementwise pruning. The dense reference keeps the zeros in place; the sparse
// model compresses them away — same surviving values in the same positions.
NDArray PrunedWeight(int64_t rows, int64_t cols, double sparsity, uint64_t seed) {
  NDArray w = NDArray::Random({rows, cols}, DataType::Float32(), seed);
  runtime::SparsifyDense(&w, sparsity, seed ^ 0x9e3779b97f4a7c15ull);
  return w;
}

int SparseDenseLayer(Model* m, int x, const std::string& name, int64_t in_dim,
                     int64_t out_dim, double sparsity, uint64_t seed) {
  runtime::CSRMatrix csr =
      runtime::CSRMatrix::FromDense(PrunedWeight(out_dim, in_dim, sparsity, seed));
  int wd = m->graph.AddConst(name + "_w_data", csr.data.shape());
  int wi =
      m->graph.AddConst(name + "_w_indices", csr.indices.shape(), DataType::Int32());
  int wp =
      m->graph.AddConst(name + "_w_indptr", csr.indptr.shape(), DataType::Int32());
  m->params[name + "_w_data"] = csr.data;
  m->params[name + "_w_indices"] = csr.indices;
  m->params[name + "_w_indptr"] = csr.indptr;
  return m->graph.AddOp("sparse_dense", name, {x, wd, wi, wp},
                        {{"nnz", csr.nnz}, {"max_row_nnz", csr.max_row_nnz}});
}

}  // namespace

Model SparseMlp(int batch, int in_dim, int hidden, int classes, double sparsity) {
  Model m;
  m.input_shape = {batch, in_dim};
  int data = m.graph.AddInput("data", m.input_shape);
  int x = SparseDenseLayer(&m, data, "sfc1", in_dim, hidden, sparsity, 9100);
  x = m.graph.AddOp("relu", "sfc1_relu", {x});
  x = SparseDenseLayer(&m, x, "sfc2", hidden, classes, sparsity, 9200);
  x = m.graph.AddOp("softmax", "prob", {x});
  m.graph.outputs = {x};
  return m;
}

Model SparseMlpDenseReference(int batch, int in_dim, int hidden, int classes,
                              double sparsity) {
  Model m;
  m.input_shape = {batch, in_dim};
  int data = m.graph.AddInput("data", m.input_shape);
  int w1 = m.graph.AddConst("sfc1_w", {hidden, in_dim});
  m.params["sfc1_w"] = PrunedWeight(hidden, in_dim, sparsity, 9100);
  int x = m.graph.AddOp("dense", "sfc1", {data, w1});
  x = m.graph.AddOp("relu", "sfc1_relu", {x});
  int w2 = m.graph.AddConst("sfc2_w", {classes, hidden});
  m.params["sfc2_w"] = PrunedWeight(classes, hidden, sparsity, 9200);
  x = m.graph.AddOp("dense", "sfc2", {x, w2});
  x = m.graph.AddOp("softmax", "prob", {x});
  m.graph.outputs = {x};
  return m;
}

std::vector<topi::OpWorkload> ResnetConvWorkloads() {
  // Table 2: (H/W, IC, OC, K, S); all use SAME padding.
  struct Row {
    int hw, ic, oc, k, s;
  };
  std::vector<Row> rows = {
      {224, 3, 64, 7, 2},   {56, 64, 64, 3, 1},   {56, 64, 64, 1, 1},
      {56, 64, 128, 3, 2},  {56, 64, 128, 1, 2},  {28, 128, 128, 3, 1},
      {28, 128, 256, 3, 2}, {28, 128, 256, 1, 2}, {14, 256, 256, 3, 1},
      {14, 256, 512, 3, 2}, {14, 256, 512, 1, 2}, {7, 512, 512, 3, 1},
  };
  std::vector<topi::OpWorkload> out;
  for (const Row& r : rows) {
    topi::OpWorkload wl;
    wl.kind = "conv2d";
    wl.n = 1;
    wl.h = r.hw;
    wl.w = r.hw;
    wl.ic = r.ic;
    wl.oc = r.oc;
    wl.k = r.k;
    wl.stride = r.s;
    wl.pad = r.k / 2;  // SAME
    out.push_back(wl);
  }
  return out;
}

std::vector<topi::OpWorkload> MobilenetDepthwiseWorkloads() {
  struct Row {
    int hw, c, k, s;
  };
  std::vector<Row> rows = {
      {112, 32, 3, 1}, {112, 64, 3, 2}, {56, 128, 3, 1}, {56, 128, 3, 2}, {28, 256, 3, 1},
      {28, 256, 3, 2}, {14, 512, 3, 1}, {14, 512, 3, 2}, {7, 1024, 3, 1},
  };
  std::vector<topi::OpWorkload> out;
  for (const Row& r : rows) {
    topi::OpWorkload wl;
    wl.kind = "depthwise_conv2d";
    wl.n = 1;
    wl.h = r.hw;
    wl.w = r.hw;
    wl.ic = r.c;
    wl.oc = r.c;
    wl.k = r.k;
    wl.stride = r.s;
    wl.pad = r.k / 2;
    out.push_back(wl);
  }
  return out;
}

}  // namespace frontend
}  // namespace tvmcpp
