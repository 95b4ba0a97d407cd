// Model zoo tests: graph construction, shape inference through whole networks, Table 2
// workload lists, and end-to-end compilation of every model for both CPU and GPU.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace frontend {
namespace {

bool SameBytes(const NDArray& a, const NDArray& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.Data<char>(), b.Data<char>(), static_cast<size_t>(a.ByteSize())) == 0;
}

// The OIHW kernel holding the same logical weights as an OIHW<b>o kernel.
NDArray OihwOf(const NDArray& blocked) {
  const std::vector<int64_t>& s = blocked.shape();
  const int64_t block = s[4], taps = s[1] * s[2] * s[3];
  NDArray w = NDArray::Empty({s[0] * block, s[1], s[2], s[3]});
  for (int64_t oc = 0; oc < s[0] * block; ++oc) {
    for (int64_t t = 0; t < taps; ++t) {
      w.Data<float>()[oc * taps + t] =
          blocked.Data<float>()[((oc / block) * taps + t) * block + oc % block];
    }
  }
  return w;
}

// `m` with every OIHW<b>o conv kernel replaced by its OIHW relayout.
Model WithOihwKernels(Model m) {
  for (int id = 0; id < m.graph.num_nodes(); ++id) {
    graph::Node& n = m.graph.node(id);
    if (n.op == "const" && n.shape.size() == 5) {
      NDArray& w = m.params.at(n.name);
      w = OihwOf(w);
      n.shape = w.shape();
    }
  }
  return m;
}

struct ScopedEngine {
  ExecEngine saved = GetExecEngine();
  explicit ScopedEngine(ExecEngine e) { SetExecEngine(e); }
  ~ScopedEngine() { SetExecEngine(saved); }
};

struct ScopedStrictMode {
  bool saved = vm::StrictMode();
  ScopedStrictMode() { vm::SetStrictMode(true); }
  ~ScopedStrictMode() { vm::SetStrictMode(saved); }
};

NDArray RunSerial(const Model& m, const NDArray& input) {
  auto model = CompileModel(m, Target::ArmA53());
  graph::RunContext ctx(model);
  ctx.SetInput(m.input_name, input);
  vm::ExecOptions serial;
  serial.num_threads = 1;
  model->Run(&ctx, serial);
  return ctx.GetOutput(0).Copy();
}

TEST(Models, ConvWeightsAreNDArrayRandomReLaid) {
  // 8 | 64: drawn straight into OIHW8o positions, the same values as the OIHW draw.
  NDArray blocked = RandomConvWeight(64, 3, 7, 11);
  EXPECT_EQ(blocked.shape(), (std::vector<int64_t>{8, 3, 7, 7, 8}));
  EXPECT_TRUE(SameBytes(OihwOf(blocked), NDArray::Random({64, 3, 7, 7}, DataType::Float32(), 11)));
  // 8 does not divide 12: the kernel stays OIHW.
  EXPECT_TRUE(SameBytes(RandomConvWeight(12, 4, 3, 5),
                        NDArray::Random({12, 4, 3, 3}, DataType::Float32(), 5)));
  // Every zoo conv2d with 8 | oc carries a blocked kernel.
  for (const Model& m : {ResNet18(1, 32), MobileNet(1, 32), Dqn(1)}) {
    for (const graph::Node& n : m.graph.nodes()) {
      if (n.op == "conv2d") {
        EXPECT_EQ(m.graph.node(n.inputs[1]).shape.size(), 5u) << n.name;
      }
    }
  }
}

TEST(Models, ResNet18LogitsMatchOihwKernelsOnEveryTier) {
  // The pre-softmax logits of the zoo's ResNet-18 (blocked kernels) against the
  // same graph with OIHW kernels of the same values, bitwise on every tier. The
  // logits, unlike the saturated softmax after them, are distinct numbers, so a
  // kernel that summed in another order would show here. The reference is the
  // OIHW graph on the VM; the interpreter, the slow tier, runs the blocked graph
  // alone, which keeps the test well inside its timeout under the sanitizers.
  Model blocked = ResNet18(1, 16);
  for (const graph::Node& n : blocked.graph.nodes()) {
    if (n.name == "fc") {
      blocked.graph.outputs = {n.id};
    }
  }
  const Model oihw = WithOihwKernels(blocked);
  const NDArray input = NDArray::Random(blocked.input_shape, DataType::Float32(), 7);
  ScopedStrictMode strict;
  NDArray reference;
  {
    ScopedEngine vm(ExecEngine::kVm);
    reference = RunSerial(oihw, input);
  }
  const struct {
    const Model* model;
    ExecEngine engine;
    const char* what;
  } runs[] = {{&oihw, ExecEngine::kNative, "OIHW on native"},
              {&blocked, ExecEngine::kInterp, "blocked on interp"},
              {&blocked, ExecEngine::kVm, "blocked on vm"},
              {&blocked, ExecEngine::kNative, "blocked on native"}};
  for (const auto& run : runs) {
    ScopedEngine scoped(run.engine);
    EXPECT_TRUE(SameBytes(RunSerial(*run.model, input), reference))
        << run.what << " differs from OIHW on vm";
  }
  std::set<float> distinct;
  for (int64_t i = 0; i < reference.NumElements(); ++i) {
    ASSERT_TRUE(std::isfinite(reference.Data<float>()[i]));
    distinct.insert(reference.Data<float>()[i]);
  }
  EXPECT_GT(distinct.size(), 900u);
}

TEST(Models, ResNet18Shapes) {
  Model m = ResNet18(1, 224);
  const graph::Node& out = m.graph.node(m.graph.outputs[0]);
  EXPECT_EQ(out.shape, (std::vector<int64_t>{1, 1000}));
  // 20 convolutions (1 stem + 16 block + 3 downsample).
  int convs = 0;
  for (const auto& n : m.graph.nodes()) {
    convs += n.op == "conv2d";
  }
  EXPECT_EQ(convs, 20);
}

TEST(Models, MobileNetShapes) {
  Model m = MobileNet(1, 224);
  const graph::Node& out = m.graph.node(m.graph.outputs[0]);
  EXPECT_EQ(out.shape, (std::vector<int64_t>{1, 1000}));
  int dw = 0;
  for (const auto& n : m.graph.nodes()) {
    dw += n.op == "depthwise_conv2d";
  }
  EXPECT_EQ(dw, 13);
}

TEST(Models, DqnShapes) {
  Model m = Dqn(1);
  EXPECT_EQ(m.graph.node(m.graph.outputs[0]).shape, (std::vector<int64_t>{1, 18}));
}

TEST(Models, DcganShapes) {
  Model m = Dcgan(1);
  EXPECT_EQ(m.graph.node(m.graph.outputs[0]).shape, (std::vector<int64_t>{1, 3, 64, 64}));
}

TEST(Models, Table2Workloads) {
  auto convs = ResnetConvWorkloads();
  ASSERT_EQ(convs.size(), 12u);
  EXPECT_EQ(convs[0].k, 7);
  EXPECT_EQ(convs[0].stride, 2);
  EXPECT_EQ(convs[6].ic, 128);  // C7
  EXPECT_EQ(convs[6].oc, 256);
  auto dws = MobilenetDepthwiseWorkloads();
  ASSERT_EQ(dws.size(), 9u);
  EXPECT_EQ(dws[8].ic, 1024);
}

class ModelCompile : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ModelCompile, CompilesForTarget) {
  int model_id = std::get<0>(GetParam());
  int target_id = std::get<1>(GetParam());
  Model m;
  switch (model_id) {
    case 0:
      m = ResNet18(1, 32);  // small image: fast compile, same kernel structure
      break;
    case 1:
      m = MobileNet(1, 32);
      break;
    case 2:
      m = Dqn(1);
      break;
    case 3:
      m = Dcgan(1);
      break;
    default:
      m = LstmLanguageModel(2, 64);
      break;
  }
  Target t = target_id == 0 ? Target::ArmA53() : Target::TitanX();
  graph::GraphExecutor exec(m.graph, t, {});
  EXPECT_GT(exec.num_kernels(), 0);
  EXPECT_GT(exec.EstimateSeconds(), 0.0);
  EXPECT_LE(exec.memory_plan().planned_bytes, exec.memory_plan().unplanned_bytes);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelCompile,
                         ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 2)));

}  // namespace
}  // namespace frontend
}  // namespace tvmcpp
