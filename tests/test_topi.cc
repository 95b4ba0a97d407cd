// Operator library tests: numerical correctness of every op against naive references,
// and the key schedule-space property: EVERY config in a template's space must produce
// a program with identical semantics (parameterized sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/graph/executor.h"
#include "src/interp/interp.h"
#include "src/ir/simplify.h"
#include "src/lower/lower.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/topi/nn.h"
#include "src/topi/schedules.h"

namespace tvmcpp {
namespace topi {
namespace {

// Naive conv2d reference.
std::vector<float> RefConv2d(const std::vector<float>& data, const std::vector<float>& kernel,
                             int n, int ic, int h, int w, int oc, int k, int stride, int pad) {
  int oh = static_cast<int>(ConvOutDim(h, k, stride, pad));
  int ow = static_cast<int>(ConvOutDim(w, k, stride, pad));
  std::vector<float> out(static_cast<size_t>(n * oc * oh * ow), 0.0f);
  for (int b = 0; b < n; ++b) {
    for (int f = 0; f < oc; ++f) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = 0;
          for (int c = 0; c < ic; ++c) {
            for (int dy = 0; dy < k; ++dy) {
              for (int dx = 0; dx < k; ++dx) {
                int iy = y * stride + dy - pad;
                int ix = x * stride + dx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) {
                  continue;
                }
                acc += data[static_cast<size_t>(((b * ic + c) * h + iy) * w + ix)] *
                       kernel[static_cast<size_t>(((f * ic + c) * k + dy) * k + dx)];
              }
            }
          }
          out[static_cast<size_t>(((b * oc + f) * oh + y) * ow + x)] = acc;
        }
      }
    }
  }
  return out;
}

std::vector<float> RefDepthwise(const std::vector<float>& data,
                                const std::vector<float>& kernel, int n, int c, int h, int w,
                                int k, int stride, int pad) {
  int oh = static_cast<int>(ConvOutDim(h, k, stride, pad));
  int ow = static_cast<int>(ConvOutDim(w, k, stride, pad));
  std::vector<float> out(static_cast<size_t>(n * c * oh * ow), 0.0f);
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = 0;
          for (int dy = 0; dy < k; ++dy) {
            for (int dx = 0; dx < k; ++dx) {
              int iy = y * stride + dy - pad;
              int ix = x * stride + dx - pad;
              if (iy < 0 || iy >= h || ix < 0 || ix >= w) {
                continue;
              }
              acc += data[static_cast<size_t>(((b * c + ch) * h + iy) * w + ix)] *
                     kernel[static_cast<size_t>((ch * k + dy) * k + dx)];
            }
          }
          out[static_cast<size_t>(((b * c + ch) * oh + y) * ow + x)] = acc;
        }
      }
    }
  }
  return out;
}

// With `fused_relu`, the op is scheduled as the master of a conv+relu group (the
// template's epilogue branch) instead of on its own.
void RunWorkload(const OpWorkload& wl, const Target& target, const Config& config,
                 double tol = 2e-2, bool fused_relu = false) {
  BuiltOp built = BuildOpCompute(wl);
  Schedule s;
  Tensor result = built.output;
  if (fused_relu) {
    result = Relu(built.output);
    s = ScheduleFusedGroup(target, {result}, built.output, config, &wl);
  } else {
    s = ApplyOpSchedule(wl, target, built, config);
  }
  LoweredFunc f = Lower(s, {built.inputs[0], built.inputs[1], result}, wl.Key());

  std::vector<int64_t> dshape = built.inputs[0].shape().size() == 2
                                    ? std::vector<int64_t>{wl.n, wl.k}
                                    : std::vector<int64_t>{wl.n, wl.ic, wl.h, wl.w};
  NDArray data = NDArray::Random(dshape, DataType::Float32(), 11);
  std::vector<int64_t> kshape;
  for (const Expr& e : built.inputs[1].shape()) {
    kshape.push_back(get_const_int(Simplify(e)));
  }
  NDArray kernel = NDArray::Random(kshape, DataType::Float32(), 13);
  std::vector<int64_t> oshape;
  for (const Expr& e : built.output.shape()) {
    oshape.push_back(get_const_int(Simplify(e)));
  }
  NDArray out = NDArray::Empty(oshape, DataType::Float32());
  RunLowered(f, {data.Binding(), kernel.Binding(), out.Binding()});

  std::vector<float> dvec(data.Data<float>(), data.Data<float>() + data.NumElements());
  std::vector<float> kvec(kernel.Data<float>(), kernel.Data<float>() + kernel.NumElements());
  std::vector<float> ref;
  if (wl.kind == "conv2d") {
    ref = RefConv2d(dvec, kvec, wl.n, wl.ic, wl.h, wl.w, wl.oc, wl.k, wl.stride, wl.pad);
  } else if (wl.kind == "depthwise_conv2d") {
    ref = RefDepthwise(dvec, kvec, wl.n, wl.ic, wl.h, wl.w, wl.k, wl.stride, wl.pad);
  } else if (wl.kind == "dense") {
    ref.assign(static_cast<size_t>(wl.n * wl.oc), 0.0f);
    for (int y = 0; y < wl.n; ++y) {
      for (int x = 0; x < wl.oc; ++x) {
        float acc = 0;
        for (int kk = 0; kk < wl.k; ++kk) {
          acc += dvec[static_cast<size_t>(y * wl.k + kk)] *
                 kvec[static_cast<size_t>(x * wl.k + kk)];
        }
        ref[static_cast<size_t>(y * wl.oc + x)] = acc;
      }
    }
  }
  if (fused_relu) {
    for (float& v : ref) {
      v = std::max(v, 0.0f);
    }
  }
  const float* got = out.Data<float>();
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], tol) << wl.Key() << " elem " << i;
  }
}

TEST(Topi, Conv2dCpuDefault) {
  OpWorkload wl{"conv2d", 1, 8, 8, 4, 8, 3, 1, 1};
  Target t = Target::ArmA53();
  RunWorkload(wl, t, DefaultConfig(GetScheduleSpace(wl, t)));
}

TEST(Topi, Conv2dGpuDefault) {
  OpWorkload wl{"conv2d", 1, 8, 8, 4, 8, 3, 1, 1};
  Target t = Target::TitanX();
  RunWorkload(wl, t, DefaultConfig(GetScheduleSpace(wl, t)));
}

TEST(Topi, Conv2dStride2) {
  OpWorkload wl{"conv2d", 1, 8, 8, 4, 8, 3, 2, 1};
  Target t = Target::TitanX();
  RunWorkload(wl, t, DefaultConfig(GetScheduleSpace(wl, t)));
}

TEST(Topi, Conv2d1x1) {
  OpWorkload wl{"conv2d", 1, 8, 8, 8, 16, 1, 1, 0};
  Target t = Target::TitanX();
  RunWorkload(wl, t, DefaultConfig(GetScheduleSpace(wl, t)));
}

TEST(Topi, DepthwiseCpuGpu) {
  OpWorkload wl{"depthwise_conv2d", 1, 8, 8, 8, 8, 3, 1, 1};
  RunWorkload(wl, Target::ArmA53(), DefaultConfig(GetScheduleSpace(wl, Target::ArmA53())));
  RunWorkload(wl, Target::TitanX(), DefaultConfig(GetScheduleSpace(wl, Target::TitanX())));
}

TEST(Topi, DenseCpuGpu) {
  OpWorkload wl{"dense", 16, 1, 1, 1, 24, 32, 1, 0};
  RunWorkload(wl, Target::ArmA53(), DefaultConfig(GetScheduleSpace(wl, Target::ArmA53())));
  RunWorkload(wl, Target::TitanX(), DefaultConfig(GetScheduleSpace(wl, Target::TitanX())));
}

TEST(Topi, ConvCpuShapesBothBranches) {
  // The CPU template on its own (output == master) and as a conv+relu master, over
  // ResNet-18's kernel/stride/pad shapes and a depthwise 3x3.
  Target t = Target::ArmA53();
  for (const OpWorkload& wl : {OpWorkload{"conv2d", 1, 8, 8, 4, 8, 3, 1, 1},
                               OpWorkload{"conv2d", 1, 9, 9, 4, 8, 3, 2, 1},
                               OpWorkload{"conv2d", 1, 12, 12, 3, 8, 7, 2, 3},
                               OpWorkload{"conv2d", 1, 8, 8, 8, 16, 1, 2, 0},
                               OpWorkload{"depthwise_conv2d", 1, 8, 8, 8, 8, 3, 1, 1}}) {
    for (bool fused : {false, true}) {
      SCOPED_TRACE(wl.Key() + (fused ? " fused" : " unfused"));
      RunWorkload(wl, t, DefaultConfig(GetScheduleSpace(wl, t)), 2e-2, fused);
    }
  }
}

std::vector<std::string> LeafNames(const Stage& st) {
  std::vector<std::string> names;
  for (const IterVar& iv : st->leaf_iter_vars) {
    names.push_back(iv->var->name);
  }
  return names;
}

TEST(Topi, ConvCpuTemplateRootPadAndReductionAboveTile) {
  // The pad is its own root stage, and the reduction axes (in their compute order,
  // never split) sit above the oc x ow output tile in both template branches.
  OpWorkload wl{"conv2d", 1, 8, 8, 4, 8, 3, 1, 1};
  Target t = Target::ArmA53();
  Config config = DefaultConfig(GetScheduleSpace(wl, t));
  BuiltOp built = BuildOpCompute(wl);
  Tensor pad = built.output.op()->InputTensors()[0];
  ASSERT_EQ(pad.name(), "conv2d.pad");

  Tensor out = Relu(built.output);
  Schedule fused = ScheduleFusedGroup(t, {out}, built.output, config, &wl);
  EXPECT_EQ(fused->GetStage(pad.op())->attach_type, AttachType::kRoot);
  EXPECT_EQ(LeafNames(fused->GetStage(built.output.op())),
            (std::vector<std::string>{"conv2d.i0", "conv2d.i2", "conv2d.rc", "conv2d.ry",
                                      "conv2d.rx", "conv2d.i1", "conv2d.i3"}));

  Schedule alone = ApplyOpSchedule(wl, t, built, config);
  EXPECT_EQ(alone->GetStage(pad.op())->attach_type, AttachType::kRoot);
  EXPECT_EQ(LeafNames(alone->GetStage(built.output.op())),
            (std::vector<std::string>{"conv2d.i0", "conv2d.i1.o", "conv2d.i2", "conv2d.i3.o",
                                      "conv2d.rc", "conv2d.ry", "conv2d.rx", "conv2d.i1.i",
                                      "conv2d.i3.i"}));
}

TEST(Topi, DenseCpuParallelAxisFollowsRowExtent) {
  // Rows that fit one tile_y (batch-1 inference) parallelize the output-column
  // blocks; a taller batch keeps the row blocks parallel.
  Target t = Target::ArmA53();
  for (int rows : {1, 16}) {
    OpWorkload wl{"dense", rows, 1, 1, 1, 64, 32, 1, 0};
    Config config = DefaultConfig(GetScheduleSpace(wl, t));
    ASSERT_LT(config.at("tile_y"), 16);
    BuiltOp built = BuildOpCompute(wl);
    Schedule s = ApplyOpSchedule(wl, t, built, config);
    Stage st = s->GetStage(built.output.op());
    auto for_type = [&](size_t i) {
      const IterVarAttr* attr = st->GetAttr(st->leaf_iter_vars[i]);
      return attr == nullptr ? ForType::kSerial : attr->for_type;
    };
    EXPECT_EQ(for_type(0), rows == 1 ? ForType::kSerial : ForType::kParallel) << rows;
    EXPECT_EQ(for_type(1), rows == 1 ? ForType::kParallel : ForType::kSerial) << rows;
    RunWorkload(wl, t, config);
  }
}

// Property sweep: every config in the space must be semantics-preserving.
class ConvConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConvConfigSweep, AllConfigsCorrectGpu) {
  OpWorkload wl{"conv2d", 1, 6, 6, 4, 8, 3, 1, 1};
  Target t = Target::TitanX();
  ConfigSpace space = GetScheduleSpace(wl, t);
  int64_t step = std::max<int64_t>(1, space.size() / 24);
  int64_t index = (GetParam() * step) % space.size();
  RunWorkload(wl, t, space.At(index));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConvConfigSweep, ::testing::Range(0, 24));

class ConvConfigSweepCpu : public ::testing::TestWithParam<int> {};

TEST_P(ConvConfigSweepCpu, AllConfigsCorrectCpu) {
  OpWorkload wl{"conv2d", 1, 6, 6, 4, 8, 3, 1, 1};
  Target t = Target::ArmA53();
  ConfigSpace space = GetScheduleSpace(wl, t);
  int64_t step = std::max<int64_t>(1, space.size() / 16);
  int64_t index = (GetParam() * step) % space.size();
  RunWorkload(wl, t, space.At(index));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConvConfigSweepCpu, ::testing::Range(0, 16));

class DenseConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(DenseConfigSweep, AllConfigsCorrectGpu) {
  OpWorkload wl{"dense", 32, 1, 1, 1, 32, 32, 1, 0};
  Target t = Target::TitanX();
  ConfigSpace space = GetScheduleSpace(wl, t);
  int64_t step = std::max<int64_t>(1, space.size() / 16);
  int64_t index = (GetParam() * step) % space.size();
  RunWorkload(wl, t, space.At(index));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DenseConfigSweep, ::testing::Range(0, 16));

}  // namespace
}  // namespace topi
}  // namespace tvmcpp
