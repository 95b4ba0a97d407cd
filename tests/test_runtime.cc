// Runtime-layer tests: NDArray, the thread pool, vendor baseline profiles, and the
// low-precision cost model.
#include <gtest/gtest.h>

#include <atomic>

#include "src/baselines/baselines.h"
#include "src/graph/executor.h"
#include "src/interp/interp.h"
#include "src/lower/lower.h"
#include "src/lowp/lowp.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/threadpool.h"
#include "src/schedule/schedule.h"
#include "src/te/tensor.h"

namespace tvmcpp {
namespace {

TEST(NDArrayTest, RoundTripAndCopy) {
  NDArray a = NDArray::Random({4, 5}, DataType::Float32(), 9);
  EXPECT_EQ(a.NumElements(), 20);
  NDArray b = a.Copy();
  b.Data<float>()[0] += 1.0f;
  EXPECT_NE(a.Data<float>()[0], b.Data<float>()[0]);
  NDArray c = NDArray::Empty({4, 5});
  c.CopyFrom(a);
  EXPECT_EQ(c.Data<float>()[7], a.Data<float>()[7]);
}

TEST(NDArrayTest, IntTypesWiden) {
  NDArray a = NDArray::Random({8}, DataType::Int(2), 3);
  for (int i = 0; i < 8; ++i) {
    EXPECT_GE(a.Data<int8_t>()[i], 0);
    EXPECT_LT(a.Data<int8_t>()[i], 4);
  }
}

TEST(ThreadPoolTest, ExecutesAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&count, i] {
      count.fetch_add(1);
      return i * 2;
    }));
  }
  int sum = 0;
  for (auto& f : futures) {
    sum += f.get();
  }
  EXPECT_EQ(count.load(), 64);
  EXPECT_EQ(sum, 64 * 63);
}

TEST(BaselinesTest, ProfilesEncodePaperStructure) {
  Target gpu = Target::TitanX();
  // cuDNN: common 3x3 conv runs near its best; DQN's 4x4 s2 conv runs far worse
  // relative to its flop count (the Figure 14 explanation).
  topi::OpWorkload common{"conv2d", 1, 56, 56, 64, 64, 3, 1, 1};
  topi::OpWorkload weird{"conv2d", 1, 20, 20, 32, 64, 4, 2, 0};
  double eff_common = common.Flops() /
                      baselines::OperatorSeconds(baselines::Library::kCudnn, common, gpu);
  double eff_weird =
      weird.Flops() / baselines::OperatorSeconds(baselines::Library::kCudnn, weird, gpu);
  EXPECT_GT(eff_common, 2.0 * eff_weird);
  // Depthwise falls to framework kernels: far lower flop efficiency than dense conv.
  topi::OpWorkload dw{"depthwise_conv2d", 1, 56, 56, 128, 128, 3, 1, 1};
  double eff_dw =
      dw.Flops() / baselines::OperatorSeconds(baselines::Library::kMxNetKernels, dw, gpu);
  EXPECT_GT(eff_common, 4.0 * eff_dw);
}

TEST(LowpTest, BitserialConvMatchesReference) {
  // 2-bit activations x bipolar 1-bit weights, computed exactly by the interpreter.
  const int n = 6, c = 3, k = 3;
  Tensor data = placeholder({make_int(1), make_int(c), make_int(n), make_int(n)},
                            DataType::Int8(), "data");
  Tensor kernel = placeholder({make_int(4), make_int(c), make_int(k), make_int(k)},
                              DataType::Int8(), "kernel");
  Tensor out = lowp::BitserialConv2d(data, kernel, 1, 1, 2);
  Schedule s = create_schedule({out});
  for (const Tensor& t : out.op()->InputTensors()) {
    if (t.name().find(".pad") != std::string::npos) {
      (*s)[t]->compute_inline();
    }
  }
  LoweredFunc f = Lower(s, {data, kernel, out}, "bits");
  NDArray d = NDArray::Random({1, c, n, n}, DataType::Int(2), 3);   // values 0..3
  NDArray w = NDArray::Random({4, c, k, k}, DataType::Int(1), 4);   // values 0..1
  NDArray o = NDArray::Empty({1, 4, n, n}, DataType::Int32());
  RunLowered(f, {d.Binding(), w.Binding(), o.Binding()});
  // Reference: sum over taps of act * (2w - 1).
  for (int f2 = 0; f2 < 4; ++f2) {
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        int ref = 0;
        for (int ch = 0; ch < c; ++ch) {
          for (int dy = 0; dy < k; ++dy) {
            for (int dx = 0; dx < k; ++dx) {
              int iy = y + dy - 1, ix = x + dx - 1;
              if (iy < 0 || iy >= n || ix < 0 || ix >= n) {
                continue;
              }
              int act = d.Data<int8_t>()[(ch * n + iy) * n + ix];
              int wgt = w.Data<int8_t>()[((f2 * c + ch) * k + dy) * k + dx];
              ref += act * (2 * wgt - 1);
            }
          }
        }
        ASSERT_EQ(o.Data<int32_t>()[(f2 * n + y) * n + x], ref)
            << f2 << " " << y << " " << x;
      }
    }
  }
}

TEST(LowpTest, CostModelShapes) {
  // Multi-threading helps 3x3 more than the low-intensity 1x1 (Figure 18's note).
  topi::OpWorkload c6{"conv2d", 1, 28, 28, 128, 128, 3, 1, 1};
  topi::OpWorkload c3{"conv2d", 1, 56, 56, 64, 64, 1, 1, 0};
  double s6_1 = lowp::EstimateBitserialSeconds(c6, 2, 1, 1, true);
  double s6_4 = lowp::EstimateBitserialSeconds(c6, 2, 1, 4, true);
  double s3_1 = lowp::EstimateBitserialSeconds(c3, 2, 1, 1, true);
  double s3_4 = lowp::EstimateBitserialSeconds(c3, 2, 1, 4, true);
  EXPECT_GT(s6_1 / s6_4, s3_1 / s3_4 * 0.99);
  EXPECT_GT(s6_1 / s6_4, 2.0);
}

}  // namespace
}  // namespace tvmcpp
