// The tensor-operator library (computes only; schedules live in schedules.h).
//
// All computes are declarative tensor expressions; layouts are NCHW unless noted.
#ifndef SRC_TOPI_NN_H_
#define SRC_TOPI_NN_H_

#include <string>
#include <vector>

#include "src/te/tensor.h"

namespace tvmcpp {
namespace topi {

// Zero-pads the spatial dims of NCHW data. Emitted as an explicit stage so schedules can
// inline it (CPU) or stage it into shared memory (GPU); conv reads it unguarded.
Tensor PadNCHW(const Tensor& data, int pad, const std::string& name = "pad");

// 2-D convolution, NCHW data [N, C, H, W]. The kernel is OIHW [OC, IC, KH, KW] or,
// when it has rank 5, OIHW<b>o [OC/b, IC, KH, KW, b]: output channel oc reads
// kernel[oc/b, ic, ky, kx, oc%b], so b consecutive output channels of one tap are
// adjacent in memory and the CPU template vectorizes over them. Both layouts sum
// the same products in the same order. When pad > 0 the returned op reads an
// intermediate PadNCHW stage (its first input).
Tensor Conv2dNCHW(const Tensor& data, const Tensor& kernel, int stride, int pad,
                  const std::string& name = "conv2d");

// Depthwise 2-D convolution (channel multiplier 1), kernel [C, 1, KH, KW].
Tensor DepthwiseConv2dNCHW(const Tensor& data, const Tensor& kernel, int stride, int pad,
                           const std::string& name = "depthwise_conv2d");

// Transposed convolution (DCGAN generator layers), kernel [IC, OC, KH, KW].
Tensor Conv2dTransposeNCHW(const Tensor& data, const Tensor& kernel, int stride, int pad,
                           const std::string& name = "conv2d_transpose");

// Dense / fully connected: data [B, I], weight [O, I] -> [B, O].
Tensor Dense(const Tensor& data, const Tensor& weight, const std::string& name = "dense");

// Elementwise.
Tensor Relu(const Tensor& x, const std::string& name = "relu");
Tensor TanhOp(const Tensor& x, const std::string& name = "tanh");
Tensor SigmoidOp(const Tensor& x, const std::string& name = "sigmoid");
Tensor Add(const Tensor& a, const Tensor& b, const std::string& name = "add");
Tensor Mul(const Tensor& a, const Tensor& b, const std::string& name = "mul");
// Per-channel scale+shift on NCHW (inference-time batch norm).
Tensor BatchNorm(const Tensor& x, const Tensor& scale, const Tensor& shift,
                 const std::string& name = "batch_norm");
Tensor BiasAdd(const Tensor& x, const Tensor& bias, const std::string& name = "bias_add");

// Pooling on NCHW.
Tensor MaxPool2d(const Tensor& x, int kernel, int stride, int pad,
                 const std::string& name = "max_pool2d");
Tensor GlobalAvgPool(const Tensor& x, const std::string& name = "global_avg_pool");

// Shape ops.
Tensor Flatten(const Tensor& x, const std::string& name = "flatten");  // [N, C*H*W]
Tensor Softmax(const Tensor& x, const std::string& name = "softmax");  // over last dim of 2-D

// Output spatial size of a convolution-like op.
inline int64_t ConvOutDim(int64_t in, int64_t kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace topi
}  // namespace tvmcpp

#endif  // SRC_TOPI_NN_H_
