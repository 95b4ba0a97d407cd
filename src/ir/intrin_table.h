// The single source of truth for tensor-intrinsic descriptors shared by every
// execution engine.
//
// Both the tree-walking interpreter (src/interp) and the bytecode VM (src/vm) execute
// tensorized hardware intrinsics (Section 4.3) through the same generic ABI: for each
// buffer (output first, then inputs) the call carries (handle, base_offset, stride per
// tensorized dim...), followed by the tensorized extents. Keeping the name -> category
// table and the arity decode in one header means a new intrinsic added for one engine
// cannot silently de-optimize the other into interpreter fallback.
#ifndef SRC_IR_INTRIN_TABLE_H_
#define SRC_IR_INTRIN_TABLE_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "src/ir/stmt.h"
#include "src/support/float16.h"

namespace tvmcpp {

// Semantic category of a tensor intrinsic, keyed by buffer count:
//   kFill (1 buffer):  out[...] = 0
//   kCopy (2 buffers): out[...] = in[...]
//   kMac  (3 buffers): out[...] += in0[...] * in1[...]
enum class TensorIntrinCategory : uint8_t { kFill = 0, kCopy = 1, kMac = 2 };

struct TensorIntrinInfo {
  TensorIntrinCategory category;
  int num_buffers;
};

// Returns the descriptor for `name`, or nullptr when it is not a tensor intrinsic.
inline const TensorIntrinInfo* LookupTensorIntrin(const std::string& name) {
  static const TensorIntrinInfo kFillInfo{TensorIntrinCategory::kFill, 1};
  static const TensorIntrinInfo kCopyInfo{TensorIntrinCategory::kCopy, 2};
  static const TensorIntrinInfo kMacInfo{TensorIntrinCategory::kMac, 3};
  if (name == kFillZeroIntrin || name == "fill_zero") {
    return &kFillInfo;
  }
  if (name == kDmaCopyIntrin || name == "dma_copy") {
    return &kCopyInfo;
  }
  if (name == kGemmIntrin || name == "gemm_update" || name == "bitserial_gemv" ||
      name == "arm_bitserial_gemv" || name == "fused_gemm_add") {
    return &kMacInfo;
  }
  return nullptr;
}

// Lane-wise pure float unary math intrinsics. Both execution engines evaluate them
// through this one table (name -> tag -> EvalUnaryMathFn), and the vectorizer
// consults the same membership test — adding an intrinsic here enables it everywhere
// at once, with identical (bitwise) evaluation on every path.
enum class UnaryMathFn : uint8_t { kExp, kLog, kSqrt, kTanh, kSigmoid };

inline bool LookupUnaryMathFn(const std::string& name, UnaryMathFn* fn) {
  if (name == "exp") {
    *fn = UnaryMathFn::kExp;
  } else if (name == "log") {
    *fn = UnaryMathFn::kLog;
  } else if (name == "sqrt") {
    *fn = UnaryMathFn::kSqrt;
  } else if (name == "tanh") {
    *fn = UnaryMathFn::kTanh;
  } else if (name == "sigmoid") {
    *fn = UnaryMathFn::kSigmoid;
  } else {
    return false;
  }
  return true;
}

// Calls glibc's double function and rounds the result to f32 (the emitted C does the
// same through `(float)exp((double)x)` under -fno-builtin).
inline double EvalUnaryMathFn(UnaryMathFn fn, double x) {
  double r = 0;
  switch (fn) {
    case UnaryMathFn::kExp:
      r = std::exp(x);
      break;
    case UnaryMathFn::kLog:
      r = std::log(x);
      break;
    case UnaryMathFn::kSqrt:
      r = std::sqrt(x);
      break;
    case UnaryMathFn::kTanh:
      r = std::tanh(x);
      break;
    case UnaryMathFn::kSigmoid:
      r = 1.0 / (1.0 + std::exp(-x));
      break;
  }
  return RoundF32(r);
}

inline bool IsUnaryMathIntrin(const std::string& name) {
  UnaryMathFn fn;
  return LookupUnaryMathFn(name, &fn);
}

// Decodes the number of tensorized dims from the argument count:
//   #args = B*(2+NT) + NT  =>  NT = (#args - 2B) / (B+1)
// Returns false when `total_args` is not a valid arity for `num_buffers`.
inline bool DecodeTensorIntrinArity(int num_buffers, int total_args, int* nt) {
  *nt = (total_args - 2 * num_buffers) / (num_buffers + 1);
  return *nt >= 0 && num_buffers * (2 + *nt) + *nt == total_args;
}

}  // namespace tvmcpp

#endif  // SRC_IR_INTRIN_TABLE_H_
