// First dedicated tests for src/lowp (the ultra low-precision bit-serial path).
//
// Two layers: (1) quantization round-trip units — the bit-plane decomposition at
// the heart of BitserialConv2d must reconstruct every representable W-bit value
// exactly, and the scheduled kernel must stay bitwise-equal to the unscheduled
// lowering across the knob space; (2) one quantized + pruned (lowp x sparse)
// end-to-end config: a pruned int8 sparse_dense feeding 2-bit quantized
// activations into the bit-serial conv, bitwise-pinned on all three engines
// under TVMCPP_VM_STRICT=1 with zero fallbacks. Integer arithmetic is exact, so
// "pinned" here means byte-identical outputs, not tolerances.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/codegen/codegen.h"
#include "src/codegen/native.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/lower/lower.h"
#include "src/lowp/lowp.h"
#include "src/runtime/csr.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/schedule/schedule.h"
#include "src/topi/schedules.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

struct ScopedStrictMode {
  bool saved;
  ScopedStrictMode() : saved(vm::StrictMode()) { vm::SetStrictMode(true); }
  ~ScopedStrictMode() { vm::SetStrictMode(saved); }
};

// Interp (oracle) / serial VM / native — every buffer byte-identical, no silent
// downgrades. Same contract as tests/test_codegen.cc and tests/test_sparse.cc.
void ExpectThreeTierIdentical(const LoweredFunc& f,
                              const std::vector<NDArray>& inputs,
                              const std::vector<int64_t>& out_shape,
                              DataType out_dtype, NDArray* result = nullptr) {
  ScopedStrictMode strict;
  vm::ResetFallbackCount();
  std::shared_ptr<const vm::Program> prog = vm::CompileToProgram(f, {});
  ASSERT_NE(prog, nullptr) << "VM failed to compile " << f.name;
  codegen::NativeKernel native = codegen::CompileNativeKernel(f);
  ASSERT_TRUE(static_cast<bool>(native))
      << "native tier failed to compile " << f.name << ":\n" << ToString(f.body);
  NDArray out_interp = NDArray::Empty(out_shape, out_dtype);
  NDArray out_vm = NDArray::Empty(out_shape, out_dtype);
  NDArray out_native = NDArray::Empty(out_shape, out_dtype);
  auto bind = [&](const NDArray& out) {
    std::vector<BufferBinding> b;
    for (const NDArray& in : inputs) {
      b.push_back(in.Binding());
    }
    b.push_back(out.Binding());
    return b;
  };
  RunLoweredInterp(f, bind(out_interp));
  vm::ExecOptions serial;
  serial.num_threads = 1;
  vm::Run(*prog, bind(out_vm), serial);
  codegen::RunNativeKernel(native, bind(out_native));
  EXPECT_EQ(std::memcmp(out_interp.Data<char>(), out_vm.Data<char>(),
                        static_cast<size_t>(out_interp.ByteSize())),
            0)
      << f.name << ": interp and VM outputs differ";
  EXPECT_EQ(std::memcmp(out_interp.Data<char>(), out_native.Data<char>(),
                        static_cast<size_t>(out_interp.ByteSize())),
            0)
      << f.name << ": interp and native outputs differ";
  EXPECT_EQ(vm::FallbackCount(), 0) << f.name << ": VM fell back to the interpreter";
  if (result != nullptr) {
    *result = out_interp;
  }
}

LoweredFunc LowerBitserial(const Tensor& data, const Tensor& kernel, const Tensor& out,
                           const std::string& name) {
  Schedule s = create_schedule({out});
  for (const Tensor& t : out.op()->InputTensors()) {
    if (t.name().find(".pad") != std::string::npos) {
      (*s)[t]->compute_inline();
    }
  }
  return Lower(s, {data, kernel, out}, name);
}

// ---------------------------------------------------------------------------
// Quantization round-trip units
// ---------------------------------------------------------------------------

TEST(LowpQuant, BitPlaneRoundTripReconstructsEveryValue) {
  // 1x1 conv, one channel, single +1 bipolar weight, no padding: the conv
  // degenerates to the bit-plane sum sum_b 2^b * ((act >> b) & 1), which must
  // reproduce every representable W-bit activation exactly.
  for (int bits : {1, 2, 3}) {
    const int n = 1 << bits;  // one pixel per representable value
    Tensor data = placeholder({make_int(1), make_int(1), make_int(1), make_int(n)},
                              DataType::Int8(), "data");
    Tensor kernel = placeholder({make_int(1), make_int(1), make_int(1), make_int(1)},
                                DataType::Int8(), "kernel");
    Tensor out = lowp::BitserialConv2d(data, kernel, 1, 0, bits);
    LoweredFunc f =
        LowerBitserial(data, kernel, out, "bits_rt_" + std::to_string(bits));
    NDArray d = NDArray::Empty({1, 1, 1, n}, DataType::Int8());
    for (int v = 0; v < n; ++v) {
      d.Data<int8_t>()[v] = static_cast<int8_t>(v);  // the full W-bit range
    }
    NDArray w = NDArray::Empty({1, 1, 1, 1}, DataType::Int8());
    w.Data<int8_t>()[0] = 1;  // bipolar +1
    NDArray o;
    ExpectThreeTierIdentical(f, {d, w}, {1, 1, 1, n}, DataType::Int32(), &o);
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(o.Data<int32_t>()[v], v)
          << bits << "-bit value " << v << " did not round-trip";
    }
  }
}

TEST(LowpQuant, ConvMatchesIntReferenceAcrossBitWidths) {
  // Direct integer reference sum(act * (2w - 1)) over taps, per activation width.
  const int n = 5, c = 2, k = 3, oc = 3;
  for (int bits : {1, 2, 3}) {
    Tensor data = placeholder({make_int(1), make_int(c), make_int(n), make_int(n)},
                              DataType::Int8(), "data");
    Tensor kernel = placeholder({make_int(oc), make_int(c), make_int(k), make_int(k)},
                                DataType::Int8(), "kernel");
    Tensor out = lowp::BitserialConv2d(data, kernel, 1, 1, bits);
    LoweredFunc f =
        LowerBitserial(data, kernel, out, "bits_ref_" + std::to_string(bits));
    NDArray d = NDArray::Random({1, c, n, n}, DataType::Int(bits), 100 + bits);
    NDArray w = NDArray::Random({oc, c, k, k}, DataType::Int(1), 200 + bits);
    NDArray o;
    ExpectThreeTierIdentical(f, {d, w}, {1, oc, n, n}, DataType::Int32(), &o);
    for (int f2 = 0; f2 < oc; ++f2) {
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
              << bits << "b @ " << f2 << "," << y << "," << x;
        }
      }
    }
  }
}

TEST(LowpQuant, ScheduledMatchesUnscheduledBitwise) {
  // Every point of the (small) knob space must compute the same bytes as the
  // default create_schedule lowering — scheduling is a layout/order choice only,
  // and integer accumulation makes reorderings exact.
  const int n = 8, c = 2, k = 3, oc = 4;
  topi::OpWorkload wl;
  wl.kind = "conv2d";
  wl.n = 1;
  wl.ic = c;
  wl.h = wl.w = n;
  wl.oc = oc;
  wl.k = k;
  wl.stride = 1;
  wl.pad = 1;
  wl.dtype = DataType::Int8();
  Tensor data = placeholder({make_int(1), make_int(c), make_int(n), make_int(n)},
                            DataType::Int8(), "data");
  Tensor kernel = placeholder({make_int(oc), make_int(c), make_int(k), make_int(k)},
                              DataType::Int8(), "kernel");
  NDArray d = NDArray::Random({1, c, n, n}, DataType::Int(2), 7);
  NDArray w = NDArray::Random({oc, c, k, k}, DataType::Int(1), 8);

  Tensor ref_out = lowp::BitserialConv2d(data, kernel, 1, 1, 2);
  LoweredFunc ref_f = LowerBitserial(data, kernel, ref_out, "bits_sched_ref");
  NDArray ref = NDArray::Empty({1, oc, n, n}, DataType::Int32());
  RunLoweredInterp(ref_f, {d.Binding(), w.Binding(), ref.Binding()});

  topi::ConfigSpace space = lowp::BitserialScheduleSpace(wl);
  ASSERT_EQ(space.knobs.size(), 4u);  // tile_oc, tile_ow, parallel, unroll
  for (int64_t tile_oc : {1, 2, 4}) {
    for (int64_t par : {0, 1}) {
      topi::Config cfg = topi::DefaultConfig(space);
      cfg["tile_oc"] = tile_oc;
      cfg["tile_ow"] = 4;
      cfg["parallel"] = par;
      cfg["unroll"] = 1;
      Tensor out = lowp::BitserialConv2d(data, kernel, 1, 1, 2);
      Schedule s = lowp::ApplyBitserialSchedule(wl, out, cfg);
      LoweredFunc f = Lower(s, {data, kernel, out}, "bits_sched");
      NDArray got = NDArray::Empty({1, oc, n, n}, DataType::Int32());
      RunLoweredInterp(f, {d.Binding(), w.Binding(), got.Binding()});
      EXPECT_EQ(std::memcmp(got.Data<char>(), ref.Data<char>(),
                            static_cast<size_t>(ref.ByteSize())),
                0)
          << "tile_oc=" << tile_oc << " parallel=" << par
          << " differs from the unscheduled reference";
    }
  }
}

TEST(LowpQuant, GemvIntrinsicDeclares) {
  TensorIntrinPtr intrin = lowp::DeclArmBitserialGemv(4, 8);
  ASSERT_NE(intrin, nullptr);
}

// ---------------------------------------------------------------------------
// Quantized + pruned: lowp x sparse end to end
// ---------------------------------------------------------------------------

TEST(LowpSparse, QuantizedPrunedPipelineBitwisePinned) {
  // Stage 1: a pruned int8 sparse_dense (quantized weights AND pruned structure)
  // computes feature rows. Stage 2: the features are quantized to 2-bit
  // activations and pushed through the bit-serial conv. Both stages must be
  // bitwise-pinned across interp/VM/native with zero fallbacks — the combined
  // quantized+pruned configuration is supported, not an error.
  const int64_t kBatch = 4, kIn = 24, kOut = 16;
  runtime::CSRMatrix csr = runtime::RandomCsr(kOut, kIn, 0.85, DataType::Int8(), 301);
  topi::OpWorkload wl;
  wl.kind = "sparse_dense";
  wl.n = kBatch;
  wl.k = kIn;
  wl.oc = static_cast<int>(kOut);
  wl.dtype = DataType::Int8();
  wl.nnz = csr.nnz;
  wl.max_row_nnz = csr.max_row_nnz;
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  Target cpu = Target::ArmA53();
  topi::Config cfg = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  Schedule s = topi::ApplyOpSchedule(wl, cpu, built, cfg);
  LoweredFunc sp_f = Lower(s, built.Args(), "lowp_sparse_stage");
  NDArray x = NDArray::Random({kBatch, kIn}, DataType::Int(2), 302);
  NDArray features;
  ExpectThreeTierIdentical(sp_f, {x, csr.data, csr.indices, csr.indptr},
                           {kBatch, kOut}, DataType::Int8(), &features);

  // Quantize stage-1 features to 2-bit activations (keep the low bit-planes).
  const int64_t side = 4;  // kOut = 4x4 spatial grid, one channel per batch row
  NDArray act = NDArray::Empty({kBatch, 1, side, side}, DataType::Int8());
  for (int64_t i = 0; i < kBatch * kOut; ++i) {
    act.Data<int8_t>()[i] = static_cast<int8_t>(features.Data<int8_t>()[i] & 3);
  }
  Tensor adata = placeholder({make_int(kBatch), make_int(1), make_int(side),
                              make_int(side)},
                             DataType::Int8(), "act");
  Tensor kern = placeholder({make_int(2), make_int(1), make_int(3), make_int(3)},
                            DataType::Int8(), "kern");
  Tensor conv = lowp::BitserialConv2d(adata, kern, 1, 1, 2);
  LoweredFunc conv_f = LowerBitserial(adata, kern, conv, "lowp_sparse_conv");
  NDArray w = NDArray::Random({2, 1, 3, 3}, DataType::Int(1), 303);
  ExpectThreeTierIdentical(conv_f, {act, w}, {kBatch, 2, side, side},
                           DataType::Int32());
}

}  // namespace
}  // namespace tvmcpp
