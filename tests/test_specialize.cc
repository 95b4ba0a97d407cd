// Differential + unit tests for the loop-specialization pipeline (ISSUE 5):
// SpecializeLoops (src/lower/unroll.cc: full unrolling of small fixed-extent
// innermost loops, invariant hoisting, multiply CSE) and the VM compiler's strength
// reduction + peephole (src/vm/vm.cc).
//
// The differential bar matches test_vm.cc / test_vectorize.cc: the specialized VM,
// the unspecialized VM, and the reference interpreter must produce *bitwise*
// identical buffers, under TVMCPP_VM_STRICT=1 so any engine downgrade fails loudly.
// Unit assertions on vm::ProgramStats pin that each pass actually fires (an
// optimization that silently stops matching is a perf regression the differential
// check alone would never catch).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/lower/lower.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/schedule/schedule.h"
#include "src/support/float16.h"
#include "src/support/random.h"
#include "src/topi/nn.h"
#include "src/topi/schedules.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

struct ScopedStrictMode {
  bool saved;
  ScopedStrictMode() : saved(vm::StrictMode()) { vm::SetStrictMode(true); }
  ~ScopedStrictMode() { vm::SetStrictMode(saved); }
};

struct ArgBuf {
  std::vector<char> bytes;
  DataType dtype;
  int64_t num_elements = 0;

  static ArgBuf Make(int64_t elems, DataType dtype, uint64_t seed) {
    ArgBuf a;
    a.dtype = dtype;
    a.num_elements = elems;
    a.bytes.assign(static_cast<size_t>(elems * InterpElementBytes(dtype)), 0);
    Rng rng(seed);
    if (dtype.is_float()) {
      float* p = reinterpret_cast<float*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
      }
      if (dtype.bits() == 16) {
        for (int64_t i = 0; i < elems; ++i) {
          p[i] = QuantizeFloat16(p[i]);
        }
      }
    } else {
      int32_t* p = reinterpret_cast<int32_t*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<int32_t>(rng.Uniform(100));
      }
    }
    return a;
  }

  BufferBinding Bind() { return BufferBinding{bytes.data(), dtype, num_elements}; }
};

int64_t NumElems(const Tensor& t) {
  int64_t n = 1;
  for (const Expr& e : t.shape()) {
    n *= get_const_int(e);
  }
  return n;
}

std::vector<ArgBuf> MakeArgs(const std::vector<Tensor>& tensors, uint64_t seed) {
  std::vector<ArgBuf> args;
  for (size_t i = 0; i < tensors.size(); ++i) {
    args.push_back(ArgBuf::Make(NumElems(tensors[i]), tensors[i].dtype(), seed + i * 131));
  }
  return args;
}

// Three-way differential: interpreter (oracle), unspecialized VM, specialized VM —
// all bitwise identical. Returns the specialized program's stats for unit checks.
vm::ProgramStats ExpectSpecializedIdentical(const LoweredFunc& f,
                                            const std::vector<ArgBuf>& args,
                                            const LoopSpecializeOptions& spec =
                                                LoopSpecializeOptions{}) {
  ScopedStrictMode strict;
  std::shared_ptr<const vm::Program> base =
      vm::CompileToProgram(f, LoopSpecializeOptions::Disabled());
  std::shared_ptr<const vm::Program> opt = vm::CompileToProgram(f, spec);
  EXPECT_NE(base, nullptr) << "unspecialized VM failed to compile " << f.name;
  EXPECT_NE(opt, nullptr) << "specialized VM failed to compile " << f.name;
  if (base == nullptr || opt == nullptr) {
    return {};
  }
  std::vector<ArgBuf> interp_bufs = args;
  std::vector<ArgBuf> base_bufs = args;
  std::vector<ArgBuf> opt_bufs = args;
  std::vector<BufferBinding> interp_bind, base_bind, opt_bind;
  for (size_t i = 0; i < args.size(); ++i) {
    interp_bind.push_back(interp_bufs[i].Bind());
    base_bind.push_back(base_bufs[i].Bind());
    opt_bind.push_back(opt_bufs[i].Bind());
  }
  RunLoweredInterp(f, interp_bind);
  vm::ExecOptions serial;
  serial.num_threads = 1;
  vm::Run(*base, base_bind, serial);
  vm::Run(*opt, opt_bind, serial);
  for (size_t i = 0; i < args.size(); ++i) {
    EXPECT_EQ(std::memcmp(interp_bufs[i].bytes.data(), base_bufs[i].bytes.data(),
                          interp_bufs[i].bytes.size()),
              0)
        << f.name << ": buffer " << i << " differs between interp and base VM";
    EXPECT_EQ(std::memcmp(interp_bufs[i].bytes.data(), opt_bufs[i].bytes.data(),
                          interp_bufs[i].bytes.size()),
              0)
        << f.name << ": buffer " << i << " differs between interp and specialized VM";
  }
  return vm::GetProgramStats(*opt);
}

LoweredFunc BuildDense(DataType dtype, int vectorize, std::vector<Tensor>* tensors) {
  topi::OpWorkload wl;
  wl.kind = "dense";
  wl.n = 5;
  wl.k = 32;
  wl.oc = 24;
  wl.dtype = dtype;
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["parallel"] = 0;
  config["vectorize"] = vectorize;
  Schedule s = topi::ApplyOpSchedule(wl, cpu, built, config);
  *tensors = built.Args();
  return Lower(s, built.Args(), "dense_spec");
}

LoweredFunc BuildConvRelu3x3(DataType dtype, std::vector<Tensor>* tensors) {
  topi::OpWorkload wl;
  wl.kind = "conv2d";
  wl.n = 1;
  wl.ic = 4;
  wl.h = wl.w = 10;
  wl.oc = 8;
  wl.k = 3;
  wl.stride = 1;
  wl.pad = 1;
  wl.dtype = dtype;
  Tensor data = placeholder(
      {make_int(wl.n), make_int(wl.ic), make_int(wl.h), make_int(wl.w)}, dtype, "data");
  Tensor kern = placeholder(
      {make_int(wl.oc), make_int(wl.ic), make_int(wl.k), make_int(wl.k)}, dtype, "kern");
  Tensor conv = topi::Conv2dNCHW(data, kern, wl.stride, wl.pad);
  Tensor out = topi::Relu(conv);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["parallel"] = 0;
  Schedule s = topi::ScheduleFusedGroup(cpu, {out}, conv, config, &wl);
  *tensors = {data, kern, out};
  return Lower(s, {data, kern, out}, "conv_relu_spec");
}

// Elementwise chain with an inner split of `factor`: straddles the unroll
// threshold from both sides.
LoweredFunc BuildSplitElementwise(int64_t factor, std::vector<Tensor>* tensors) {
  const int n = 192;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(n)}, DataType::Float32(), "B");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       Expr a = A({i[0]});
                       Expr b = B({i[0]});
                       return a * b + max(a, b) * make_float(0.5);
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  IterVar o, i;
  st->split(st->leaf_iter_vars[0], factor, &o, &i);
  *tensors = {A, B, C};
  return Lower(s, {A, B, C}, "elementwise_split" + std::to_string(factor));
}

// ---------------------------------------------------------------------------
// Differential suites
// ---------------------------------------------------------------------------

TEST(SpecializeDiff, DenseF32Scalar) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), /*vectorize=*/0, &t);
  vm::ProgramStats st = ExpectSpecializedIdentical(f, MakeArgs(t, 7));
  // The dense k loop's invariant row offsets must hoist.
  EXPECT_GT(st.hoisted_lets, 0) << "invariant hoisting did not fire on dense";
}

TEST(SpecializeDiff, DenseF32Vectorized) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), /*vectorize=*/1, &t);
  ExpectSpecializedIdentical(f, MakeArgs(t, 11));
}

TEST(SpecializeDiff, DenseF16) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float16(), /*vectorize=*/0, &t);
  ExpectSpecializedIdentical(f, MakeArgs(t, 13));
}

TEST(SpecializeDiff, ConvRelu3x3F32) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Float32(), &t);
  vm::ProgramStats st = ExpectSpecializedIdentical(f, MakeArgs(t, 17));
  // The 3x3 window (and the schedule's small tile loops) must fully unroll, and
  // the surviving channel loop must get strength-reduced index products.
  EXPECT_GT(st.unrolled_loops, 0) << "unrolling did not fire on conv2d 3x3";
  EXPECT_GT(st.hoisted_lets, 0);
  EXPECT_GT(st.strength_reduced, 0) << "strength reduction did not fire on conv2d";
}

TEST(SpecializeDiff, ConvRelu3x3F16) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Float16(), &t);
  ExpectSpecializedIdentical(f, MakeArgs(t, 19));
}

TEST(SpecializeDiff, ExtentsStraddleUnrollThreshold) {
  // factor 4 <= default limit 8: unrolls. factor 32 > 8: stays a loop.
  std::vector<Tensor> t4, t32;
  LoweredFunc f4 = BuildSplitElementwise(4, &t4);
  LoweredFunc f32 = BuildSplitElementwise(32, &t32);
  vm::ProgramStats st4 = ExpectSpecializedIdentical(f4, MakeArgs(t4, 23));
  vm::ProgramStats st32 = ExpectSpecializedIdentical(f32, MakeArgs(t32, 29));
  EXPECT_GT(st4.unrolled_loops, 0) << "extent 4 must unroll under limit 8";
  EXPECT_EQ(st32.unrolled_loops, 0) << "extent 32 must not unroll under limit 8";
}

TEST(SpecializeDiff, NoNewFallbacks) {
  // Specialization must never push a previously-compilable kernel off the VM.
  ScopedStrictMode strict;
  vm::ResetFallbackCount();
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Float32(), &t);
  ASSERT_NE(vm::CompileToProgram(f, LoopSpecializeOptions{}), nullptr);
  EXPECT_EQ(vm::FallbackCount(), 0);
}

// ---------------------------------------------------------------------------
// Unit tests: options plumbing and pass-fired assertions
// ---------------------------------------------------------------------------

TEST(SpecializeOptions, RaisedLimitUnrollsWiderLoop) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildSplitElementwise(32, &t);
  LoopSpecializeOptions wide;
  wide.unroll_limit = 64;
  vm::ProgramStats st = ExpectSpecializedIdentical(f, MakeArgs(t, 31), wide);
  EXPECT_GT(st.unrolled_loops, 0) << "extent 32 must unroll under limit 64";
}

TEST(SpecializeUnit, DenseScalarShrinksAndDropsJumps) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), /*vectorize=*/0, &t);
  auto base = vm::CompileToProgram(f, LoopSpecializeOptions::Disabled());
  auto spec = vm::CompileToProgram(f, LoopSpecializeOptions{});
  ASSERT_NE(base, nullptr);
  ASSERT_NE(spec, nullptr);
  vm::ProgramStats bs = vm::GetProgramStats(*base);
  vm::ProgramStats ss = vm::GetProgramStats(*spec);
  // Hoisting moves index arithmetic out of the k loop and the peephole folds the
  // loop-bound adds: the specialized program must be strictly smaller.
  EXPECT_LT(ss.num_instructions, bs.num_instructions);
  EXPECT_LT(ss.int_muls, bs.int_muls) << "row-offset multiplies were not hoisted";
  EXPECT_GT(ss.peephole_removed, 0);
}

TEST(SpecializeUnit, FullyUnrolledKernelHasNoJumps) {
  // A single small loop nest with no guards: specialization must leave pure
  // straight-line code (zero jumps — no back-edges, no branches).
  const int n = 6;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor B = compute({make_int(n)},
                     [&](const std::vector<Var>& i) { return A({i[0]}) * make_float(2); },
                     "B");
  Schedule s = create_schedule({B});
  LoweredFunc f = Lower(s, {A, B}, "tiny");
  auto spec = vm::CompileToProgram(f, LoopSpecializeOptions{});
  ASSERT_NE(spec, nullptr);
  vm::ProgramStats st = vm::GetProgramStats(*spec);
  EXPECT_EQ(st.jumps, 0) << "extent-6 loop should be straight-line";
  EXPECT_EQ(st.unrolled_loops, 1);
  std::vector<ArgBuf> args = MakeArgs({A, B}, 37);
  ExpectSpecializedIdentical(f, args);
}

TEST(SpecializeUnit, DisabledMatchesLegacyCompilation) {
  // Disabled() must reproduce the pre-specialization compiler output: no counters,
  // no reserved registers beyond the legacy allocation.
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), /*vectorize=*/0, &t);
  auto base = vm::CompileToProgram(f, LoopSpecializeOptions::Disabled());
  ASSERT_NE(base, nullptr);
  vm::ProgramStats st = vm::GetProgramStats(*base);
  EXPECT_EQ(st.unrolled_loops, 0);
  EXPECT_EQ(st.hoisted_lets, 0);
  EXPECT_EQ(st.csed_muls, 0);
  EXPECT_EQ(st.strength_reduced, 0);
  EXPECT_EQ(st.peephole_removed, 0);
}

// ---------------------------------------------------------------------------
// Graph-level: batched models on the specializing VM match the interpreter
// ---------------------------------------------------------------------------

NDArray RunModelOnce(
    const std::shared_ptr<const graph::CompiledGraph>& model,
    const std::vector<std::pair<std::string, NDArray>>& inputs) {
  graph::RunContext ctx(model);
  for (const auto& kv : inputs) {
    ctx.SetInput(kv.first, kv.second);
  }
  vm::ExecOptions serial;
  serial.num_threads = 1;
  model->Run(&ctx, serial);
  return ctx.GetOutput(0).Copy();
}

void ExpectBitwiseEqual(const NDArray& a, const NDArray& b, const std::string& what) {
  ASSERT_EQ(a.NumElements(), b.NumElements()) << what;
  EXPECT_EQ(std::memcmp(a.Data<char>(), b.Data<char>(),
                        static_cast<size_t>(a.ByteSize())),
            0)
      << what << ": outputs differ";
}

struct ScopedEngine {
  ExecEngine saved;
  explicit ScopedEngine(ExecEngine e) : saved(GetExecEngine()) { SetExecEngine(e); }
  ~ScopedEngine() { SetExecEngine(saved); }
};

// Runs `model` rebatched by `batch` (1 = as compiled) under `engine`: compiling the
// variant and running it each read the process engine.
NDArray RunBatchedUnder(ExecEngine engine,
                        const std::shared_ptr<const graph::CompiledGraph>& model,
                        int batch,
                        const std::vector<std::pair<std::string, NDArray>>& inputs) {
  ScopedEngine scoped(engine);
  std::shared_ptr<const graph::CompiledGraph> variant = model;
  if (batch != 1) {
    variant = model->Rebatched(batch);
  }
  return RunModelOnce(variant, inputs);
}

TEST(SpecializeGraph, BatchedLstmBitwiseIdentical) {
  // The frontend LSTM LM on the (specializing) VM against the same model compiled
  // for the reference interpreter, then rebatched: the batched variant's hoisted
  // batch-offset adds must still match bitwise. Strict mode: no kernel may
  // silently fall back.
  ScopedStrictMode strict;
  Target cpu = Target::ArmA53();
  frontend::Model m = frontend::LstmLanguageModel(2, 8, 1);
  // Deterministic per-name parameter seeding makes the two builds share weights.
  auto compile = [&](ExecEngine e) {
    ScopedEngine engine(e);
    return frontend::CompileModel(frontend::LstmLanguageModel(2, 8, 1), cpu);
  };
  auto vm_model = compile(ExecEngine::kVm);
  auto interp_model = compile(ExecEngine::kInterp);

  // The LSTM LM is multi-input: data plus the h0/c0 recurrent states.
  auto lstm_inputs = [&](int batch, uint64_t seed) {
    std::vector<int64_t> shape = m.input_shape;
    shape[0] *= batch;
    return std::vector<std::pair<std::string, NDArray>>{
        {"data", NDArray::Random(shape, DataType::Float32(), seed)},
        {"h0", NDArray::Random(shape, DataType::Float32(), seed + 1)},
        {"c0", NDArray::Random(shape, DataType::Float32(), seed + 2)}};
  };
  for (int batch : {1, 3}) {
    auto inputs = lstm_inputs(batch, batch == 1 ? 41 : 47);
    ExpectBitwiseEqual(RunBatchedUnder(ExecEngine::kVm, vm_model, batch, inputs),
                       RunBatchedUnder(ExecEngine::kInterp, interp_model, batch, inputs),
                       "lstm batch-" + std::to_string(batch));
  }
}

TEST(SpecializeGraph, BatchedDenseChainBitwiseIdentical) {
  ScopedStrictMode strict;
  auto make = [&](ExecEngine e) {
    ScopedEngine engine(e);
    graph::Graph g;
    int x = g.AddInput("data", {1, 8});
    for (int l = 0; l < 3; ++l) {
      int w = g.AddConst("w" + std::to_string(l), {8, 8});
      x = g.AddOp("dense", "d" + std::to_string(l), {x, w});
      x = g.AddOp("relu", "r" + std::to_string(l), {x});
    }
    g.outputs = {x};
    auto model = std::make_shared<graph::CompiledGraph>(std::move(g), Target::ArmA53());
    for (int l = 0; l < 3; ++l) {
      model->SetParam("w" + std::to_string(l),
                      NDArray::Random({8, 8}, DataType::Float32(),
                                      static_cast<uint64_t>(60 + l)));
    }
    return model;
  };
  auto vm_model = make(ExecEngine::kVm);
  auto interp_model = make(ExecEngine::kInterp);
  for (int batch : {1, 2, 4}) {
    NDArray input = NDArray::Random({batch, 8}, DataType::Float32(),
                                    static_cast<uint64_t>(70 + batch));
    ExpectBitwiseEqual(
        RunBatchedUnder(ExecEngine::kVm, vm_model, batch, {{"data", input}}),
        RunBatchedUnder(ExecEngine::kInterp, interp_model, batch, {{"data", input}}),
        "dense chain batch " + std::to_string(batch));
  }
}

}  // namespace
}  // namespace tvmcpp
