// Three-tier differential suite for the AOT C backend (ISSUE 8): every workload
// below runs on the reference interpreter, the bytecode VM, and the dlopen'd
// native kernel, and all three buffers must be *bitwise* identical — under
// TVMCPP_VM_STRICT=1 so any silent engine downgrade fails loudly. Cache tests pin
// the module-cache contract: a second identical compile is a memory hit, a cleared
// registry falls back to the disk artifact, and a corrupt disk entry recompiles in
// place instead of crashing.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/codegen/codegen.h"
#include "src/codegen/native.h"
#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/ir/simplify.h"
#include "src/lower/lower.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/runtime/threadpool.h"
#include "src/schedule/schedule.h"
#include "src/support/failpoint.h"
#include "src/support/float16.h"
#include "src/support/random.h"
#include "src/topi/nn.h"
#include "src/topi/schedules.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

struct ScopedStrictMode {
  bool saved;
  explicit ScopedStrictMode(bool strict = true) : saved(vm::StrictMode()) {
    vm::SetStrictMode(strict);
  }
  ~ScopedStrictMode() { vm::SetStrictMode(saved); }
};

struct ScopedEngine {
  ExecEngine saved;
  explicit ScopedEngine(ExecEngine e) : saved(GetExecEngine()) { SetExecEngine(e); }
  ~ScopedEngine() { SetExecEngine(saved); }
};

// Sets an environment variable for the guard's lifetime and then restores its
// prior value (or unsets it), so neither a caller's setting nor a test's override
// leaks past the test, even when an exception escapes it.
struct ScopedEnv {
  std::string name;
  std::string saved;
  bool had = false;
  ScopedEnv(std::string var, const std::string& value) : name(std::move(var)) {
    if (const char* old = std::getenv(name.c_str())) {
      had = true;
      saved = old;
    }
    setenv(name.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had) {
      setenv(name.c_str(), saved.c_str(), 1);
    } else {
      unsetenv(name.c_str());
    }
  }
};

std::string MakeTempDir() {
  char tmpl[] = "/tmp/tvmcpp-codegen-test-XXXXXX";
  char* made = mkdtemp(tmpl);
  CHECK(made != nullptr) << "mkdtemp failed";
  return made;
}

// Points TVMCPP_NATIVE_CACHE at a fresh directory for the test's lifetime, so
// cache assertions never see artifacts from other tests or earlier runs.
struct ScopedCacheDir {
  std::string dir = MakeTempDir();
  ScopedEnv env{"TVMCPP_NATIVE_CACHE", dir};
  ~ScopedCacheDir() { std::system(("rm -rf '" + dir + "'").c_str()); }
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
    } else if (InterpElementBytes(dtype) == 1) {
      int8_t* p = reinterpret_cast<int8_t*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<int8_t>(static_cast<int64_t>(rng.Uniform(11)) - 5);
      }
    } else if (InterpElementBytes(dtype) == 8) {
      int64_t* p = reinterpret_cast<int64_t*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<int64_t>(rng.Uniform(100));
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

vm::ExecOptions SerialExec() {
  vm::ExecOptions serial;
  serial.num_threads = 1;
  return serial;
}

// Three-way differential: interpreter (oracle), VM, and the AOT native kernel —
// all bitwise identical on every buffer. `spec` configures the VM's loop
// specialization; the native tier never specializes.
void ExpectThreeTierIdentical(const LoweredFunc& f, const std::vector<ArgBuf>& args,
                              const LoopSpecializeOptions& spec = LoopSpecializeOptions{},
                              const vm::ExecOptions& native_exec = {},
                              const vm::ExecOptions& vm_exec = SerialExec()) {
  ScopedStrictMode strict;
  std::shared_ptr<const vm::Program> prog = vm::CompileToProgram(f, spec);
  ASSERT_NE(prog, nullptr) << "VM failed to compile " << f.name;
  codegen::NativeKernel native = codegen::CompileNativeKernel(f);
  ASSERT_TRUE(static_cast<bool>(native))
      << "native tier failed to compile " << f.name << ":\n" << ToString(f.body);
  std::vector<ArgBuf> interp_bufs = args;
  std::vector<ArgBuf> vm_bufs = args;
  std::vector<ArgBuf> native_bufs = args;
  std::vector<BufferBinding> interp_bind, vm_bind, native_bind;
  for (size_t i = 0; i < args.size(); ++i) {
    interp_bind.push_back(interp_bufs[i].Bind());
    vm_bind.push_back(vm_bufs[i].Bind());
    native_bind.push_back(native_bufs[i].Bind());
  }
  RunLoweredInterp(f, interp_bind);
  vm::Run(*prog, vm_bind, vm_exec);
  codegen::RunNativeKernel(native, native_bind, native_exec);
  for (size_t i = 0; i < args.size(); ++i) {
    EXPECT_EQ(std::memcmp(interp_bufs[i].bytes.data(), vm_bufs[i].bytes.data(),
                          interp_bufs[i].bytes.size()),
              0)
        << f.name << ": buffer " << i << " differs between interp and VM";
    EXPECT_EQ(std::memcmp(interp_bufs[i].bytes.data(), native_bufs[i].bytes.data(),
                          interp_bufs[i].bytes.size()),
              0)
        << f.name << ": buffer " << i << " differs between interp and native";
  }
}

// Interpreter, VM and native bitwise equal with the VM and native both at 1 thread
// and both at 4 threads on an explicit pool.
void ExpectIdenticalAtOneAndFourThreads(const LoweredFunc& f, const std::vector<ArgBuf>& args) {
  ExpectThreeTierIdentical(f, args, LoopSpecializeOptions{}, SerialExec(), SerialExec());
  ThreadPool pool(4);
  vm::ExecOptions four;
  four.num_threads = 4;
  four.pool = &pool;
  ExpectThreeTierIdentical(f, args, LoopSpecializeOptions{}, four, four);
}

LoweredFunc BuildDense(DataType dtype, int vectorize, int parallel,
                       std::vector<Tensor>* tensors, const std::string& name,
                       int n = 5, int k = 32, int oc = 24) {
  topi::OpWorkload wl;
  wl.kind = "dense";
  wl.n = n;
  wl.k = k;
  wl.oc = oc;
  wl.dtype = dtype;
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["parallel"] = parallel;
  config["vectorize"] = vectorize;
  Schedule s = topi::ApplyOpSchedule(wl, cpu, built, config);
  *tensors = built.Args();
  return Lower(s, built.Args(), name);
}

// One conv (or depthwise conv) through the CPU template: as the master of a
// conv+relu group (`fused`, the epilogue branch) or on its own (output == master).
// `tile_ow` 0 keeps the template's default.
LoweredFunc BuildConvCase(const topi::OpWorkload& wl, bool fused, std::vector<Tensor>* tensors,
                          const std::string& name, int parallel = 1, int64_t tile_ow = 0) {
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["parallel"] = parallel;
  if (tile_ow > 0) {
    config["tile_ow"] = tile_ow;
  }
  Schedule s;
  Tensor out = built.output;
  if (fused) {
    out = topi::Relu(built.output);
    s = topi::ScheduleFusedGroup(cpu, {out}, built.output, config, &wl);
  } else {
    s = topi::ApplyOpSchedule(wl, cpu, built, config);
  }
  *tensors = {built.inputs[0], built.inputs[1], out};
  return Lower(s, *tensors, name);
}

LoweredFunc BuildConvRelu3x3(DataType dtype, std::vector<Tensor>* tensors,
                             const std::string& name) {
  topi::OpWorkload wl{"conv2d", 1, 10, 10, 4, 8, 3, 1, 1};
  wl.dtype = dtype;
  return BuildConvCase(wl, /*fused=*/true, tensors, name, /*parallel=*/0);
}

// ---------------------------------------------------------------------------
// Kernel-level differential suites
// ---------------------------------------------------------------------------

TEST(CodegenDiff, DenseF32Scalar) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 0, &t, "cg_dense_f32");
  ExpectThreeTierIdentical(f, MakeArgs(t, 7));
}

TEST(CodegenDiff, DenseF32Vectorized) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 1, 0, &t, "cg_dense_f32_vec");
  ExpectThreeTierIdentical(f, MakeArgs(t, 11));
}

TEST(CodegenDiff, DenseF32Parallel) {
  // This dense is far below the native size rule (2^16 static work), so its
  // kParallel loop stays inline in the emitted C and runs serially; the
  // CodegenParallel cases below take the outlined, pool-chunked path.
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 1, &t, "cg_dense_f32_par");
  EXPECT_EQ(codegen::EmitC(f).code.find("tn_parallel("), std::string::npos);
  ExpectThreeTierIdentical(f, MakeArgs(t, 13));
}

TEST(CodegenDiff, DenseF16) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float16(), 0, 0, &t, "cg_dense_f16");
  ExpectThreeTierIdentical(f, MakeArgs(t, 17));
}

TEST(CodegenDiff, DenseI8) {
  // int8 accumulate wraps through the interpreter's cast rule on every store;
  // the emitted tn_wrap must match it bit for bit.
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Int8(), 0, 0, &t, "cg_dense_i8");
  ExpectThreeTierIdentical(f, MakeArgs(t, 19));
}

TEST(CodegenDiff, ConvRelu3x3F32) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Float32(), &t, "cg_conv_f32");
  ExpectThreeTierIdentical(f, MakeArgs(t, 23));
}

TEST(CodegenDiff, ConvRelu3x3F16) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Float16(), &t, "cg_conv_f16");
  ExpectThreeTierIdentical(f, MakeArgs(t, 29));
}

TEST(CodegenDiff, ConvRelu3x3I8) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Int8(), &t, "cg_conv_i8");
  ExpectThreeTierIdentical(f, MakeArgs(t, 31));
}

TEST(CodegenDiff, ConvTemplateShapesBothBranches) {
  // The CPU conv template (root pad stage, reduction above the oc x ow tile) over
  // ResNet-style shapes, in both branches and both float widths. The last three
  // rows carry OIHW8o kernels (oc_block 8).
  const topi::OpWorkload shapes[] = {
      {"conv2d", 1, 8, 8, 4, 8, 3, 1, 1},  {"conv2d", 1, 9, 9, 4, 8, 3, 2, 1},
      {"conv2d", 1, 12, 12, 3, 8, 7, 2, 3}, {"conv2d", 1, 8, 8, 8, 16, 1, 2, 0},
      {"depthwise_conv2d", 1, 8, 8, 8, 8, 3, 1, 1},
      {"conv2d", 1, 8, 8, 4, 16, 3, 1, 1, 0, 0, 8}, {"conv2d", 1, 9, 9, 4, 8, 3, 2, 1, 0, 0, 8},
      {"conv2d", 1, 12, 12, 3, 8, 7, 2, 3, 0, 0, 8}};
  uint64_t seed = 37;
  for (topi::OpWorkload wl : shapes) {
    for (DataType dtype : {DataType::Float32(), DataType::Float16()}) {
      wl.dtype = dtype;
      for (bool fused : {false, true}) {
        const std::string name = "cg_conv_tpl_" + wl.Key() + (fused ? "_fused" : "");
        SCOPED_TRACE(name);
        std::vector<Tensor> t;
        LoweredFunc f = BuildConvCase(wl, fused, &t, name);
        ExpectIdenticalAtOneAndFourThreads(f, MakeArgs(t, seed++));
      }
    }
  }
}

TEST(CodegenDiff, VectorizedPredicatedTail) {
  // n = 10 split by 8: the vectorized inner loop carries a predicated tail, so
  // masked lanes must stay unevaluated in the emitted C exactly as in the
  // interpreter (the guarded division would trap on lane garbage otherwise).
  const int n = 10;
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
  st->split(st->leaf_iter_vars[0], 8, &o, &i);
  st->vectorize(i);
  LoweredFunc f = Lower(s, {A, B, C}, "cg_vec_tail");
  ExpectThreeTierIdentical(f, MakeArgs({A, B, C}, 37));
}

TEST(CodegenDiff, UnspecializedPipelineMatchesToo) {
  // The VM with specialization disabled and the native tier (which never
  // specializes) must both stay on the oracle.
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Float32(), &t, "cg_conv_nospec");
  ExpectThreeTierIdentical(f, MakeArgs(t, 41), LoopSpecializeOptions::Disabled());
}

TEST(CodegenDiff, VmUnsupportedVectorLetRunsNative) {
  // A vector-valued let is outside the VM's vector compiler but inside both the
  // interpreter and the C emitter (which threads the lane through the let body):
  // tier 2 covers strictly more than tier 1 here, so the native engine serves it
  // with zero counted fallbacks.
  const int n = 8;
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var x = make_var("x", DataType::Float32());
  Expr vec_load = load(DataType::Float32(4), a, ramp(make_int(0), make_int(1), 4));
  Expr body = let(x, vec_load, Expr(x) + Expr(x));
  LoweredFunc f;
  f.name = "cg_vector_let";
  f.args = {BufferArg{a, DataType::Float32(), {n}, "A"},
            BufferArg{c, DataType::Float32(), {n}, "C"}};
  f.body = store(c, body, ramp(make_int(0), make_int(1), 4));
  ASSERT_EQ(vm::CompileToProgram(f), nullptr) << "VM grew vector-let support; "
                                                 "pick another VM-unsupported construct";

  codegen::NativeKernel native = codegen::CompileNativeKernel(f);
  ASSERT_TRUE(static_cast<bool>(native)) << "native tier must emit vector lets";
  std::vector<ArgBuf> interp_bufs = {ArgBuf::Make(n, DataType::Float32(), 43),
                                     ArgBuf::Make(n, DataType::Float32(), 44)};
  std::vector<ArgBuf> native_bufs = interp_bufs;
  std::vector<BufferBinding> interp_bind, native_bind;
  for (size_t i = 0; i < interp_bufs.size(); ++i) {
    interp_bind.push_back(interp_bufs[i].Bind());
    native_bind.push_back(native_bufs[i].Bind());
  }
  RunLoweredInterp(f, interp_bind);
  codegen::RunNativeKernel(native, native_bind);
  EXPECT_EQ(std::memcmp(interp_bufs[1].bytes.data(), native_bufs[1].bytes.data(),
                        interp_bufs[1].bytes.size()),
            0);

  // End-to-end: the native engine dispatches it without touching the VM tier.
  ScopedStrictMode strict;
  ScopedEngine engine(ExecEngine::kNative);
  vm::ResetFallbackCount();
  std::vector<ArgBuf> e2e = interp_bufs;
  std::vector<BufferBinding> e2e_bind;
  for (ArgBuf& b : e2e) {
    e2e_bind.push_back(b.Bind());
  }
  RunLowered(f, e2e_bind);
  EXPECT_EQ(vm::FallbackCount(), 0);
  EXPECT_EQ(std::memcmp(interp_bufs[1].bytes.data(), e2e[1].bytes.data(),
                        interp_bufs[1].bytes.size()),
            0);
}

// ---------------------------------------------------------------------------
// The value model: every float value is an f32 on every tier
// ---------------------------------------------------------------------------

ArgBuf Values(DataType dtype, const std::vector<double>& values) {
  ArgBuf a = ArgBuf::Make(static_cast<int64_t>(values.size()), dtype, 1);
  for (size_t i = 0; i < values.size(); ++i) {
    if (dtype.is_float()) {
      reinterpret_cast<float*>(a.bytes.data())[i] = static_cast<float>(values[i]);
    } else {
      reinterpret_cast<int32_t*>(a.bytes.data())[i] = static_cast<int32_t>(values[i]);
    }
  }
  return a;
}

// Runs `f` on the three tiers, which must agree bitwise, and returns the buffers
// as the interpreter left them.
std::vector<ArgBuf> RunAllTiers(const LoweredFunc& f, const std::vector<ArgBuf>& args) {
  ExpectThreeTierIdentical(f, args);
  std::vector<ArgBuf> out = args;
  std::vector<BufferBinding> bind;
  for (ArgBuf& b : out) {
    bind.push_back(b.Bind());
  }
  RunLoweredInterp(f, bind);
  return out;
}

// A one-element kernel: Out[0] = value, Out of `dtype`.
LoweredFunc StoreOne(const std::string& name, DataType dtype, const Var& out,
                     const Expr& value, std::vector<BufferArg> inputs = {}) {
  LoweredFunc f;
  f.name = name;
  f.args = std::move(inputs);
  f.args.push_back(BufferArg{out, dtype, {1}, "Out"});
  f.body = store(out, value, make_int(0));
  return f;
}

float OutF(const std::vector<ArgBuf>& bufs) {
  return reinterpret_cast<const float*>(bufs.back().bytes.data())[0];
}

int32_t OutI(const std::vector<ArgBuf>& bufs) {
  return reinterpret_cast<const int32_t*>(bufs.back().bytes.data())[0];
}

TEST(CodegenDiff, CastOfIntConstWrapsToNarrowWidth) {
  // Simplify folds the cast on the VM and native paths; it must wrap like the
  // interpreter's cast rule instead of keeping 300.
  Var out = make_var("Out", DataType::Handle());
  Expr v = cast(DataType::Int32(), cast(DataType::Int8(), make_int(300)));
  LoweredFunc f = StoreOne("cg_cast_i8_of_300", DataType::Int32(), out, v);
  EXPECT_EQ(OutI(RunAllTiers(f, {Values(DataType::Int32(), {0})})), 44);
}

TEST(CodegenDiff, CastOfFloatConstWrapsToNarrowWidth) {
  Var out = make_var("Out", DataType::Handle());
  Expr v = cast(DataType::Int32(), cast(DataType::Int8(), make_float(300.0)));
  LoweredFunc f = StoreOne("cg_cast_i8_of_300f", DataType::Int32(), out, v);
  EXPECT_EQ(OutI(RunAllTiers(f, {Values(DataType::Int32(), {0})})), 44);
}

TEST(CodegenDiff, CastOfFloatConstToF16Quantizes) {
  // Stored into an f32 buffer, so only the cast can quantize.
  Var out = make_var("Out", DataType::Handle());
  Expr v = cast(DataType::Float32(), cast(DataType::Float16(), make_float(0.1)));
  LoweredFunc f = StoreOne("cg_cast_f16_of_01", DataType::Float32(), out, v);
  EXPECT_EQ(OutF(RunAllTiers(f, {Values(DataType::Float32(), {0})})),
            QuantizeFloat16(0.1f));
}

TEST(CodegenDiff, F32SumRoundsBeforeTheNextOp) {
  // (x + 1) - x at x = 1e8: x + 1 rounds back to 1e8 in f32 (spacing 8 there), so
  // the difference is 0. Evaluated in double with rounding only at the store it
  // would be 1.
  Var a = make_var("A", DataType::Handle());
  Var out = make_var("Out", DataType::Handle());
  Expr x = load(DataType::Float32(), a, make_int(0));
  LoweredFunc f = StoreOne("cg_f32_absorb", DataType::Float32(), out,
                           (x + make_float(1.0)) - x,
                           {BufferArg{a, DataType::Float32(), {1}, "A"}});
  std::vector<ArgBuf> bufs =
      RunAllTiers(f, {Values(DataType::Float32(), {1e8}), Values(DataType::Float32(), {7})});
  EXPECT_EQ(OutF(bufs), 0.0f);
}

TEST(CodegenDiff, FloatImmediateFoldsAsF32) {
  // 0.1 * 0.2 folds in Simplify for the VM and native tiers and evaluates unfolded
  // on the interpreter; both must give the f32 product of the f32 immediates,
  // which differs from the double product rounded once.
  const float expected = 0.1f * 0.2f;
  ASSERT_NE(expected, static_cast<float>(0.1 * 0.2));
  Expr folded = Simplify(mul(make_float(0.1), make_float(0.2)));
  ASSERT_EQ(folded->kind, ExprKind::kFloatImm);
  EXPECT_EQ(static_cast<float>(static_cast<const FloatImmNode*>(folded.get())->value),
            expected);
  Var out = make_var("Out", DataType::Handle());
  LoweredFunc f = StoreOne("cg_fold_01", DataType::Float32(), out,
                           mul(make_float(0.1), make_float(0.2)));
  EXPECT_EQ(OutF(RunAllTiers(f, {Values(DataType::Float32(), {0})})), expected);
}

// One scalar MAC through the tensor-intrinsic ABI with no tensorized dims:
// Out[0] += A[0] * B[0].
LoweredFunc ScalarMac(const std::string& name, DataType out_t, DataType in_t) {
  Var a = make_var("A", DataType::Handle());
  Var b = make_var("B", DataType::Handle());
  Var out = make_var("Out", DataType::Handle());
  LoweredFunc f;
  f.name = name;
  f.args = {BufferArg{a, in_t, {1}, "A"}, BufferArg{b, in_t, {1}, "B"},
            BufferArg{out, out_t, {1}, "Out"}};
  f.body = evaluate(call_intrin(DataType::Int32(), kGemmIntrin,
                                {out, make_int(0), a, make_int(0), b, make_int(0)}));
  return f;
}

TEST(CodegenDiff, TensorizedMacRoundsTheProductThenTheSum) {
  // f32 operands: (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24 rounds to 1 + 2^-11 in f32, so
  // adding -(1 + 2^-11) gives 0 (in double it would leave 2^-24).
  const double e = std::ldexp(1.0, -12);
  LoweredFunc f = ScalarMac("cg_mac_f32", DataType::Float32(), DataType::Float32());
  std::vector<ArgBuf> bufs = RunAllTiers(
      f, {Values(DataType::Float32(), {1 + e}), Values(DataType::Float32(), {1 + e}),
          Values(DataType::Float32(), {-(1 + 2 * e)})});
  EXPECT_EQ(OutF(bufs), 0.0f);

  // i32 operands into an f32 accumulator promote to f32 first: 2^24 + 1 becomes
  // 2^24, so the product is 3 * 2^24 exactly and the sum 0 (unrounded, 4).
  LoweredFunc g = ScalarMac("cg_mac_i32_f32", DataType::Float32(), DataType::Int32());
  bufs = RunAllTiers(g, {Values(DataType::Int32(), {16777217}),
                         Values(DataType::Int32(), {3}),
                         Values(DataType::Float32(), {-50331648})});
  EXPECT_EQ(OutF(bufs), 0.0f);

  // f32 operands into an i32 accumulator: the sum 3 * 2^22 + 0.75 rounds to
  // 3 * 2^22 + 1 in f32 before the store truncates it.
  LoweredFunc h = ScalarMac("cg_mac_f32_i32", DataType::Int32(), DataType::Float32());
  bufs = RunAllTiers(h, {Values(DataType::Float32(), {0.75}),
                         Values(DataType::Float32(), {1}),
                         Values(DataType::Int32(), {12582912})});
  EXPECT_EQ(OutI(bufs), 12582913);
}

// ---------------------------------------------------------------------------
// Graph-level: whole models under the native engine, including Rebatched(N)
// ---------------------------------------------------------------------------

NDArray RunModelOnce(const std::shared_ptr<const graph::CompiledGraph>& model,
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

TEST(CodegenGraph, LstmNativeBitwiseIdenticalAndRebatched) {
  // The frontend LSTM LM compiled while the native engine is selected (so every
  // fused kernel gets an AOT module), run natively and on the interpreter engine
  // against the same compiled model. Strict: no kernel may silently fall back.
  ScopedStrictMode strict;
  ScopedEngine engine(ExecEngine::kNative);
  vm::ResetFallbackCount();
  Target cpu = Target::ArmA53();
  frontend::Model m = frontend::LstmLanguageModel(2, 8, 1);
  auto model = frontend::CompileModel(m, cpu, graph::CompileOptions{});
  auto lstm_inputs = [&](int batch, uint64_t seed) {
    std::vector<int64_t> shape = m.input_shape;
    shape[0] *= batch;
    return std::vector<std::pair<std::string, NDArray>>{
        {"data", NDArray::Random(shape, DataType::Float32(), seed)},
        {"h0", NDArray::Random(shape, DataType::Float32(), seed + 1)},
        {"c0", NDArray::Random(shape, DataType::Float32(), seed + 2)}};
  };
  auto batch1 = lstm_inputs(1, 47);
  NDArray native_out = RunModelOnce(model, batch1);
  NDArray interp_out;
  {
    ScopedEngine oracle(ExecEngine::kInterp);
    interp_out = RunModelOnce(model, batch1);
  }
  ExpectBitwiseEqual(native_out, interp_out, "lstm batch-1 native vs interp");

  const int batch = 3;
  auto rebatched = model->Rebatched(batch);
  auto batch3 = lstm_inputs(batch, 53);
  NDArray native_b = RunModelOnce(rebatched, batch3);
  NDArray interp_b;
  {
    ScopedEngine oracle(ExecEngine::kInterp);
    interp_b = RunModelOnce(rebatched, batch3);
  }
  ExpectBitwiseEqual(native_b, interp_b, "lstm batch-3 native vs interp");
  EXPECT_EQ(vm::FallbackCount(), 0) << "a fused LSTM kernel fell off the native tier";
}

TEST(CodegenGraph, DenseChainNativeRebatched) {
  ScopedStrictMode strict;
  ScopedEngine engine(ExecEngine::kNative);
  vm::ResetFallbackCount();
  graph::Graph g;
  int x = g.AddInput("data", {1, 8});
  for (int l = 0; l < 3; ++l) {
    int w = g.AddConst("w" + std::to_string(l), {8, 8});
    x = g.AddOp("dense", "d" + std::to_string(l), {x, w});
    x = g.AddOp("relu", "r" + std::to_string(l), {x});
  }
  g.outputs = {x};
  auto model = std::make_shared<graph::CompiledGraph>(std::move(g), Target::ArmA53(),
                                                      graph::CompileOptions{});
  for (int l = 0; l < 3; ++l) {
    model->SetParam("w" + std::to_string(l),
                    NDArray::Random({8, 8}, DataType::Float32(),
                                    static_cast<uint64_t>(60 + l)));
  }
  for (int batch : {1, 2, 4}) {
    NDArray input = NDArray::Random({batch, 8}, DataType::Float32(),
                                    static_cast<uint64_t>(70 + batch));
    auto b = batch == 1 ? model : model->Rebatched(batch);
    NDArray native_out = RunModelOnce(b, {{"data", input}});
    NDArray interp_out;
    {
      ScopedEngine oracle(ExecEngine::kInterp);
      interp_out = RunModelOnce(b, {{"data", input}});
    }
    ExpectBitwiseEqual(native_out, interp_out,
                       "dense chain batch " + std::to_string(batch));
  }
  EXPECT_EQ(vm::FallbackCount(), 0);
}

// One conv2d with a fused batch_norm + residual add + relu epilogue (or, unfused,
// four kernels), over `kernel`'s layout. `tile_ow` > 0 pins that knob through an
// explicit config; 0 keeps the untuned default.
std::shared_ptr<graph::CompiledGraph> CompileConvBnAddRelu(const topi::OpWorkload& wl,
                                                           const NDArray& kernel, bool fused,
                                                           int64_t tile_ow) {
  graph::Graph g;
  int x = g.AddInput("data", {wl.n, wl.ic, wl.h, wl.w});
  int w = g.AddConst("w", kernel.shape());
  int conv = g.AddOp("conv2d", "conv", {x, w}, {{"stride", wl.stride}, {"pad", wl.pad}});
  int scale = g.AddConst("scale", {wl.oc});
  int shift = g.AddConst("shift", {wl.oc});
  int bn = g.AddOp("batch_norm", "bn", {conv, scale, shift});
  int res = g.AddInput("res", g.node(conv).shape);
  int sum = g.AddOp("add", "add", {bn, res});
  g.outputs = {g.AddOp("relu", "relu", {sum})};
  topi::OpWorkload key = wl;
  key.oc_block = kernel.shape().size() == 5 ? static_cast<int>(kernel.shape()[4]) : 0;
  graph::TunedConfigs tuned;
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(key, Target::ArmA53()));
  if (tile_ow > 0) {
    config["tile_ow"] = tile_ow;
  }
  tuned[key.Key()] = config;
  graph::CompileOptions options;
  options.enable_fusion = fused;
  options.use_tuning_cache = false;
  options.tuned = &tuned;
  auto model = std::make_shared<graph::CompiledGraph>(std::move(g), Target::ArmA53(), options);
  EXPECT_EQ(model->chosen_configs().at(key.Key()), config) << "the conv kept another config";
  model->SetParam("w", kernel);
  model->SetParam("scale", NDArray::Random({wl.oc}, DataType::Float32(), 83));
  model->SetParam("shift", NDArray::Random({wl.oc}, DataType::Float32(), 89));
  return model;
}

NDArray RunConvBnAddRelu(const std::shared_ptr<const graph::CompiledGraph>& model,
                         const topi::OpWorkload& wl, int batch) {
  std::vector<int64_t> out_shape = {batch * wl.n, wl.oc,
                                    topi::ConvOutDim(wl.h, wl.k, wl.stride, wl.pad),
                                    topi::ConvOutDim(wl.w, wl.k, wl.stride, wl.pad)};
  return RunModelOnce(
      model,
      {{"data", NDArray::Random({batch * wl.n, wl.ic, wl.h, wl.w}, DataType::Float32(), 97)},
       {"res", NDArray::Random(out_shape, DataType::Float32(), 101)}});
}

TEST(CodegenGraph, BlockedConvMatchesOihwOnEveryTier) {
  // frontend::RandomConvWeight lays the values NDArray::Random draws for an OIHW
  // kernel out as OIHW8o when 8 divides oc. Both layouts sum the same products in
  // the same order, so the blocked conv must equal the OIHW conv bitwise on every
  // tier: fused (bn + residual add + relu epilogue) at tile_ow 1 and 2, unfused,
  // and batched by Rebatched(2). oc = 12 keeps its OIHW kernel.
  ScopedStrictMode strict;
  vm::ResetFallbackCount();
  const topi::OpWorkload cases[] = {
      {"conv2d", 1, 8, 8, 8, 8, 3, 1, 1},   {"conv2d", 1, 8, 8, 8, 64, 3, 2, 1},
      {"conv2d", 1, 12, 12, 3, 64, 7, 2, 3}, {"conv2d", 1, 8, 8, 8, 8, 1, 2, 0},
      {"conv2d", 1, 6, 6, 8, 64, 1, 1, 0},   {"conv2d", 1, 6, 6, 8, 12, 3, 1, 1}};
  const std::pair<ExecEngine, const char*> tiers[] = {
      {ExecEngine::kInterp, "interp"}, {ExecEngine::kVm, "vm"}, {ExecEngine::kNative, "native"}};
  uint64_t seed = 107;
  for (const topi::OpWorkload& wl : cases) {
    SCOPED_TRACE(wl.Key());
    const NDArray oihw = NDArray::Random({wl.oc, wl.ic, wl.k, wl.k}, DataType::Float32(), seed);
    const NDArray kernel = frontend::RandomConvWeight(wl.oc, wl.ic, wl.k, seed++);
    ASSERT_EQ(kernel.shape().size(), wl.oc % 8 == 0 ? 5u : 4u);
    NDArray reference;
    for (const auto& [engine, tier] : tiers) {
      SCOPED_TRACE(tier);
      ScopedEngine scoped(engine);
      NDArray want = RunConvBnAddRelu(CompileConvBnAddRelu(wl, oihw, true, 0), wl, 1);
      if (!reference.defined()) {
        reference = want;
      }
      ExpectBitwiseEqual(want, reference, "OIHW vs the interpreter's OIHW");
      for (int64_t tile_ow : {1, 2}) {
        ExpectBitwiseEqual(RunConvBnAddRelu(CompileConvBnAddRelu(wl, kernel, true, tile_ow), wl, 1),
                           want, "blocked, fused, tile_ow " + std::to_string(tile_ow));
      }
      ExpectBitwiseEqual(RunConvBnAddRelu(CompileConvBnAddRelu(wl, kernel, false, 0), wl, 1),
                         want, "blocked, unfused");
      if (wl.oc == 64 && wl.k == 3) {
        ExpectBitwiseEqual(
            RunConvBnAddRelu(CompileConvBnAddRelu(wl, kernel, true, 0)->Rebatched(2), wl, 2),
            RunConvBnAddRelu(CompileConvBnAddRelu(wl, oihw, true, 0)->Rebatched(2), wl, 2),
            "blocked vs OIHW, Rebatched(2)");
      }
    }
  }
  EXPECT_EQ(vm::FallbackCount(), 0);
}

TEST(CodegenGraph, BlockedConvTilesMatchOnEveryTier) {
  // The fused blocked template's untuned tile at every shape class it has: tile_ow
  // is the largest divisor of out_w up to 4, and the oc tile takes 4 / tile_ow
  // blocks, reduced to a count that divides oc / 8. So out_w 1 and 7 run tile_ow 1
  // with three blocks (oc 24) and four (oc 32), out_w 2 and 14 run tile_ow 2 with
  // two blocks (oc 16) and one (oc 8), and out_w 4 and 8 run tile_ow 4 with one
  // block. Each must equal the OIHW conv on the interpreter bitwise on every tier.
  ScopedStrictMode strict;
  vm::ResetFallbackCount();
  const struct {
    topi::OpWorkload wl;
    int64_t tile_ow;
  } cases[] = {{{"conv2d", 1, 3, 1, 4, 24, 3, 1, 1}, 1}, {{"conv2d", 1, 3, 7, 4, 32, 3, 1, 1}, 1},
               {{"conv2d", 1, 3, 2, 4, 16, 3, 1, 1}, 2}, {{"conv2d", 1, 3, 14, 4, 8, 3, 1, 1}, 2},
               {{"conv2d", 1, 3, 4, 4, 16, 3, 1, 1}, 4}, {{"conv2d", 1, 3, 8, 4, 8, 3, 1, 1}, 4}};
  uint64_t seed = 211;
  for (const auto& [wl, tile_ow] : cases) {
    SCOPED_TRACE(wl.Key());
    topi::OpWorkload blocked = wl;
    blocked.oc_block = 8;
    EXPECT_EQ(topi::DefaultConfig(topi::GetScheduleSpace(blocked, Target::ArmA53()))
                  .at("tile_ow"),
              tile_ow);
    const NDArray oihw = NDArray::Random({wl.oc, wl.ic, wl.k, wl.k}, DataType::Float32(), seed);
    const NDArray kernel = frontend::RandomConvWeight(wl.oc, wl.ic, wl.k, seed++);
    NDArray want;
    {
      ScopedEngine interp(ExecEngine::kInterp);
      want = RunConvBnAddRelu(CompileConvBnAddRelu(wl, oihw, true, 0), wl, 1);
    }
    for (ExecEngine engine : {ExecEngine::kInterp, ExecEngine::kVm, ExecEngine::kNative}) {
      ScopedEngine scoped(engine);
      ExpectBitwiseEqual(RunConvBnAddRelu(CompileConvBnAddRelu(wl, kernel, true, 0), wl, 1),
                         want, "blocked, fused, engine " + std::to_string(static_cast<int>(engine)));
    }
  }
  EXPECT_EQ(vm::FallbackCount(), 0);
}

// ---------------------------------------------------------------------------
// Parallel path: outlined kParallel loops chunked on the caller's pool
// ---------------------------------------------------------------------------

bool HasOutlinedLoop(const LoweredFunc& f) {
  codegen::CSource src = codegen::EmitC(f);
  EXPECT_TRUE(src.ok) << src.error;
  return src.code.find("tn_parallel(") != std::string::npos &&
         src.code.find("static void " + src.symbol + "_p0(") != std::string::npos;
}

TEST(CodegenParallel, DenseAboveSizeRuleRunsOnPool) {
  // 16 rows chunk the row blocks; a single row (batch-1 inference, so the
  // row-block loop has extent 1) chunks the output-column blocks.
  std::vector<Tensor> t;
  LoweredFunc f =
      BuildDense(DataType::Float32(), 1, 1, &t, "cg_par_dense", 16, 256, 64);
  EXPECT_TRUE(HasOutlinedLoop(f)) << ToString(f.body);
  ExpectIdenticalAtOneAndFourThreads(f, MakeArgs(t, 73));
  f = BuildDense(DataType::Float32(), 1, 1, &t, "cg_par_dense_b1", 1, 512, 256);
  EXPECT_TRUE(HasOutlinedLoop(f)) << ToString(f.body);
  ExpectIdenticalAtOneAndFourThreads(f, MakeArgs(t, 109));
}

TEST(CodegenParallel, ConvAboveSizeRuleRunsOnPool) {
  // Both conv template branches: the output-channel block loop outlines next to
  // the serial root pad stage.
  topi::OpWorkload wl{"conv2d", 1, 16, 16, 16, 16, 3, 1, 1};
  for (bool fused : {false, true}) {
    std::vector<Tensor> t;
    LoweredFunc f = BuildConvCase(wl, fused, &t, fused ? "cg_par_conv" : "cg_par_conv_alone");
    EXPECT_TRUE(HasOutlinedLoop(f)) << ToString(f.body);
    ExpectIdenticalAtOneAndFourThreads(f, MakeArgs(t, 79));
  }
}

TEST(CodegenParallel, HazardousLoopsStayInline) {
  // Two kParallel loops well above the size rule that must not chunk: one writes
  // C[0] from every iteration (a reduction axis marked parallel), the other writes
  // a scratch allocation made outside the loop. Both stay inline in the emitted C,
  // run serially on every tier, and stay bitwise equal.
  const int n = 256;
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var i = make_var("i", DataType::Int32());
  Var j = make_var("j", DataType::Int32());
  Expr elem = load(DataType::Float32(), a, Expr(i) * make_int(n) + Expr(j));
  LoweredFunc reduce;
  reduce.name = "cg_par_hazard_reduce";
  reduce.args = {BufferArg{a, DataType::Float32(), {n * n}, "A"},
                 BufferArg{c, DataType::Float32(), {n}, "C"}};
  reduce.body = for_stmt(
      i, make_int(0), make_int(n),
      for_stmt(j, make_int(0), make_int(n),
               store(c, load(DataType::Float32(), c, make_int(0)) + elem, make_int(0))),
      ForType::kParallel);

  Var tmp = make_var("T", DataType::Handle());
  Var j2 = make_var("j2", DataType::Int32());
  LoweredFunc scratch;
  scratch.name = "cg_par_hazard_scratch";
  scratch.args = reduce.args;
  scratch.body = allocate(
      tmp, DataType::Float32(), {make_int(n)}, "global",
      for_stmt(i, make_int(0), make_int(n),
               seq({for_stmt(j, make_int(0), make_int(n),
                             store(tmp, elem * make_float(2.0), Expr(j))),
                    for_stmt(j2, make_int(0), make_int(n),
                             store(c,
                                   load(DataType::Float32(), c, Expr(i)) +
                                       load(DataType::Float32(), tmp,
                                            make_int(n - 1) - Expr(j2)),
                                   Expr(i)))}),
               ForType::kParallel));

  for (const LoweredFunc* f : {&reduce, &scratch}) {
    EXPECT_FALSE(HasOutlinedLoop(*f)) << f->name;
    ExpectIdenticalAtOneAndFourThreads(*f, {ArgBuf::Make(n * n, DataType::Float32(), 83),
                                       ArgBuf::Make(n, DataType::Float32(), 89)});
  }
}

TEST(CodegenParallel, ConvChainGraphOnPoolMatchesVm) {
  // A small conv chain sized above the size rule: the native tier at 4 threads on
  // an explicit pool equals the 1-thread VM bitwise.
  ScopedStrictMode strict;
  graph::Graph g;
  int data = g.AddInput("data", {1, 16, 16, 16});
  int w1 = g.AddConst("w1", {16, 16, 3, 3});
  int w2 = g.AddConst("w2", {16, 16, 3, 3});
  int c1 = g.AddOp("conv2d", "conv1", {data, w1}, {{"stride", 1}, {"pad", 1}});
  int r1 = g.AddOp("relu", "relu1", {c1});
  int c2 = g.AddOp("conv2d", "conv2", {r1, w2}, {{"stride", 1}, {"pad", 1}});
  g.outputs = {g.AddOp("relu", "relu2", {c2})};
  std::shared_ptr<graph::CompiledGraph> model;
  {
    ScopedEngine native(ExecEngine::kNative);
    model = std::make_shared<graph::CompiledGraph>(std::move(g), Target::ArmA53(),
                                                   graph::CompileOptions{});
  }
  model->SetParam("w1", NDArray::Random({16, 16, 3, 3}, DataType::Float32(), 97));
  model->SetParam("w2", NDArray::Random({16, 16, 3, 3}, DataType::Float32(), 101));
  NDArray input = NDArray::Random({1, 16, 16, 16}, DataType::Float32(), 103);
  vm::ResetFallbackCount();
  ThreadPool pool(4);
  vm::ExecOptions four;
  four.num_threads = 4;
  four.pool = &pool;
  auto run = [&](const vm::ExecOptions& exec) {
    graph::RunContext ctx(model);
    ctx.SetInput("data", input);
    model->Run(&ctx, exec);
    return ctx.GetOutput(0).Copy();
  };
  NDArray native_out;
  {
    ScopedEngine native(ExecEngine::kNative);
    native_out = run(four);
  }
  vm::ExecOptions serial;
  serial.num_threads = 1;
  NDArray vm_out;
  {
    ScopedEngine vm_engine(ExecEngine::kVm);
    vm_out = run(serial);
  }
  ExpectBitwiseEqual(native_out, vm_out, "conv chain native@4 vs VM@1");
  EXPECT_EQ(vm::FallbackCount(), 0);
}

TEST(CodegenParallel, ForkedChildRunsParallelKernels) {
  // A forked child inherits the process-wide worker pool object but none of its
  // threads, and forking while the pool is busy can leave the child its mutex or
  // condition variable mid-use. Keep that pool busy from a second thread, fork
  // repeatedly, and run a chunked kParallel kernel in each child on the VM and on
  // the native tier (both on the default pool at 4 threads): the child must build
  // its own pool instead of hanging on the inherited one.
  std::vector<Tensor> t;
  LoweredFunc f =
      BuildDense(DataType::Float32(), 0, 1, &t, "cg_par_fork", 16, 256, 64);
  ASSERT_TRUE(HasOutlinedLoop(f));
  std::shared_ptr<const vm::Program> prog = vm::CompileToProgram(f);
  ASSERT_NE(prog, nullptr);
  ASSERT_TRUE(vm::ProgramHasParallel(*prog));
  codegen::NativeKernel native = codegen::CompileNativeKernel(f);
  ASSERT_TRUE(static_cast<bool>(native));
  auto bind = [](std::vector<ArgBuf>* bufs) {
    std::vector<BufferBinding> b;
    for (ArgBuf& buf : *bufs) {
      b.push_back(buf.Bind());
    }
    return b;
  };
  const std::vector<ArgBuf> inputs = MakeArgs(t, 107);
  std::vector<ArgBuf> expect = inputs;
  vm::ExecOptions four;  // default pool
  four.num_threads = 4;
  vm::Run(*prog, bind(&expect), four);

  std::vector<ArgBuf> busy_bufs = inputs;
  std::atomic<bool> stop{false};
  std::thread busy([&] {
    std::vector<BufferBinding> b = bind(&busy_bufs);
    while (!stop.load()) {
      try {
        vm::Run(*prog, b, four);
      } catch (const failpoint::InjectedFault&) {
        // An injected vm.run fault only cuts one busy run short; escaping this
        // thread would terminate the process.
      }
    }
  });
  const size_t out = inputs.size() - 1;
  for (int round = 0; round < 16; ++round) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      alarm(10);  // a hang fails the test instead of stalling it
      std::vector<ArgBuf> vm_bufs = inputs;
      std::vector<ArgBuf> native_bufs = inputs;
      vm::Run(*prog, bind(&vm_bufs), four);
      codegen::RunNativeKernel(native, bind(&native_bufs), four);
      bool same = std::memcmp(expect[out].bytes.data(), vm_bufs[out].bytes.data(),
                              expect[out].bytes.size()) == 0 &&
                  std::memcmp(expect[out].bytes.data(), native_bufs[out].bytes.data(),
                              expect[out].bytes.size()) == 0;
      _exit(same ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ADD_FAILURE() << "round " << round << ": child "
                    << (WIFEXITED(status) ? "output differs from the parent's"
                                          : "hung or crashed");
      break;
    }
  }
  stop.store(true);
  busy.join();
}

// ---------------------------------------------------------------------------
// Module cache behavior
// ---------------------------------------------------------------------------

TEST(CodegenCache, SecondCompileHitsMemoryThenDisk) {
  ScopedCacheDir cache;
  std::vector<Tensor> t;
  // A shape no other test compiles: symbols name the emitted text alone, so another
  // test's identical kernel would already sit in the in-process registry.
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 0, &t, "cg_cache_dense", 3, 29, 13);
  codegen::ResetNativeStats();
  codegen::NativeKernel first = codegen::CompileNativeKernel(f);
  ASSERT_TRUE(static_cast<bool>(first));
  codegen::NativeStats s1 = codegen::GetNativeStats();
  EXPECT_EQ(s1.compiles, 1);
  EXPECT_EQ(s1.mem_hits, 0);

  // Identical source: the in-process registry answers, no compiler run.
  codegen::NativeKernel second = codegen::CompileNativeKernel(f);
  ASSERT_TRUE(static_cast<bool>(second));
  codegen::NativeStats s2 = codegen::GetNativeStats();
  EXPECT_EQ(s2.compiles, 1);
  EXPECT_EQ(s2.mem_hits, 1);
  EXPECT_EQ(second.module->path(), first.module->path());

  // Registry dropped: the on-disk artifact answers, still no compiler run.
  codegen::ClearNativeModuleRegistryForTesting();
  codegen::NativeKernel third = codegen::CompileNativeKernel(f);
  ASSERT_TRUE(static_cast<bool>(third));
  codegen::NativeStats s3 = codegen::GetNativeStats();
  EXPECT_EQ(s3.compiles, 1);
  EXPECT_EQ(s3.disk_hits, 1);

  // All three kernels actually run.
  std::vector<ArgBuf> a = MakeArgs(t, 59);
  std::vector<ArgBuf> b = MakeArgs(t, 59);
  std::vector<BufferBinding> ab, bb;
  for (size_t i = 0; i < a.size(); ++i) {
    ab.push_back(a[i].Bind());
    bb.push_back(b[i].Bind());
  }
  codegen::RunNativeKernel(first, ab);
  codegen::RunNativeKernel(third, bb);
  EXPECT_EQ(std::memcmp(a.back().bytes.data(), b.back().bytes.data(),
                        a.back().bytes.size()),
            0);
}

TEST(CodegenCache, CorruptDiskEntryRecompilesNotCrashes) {
  ScopedCacheDir cache;
  std::vector<Tensor> t;
  // A shape of its own, for the same reason as SecondCompileHitsMemoryThenDisk.
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 0, &t, "cg_cache_corrupt", 3, 31, 11);
  codegen::ResetNativeStats();

  // Compile, run, and record the result — then release every reference so the
  // module is actually dlclose'd (while it stays loaded, dlopen of the same path
  // returns the live mapping and never reads the corrupt bytes on disk).
  std::vector<ArgBuf> a = MakeArgs(t, 61);
  std::string so_path;
  {
    codegen::NativeKernel first = codegen::CompileNativeKernel(f);
    ASSERT_TRUE(static_cast<bool>(first));
    so_path = first.module->path();
    ASSERT_NE(so_path.find(cache.dir), std::string::npos)
        << "artifact must live in TVMCPP_NATIVE_CACHE: " << so_path;
    std::vector<BufferBinding> ab;
    for (ArgBuf& buf : a) {
      ab.push_back(buf.Bind());
    }
    codegen::RunNativeKernel(first, ab);
    codegen::ClearNativeModuleRegistryForTesting();
  }

  // Replace the (now unloaded) artifact with garbage: the stale entry must be
  // detected at dlopen and recompiled in place — never a crash, never served.
  {
    std::string tmp = so_path + ".corrupt";
    std::ofstream corrupt(tmp, std::ios::binary | std::ios::trunc);
    corrupt << "not an ELF object";
    corrupt.close();
    ASSERT_EQ(std::rename(tmp.c_str(), so_path.c_str()), 0);
  }
  codegen::NativeKernel again = codegen::CompileNativeKernel(f);
  ASSERT_TRUE(static_cast<bool>(again)) << "corrupt cache entry must recompile";
  codegen::NativeStats s = codegen::GetNativeStats();
  EXPECT_EQ(s.compiles, 2) << "recompile must actually run the compiler";
  EXPECT_EQ(s.disk_hits, 0);

  // The recompiled kernel computes the same result as the original run.
  std::vector<ArgBuf> b = MakeArgs(t, 61);
  std::vector<BufferBinding> bb;
  for (ArgBuf& buf : b) {
    bb.push_back(buf.Bind());
  }
  codegen::RunNativeKernel(again, bb);
  EXPECT_EQ(std::memcmp(a.back().bytes.data(), b.back().bytes.data(),
                        a.back().bytes.size()),
            0);
}

TEST(CodegenCache, ResNet18CompilesEachDistinctKernelOnce) {
  // Five of ResNet-18's 24 fused kernels differ from another one only in the names
  // of their graph nodes (conv1 + bn + relu in s0b0 and s0b1, conv2 + bn + add +
  // relu in b0 and b1 of every stage). Emitted with positional names they are the
  // same text, so the module holds 19 distinct kernel functions, built by one
  // compiler run. The translation unit opens with the ISA line -march=native
  // resolved to, which puts the host's vector ISA into the content hash.
  ScopedCacheDir cache;
  ScopedEngine native(ExecEngine::kNative);
  codegen::ClearNativeModuleRegistryForTesting();
  codegen::ResetNativeStats();
  auto model = frontend::CompileModel(frontend::ResNet18(1, 32), Target::ArmA53());
  EXPECT_EQ(model->num_kernels(), 24);
  EXPECT_EQ(codegen::GetNativeStats().compiles, 1);
  std::vector<std::string> sources;
  for (const auto& entry : std::filesystem::directory_iterator(cache.dir)) {
    if (entry.path().extension() == ".c") {
      std::ifstream is(entry.path());
      sources.emplace_back(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
    }
  }
  ASSERT_EQ(sources.size(), 1u);
  const std::string& tu = sources[0];
  int kernels = 0;
  for (size_t pos = tu.find("\nvoid tn_"); pos != std::string::npos;
       pos = tu.find("\nvoid tn_", pos + 1)) {
    ++kernels;
  }
  EXPECT_EQ(kernels, 19);
  EXPECT_EQ(model->num_programs(), 19);
  ASSERT_EQ(tu.rfind("/* isa: ", 0), 0u) << tu.substr(0, 200);
  const std::string isa = tu.substr(0, tu.find('\n'));
  EXPECT_NE(isa, "/* isa: unknown */");
  EXPECT_EQ(isa.substr(isa.size() - 3), " */");
}

TEST(CodegenCache, ResNet18CompilesEachDistinctVmProgramOnce) {
  // The VM tier keys its programs like the native symbol: the five kernels that
  // differ from another only in the names of their graph nodes reuse its program.
  ScopedEngine vm(ExecEngine::kVm);
  auto model = frontend::CompileModel(frontend::ResNet18(1, 32), Target::ArmA53());
  EXPECT_EQ(model->num_kernels(), 24);
  EXPECT_EQ(model->num_programs(), 19);
}

// Out = relu(X) + sigmoid(Y) over n floats, lowered with its arguments in `order`
// ("xy": X, Y, Out; "yx": Y, X, Out). Tensor names carry `tag`.
LoweredFunc ReluPlusSigmoid(const std::string& order, const std::string& tag,
                            std::vector<Tensor>* tensors) {
  const int n = 16;
  Tensor X = placeholder({make_int(n)}, DataType::Float32(), "X" + tag);
  Tensor Y = placeholder({make_int(n)}, DataType::Float32(), "Y" + tag);
  Tensor Out = compute({make_int(n)},
                       [&](const std::vector<Var>& i) {
                         return max(X({i[0]}), make_float(0.0)) + sigmoid(Y({i[0]}));
                       },
                       "Out" + tag);
  *tensors = order == "xy" ? std::vector<Tensor>{X, Y, Out} : std::vector<Tensor>{Y, X, Out};
  return Lower(create_schedule({Out}), *tensors, "cg_key_" + order + tag);
}

TEST(CodegenCache, CodeKeyBindsArgumentsByPosition) {
  // The VM binds buffers by position, so two functions whose bodies are equal up to
  // renaming but whose same-shaped arguments play different roles must not share a
  // program; renaming alone must.
  std::vector<Tensor> t_xy, t_xy_renamed, t_yx;
  LoweredFunc xy = ReluPlusSigmoid("xy", "", &t_xy);
  LoweredFunc xy_renamed = ReluPlusSigmoid("xy", "_other", &t_xy_renamed);
  LoweredFunc yx = ReluPlusSigmoid("yx", "", &t_yx);
  EXPECT_EQ(graph::CodeKey(xy), graph::CodeKey(xy_renamed));
  EXPECT_NE(graph::CodeKey(xy), graph::CodeKey(yx));

  // Both orders compute the same Out from the same X and Y on every tier.
  std::vector<ArgBuf> xy_args = MakeArgs(t_xy, 131);
  std::vector<ArgBuf> yx_args = {xy_args[1], xy_args[0], xy_args[2]};
  std::vector<ArgBuf> xy_out = RunAllTiers(xy, xy_args);
  std::vector<ArgBuf> yx_out = RunAllTiers(yx, yx_args);
  EXPECT_EQ(xy_out[2].bytes, yx_out[2].bytes);
}

TEST(CodegenCache, BatchedKernelsShareOneModule) {
  ScopedCacheDir cache;
  std::vector<Tensor> t1, t2;
  LoweredFunc f1 = BuildDense(DataType::Float32(), 0, 0, &t1, "cg_batch_a");
  LoweredFunc f2 = BuildDense(DataType::Float16(), 0, 0, &t2, "cg_batch_b");
  codegen::ResetNativeStats();
  std::vector<codegen::NativeKernel> kernels = codegen::CompileNativeKernels({&f1, &f2});
  ASSERT_EQ(kernels.size(), 2u);
  ASSERT_TRUE(static_cast<bool>(kernels[0]));
  ASSERT_TRUE(static_cast<bool>(kernels[1]));
  EXPECT_EQ(kernels[0].module.get(), kernels[1].module.get())
      << "a batch must compile into one translation unit / one module";
  EXPECT_EQ(codegen::GetNativeStats().compiles, 1);
}

// ---------------------------------------------------------------------------
// Fallback ladder: native compile failure downgrades loudly
// ---------------------------------------------------------------------------

TEST(CodegenFallback, CompilerFailureFallsDownTierCounted) {
  // Point the native tier at a compiler that always fails: the emitted source is
  // fine, compilation is not, so the native engine must count one downgrade and
  // serve the request from the VM tier — and hard-error under strict mode.
  ScopedCacheDir cache;
  ScopedEnv cc("TVMCPP_NATIVE_CC", "/bin/false");
  ScopedStrictMode strict(false);
  ScopedEngine engine(ExecEngine::kNative);
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 0, &t, "cg_cc_broken");
  std::vector<ArgBuf> args = MakeArgs(t, 67);
  std::vector<ArgBuf> oracle = args;
  std::vector<BufferBinding> bind, oracle_bind;
  for (size_t i = 0; i < args.size(); ++i) {
    bind.push_back(args[i].Bind());
    oracle_bind.push_back(oracle[i].Bind());
  }
  vm::ResetFallbackCount();
  RunLowered(f, bind);  // native -> VM downgrade, counted but served
  EXPECT_EQ(vm::FallbackCount(), 1);
  RunLoweredInterp(f, oracle_bind);
  EXPECT_EQ(std::memcmp(args.back().bytes.data(), oracle.back().bytes.data(),
                        args.back().bytes.size()),
            0)
      << "the VM tier that served the downgrade must still match the oracle";

  // CompiledGraph runs its kernels through the same ladder. A multi-kernel graph
  // compiled under the broken compiler has no native kernels: every Run counts one
  // downgrade per kernel and still matches the graph compiled for the interpreter.
  auto dense_chain = [] {
    graph::Graph g;
    int x = g.AddInput("data", {2, 8});
    for (int l = 0; l < 2; ++l) {
      int w = g.AddConst("w" + std::to_string(l), {8, 8});
      x = g.AddOp("dense", "d" + std::to_string(l), {x, w});
      x = g.AddOp("relu", "r" + std::to_string(l), {x});
    }
    g.outputs = {x};
    auto model = std::make_shared<graph::CompiledGraph>(std::move(g), Target::ArmA53(),
                                                        graph::CompileOptions{});
    for (int l = 0; l < 2; ++l) {
      model->SetParam("w" + std::to_string(l),
                      NDArray::Random({8, 8}, DataType::Float32(),
                                      static_cast<uint64_t>(80 + l)));
    }
    return model;
  };
  auto broken = dense_chain();
  ASSERT_GE(broken->num_kernels(), 2);
  NDArray input = NDArray::Random({2, 8}, DataType::Float32(), 83);
  NDArray graph_out;
  for (int run = 0; run < 2; ++run) {
    vm::ResetFallbackCount();
    graph_out = RunModelOnce(broken, {{"data", input}});
    EXPECT_EQ(vm::FallbackCount(), broken->num_kernels()) << "run " << run;
  }
  {
    ScopedEngine interp(ExecEngine::kInterp);
    ExpectBitwiseEqual(graph_out, RunModelOnce(dense_chain(), {{"data", input}}),
                       "graph served by the VM tier vs the interp engine");
  }

  // Under strict mode the same downgrades are fatal, for one function and for a graph.
  vm::SetStrictMode(true);
  EXPECT_THROW(RunLowered(f, bind), InternalError);
  EXPECT_THROW(RunModelOnce(broken, {{"data", input}}), InternalError);
}

// ---------------------------------------------------------------------------
// Emitter unit checks
// ---------------------------------------------------------------------------

TEST(CodegenUnit, SymbolsAreContentAddressedAndStable) {
  std::vector<Tensor> t;
  LoweredFunc f = BuildDense(DataType::Float32(), 0, 0, &t, "cg_sym");
  codegen::CSource a = codegen::EmitC(f);
  codegen::CSource b = codegen::EmitC(f);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.symbol, b.symbol) << "same TIR must hash to the same symbol";
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.symbol.rfind("tn_", 0), 0u);
  // A different TIR body under the same name changes the symbol.
  LoweredFunc g = BuildDense(DataType::Float32(), 1, 0, &t, "cg_sym");
  codegen::CSource c = codegen::EmitC(g);
  ASSERT_TRUE(c.ok);
  EXPECT_NE(a.symbol, c.symbol);
  // The same TIR under other function, buffer, loop and let names emits the same
  // text, so kernels that differ only in their graph nodes' names share one symbol.
  auto named = [](const std::string& p) {
    Var in = make_var(p + "_in", DataType::Handle());
    Var out = make_var(p + "_out", DataType::Handle());
    Var tmp = make_var(p + "_tmp", DataType::Handle());
    Var i = make_var(p + "_i");
    Var x = make_var(p + "_x", DataType::Float32());
    Stmt body = let_stmt(x, load(DataType::Float32(), in, i),
                         seq({store(tmp, x * x, make_int(0)),
                              store(out, load(DataType::Float32(), tmp, make_int(0)), i)}));
    LoweredFunc fn;
    fn.name = p + "_square";
    fn.args = {BufferArg{in, DataType::Float32(), {4}, p + "_in"},
               BufferArg{out, DataType::Float32(), {4}, p + "_out"}};
    fn.body = for_stmt(i, make_int(0), make_int(4),
                       allocate(tmp, DataType::Float32(), {make_int(1)}, "local", body));
    return codegen::EmitC(fn);
  };
  codegen::CSource s0 = named("s0b0_conv1");
  codegen::CSource s1 = named("s0b1_conv1");
  ASSERT_TRUE(s0.ok) << s0.error;
  EXPECT_EQ(s0.symbol, s1.symbol);
  EXPECT_EQ(s0.code, s1.code);
  EXPECT_EQ(s0.code.find("conv1"), std::string::npos) << s0.code;
}

TEST(CodegenUnit, UnsupportedConstructReportsNotOk) {
  // An unknown intrinsic is outside every compiled tier; EmitC must report it
  // (with the construct named) rather than emit wrong code.
  Var c = make_var("C", DataType::Handle());
  LoweredFunc f;
  f.name = "cg_unknown_intrin";
  f.args = {BufferArg{c, DataType::Float32(), {4}, "C"}};
  f.body = store(c, call_pure(DataType::Float32(), "mystery_op", {make_float(1.0)}),
                 make_int(0));
  codegen::CSource src = codegen::EmitC(f);
  EXPECT_FALSE(src.ok);
  EXPECT_FALSE(src.error.empty());
}

TEST(CodegenUnit, ConvTileIsAStackArrayWithAnF32Mac) {
  // The fused conv master accumulates into an oc x ow tile: a zeroed stack array,
  // updated by a MAC in float arithmetic with no double conversion.
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvRelu3x3(DataType::Float32(), &t, "cg_conv_tile");
  codegen::CSource src = codegen::EmitC(f);
  ASSERT_TRUE(src.ok) << src.error;
  const size_t decl = src.code.find("] = {0};");
  ASSERT_NE(decl, std::string::npos) << src.code;
  const size_t line_start = src.code.rfind('\n', decl) + 1;
  const std::string tile_decl = src.code.substr(line_start, decl - line_start);
  const size_t name_start = tile_decl.find("float ");
  ASSERT_NE(name_start, std::string::npos) << tile_decl;
  const std::string tile =
      tile_decl.substr(name_start + 6, tile_decl.find('[') - (name_start + 6));
  bool saw_mac = false;
  size_t pos = 0;
  while ((pos = src.code.find(tile + "[", pos)) != std::string::npos) {
    const size_t bol = src.code.rfind('\n', pos) + 1;
    const std::string line = src.code.substr(bol, src.code.find('\n', pos) - bol);
    if (line.find(" * ") != std::string::npos && line.find(" + ") != std::string::npos &&
        line.find(tile + "[") < line.find(" = ")) {
      saw_mac = true;
      EXPECT_EQ(line.find("double"), std::string::npos) << line;
    }
    pos = src.code.find('\n', pos);
  }
  EXPECT_TRUE(saw_mac) << src.code;
  EXPECT_EQ(src.code.find("free(" + tile + ")"), std::string::npos);
}

// The bracketed index of the first `array[` in `line`, brackets included.
std::string IndexOf(const std::string& line, const std::string& array) {
  const size_t open = line.find(array + "[");
  if (open == std::string::npos) {
    return "";
  }
  int depth = 0;
  for (size_t i = open + array.size(); i < line.size(); ++i) {
    depth += line[i] == '[' ? 1 : line[i] == ']' ? -1 : 0;
    if (depth == 0) {
      return line.substr(open + array.size(), i + 1 - open - array.size());
    }
  }
  return "";
}

TEST(CodegenUnit, BlockedConvMacRunsOverTheChannelBlock) {
  // A fused OIHW8o conv at its default tile: out_w = 8 gives tile_ow 4 and one
  // oc block, so the accumulator is a zeroed stack float[32] stored [ow][8]. The
  // MAC's innermost loop runs over the 8-channel block inside the ow loop, which
  // carries `#pragma GCC unroll 4`, so one tap issues four independent vector
  // MACs. In the lane loop the tile and the weights (a1) are read at unit stride
  // in the lane, every other load is lane-invariant, and no index divides or
  // takes a modulo.
  topi::OpWorkload wl{"conv2d", 1, 8, 8, 16, 16, 3, 1, 1};
  wl.oc_block = 8;
  std::vector<Tensor> t;
  LoweredFunc f = BuildConvCase(wl, /*fused=*/true, &t, "cg_conv_blocked", /*parallel=*/0);
  codegen::CSource src = codegen::EmitC(f);
  ASSERT_TRUE(src.ok) << src.error;
  const std::string& code = src.code;
  const size_t decl = code.find("[32] = {0};");
  ASSERT_NE(decl, std::string::npos) << code;
  const size_t decl_start = code.rfind('\n', decl) + 1;
  const size_t name_start = code.find("float ", decl_start) + 6;
  ASSERT_LT(name_start, decl) << code;
  const std::string tile = code.substr(name_start, decl - name_start);
  EXPECT_EQ(code.find("free(" + tile + ")"), std::string::npos);

  // The MAC: a store to the tile whose value multiplies.
  size_t mac = std::string::npos;
  for (size_t pos = code.find(tile + "["); pos != std::string::npos;
       pos = code.find(tile + "[", pos + 1)) {
    const size_t bol = code.rfind('\n', pos) + 1;
    const std::string line = code.substr(bol, code.find('\n', pos) - bol);
    if (line.find(tile + "[") < line.find(" = ") && line.find(" * ") != std::string::npos) {
      mac = bol;
      break;
    }
  }
  ASSERT_NE(mac, std::string::npos) << code;
  const std::string line = code.substr(mac, code.find('\n', mac) - mac);
  // The innermost loop around it is the 8-lane loop of the block, and the loop
  // around that is the unrolled ow loop.
  auto loop_var = [](const std::string& header) {
    const size_t start = header.find("int64_t ") + 8;
    return header.substr(start, header.find(' ', start) - start);
  };
  auto header_at = [&](size_t loop) { return code.substr(loop, code.find('\n', loop) - loop); };
  const size_t lane_loop = code.rfind("for (", mac);
  ASSERT_NE(lane_loop, std::string::npos);
  const std::string lane = loop_var(header_at(lane_loop));
  EXPECT_EQ(header_at(lane_loop),
            "for (int64_t " + lane + " = 0; " + lane + " < 8; ++" + lane + ") {")
      << "the MAC's innermost loop is not the 8-channel block:\n" << code;
  const size_t ow_loop = code.rfind("for (", lane_loop - 1);
  ASSERT_NE(ow_loop, std::string::npos);
  const std::string ow = loop_var(header_at(ow_loop));
  const size_t ow_bol = code.rfind('\n', ow_loop);
  const size_t pragma = code.find_first_not_of(' ', code.rfind('\n', ow_bol - 1) + 1);
  EXPECT_EQ(code.substr(pragma, ow_bol - pragma), "#pragma GCC unroll 4")
      << "the ow loop around the lane loop is not unrolled:\n" << code;

  const std::string unit_lane = "(int64_t)" + lane + " * INT64_C(1))";
  EXPECT_EQ(IndexOf(line.substr(line.find(" = ")), tile),
            "[((" + ow + " * INT64_C(8)) + " + unit_lane + "]")
      << "the tile is not stored [ow][8]: " << line;
  EXPECT_NE(IndexOf(line, "a1").find(unit_lane), std::string::npos) << line;
  // Every other array the MAC reads (the padded input) is lane-invariant.
  for (size_t open = line.find('['); open != std::string::npos;
       open = line.find('[', open + 1)) {
    size_t name_begin = open;
    while (name_begin > 0 && (std::isalnum(static_cast<unsigned char>(line[name_begin - 1])) ||
                              line[name_begin - 1] == '_')) {
      --name_begin;
    }
    const std::string array = line.substr(name_begin, open - name_begin);
    if (array.empty() || array == tile || array == "a1") {
      continue;
    }
    EXPECT_EQ(IndexOf(line.substr(name_begin), array).find(lane), std::string::npos)
        << array << " varies with the lane: " << line;
  }
  for (const char* op : {" / ", " % ", "tn_floordiv", "tn_floormod"}) {
    EXPECT_EQ(line.find(op), std::string::npos) << op << " in the MAC: " << line;
  }
}

TEST(CodegenUnit, LargeOrSymbolicAllocationsStayOnTheHeap) {
  // 257 elements is one past the stack limit; an extent read from a buffer has no
  // constant size at all. Both keep calloc/free, which zero-initializes too.
  for (bool symbolic : {false, true}) {
    Var a = make_var("A", DataType::Handle());
    Var out = make_var("Out", DataType::Handle());
    Var tmp = make_var("tmp", DataType::Handle());
    Var n = make_var("n");
    Stmt body = store(out, load(DataType::Float32(), tmp, make_int(2)), make_int(0));
    body = allocate(tmp, DataType::Float32(), {symbolic ? Expr(n) : make_int(257)}, "local",
                    body);
    body = let_stmt(n, cast(DataType::Int32(), load(DataType::Float32(), a, make_int(0))),
                    body);
    LoweredFunc f;
    f.name = symbolic ? "cg_alloc_symbolic" : "cg_alloc_257";
    f.args = {BufferArg{a, DataType::Float32(), {1}, "A"},
              BufferArg{out, DataType::Float32(), {1}, "Out"}};
    f.body = body;
    codegen::CSource src = codegen::EmitC(f);
    ASSERT_TRUE(src.ok) << src.error;
    EXPECT_NE(src.code.find("calloc("), std::string::npos) << src.code;
    EXPECT_EQ(src.code.find("= {0};"), std::string::npos) << src.code;
    std::vector<ArgBuf> bufs =
        RunAllTiers(f, {Values(DataType::Float32(), {3}), Values(DataType::Float32(), {5})});
    EXPECT_EQ(OutF(bufs), 0.0f);
  }
}

// ---------------------------------------------------------------------------
// Guarded convolutions: the conv's `where` skips its zero padding
// ---------------------------------------------------------------------------

// The formulation the guarded conv replaced: an explicit PadNCHW stage computed at
// root and an unguarded reduction over the padded buffer (then the relu when
// `fused`), with the default schedule, over buffers shaped like `like`. A
// transposed conv selects zero for a tap that matches no input, and sums it.
LoweredFunc BuildPaddedReference(const topi::OpWorkload& wl, bool fused,
                                 const std::vector<Tensor>& like, const std::string& name) {
  auto shape_of = [](const Tensor& t) { return t.shape(); };
  Tensor data = placeholder(shape_of(like[0]), wl.dtype, "data");
  Tensor kernel = placeholder(shape_of(like[1]), wl.dtype, "kernel");
  const bool depthwise = wl.kind == "depthwise_conv2d";
  Tensor padded = topi::PadNCHW(data, wl.pad, "ref.pad");
  IterVar rc = reduce_axis(Range(make_int(0), make_int(wl.ic)), "ref.rc");
  IterVar ry = reduce_axis(Range(make_int(0), make_int(wl.k)), "ref.ry");
  IterVar rx = reduce_axis(Range(make_int(0), make_int(wl.k)), "ref.rx");
  std::vector<Expr> out_shape = shape_of(like[2]);
  Tensor conv = compute(
      out_shape,
      [&](const std::vector<Var>& i) {
        if (wl.kind == "conv2d_transpose") {
          Expr hn = i[2] + make_int(wl.pad) - ry->var;
          Expr wn = i[3] + make_int(wl.pad) - rx->var;
          Expr h = hn / make_int(wl.stride);
          Expr w = wn / make_int(wl.stride);
          Expr taken = logic_and(
              logic_and(eq(hn % make_int(wl.stride), make_int(0)),
                        eq(wn % make_int(wl.stride), make_int(0))),
              logic_and(logic_and(ge(h, make_int(0)), lt(h, make_int(wl.h))),
                        logic_and(ge(w, make_int(0)), lt(w, make_int(wl.w)))));
          Expr hc = max(min(h, make_int(wl.h - 1)), make_int(0));
          Expr wc = max(min(w, make_int(wl.w - 1)), make_int(0));
          return sum(if_then_else(taken, data({i[0], rc->var, hc, wc}), make_zero(wl.dtype)) *
                         kernel({rc->var, i[1], ry->var, rx->var}),
                     {rc, ry, rx});
        }
        Expr h = i[2] * make_int(wl.stride) + ry->var;
        Expr w = i[3] * make_int(wl.stride) + rx->var;
        if (depthwise) {
          return sum(padded({i[0], i[1], h, w}) * kernel({i[1], make_int(0), ry->var, rx->var}),
                     {ry, rx});
        }
        Expr weight = wl.oc_block > 0
                          ? kernel({i[1] / make_int(wl.oc_block), rc->var, ry->var, rx->var,
                                    i[1] % make_int(wl.oc_block)})
                          : kernel({i[1], rc->var, ry->var, rx->var});
        return sum(padded({i[0], rc->var, h, w}) * weight, {rc, ry, rx});
      },
      "ref.conv");
  Tensor out = fused ? topi::Relu(conv, "ref.relu") : conv;
  Schedule s = create_schedule({out});
  if (wl.pad > 0 && wl.kind != "conv2d_transpose") {
    (*s)[padded]->compute_root();
  }
  return Lower(s, {data, kernel, out}, name);
}

struct GuardedConvCase {
  topi::OpWorkload wl;
  bool fused;
  int64_t tile_ow;  // 0: the template's default
};

topi::OpWorkload ConvWl(const std::string& kind, int ic, int hw, int oc, int k, int stride,
                        int pad, int oc_block) {
  topi::OpWorkload wl{kind, 1, hw, hw, ic, oc, k, stride, pad};
  wl.oc_block = oc_block;
  return wl;
}

// Every zoo conv class through the CPU template: kernel 1, 3 and 7, stride 1 and 2,
// maps from 1x1 to 16x16, tile_ow 1, 2 and 4, fused and unfused, blocked OIHW8o
// and OIHW kernels, depthwise, and DCGAN's stride-2 transposed conv.
std::vector<GuardedConvCase> GuardedConvCases() {
  std::vector<GuardedConvCase> cases;
  for (int hw : {1, 2, 4, 8, 16}) {
    for (int64_t tow : {1, 2, 4}) {
      if (tow <= hw) {
        cases.push_back({ConvWl("conv2d", 8, hw, 16, 3, 1, 1, 8), true, tow});
      }
    }
  }
  for (bool fused : {true, false}) {
    cases.push_back({ConvWl("conv2d", 8, 1, 16, 3, 1, 1, 8), fused, 0});
    cases.push_back({ConvWl("conv2d", 8, 2, 16, 3, 2, 1, 8), fused, 0});
    cases.push_back({ConvWl("conv2d", 8, 8, 16, 3, 2, 1, 8), fused, 0});
    cases.push_back({ConvWl("conv2d", 3, 16, 16, 7, 2, 3, 8), fused, 0});
    cases.push_back({ConvWl("conv2d", 8, 8, 16, 1, 2, 0, 8), fused, 0});
    cases.push_back({ConvWl("conv2d", 4, 8, 12, 3, 1, 1, 0), fused, 0});
    cases.push_back({ConvWl("depthwise_conv2d", 8, 8, 8, 3, 1, 1, 0), fused, 0});
    cases.push_back({ConvWl("depthwise_conv2d", 8, 8, 8, 3, 2, 1, 0), fused, 0});
    cases.push_back({ConvWl("depthwise_conv2d", 8, 1, 8, 3, 1, 1, 0), fused, 0});
    cases.push_back({ConvWl("conv2d_transpose", 8, 4, 4, 4, 2, 1, 0), fused, 0});
  }
  cases.push_back({ConvWl("conv2d", 8, 8, 16, 3, 1, 1, 8), false, 0});
  return cases;
}

TEST(GuardedConv, EveryConvClassMatchesThePaddedReferenceOnEveryTier) {
  // Skipping a padded tap drops a 0 * w = +-0 term from a sum that starts at +0 and
  // so is never -0: the guarded conv is bitwise the materialized-pad conv. Each
  // case runs on the interpreter, the VM and the native tier (one compiler run for
  // all of them), under strict mode, against the reference on the interpreter.
  ScopedStrictMode strict;
  std::vector<GuardedConvCase> cases = GuardedConvCases();
  std::vector<LoweredFunc> funcs;
  std::vector<std::vector<Tensor>> tensors(cases.size());
  for (size_t c = 0; c < cases.size(); ++c) {
    funcs.push_back(BuildConvCase(cases[c].wl, cases[c].fused, &tensors[c],
                                  "cg_guarded_" + std::to_string(c), /*parallel=*/1,
                                  cases[c].tile_ow));
  }
  std::vector<const LoweredFunc*> ptrs;
  for (const LoweredFunc& f : funcs) {
    ptrs.push_back(&f);
  }
  std::vector<codegen::NativeKernel> natives = codegen::CompileNativeKernels(ptrs);
  ASSERT_EQ(natives.size(), cases.size());
  for (size_t c = 0; c < cases.size(); ++c) {
    const GuardedConvCase& gc = cases[c];
    SCOPED_TRACE(gc.wl.Key() + (gc.fused ? " fused" : " unfused") + " tile_ow " +
                 std::to_string(gc.tile_ow));
    LoweredFunc ref = BuildPaddedReference(gc.wl, gc.fused, tensors[c], "cg_padded_ref");
    std::vector<ArgBuf> args = MakeArgs(tensors[c], 100 + c);
    std::vector<ArgBuf> expected = args;
    std::vector<BufferBinding> expected_bind;
    for (ArgBuf& b : expected) {
      expected_bind.push_back(b.Bind());
    }
    RunLoweredInterp(ref, expected_bind);
    std::shared_ptr<const vm::Program> prog = vm::CompileToProgram(funcs[c]);
    ASSERT_NE(prog, nullptr);
    ASSERT_TRUE(static_cast<bool>(natives[c]));
    for (int tier = 0; tier < 3; ++tier) {
      std::vector<ArgBuf> bufs = args;
      std::vector<BufferBinding> bind;
      for (ArgBuf& b : bufs) {
        bind.push_back(b.Bind());
      }
      if (tier == 0) {
        RunLoweredInterp(funcs[c], bind);
      } else if (tier == 1) {
        vm::Run(*prog, bind);
      } else {
        codegen::RunNativeKernel(natives[c], bind);
      }
      EXPECT_EQ(std::memcmp(bufs.back().bytes.data(), expected.back().bytes.data(),
                            expected.back().bytes.size()),
                0)
          << "tier " << tier << " differs from the padded reference";
    }
  }
}

TEST(GuardedConv, PaddingOnlyInfWeightLeavesOutputsFinite) {
  // A 3x3 conv on a 1x1 map meets data only at its centre tap: the other eight
  // taps only ever meet padding, so an inf weight there contributes nothing (the
  // materialized pad would have added 0 * inf = NaN). Identical on all three tiers.
  for (bool fused : {true, false}) {
    topi::OpWorkload wl = ConvWl("conv2d", 8, 1, 16, 3, 1, 1, 8);
    std::vector<Tensor> t;
    LoweredFunc f = BuildConvCase(wl, fused, &t, "cg_guarded_inf");
    std::vector<ArgBuf> args = MakeArgs(t, 7);
    // kernel [oc/8, ic, ky, kx, 8]: every weight of tap (0, 0).
    float* w = reinterpret_cast<float*>(args[1].bytes.data());
    for (int64_t ocb = 0; ocb < 2; ++ocb) {
      for (int64_t ic = 0; ic < 8; ++ic) {
        for (int64_t lane = 0; lane < 8; ++lane) {
          w[((ocb * 8 + ic) * 9 + 0) * 8 + lane] = std::numeric_limits<float>::infinity();
        }
      }
    }
    std::vector<ArgBuf> out = RunAllTiers(f, args);
    const float* y = reinterpret_cast<const float*>(out.back().bytes.data());
    for (int64_t i = 0; i < out.back().num_elements; ++i) {
      EXPECT_TRUE(std::isfinite(y[i])) << (fused ? "fused" : "unfused") << " output " << i;
    }
  }
}

}  // namespace
}  // namespace tvmcpp
