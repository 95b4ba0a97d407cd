// Tests for the vector execution path: the VectorizeLoop lowering pass, the
// interpreter's lane-wise reference semantics, and the VM's SIMD vector opcodes.
//
// The differential structure is three-way:
//   A. interpreter on the original body (serial loops) — the oracle
//   B. interpreter on VectorizeLoop(body)              — validates the pass
//   C. VM (which applies VectorizeLoop internally)     — validates the opcodes
// All three must produce bitwise-identical buffers.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/graph/executor.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/lower/lower.h"
#include "src/schedule/schedule.h"
#include "src/support/float16.h"
#include "src/support/random.h"
#include "src/te/tensor.h"
#include "src/topi/nn.h"
#include "src/topi/schedules.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

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
        p[i] = static_cast<int8_t>(rng.Uniform(128)) - 64;
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

// Runs the three-way differential check (see file comment) and, when
// `expect_vector`, asserts the VM program actually contains SIMD opcodes.
void ExpectVectorizedIdentical(const LoweredFunc& f, const std::vector<ArgBuf>& args,
                               bool expect_vector = true) {
  LoweredFunc vectorized = f;
  vectorized.body = VectorizeLoop(f.body);
  std::shared_ptr<const vm::Program> prog = vm::CompileToProgram(f);
  ASSERT_NE(prog, nullptr) << "VM failed to compile " << f.name << ":\n"
                           << ToString(vectorized.body);
  if (expect_vector) {
    EXPECT_TRUE(vm::ProgramHasVector(*prog))
        << f.name << " compiled without vector opcodes:\n"
        << ToString(vectorized.body);
  }

  std::vector<ArgBuf> serial_bufs = args;
  std::vector<ArgBuf> vecinterp_bufs = args;
  std::vector<ArgBuf> vm_bufs = args;
  std::vector<BufferBinding> serial_bind, vecinterp_bind, vm_bind;
  for (size_t i = 0; i < args.size(); ++i) {
    serial_bind.push_back(serial_bufs[i].Bind());
    vecinterp_bind.push_back(vecinterp_bufs[i].Bind());
    vm_bind.push_back(vm_bufs[i].Bind());
  }
  RunLoweredInterp(f, serial_bind);
  RunLoweredInterp(vectorized, vecinterp_bind);
  vm::ExecOptions opts;
  opts.num_threads = 1;
  vm::Run(*prog, vm_bind, opts);
  for (size_t i = 0; i < args.size(); ++i) {
    EXPECT_EQ(std::memcmp(serial_bufs[i].bytes.data(), vecinterp_bufs[i].bytes.data(),
                          serial_bufs[i].bytes.size()),
              0)
        << f.name << ": buffer " << i
        << " differs between serial interp and vectorized interp";
    EXPECT_EQ(std::memcmp(serial_bufs[i].bytes.data(), vm_bufs[i].bytes.data(),
                          serial_bufs[i].bytes.size()),
              0)
        << f.name << ": buffer " << i << " differs between serial interp and VM";
  }
}

// --- the pass itself ----------------------------------------------------------------

TEST(VectorizePass, RewritesLoopToVectorOps) {
  const int n = 16;
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var i = make_var("i");
  Stmt loop = for_stmt(i, make_int(0), make_int(n),
                       store(c, load(DataType::Float32(), a, i) * make_float(2.0), i),
                       ForType::kVectorized);
  Stmt vec = VectorizeLoop(loop);
  std::string text = ToString(vec);
  EXPECT_NE(text.find("ramp("), std::string::npos) << text;
  EXPECT_EQ(text.find("vectorized"), std::string::npos)
      << "vectorized loop survived the pass:\n"
      << text;
}

TEST(VectorizePass, ScalarPlusLaneFoldsIntoOneRamp) {
  // C[k*8 + i] = A[i + k*8] for a vectorized i: each index, the scalar k*8 plus the
  // lane, becomes one ramp(k*8, 1, 8) rather than x8(k*8) + ramp(0, 1, 8), so the VM
  // computes it with one kVRamp. The values stay bitwise those of the serial loop.
  const int n = 8, blocks = 3;
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var k = make_var("k");
  Var i = make_var("i");
  Expr base = k * make_int(n);
  Stmt inner = for_stmt(i, make_int(0), make_int(n),
                        store(c, load(DataType::Float32(), a, i + base) * make_float(2.0),
                              base + i),
                        ForType::kVectorized);
  LoweredFunc f;
  f.name = "vec_ramp_fold";
  f.args = {BufferArg{a, DataType::Float32(), {n * blocks}, "A"},
            BufferArg{c, DataType::Float32(), {n * blocks}, "C"}};
  f.body = for_stmt(k, make_int(0), make_int(blocks), inner);
  const std::string text = ToString(VectorizeLoop(f.body));
  EXPECT_EQ(text.find("x8((k*8))"), std::string::npos) << text;
  const size_t first = text.find("ramp((k*8), 1, 8)");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_NE(text.find("ramp((k*8), 1, 8)", first + 1), std::string::npos) << text;
  ExpectVectorizedIdentical(f, {ArgBuf::Make(n * blocks, DataType::Float32(), 3),
                                ArgBuf::Make(n * blocks, DataType::Float32(), 4)});
}

TEST(VectorizePass, LaneInvariantStoreStaysSerial) {
  // A reduction into one element carries a dependence across lanes; the pass must
  // keep the loop serial rather than collapse it to the last lane's write.
  const int n = 8;
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var i = make_var("i");
  Expr acc = load(DataType::Float32(), c, make_int(0)) + load(DataType::Float32(), a, i);
  Stmt loop = for_stmt(i, make_int(0), make_int(n), store(c, acc, make_int(0)),
                       ForType::kVectorized);
  Stmt vec = VectorizeLoop(loop);
  std::string text = ToString(vec);
  EXPECT_NE(text.find("vectorized"), std::string::npos)
      << "hazardous loop was vectorized:\n"
      << text;

  LoweredFunc f;
  f.name = "vec_reduction_bailout";
  f.args = {BufferArg{a, DataType::Float32(), {n}, "A"},
            BufferArg{c, DataType::Float32(), {1}, "C"}};
  f.body = loop;
  std::vector<ArgBuf> args = {ArgBuf::Make(n, DataType::Float32(), 11),
                              ArgBuf::Make(1, DataType::Float32(), 12)};
  ExpectVectorizedIdentical(f, args, /*expect_vector=*/false);
}

TEST(VectorizePass, StripMinesWideLoopsWithScalarTail) {
  // Extent 100 > kMaxDirectLanes: 6 chunks of 16 lanes + a 4-iteration scalar tail.
  const int n = 100;
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var i = make_var("i");
  Expr v = load(DataType::Float32(), a, i);
  Stmt loop = for_stmt(i, make_int(0), make_int(n),
                       store(c, v * v + make_float(1.0), i), ForType::kVectorized);
  Stmt vec = VectorizeLoop(loop);
  std::string text = ToString(vec);
  EXPECT_NE(text.find("ramp("), std::string::npos) << text;

  LoweredFunc f;
  f.name = "vec_strip_mined";
  f.args = {BufferArg{a, DataType::Float32(), {n}, "A"},
            BufferArg{c, DataType::Float32(), {n}, "C"}};
  f.body = loop;
  std::vector<ArgBuf> args = {ArgBuf::Make(n, DataType::Float32(), 21),
                              ArgBuf::Make(n, DataType::Float32(), 22)};
  ExpectVectorizedIdentical(f, args);
}

// Regression: the interpreter interleaves per-lane reads and writes inside one store
// while the VM gathers the full value vector before scattering — a loop-carried
// in-place update (A[i+1] = A[i] + 1) must therefore stay serial.
TEST(VectorizePass, CrossLaneOverlapStaysSerial) {
  const int n = 16;
  Var a = make_var("A", DataType::Handle());
  Var i = make_var("i");
  Stmt loop = for_stmt(i, make_int(0), make_int(n - 1),
                       store(a, load(DataType::Float32(), a, i) + make_float(1.0), i + 1),
                       ForType::kVectorized);
  EXPECT_NE(ToString(VectorizeLoop(loop)).find("vectorized"), std::string::npos)
      << "loop-carried store was vectorized";

  LoweredFunc f;
  f.name = "vec_overlap_bailout";
  f.args = {BufferArg{a, DataType::Float32(), {n}, "A"}};
  f.body = loop;
  std::vector<ArgBuf> args = {ArgBuf::Make(n, DataType::Float32(), 131)};
  ExpectVectorizedIdentical(f, args, /*expect_vector=*/false);
}

// Regression: a lane-dependent guard over a lane-invariant store (flag[0] = ...)
// cannot become a lane predicate — the scalar store path would test it at lane 0
// only, while the serial oracle writes when ANY lane passes the guard.
TEST(VectorizePass, LaneInvariantGuardedStoreStaysSerial) {
  const int n = 10;
  Var c = make_var("C", DataType::Handle());
  Var i = make_var("i");
  Stmt guarded = if_then_else_stmt(lt(Expr(i), make_int(3)),
                                   store(c, make_float(1.0), make_int(0)));
  Stmt loop = for_stmt(i, make_int(0), make_int(8), guarded, ForType::kVectorized);
  EXPECT_NE(ToString(VectorizeLoop(loop)).find("vectorized"), std::string::npos)
      << "lane-invariant guarded store was vectorized";

  LoweredFunc f;
  f.name = "vec_flag_bailout";
  f.args = {BufferArg{c, DataType::Float32(), {n}, "C"}};
  f.body = loop;
  std::vector<ArgBuf> args = {ArgBuf::Make(n, DataType::Float32(), 141)};
  ExpectVectorizedIdentical(f, args, /*expect_vector=*/false);
}

// Regression: integer division under a lane-dependent guard must not be evaluated
// eagerly on masked lanes (FloorDiv traps on zero divisors the guard excluded).
TEST(VectorizePass, GuardedIntDivisionStaysSerialAndSafe) {
  const int n = 10;  // non-divisible by 8: the last 6 lanes are guarded off
  Tensor A = placeholder({make_int(n)}, DataType::Int32(), "A");
  Tensor B = placeholder({make_int(n)}, DataType::Int32(), "B");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return A({i[0]}) / max(B({i[0]}), make_int(1));
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  IterVar o, i;
  st->split(st->leaf_iter_vars[0], 8, &o, &i);
  st->vectorize(i);
  LoweredFunc f = Lower(s, {A, B, C}, "vec_guarded_div");
  // Whether the pass bails (divisor is not a constant) or not, both engines must
  // agree and never trap on a masked lane.
  ExpectVectorizedIdentical(f, MakeArgs({A, B, C}, 151), /*expect_vector=*/false);
}

// Regression: same-index read-modify-write is exempt from the overlap bail-out only
// when the address is injective across lanes — C[i/2] += A[i] collides two lanes on
// one element, so the gather-then-scatter VM would read stale values.
TEST(VectorizePass, NonInjectiveRmwStaysSerial) {
  const int n = 16;
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var i = make_var("i");
  Expr idx = Expr(i) / 2;
  Expr acc = load(DataType::Float32(), c, idx) + load(DataType::Float32(), a, i);
  Stmt loop = for_stmt(i, make_int(0), make_int(n), store(c, acc, idx),
                       ForType::kVectorized);
  EXPECT_NE(ToString(VectorizeLoop(loop)).find("vectorized"), std::string::npos)
      << "colliding RMW was vectorized";

  LoweredFunc f;
  f.name = "vec_colliding_rmw";
  f.args = {BufferArg{a, DataType::Float32(), {n}, "A"},
            BufferArg{c, DataType::Float32(), {n / 2}, "C"}};
  f.body = loop;
  std::vector<ArgBuf> args = {ArgBuf::Make(n, DataType::Float32(), 161),
                              ArgBuf::Make(n / 2, DataType::Float32(), 162)};
  ExpectVectorizedIdentical(f, args, /*expect_vector=*/false);
}

// Regression: dependences across *statements* of one vectorized body must also bail —
// serial execution interleaves the statements per iteration, the vector form runs
// each statement for all lanes first.
TEST(VectorizePass, CrossStatementDependenceStaysSerial) {
  const int n = 16;
  Var a = make_var("A", DataType::Handle());
  Var b = make_var("B", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var i = make_var("i");
  Stmt body = seq({
      store(a, load(DataType::Float32(), b, i), i),
      store(c, load(DataType::Float32(), a, i + 1), i),
  });
  Stmt loop = for_stmt(i, make_int(0), make_int(n - 1), body, ForType::kVectorized);
  EXPECT_NE(ToString(VectorizeLoop(loop)).find("vectorized"), std::string::npos)
      << "cross-statement dependence was vectorized";

  LoweredFunc f;
  f.name = "vec_cross_stmt_bailout";
  f.args = {BufferArg{a, DataType::Float32(), {n}, "A"},
            BufferArg{b, DataType::Float32(), {n}, "B"},
            BufferArg{c, DataType::Float32(), {n}, "C"}};
  f.body = loop;
  std::vector<ArgBuf> args = {ArgBuf::Make(n, DataType::Float32(), 191),
                              ArgBuf::Make(n, DataType::Float32(), 192),
                              ArgBuf::Make(n, DataType::Float32(), 193)};
  ExpectVectorizedIdentical(f, args, /*expect_vector=*/false);
}

// Regression: a lane-invariant load inside a lane-dependent conditional arm cannot
// carry the vector mask (the scalar load path would test it at one lane); the loop
// must stay serial rather than fall back — or worse, trap — at VM compile time.
TEST(VectorizePass, LaneInvariantLoadInConditionalArmStaysSerial) {
  const int n = 16;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(1)}, DataType::Float32(), "B");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return if_then_else(lt(Expr(i[0]), make_int(7)), A({i[0]}),
                                           B({make_int(0)}));
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  st->vectorize(st->leaf_iter_vars[0]);
  LoweredFunc f = Lower(s, {A, B, C}, "vec_scalar_arm");
  // Must compile on the VM (no fallback) and agree with the serial oracle.
  ExpectVectorizedIdentical(f, MakeArgs({A, B, C}, 171), /*expect_vector=*/false);
}

// Indirect store through a gathered index: the index's nested load must be masked by
// the tail guard, so masked lanes never bounds-trap on the VM's eager index vector
// (the index buffer itself is only `n` long while the vector covers 16 lanes).
TEST(VectorizeDiff, GuardedIndirectStoreMasksIndexLoads) {
  const int n = 10;  // live lanes; lanes [10, 16) are guarded off
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var idxb = make_var("Idx", DataType::Handle());
  Var i = make_var("i");
  Expr scatter_to = load(DataType::Int32(), idxb, i);
  Stmt guarded = if_then_else_stmt(
      lt(Expr(i), make_int(n)),
      store(c, load(DataType::Float32(), a, i) + make_float(2.0), scatter_to));
  Stmt loop = for_stmt(i, make_int(0), make_int(16), guarded, ForType::kVectorized);
  LoweredFunc f;
  f.name = "vec_guarded_gather";
  f.args = {BufferArg{a, DataType::Float32(), {n}, "A"},
            BufferArg{c, DataType::Float32(), {n}, "C"},
            BufferArg{idxb, DataType::Int32(), {n}, "Idx"}};
  f.body = loop;

  std::vector<ArgBuf> args = {ArgBuf::Make(n, DataType::Float32(), 181),
                              ArgBuf::Make(n, DataType::Float32(), 182),
                              ArgBuf::Make(n, DataType::Int32(), 183)};
  // A permutation scatter: every live lane writes a distinct in-bounds element.
  int32_t* idx = reinterpret_cast<int32_t*>(args[2].bytes.data());
  for (int k = 0; k < n; ++k) {
    idx[k] = (k * 3) % n;
  }
  ExpectVectorizedIdentical(f, args);
}

// --- predicated lanes ---------------------------------------------------------------

TEST(VectorizeDiff, NonDivisibleSplitGuardBecomesPredicate) {
  // split(30, 8) leaves a 2-lane overhang guarded by xo*8 + xi < 30; the guard must
  // become a store predicate, with masked lanes never touching out-of-bounds memory.
  const int n = 30;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return A({i[0]}) * make_float(3.0) + make_float(0.5);
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  IterVar o, i;
  st->split(st->leaf_iter_vars[0], 8, &o, &i);
  st->vectorize(i);
  LoweredFunc f = Lower(s, {A, C}, "vec_guarded");
  ExpectVectorizedIdentical(f, MakeArgs({A, C}, 31));
}

TEST(VectorizeDiff, PaddingIfThenElseMasksLoads) {
  // Inlined padding reads: if_then_else(0 <= i-1 < n, A[i-1], 0). Lane-wise blending
  // must mask the loads so out-of-range lanes cannot trap the bounds check.
  const int n = 24;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       Expr shifted = i[0] - 1;
                       return if_then_else(
                           logic_and(ge(shifted, make_int(0)), lt(shifted, make_int(n))),
                           A({shifted}), make_float(0.0));
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  st->vectorize(st->leaf_iter_vars[0]);
  LoweredFunc f = Lower(s, {A, C}, "vec_padded");
  ExpectVectorizedIdentical(f, MakeArgs({A, C}, 41));
}

// --- dtype coverage -----------------------------------------------------------------

TEST(VectorizeDiff, Float16LanesQuantize) {
  const int n = 32;
  Tensor A = placeholder({make_int(n)}, DataType::Float16(), "A");
  Tensor B = placeholder({make_int(n)}, DataType::Float16(), "B");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return A({i[0]}) * B({i[0]}) + A({i[0]});
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  st->vectorize(st->leaf_iter_vars[0]);
  LoweredFunc f = Lower(s, {A, B, C}, "vec_f16");
  ExpectVectorizedIdentical(f, MakeArgs({A, B, C}, 51));
}

TEST(VectorizeDiff, Int8Lanes) {
  const int n = 48;
  Tensor A = placeholder({make_int(n)}, DataType::Int8(), "A");
  Tensor B = placeholder({make_int(n)}, DataType::Int8(), "B");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return cast(DataType::Int8(),
                                   max(A({i[0]}) * B({i[0]}) % make_int(64),
                                       A({i[0]}) + B({i[0]})));
                     },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  IterVar o, i;
  st->split(st->leaf_iter_vars[0], 16, &o, &i);
  st->vectorize(i);
  LoweredFunc f = Lower(s, {A, B, C}, "vec_i8");
  ExpectVectorizedIdentical(f, MakeArgs({A, B, C}, 61));
}

// --- vector allocate (widened scalar storage) ---------------------------------------

TEST(VectorizeDiff, VectorAllocateWidensStorage) {
  // A lanes>1 Allocate must compile (widened to lanes * extents scalar elements)
  // instead of rejecting the whole program.
  const int n = 16;
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var scratch = make_var("scratch", DataType::Handle());
  Var i = make_var("i");
  Var j = make_var("j");
  Stmt fill = for_stmt(i, make_int(0), make_int(n),
                       store(scratch, load(DataType::Float32(), a, i) * make_float(2.0), i),
                       ForType::kVectorized);
  Stmt drain = for_stmt(j, make_int(0), make_int(n),
                        store(c, load(DataType::Float32(), scratch, j) + make_float(1.0), j),
                        ForType::kVectorized);
  Stmt body = allocate(scratch, DataType::Float32(4), {make_int(n / 4)}, "global",
                       seq({fill, drain}));
  LoweredFunc f;
  f.name = "vec_alloc";
  f.args = {BufferArg{a, DataType::Float32(), {n}, "A"},
            BufferArg{c, DataType::Float32(), {n}, "C"}};
  f.body = body;
  std::vector<ArgBuf> args = {ArgBuf::Make(n, DataType::Float32(), 71),
                              ArgBuf::Make(n, DataType::Float32(), 72)};
  ExpectVectorizedIdentical(f, args);
}

// --- topi schedules under strict mode -----------------------------------------------

// Every vectorized topi schedule below must compile to VM vector opcodes with zero
// interpreter fallbacks; strict mode turns any silent downgrade into a hard error.
class StrictGuard {
 public:
  StrictGuard() : saved_(vm::StrictMode()) {
    vm::SetStrictMode(true);
    vm::ResetFallbackCount();
  }
  ~StrictGuard() { vm::SetStrictMode(saved_); }

 private:
  bool saved_;
};

TEST(VectorizeTopi, DenseVectorizedCompilesToVectorOps) {
  StrictGuard strict;
  Target cpu = Target::ArmA53();
  topi::OpWorkload wl;
  wl.kind = "dense";
  wl.n = 8;
  wl.k = 32;
  wl.oc = 24;
  for (int64_t vec : {0, 1}) {
    topi::BuiltOp built = topi::BuildOpCompute(wl);
    topi::Config cfg = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
    cfg["vectorize"] = vec;
    cfg["parallel"] = 0;
    Schedule s = topi::ApplyOpSchedule(wl, cpu, built, cfg);
    LoweredFunc f = Lower(s, built.Args(), "dense_vec_" + std::to_string(vec));
    std::shared_ptr<const vm::Program> prog = vm::CompileToProgram(f);
    ASSERT_NE(prog, nullptr);
    EXPECT_EQ(vm::ProgramHasVector(*prog), vec == 1) << ToString(f.body);
    ExpectVectorizedIdentical(f, MakeArgs(built.Args(), 80 + static_cast<uint64_t>(vec)),
                              /*expect_vector=*/vec == 1);
    // End-to-end dispatch must not fall back under strict mode.
    std::vector<ArgBuf> bufs = MakeArgs(built.Args(), 90);
    std::vector<BufferBinding> bind;
    for (ArgBuf& b : bufs) {
      bind.push_back(b.Bind());
    }
    RunLowered(f, bind);
  }
  EXPECT_EQ(vm::FallbackCount(), 0);
}

TEST(VectorizeTopi, Conv2dVectorizedMatches) {
  StrictGuard strict;
  Target cpu = Target::ArmA53();
  topi::OpWorkload wl;
  wl.kind = "conv2d";
  wl.n = 1;
  wl.ic = 4;
  wl.h = wl.w = 10;
  wl.oc = 8;
  wl.k = 3;
  wl.stride = 1;
  wl.pad = 1;
  for (int64_t vec : {0, 1}) {
    topi::BuiltOp built = topi::BuildOpCompute(wl);
    topi::Config cfg = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
    cfg["vectorize"] = vec;
    cfg["parallel"] = 0;
    Schedule s = topi::ApplyOpSchedule(wl, cpu, built, cfg);
    LoweredFunc f = Lower(s, built.Args(), "conv_vec_" + std::to_string(vec));
    ExpectVectorizedIdentical(f, MakeArgs(built.Args(), 100 + static_cast<uint64_t>(vec)),
                              /*expect_vector=*/vec == 1);
  }
  EXPECT_EQ(vm::FallbackCount(), 0);
}

TEST(VectorizeTopi, InjectiveScheduleVectorizes) {
  StrictGuard strict;
  Target cpu = Target::ArmA53();
  Tensor A = placeholder({make_int(4), make_int(64)}, DataType::Float32(), "A");
  Tensor C = topi::Relu(A);
  Schedule s = create_schedule({C});
  topi::ScheduleInjective(cpu, s, C);
  LoweredFunc f = Lower(s, {A, C}, "relu_injective");
  ExpectVectorizedIdentical(f, MakeArgs({A, C}, 110));
  EXPECT_EQ(vm::FallbackCount(), 0);
}

// --- fallback diagnostics -----------------------------------------------------------

TEST(VmFallback, CountedAndFatalUnderStrict) {
  // A vector-valued let is interpretable (lane-threaded environment) but outside the
  // VM's vector compiler: RunLowered must fall back, count it, and die under strict.
  const int n = 8;
  Var a = make_var("A", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var x = make_var("x", DataType::Float32());
  Expr vec_load = load(DataType::Float32(4), a, ramp(make_int(0), make_int(1), 4));
  Expr body = let(x, vec_load, Expr(x) + Expr(x));
  LoweredFunc f;
  f.name = "vector_let";
  f.args = {BufferArg{a, DataType::Float32(), {n}, "A"},
            BufferArg{c, DataType::Float32(), {n}, "C"}};
  f.body = store(c, body, ramp(make_int(0), make_int(1), 4));

  ASSERT_EQ(vm::CompileToProgram(f), nullptr);

  std::vector<ArgBuf> args = {ArgBuf::Make(n, DataType::Float32(), 120),
                              ArgBuf::Make(n, DataType::Float32(), 121)};
  std::vector<BufferBinding> bind;
  for (ArgBuf& b : args) {
    bind.push_back(b.Bind());
  }
  ExecEngine saved = GetExecEngine();
  SetExecEngine(ExecEngine::kVm);
  bool saved_strict = vm::StrictMode();

  vm::SetStrictMode(false);
  vm::ResetFallbackCount();
  RunLowered(f, bind);  // falls back silently, but counted
  EXPECT_EQ(vm::FallbackCount(), 1);

  vm::SetStrictMode(true);
  EXPECT_THROW(RunLowered(f, bind), InternalError);
  EXPECT_EQ(vm::FallbackCount(), 2);

  vm::SetStrictMode(saved_strict);
  SetExecEngine(saved);
}

}  // namespace
}  // namespace tvmcpp
