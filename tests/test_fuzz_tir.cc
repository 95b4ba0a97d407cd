// Property-based three-tier differential fuzzer (ISSUE 8): a seeded generator
// produces random TIR loop nests — mixed dtypes (f32/f16/i8/i32), serial /
// unrolled / vectorized / parallel loops, padding guards, floormod-clamped
// gather indices, wrap-casts bounding int products, expression lets, lazy
// conditionals, float division, sqrt and log, narrowing casts of constants,
// int -> float promotions above 2^24 (shapes whose bits depend on rounding
// every float operation to f32), and CSR-style indirect addressing (gathers and
// scatters through a runtime i32 index buffer, in serial and vectorized loop
// bodies) — and every
// program runs on the reference interpreter, the bytecode VM, and the AOT
// native kernel. All three buffers must be *bitwise* identical.
//
// Determinism: TVMCPP_FUZZ_SEED picks the corpus (default pinned, so ctest runs
// the same programs every time); TVMCPP_FUZZ_CASES its size (default 200; the
// nightly CI depth job raises it). Every native kernel in the corpus compiles as
// ONE translation unit / one compiler invocation, so the suite pays process
// spawn + compile once, not per case.
//
// On a mismatch the built-in reducer shrinks the failing case — loop extents to
// 2, guards dropped, loop types serialized, the stored expression replaced by
// its subexpressions — while it still fails, then prints the minimal TIR with
// the seed and case index so the failure reproduces from the log alone.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/codegen/codegen.h"
#include "src/codegen/native.h"
#include "src/interp/interp.h"
#include "src/ir/expr.h"
#include "src/ir/printer.h"
#include "src/ir/stmt.h"
#include "src/lower/lower.h"
#include "src/support/float16.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

// ---------------------------------------------------------------------------
// Deterministic RNG (SplitMix64): stable across platforms and libc versions.
// ---------------------------------------------------------------------------

struct SplitMix64 {
  uint64_t state;
  explicit SplitMix64(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int64_t Range(int64_t lo, int64_t hi) {  // inclusive bounds
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Real() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }
  bool Chance(double p) { return Real() < p; }
};

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
}

// ---------------------------------------------------------------------------
// Case representation: kept symbolic so the reducer can mutate and rebuild.
// ---------------------------------------------------------------------------

struct CaseSpec {
  DataType dtype;
  std::vector<int64_t> extents;
  std::vector<ForType> for_types;
  std::vector<Var> loop_vars;
  std::vector<Var> input_vars;  // handle vars, one per input buffer
  Var out_var;
  // Optional runtime i32 index buffer (the CSR-shaped indirection: data reached
  // through indices loaded at run time, like indptr/indices drive sparse_dense).
  // idx_elems == 0 means the case has no index buffer.
  Var idx_var;
  int64_t idx_elems = 0;
  bool indirect_store = false;  // scatter: out index read from the index buffer
  int64_t in_elems = 0;
  int64_t out_elems = 0;
  Expr value;  // stored expression over loop_vars / loads of input_vars
  Expr guard;  // optional store guard; null = unguarded
};

Expr FlatIndex(const CaseSpec& spec) {
  Expr flat = spec.loop_vars[0];
  for (size_t j = 1; j < spec.loop_vars.size(); ++j) {
    flat = flat * spec.extents[j] + Expr(spec.loop_vars[j]);
  }
  return flat;
}

LoweredFunc BuildCase(const CaseSpec& spec, const std::string& name) {
  Expr flat = FlatIndex(spec);
  Expr out_idx = flat;
  if (spec.indirect_store) {
    // Scatter through the runtime index buffer, floormod-clamped into bounds.
    // Colliding destinations are fine: all three tiers execute the (serial)
    // iteration space in the same order, so last-write-wins is deterministic.
    out_idx = load(DataType::Int32(), spec.idx_var, flat % spec.idx_elems) %
              spec.out_elems;
  }
  Stmt st = store(spec.out_var, spec.value, out_idx);
  if (spec.guard != nullptr) {
    st = if_then_else_stmt(spec.guard, st);
  }
  for (size_t j = spec.loop_vars.size(); j-- > 0;) {
    st = for_stmt(spec.loop_vars[j], make_int(0), make_int(spec.extents[j]), st,
                  spec.for_types[j]);
  }
  LoweredFunc f;
  f.name = name;
  for (size_t j = 0; j < spec.input_vars.size(); ++j) {
    f.args.push_back(BufferArg{spec.input_vars[j], spec.dtype, {spec.in_elems},
                               "In" + std::to_string(j)});
  }
  if (spec.idx_elems > 0) {
    f.args.push_back(
        BufferArg{spec.idx_var, DataType::Int32(), {spec.idx_elems}, "Idx"});
  }
  f.args.push_back(BufferArg{spec.out_var, spec.dtype, {spec.out_elems}, "Out"});
  f.body = st;
  return f;
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

class CaseGen {
 public:
  CaseGen(SplitMix64* rng, bool allow_let) : rng_(rng), allow_let_(allow_let) {}

  CaseSpec Gen() {
    CaseSpec s;
    const int dtype_pick = static_cast<int>(rng_->Range(0, 3));
    s.dtype = dtype_pick == 0   ? DataType::Float32()
              : dtype_pick == 1 ? DataType::Float16()
              : dtype_pick == 2 ? DataType::Int8()
                                : DataType::Int32();
    const int dims = static_cast<int>(rng_->Range(1, 3));
    s.out_elems = 1;
    for (int j = 0; j < dims; ++j) {
      s.extents.push_back(rng_->Range(2, 6));
      s.out_elems *= s.extents.back();
      s.loop_vars.push_back(make_var("i" + std::to_string(j)));
      ForType ft = ForType::kSerial;
      if (j == dims - 1 && rng_->Chance(0.3)) {
        ft = ForType::kVectorized;
      } else if (j == 0 && dims > 1 && rng_->Chance(0.25)) {
        ft = rng_->Chance(0.5) ? ForType::kParallel : ForType::kUnrolled;
      }
      s.for_types.push_back(ft);
    }
    // Vector lets are interpretable but outside the VM's vector compiler; the
    // fuzzer pins the three-tier intersection, so lets are scalar-loop only.
    vectorized_ = s.for_types.back() == ForType::kVectorized;
    const int num_inputs = static_cast<int>(rng_->Range(1, 2));
    s.in_elems = s.out_elems + rng_->Range(0, 3);
    for (int j = 0; j < num_inputs; ++j) {
      s.input_vars.push_back(
          make_var("In" + std::to_string(j), DataType::Handle()));
    }
    s.out_var = make_var("Out", DataType::Handle());
    // CSR-shaped indirection: ~40% of cases get a runtime i32 index buffer and
    // may gather through it (serial and vectorized forms alike); serial cases
    // may also scatter their store through it.
    if (rng_->Chance(0.4)) {
      s.idx_elems = rng_->Range(2, 8);
      s.idx_var = make_var("Idx", DataType::Handle());
      s.indirect_store = !vectorized_ && rng_->Chance(0.4);
    }
    spec_ = &s;
    s.value = cast(s.dtype, GenValue(3));
    if (rng_->Chance(0.3)) {
      // Store guard over a loop var: with a vectorized innermost loop this is
      // the predicated-tail shape, lanes masked off must stay unevaluated.
      const size_t j = static_cast<size_t>(
          rng_->Range(0, static_cast<int64_t>(s.loop_vars.size()) - 1));
      s.guard = lt(Expr(s.loop_vars[j]), make_int(s.extents[j] - 1));
    }
    spec_ = nullptr;
    return s;
  }

 private:
  Expr Const() {
    if (spec_->dtype.is_float()) {
      return make_const(spec_->dtype, rng_->Real() * 2.0 - 1.0);
    }
    return make_const(spec_->dtype, rng_->Range(-5, 5));
  }

  // Affine-in-loop-vars index, floormod-clamped into [0, elems).
  Expr AffineIndex(int64_t elems) {
    Expr idx = make_int(rng_->Range(0, elems - 1));
    for (const Var& v : spec_->loop_vars) {
      const int64_t c = rng_->Range(0, 3);
      if (c != 0) {
        idx = idx + Expr(v) * c;
      }
    }
    return idx % elems;
  }

  // floormod-clamped gather index: always lands in [0, in_elems). When the case
  // carries a runtime index buffer, half the loads go through it — the
  // CSR-shaped double hop load(data, load(idx_buf, affine) % bound) that
  // sparse_dense lowers to, in both serial and vectorized loop bodies.
  Expr LoadLeaf() {
    Expr idx;
    if (spec_->idx_elems > 0 && rng_->Chance(0.5)) {
      idx = load(DataType::Int32(), spec_->idx_var, AffineIndex(spec_->idx_elems)) %
            spec_->in_elems;
    } else {
      idx = AffineIndex(spec_->in_elems);
    }
    const size_t buf = static_cast<size_t>(
        rng_->Range(0, static_cast<int64_t>(spec_->input_vars.size()) - 1));
    return load(spec_->dtype, spec_->input_vars[buf], idx);
  }

  Expr Leaf() {
    switch (rng_->Range(0, 3)) {
      case 0:
        return Const();
      case 1: {
        const size_t j = static_cast<size_t>(
            rng_->Range(0, static_cast<int64_t>(spec_->loop_vars.size()) - 1));
        return cast(spec_->dtype, spec_->loop_vars[j]);
      }
      default:
        return LoadLeaf();
    }
  }

  // Bounds magnitudes so int64 intermediates never overflow (signed overflow is
  // UB in the emitted C): every int product is immediately wrapped back into the
  // storage dtype, mirroring the interpreter's cast rule bit for bit.
  Expr WrapMul(Expr a, Expr b) {
    Expr m = mul(std::move(a), std::move(b));
    if (!spec_->dtype.is_float()) {
      m = cast(spec_->dtype, m);
    }
    return m;
  }

  Expr GenValue(int depth) {
    if (depth <= 0) {
      return Leaf();
    }
    const bool is_float = spec_->dtype.is_float();
    switch (rng_->Range(0, 8)) {
      case 0:
        return add(GenValue(depth - 1), GenValue(depth - 1));
      case 1:
        return sub(GenValue(depth - 1), GenValue(depth - 1));
      case 2:
        return WrapMul(GenValue(depth - 1), GenValue(depth - 1));
      case 3:
        return rng_->Chance(0.5) ? min(GenValue(depth - 1), GenValue(depth - 1))
                                 : max(GenValue(depth - 1), GenValue(depth - 1));
      case 4: {
        Expr cond = lt(GenValue(depth - 1), Const());
        Expr t = GenValue(depth - 1);
        Expr f = GenValue(depth - 1);
        // Both forms are lazy on the untaken arm in all three tiers.
        return rng_->Chance(0.5) ? select(cond, t, f) : if_then_else(cond, t, f);
      }
      case 5: {
        if (is_float) {
          // exp-family only, argument clamped: keeps results finite so the
          // comparison pins real arithmetic, not Inf/NaN propagation trivia.
          Expr x = max(min(GenValue(depth - 1), make_const(spec_->dtype, 3.0)),
                       make_const(spec_->dtype, -3.0));
          switch (rng_->Range(0, 2)) {
            case 0:
              return exp(x);
            case 1:
              return tanh(x);
            default:
              return sigmoid(x);
          }
        }
        // Integer floor div / mod by a constant nonzero divisor.
        Expr a = GenValue(depth - 1);
        int64_t d = rng_->Range(1, 4) * (rng_->Chance(0.5) ? 1 : -1);
        return rng_->Chance(0.5) ? div(a, make_const(spec_->dtype, d))
                                 : mod(a, make_const(spec_->dtype, d));
      }
      case 6: {
        if (allow_let_ && !vectorized_) {
          Var x = make_var("t" + std::to_string(let_counter_++), spec_->dtype);
          Expr bound = GenValue(depth - 1);
          Expr body = rng_->Chance(0.5) ? add(Expr(x), GenValue(depth - 1))
                                        : WrapMul(Expr(x), Expr(x));
          return let(x, bound, body);
        }
        // Padding-guard shape: an out-of-range read lazily replaced by zero.
        const size_t j = static_cast<size_t>(
            rng_->Range(0, static_cast<int64_t>(spec_->loop_vars.size()) - 1));
        return if_then_else(
            lt(Expr(spec_->loop_vars[j]) + rng_->Range(0, 2),
               make_int(spec_->extents[j])),
            LoadLeaf(), make_const(spec_->dtype, 0));
      }
      case 7:
        return is_float ? RoundingProbe(depth) : NarrowConst();
      default:
        return Leaf();
    }
  }

  // Float shapes whose bits depend on rounding every operation to f32: division,
  // sqrt and log (denominators and arguments clamped so results stay finite),
  // narrowing casts of constants, and int -> float promotions above 2^24.
  Expr RoundingProbe(int depth) {
    const DataType t = spec_->dtype;
    switch (rng_->Range(0, 4)) {
      case 0: {
        Expr d = GenValue(depth - 1);
        d = rng_->Chance(0.5) ? max(d, make_const(t, 0.25)) : min(d, make_const(t, -0.25));
        return div(GenValue(depth - 1), d);
      }
      case 1:
        return sqrt(max(GenValue(depth - 1), make_const(t, 0.0)));
      case 2:
        return log(max(GenValue(depth - 1), make_const(t, 0.0625 + rng_->Real())));
      case 3:
        return rng_->Chance(0.5) ? cast(t, cast(DataType::Float16(), make_const(
                                                   DataType::Float32(), rng_->Real() * 4 - 2)))
                                 : cast(t, NarrowConst());
      default: {
        // (big + k) - big with big above 2^24: under f32 promotion the difference
        // is a multiple of the f32 spacing there, not k. The f32 difference stays
        // small, so an f16 case stays finite too.
        const int64_t big = rng_->Range(int64_t{1} << 24, int64_t{1} << 30);
        Expr k = rng_->Chance(0.5)
                     ? Expr(spec_->loop_vars[static_cast<size_t>(rng_->Range(
                           0, static_cast<int64_t>(spec_->loop_vars.size()) - 1))])
                     : make_int(rng_->Range(0, 7));
        Expr promoted = cast(DataType::Float32(), add(make_int(big), k));
        Expr big_f = make_const(DataType::Float32(), static_cast<double>(big));
        return cast(t, sub(promoted, big_f));
      }
    }
  }

  // A narrowing int cast of a constant: an int constant out of int8 range, or a
  // float constant within 2^-20 of an integer (f32 rounds it onto the integer
  // before the cast truncates). The cast wraps to the target width.
  Expr NarrowConst() {
    const DataType narrow = rng_->Chance(0.5) ? DataType::Int8() : DataType::UInt(8);
    if (rng_->Chance(0.5)) {
      return cast(narrow, make_const(DataType::Int32(), rng_->Range(-1000, 1000)));
    }
    const double near = static_cast<double>(rng_->Range(-300, 300)) +
                        (rng_->Chance(0.5) ? -1.0 : 1.0) * std::ldexp(1.0, -20);
    return cast(narrow, make_const(DataType::Float32(), near));
  }

  SplitMix64* rng_;
  bool allow_let_;
  bool vectorized_ = false;
  CaseSpec* spec_ = nullptr;
  int let_counter_ = 0;
};

// ---------------------------------------------------------------------------
// Three-tier execution and comparison
// ---------------------------------------------------------------------------

struct HostBuf {
  std::vector<char> bytes;
  DataType dtype;
  int64_t elems = 0;
  BufferBinding Bind() { return BufferBinding{bytes.data(), dtype, elems}; }
};

HostBuf FillBuf(int64_t elems, DataType dtype, SplitMix64* rng) {
  HostBuf b;
  b.dtype = dtype;
  b.elems = elems;
  b.bytes.assign(static_cast<size_t>(elems * InterpElementBytes(dtype)), 0);
  if (dtype.is_float()) {
    float* p = reinterpret_cast<float*>(b.bytes.data());
    for (int64_t i = 0; i < elems; ++i) {
      float v = static_cast<float>(rng->Real() * 2.0 - 1.0);
      p[i] = dtype.bits() == 16 ? QuantizeFloat16(v) : v;
    }
  } else if (InterpElementBytes(dtype) == 1) {
    int8_t* p = reinterpret_cast<int8_t*>(b.bytes.data());
    for (int64_t i = 0; i < elems; ++i) {
      p[i] = static_cast<int8_t>(rng->Range(-5, 5));
    }
  } else {
    int32_t* p = reinterpret_cast<int32_t*>(b.bytes.data());
    for (int64_t i = 0; i < elems; ++i) {
      p[i] = static_cast<int32_t>(rng->Range(-50, 50));
    }
  }
  return b;
}

std::vector<HostBuf> CaseBuffers(const CaseSpec& spec, uint64_t fill_seed) {
  SplitMix64 rng(fill_seed);
  std::vector<HostBuf> bufs;
  for (size_t j = 0; j < spec.input_vars.size(); ++j) {
    bufs.push_back(FillBuf(spec.in_elems, spec.dtype, &rng));
  }
  if (spec.idx_elems > 0) {
    // Random int32 incl. negatives: every consumer floormods the loaded value
    // into bounds, and that clamping is part of what the corpus pins.
    bufs.push_back(FillBuf(spec.idx_elems, DataType::Int32(), &rng));
  }
  bufs.push_back(FillBuf(spec.out_elems, spec.dtype, &rng));
  return bufs;
}

// Runs one case through interp / VM / native and compares bitwise.
// `why` gets a one-line diagnosis; returns false on any divergence or when a
// compiled tier rejects the program (the generator must stay inside the
// three-tier intersection — a compile regression is a finding, not a skip).
bool CaseAgrees(const CaseSpec& spec, const LoweredFunc& f,
                const codegen::NativeKernel& precompiled, uint64_t fill_seed,
                std::string* why) {
  std::shared_ptr<const vm::Program> prog =
      vm::CompileToProgram(f, LoopSpecializeOptions{});
  if (prog == nullptr) {
    *why = "VM rejected the program";
    return false;
  }
  codegen::NativeKernel native = precompiled;
  if (!native) {
    native = codegen::CompileNativeKernel(f);
  }
  if (!native) {
    *why = "native tier rejected the program";
    return false;
  }
  std::vector<HostBuf> interp_bufs = CaseBuffers(spec, fill_seed);
  std::vector<HostBuf> vm_bufs = interp_bufs;
  std::vector<HostBuf> native_bufs = interp_bufs;
  std::vector<BufferBinding> ib, vb, nb;
  for (size_t j = 0; j < interp_bufs.size(); ++j) {
    ib.push_back(interp_bufs[j].Bind());
    vb.push_back(vm_bufs[j].Bind());
    nb.push_back(native_bufs[j].Bind());
  }
  RunLoweredInterp(f, ib);
  vm::ExecOptions serial;
  serial.num_threads = 1;
  vm::Run(*prog, vb, serial);
  codegen::RunNativeKernel(native, nb);
  for (size_t j = 0; j < interp_bufs.size(); ++j) {
    if (std::memcmp(interp_bufs[j].bytes.data(), vm_bufs[j].bytes.data(),
                    interp_bufs[j].bytes.size()) != 0) {
      *why = "interp vs VM mismatch on buffer " + std::to_string(j);
      return false;
    }
    if (std::memcmp(interp_bufs[j].bytes.data(), native_bufs[j].bytes.data(),
                    interp_bufs[j].bytes.size()) != 0) {
      *why = "interp vs native mismatch on buffer " + std::to_string(j);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reducer: shrink a failing case while it still fails, then report minimal TIR.
// ---------------------------------------------------------------------------

// Immediate structural children of an expression that could stand in for it.
std::vector<Expr> SubExprs(const Expr& e) {
  std::vector<Expr> out;
  if (auto* b = dynamic_cast<const BinaryNode*>(e.get())) {
    out.push_back(b->a);
    out.push_back(b->b);
  } else if (auto* s = dynamic_cast<const SelectNode*>(e.get())) {
    out.push_back(s->true_value);
    out.push_back(s->false_value);
  } else if (auto* c = dynamic_cast<const CallNode*>(e.get())) {
    for (const Expr& a : c->args) {
      out.push_back(a);
    }
  } else if (auto* l = dynamic_cast<const LetNode*>(e.get())) {
    out.push_back(l->value);
  } else if (auto* c = dynamic_cast<const CastNode*>(e.get())) {
    out.push_back(c->value);
  } else if (auto* ld = dynamic_cast<const LoadNode*>(e.get())) {
    // Indirect -> direct shrink for gathers: replacing a load by its index
    // expression peels one level of indirection per reduction round.
    out.push_back(ld->index);
  }
  return out;
}

bool SpecFails(const CaseSpec& spec, uint64_t fill_seed, std::string* why) {
  LoweredFunc f = BuildCase(spec, "fuzz_reduce");
  return !CaseAgrees(spec, f, codegen::NativeKernel{}, fill_seed, why);
}

CaseSpec Reduce(CaseSpec spec, uint64_t fill_seed) {
  std::string why;
  bool changed = true;
  int budget = 200;  // hard cap: reduction must terminate even on flaky failures
  while (changed && budget-- > 0) {
    changed = false;
    for (size_t j = 0; j < spec.extents.size(); ++j) {
      if (spec.extents[j] > 2) {
        CaseSpec t = spec;
        t.extents[j] = 2;
        if (SpecFails(t, fill_seed, &why)) {
          spec = t;
          changed = true;
        }
      }
    }
    if (spec.guard != nullptr) {
      CaseSpec t = spec;
      t.guard = nullptr;
      if (SpecFails(t, fill_seed, &why)) {
        spec = t;
        changed = true;
      }
    }
    if (spec.indirect_store) {
      // Indirect -> direct: drop the scatter, keep everything else.
      CaseSpec t = spec;
      t.indirect_store = false;
      if (SpecFails(t, fill_seed, &why)) {
        spec = t;
        changed = true;
      }
    }
    for (size_t j = 0; j < spec.for_types.size(); ++j) {
      if (spec.for_types[j] != ForType::kSerial) {
        CaseSpec t = spec;
        t.for_types[j] = ForType::kSerial;
        if (SpecFails(t, fill_seed, &why)) {
          spec = t;
          changed = true;
        }
      }
    }
    for (const Expr& sub : SubExprs(spec.value)) {
      CaseSpec t = spec;
      t.value = sub->dtype == spec.dtype ? sub : cast(spec.dtype, sub);
      if (SpecFails(t, fill_seed, &why)) {
        spec = t;
        changed = true;
        break;  // restart from the new, smaller value
      }
    }
  }
  return spec;
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

TEST(FuzzTir, ThreeTierBitwiseDifferential) {
  const uint64_t seed = EnvU64("TVMCPP_FUZZ_SEED", 20260807ULL);
  const int cases = static_cast<int>(EnvU64("TVMCPP_FUZZ_CASES", 200));

  // Generate the whole corpus first so every native kernel compiles as one
  // translation unit (one compiler invocation for all `cases` programs).
  std::vector<CaseSpec> specs;
  std::vector<LoweredFunc> funcs;
  specs.reserve(static_cast<size_t>(cases));
  funcs.reserve(static_cast<size_t>(cases));
  for (int i = 0; i < cases; ++i) {
    SplitMix64 rng(seed + static_cast<uint64_t>(i));
    CaseGen gen(&rng, /*allow_let=*/true);
    specs.push_back(gen.Gen());
    funcs.push_back(BuildCase(specs.back(), "fuzz_" + std::to_string(i)));
  }
  std::vector<const LoweredFunc*> func_ptrs;
  for (const LoweredFunc& f : funcs) {
    func_ptrs.push_back(&f);
  }
  codegen::ResetNativeStats();
  std::vector<codegen::NativeKernel> kernels =
      codegen::CompileNativeKernels(func_ptrs);
  ASSERT_EQ(kernels.size(), funcs.size());
  codegen::NativeStats stats = codegen::GetNativeStats();
  EXPECT_EQ(stats.emit_failures, 0)
      << "the generator strayed outside the emitter's supported construct set";
  EXPECT_LE(stats.compiles, 1) << "the corpus must batch into one module";

  int failures = 0;
  for (int i = 0; i < cases; ++i) {
    const uint64_t fill_seed = seed ^ (0x51ED270B0A1ULL * (static_cast<uint64_t>(i) + 1));
    std::string why;
    if (CaseAgrees(specs[static_cast<size_t>(i)], funcs[static_cast<size_t>(i)],
                   kernels[static_cast<size_t>(i)], fill_seed, &why)) {
      continue;
    }
    ++failures;
    CaseSpec reduced = Reduce(specs[static_cast<size_t>(i)], fill_seed);
    std::string reduced_why;
    SpecFails(reduced, fill_seed, &reduced_why);
    LoweredFunc rf = BuildCase(reduced, "fuzz_reduced_" + std::to_string(i));
    ADD_FAILURE() << "fuzz case " << i << " (TVMCPP_FUZZ_SEED=" << seed
                  << "): " << why << "\nreduced (" << reduced_why
                  << "), dtype=" << reduced.dtype.bits()
                  << (reduced.dtype.is_float() ? "-bit float" : "-bit int")
                  << ", minimal TIR:\n"
                  << ToString(rf.body);
    if (failures >= 5) {
      GTEST_FAIL() << "stopping after 5 reduced failures; rerun with "
                      "TVMCPP_FUZZ_SEED="
                   << seed << " to reproduce the rest";
    }
  }
  EXPECT_EQ(failures, 0) << failures << " of " << cases
                         << " fuzz cases diverged (seed " << seed << ")";
}

// The generator itself must be deterministic: the same seed yields the same
// program text (the differential above is meaningless if CI and a local repro
// see different corpora for one seed).
TEST(FuzzTir, GeneratorIsDeterministic) {
  for (uint64_t seed : {1ULL, 42ULL, 20260807ULL}) {
    SplitMix64 r1(seed), r2(seed);
    CaseGen g1(&r1, true), g2(&r2, true);
    LoweredFunc f1 = BuildCase(g1.Gen(), "det");
    LoweredFunc f2 = BuildCase(g2.Gen(), "det");
    EXPECT_EQ(ToString(f1.body), ToString(f2.body)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tvmcpp
