#include "src/vm/vm.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/ir/functor.h"
#include "src/ir/intrin_table.h"
#include "src/ir/printer.h"
#include "src/ir/simplify.h"
#include "src/runtime/threadpool.h"
#include "src/support/failpoint.h"
#include "src/support/float16.h"

namespace tvmcpp {
namespace vm {

namespace {

// ---------------------------------------------------------------------------
// Program representation
// ---------------------------------------------------------------------------

// A register holds a scalar as both representations; the statically known type of the
// producing instruction decides which field is meaningful (mirrors interp's Value).
// A float register always holds an f32 value: every opcode that produces a float
// (kIntToFloat, k{Add,Sub,Mul,Div}F, kCallUnary, their kV forms, and the tensor MAC)
// rounds through RoundF32, and so does every pool constant.
struct VMValue {
  double f = 0;
  int64_t i = 0;
};

// Storage kind of a buffer element, derived from its DataType exactly like the
// interpreter's widened layout (InterpElementBytes): floats are stored as float32
// (float16 only rounds on store), ints as int8/int32/int64.
enum ElemKind : uint8_t { kF32, kF16, kI8, kI32, kI64 };

enum class Op : uint8_t {
  kMov,         // r[dst] = r[a]
  kIntToFloat,  // r[dst].f = RoundF32((double)r[a].i)
  kFloatToInt,  // r[dst].i = (int64_t)r[a].f
  kWrapInt,     // r[dst].i = r[a].i wrapped to `bits` bits, sign-extended iff flag
  kQuantF16,    // r[dst].f = QuantizeFloat16((float)r[a].f)
  kAddI, kAddF, kSubI, kSubF, kMulI, kMulF,
  kDivF, kFloorDivI, kFloorModI,
  kMinI, kMinF, kMaxI, kMaxF,
  kEqI, kEqF, kNeI, kNeF, kLtI, kLtF, kLeI, kLeF, kGtI, kGtF, kGeI, kGeF,
  kAnd, kOr, kNot,  // boolean ops over int truthiness
  kBoolF,           // r[dst].i = r[a].f != 0
  kJmp,             // pc = target
  kJmpIfZero,       // pc = r[a].i == 0 ? target : pc + 1
  kJmpGeI,          // pc = r[a].i >= r[b].i ? target : pc + 1 (loop back-edge test)
  kIncI,            // ++r[dst].i
  kLoadF32, kLoadI8, kLoadI32, kLoadI64,             // r[dst] = buf[idx][r[a].i]
  kStoreF32, kStoreF16, kStoreI8, kStoreI32, kStoreI64,  // buf[idx][r[b].i] = r[a]
  kAlloc,        // (re)allocate slot idx with r[a].i elements of kind flag, zero-filled
  kCallUnary,    // r[dst].f = mathfn[flag](r[a].f)
  kPopcount,     // r[dst].i = popcount((uint64_t)r[a].i)
  kTensorIntrin, // run tensor-intrinsic descriptor idx
  kParFor,       // chunk parallel loop descriptor idx across the thread pool
  kAssert,       // CHECK(r[a].i != 0), message idx
  // --- SIMD vector opcodes over the vector register file -------------------------
  // Vector operands (dst/a/b unless noted) index the separate vector file; `lanes`
  // gives the lane-group width. Lane loops are plain element-wise strides so the
  // compiler auto-vectorizes them to host SIMD.
  kVRamp,        // v[dst+l].i = r[a].i + l * r[b].i       (a, b scalar regs)
  kVBroadcast,   // v[dst+l] = r[a]                        (a scalar reg; copies cell)
  kVMov,         // v[dst+l] = v[a+l]
  kVIntToFloat, kVFloatToInt, kVBoolF, kVNot, kVQuantF16,  // lane-wise conversions
  kVWrapInt,     // lane-wise kWrapInt (bits, signedness flag)
  kVAddI, kVAddF, kVSubI, kVSubF, kVMulI, kVMulF,
  kVDivF, kVFloorDivI, kVFloorModI,
  kVMinI, kVMinF, kVMaxI, kVMaxF,
  kVEqI, kVEqF, kVNeI, kVNeF, kVLtI, kVLtF, kVLeI, kVLeF, kVGtI, kVGtF, kVGeI, kVGeF,
  kVAnd, kVOr,
  kVSelect,      // v[dst+l] = v[idx+l].i != 0 ? v[a+l] : v[b+l]
  kVCallUnary,   // v[dst+l].f = mathfn[flag](v[a+l].f)
  kVPopcount,    // v[dst+l].i = popcount(v[a+l].i)
  kVLoadF32, kVLoadI8, kVLoadI32, kVLoadI64,
                 // gather: v[dst+l] = buf[idx][v[a+l].i]; flag bit0: predicate in
                 // v[b+..] masks lanes (masked lanes read typed zero, no bounds check)
  kVStoreF32, kVStoreF16, kVStoreI8, kVStoreI32, kVStoreI64,
                 // scatter: buf[idx][v[b+l].i] = v[a+l]; flag bit0: predicate in
                 // v[dst+..] masks lanes (masked lanes are skipped entirely)
};

// Unary math intrinsics use the shared name -> UnaryMathFn table
// (src/ir/intrin_table.h); kCallUnary/kVCallUnary carry the tag in `flag` and
// evaluate through the same EvalUnaryMathFn as the interpreter.

struct Instr {
  Op op;
  uint8_t flag = 0;   // ElemKind for kAlloc, UnaryFn for kCallUnary, signedness for
                      // kWrapInt, predicate-present bit for kVLoad*/kVStore*
  int16_t bits = 0;   // kWrapInt/kVWrapInt: target bit width
  int32_t dst = 0;
  int32_t a = 0;
  int32_t b = 0;
  int32_t idx = 0;    // buffer slot, jump target, descriptor index, or kVSelect cond
  int32_t lanes = 0;  // lane-group width of vector opcodes (0 for scalar opcodes)
};

// Tensorized hardware intrinsic (fill/copy/mac category, see interp's ExecTensorIntrin).
struct TensorIntrinDesc {
  uint8_t category;  // 0 fill, 1 copy, 2 mac
  int32_t nt;        // number of tensorized dims
  std::vector<int32_t> buf_slot;    // per buffer (output first)
  std::vector<int32_t> base_reg;    // per buffer
  std::vector<int32_t> stride_reg;  // num_buffers * nt, row-major per buffer
  std::vector<int32_t> extent_reg;  // nt
};

struct ParForDesc {
  int32_t loop_reg = 0;
  int32_t min_reg = 0;
  int32_t bound_reg = 0;
  int32_t body_begin = 0;
  int32_t body_end = 0;
};

}  // namespace

struct Program {
  std::string name;
  std::vector<Instr> code;
  std::vector<VMValue> reg_init;  // initial register image (constants pre-folded)
  int32_t num_vregs = 0;          // size of the vector register file (lane cells)
  bool has_vector = false;        // program contains SIMD vector opcodes
  int32_t num_args = 0;
  int32_t num_buffer_slots = 0;
  std::vector<uint8_t> arg_kind;  // ElemKind per argument slot
  std::vector<TensorIntrinDesc> intrins;
  std::vector<ParForDesc> parfors;
  std::vector<std::string> messages;
  bool has_parallel = false;
  // Loop-specialization effect counters (see vm::ProgramStats).
  int spec_unrolled_loops = 0;
  int spec_hoisted_lets = 0;
  int spec_csed_muls = 0;
  int spec_strength_reduced = 0;
  int spec_peephole_removed = 0;
};

namespace {

ElemKind ElemKindOf(DataType t) {
  if (t.is_float()) {
    return t.bits() == 16 ? kF16 : kF32;
  }
  if (t.bits() <= 8) {
    return kI8;
  }
  if (t.bits() <= 32) {
    return kI32;
  }
  return kI64;
}

// ---------------------------------------------------------------------------
// Compiler: LoweredFunc body -> Program
// ---------------------------------------------------------------------------

class Compiler {
 public:
  Compiler(const LoopSpecializeOptions& spec, const LoopSpecializeStats& ir_stats)
      : spec_(spec) {
    prog_.spec_unrolled_loops = ir_stats.unrolled_loops;
    prog_.spec_hoisted_lets = ir_stats.hoisted_lets;
    prog_.spec_csed_muls = ir_stats.csed_muls;
  }

  std::shared_ptr<const Program> Compile(const LoweredFunc& func, const Stmt& body) {
    prog_.name = func.name;
    prog_.num_args = static_cast<int32_t>(func.args.size());
    for (const BufferArg& arg : func.args) {
      int32_t slot = NewBufferSlot(arg.dtype);
      buf_of_[arg.var.get()] = slot;
      arg_bufs_.insert(arg.var.get());
      prog_.arg_kind.push_back(static_cast<uint8_t>(ElemKindOf(arg.dtype)));
    }
    CompileStmt(body);
    if (!ok_) {
      LOG(INFO) << "vm: " << func.name << " falls back to the interpreter: "
                << fail_reason_;
      return nullptr;
    }
    Finalize();
    return std::make_shared<const Program>(std::move(prog_));
  }

 private:
  struct BinOps {  // int/float opcode pair for a binary expression kind
    Op int_op;
    Op float_op;
  };

  // --- register allocation ---------------------------------------------------
  // Scoped registers (loop vars, lets, expression temps) come from a watermark
  // allocator: each CompileExpr nets at most one register at its entry watermark, and
  // enclosing scopes restore the watermark when bindings die. Constants get negative
  // placeholder ids, rewritten to dense slots above the scoped-register high-water mark
  // in Finalize() and materialized in the initial register image.
  int32_t AllocReg() {
    int32_t r = top_++;
    if (top_ > max_top_) {
      max_top_ = top_;
    }
    return r;
  }

  int32_t ConstI(int64_t v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return ConstReg(false, bits);
  }

  int32_t ConstF(double v) {
    v = RoundF32(v);  // float immediates and folded constants are f32 values
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return ConstReg(true, bits);
  }

  int32_t ConstReg(bool is_float, uint64_t bits) {
    auto& ids = is_float ? float_const_ids_ : int_const_ids_;
    auto it = ids.find(bits);
    if (it != ids.end()) {
      return it->second;
    }
    VMValue v;
    if (is_float) {
      std::memcpy(&v.f, &bits, sizeof(v.f));
    } else {
      std::memcpy(&v.i, &bits, sizeof(v.i));
    }
    const_vals_.push_back(v);
    int32_t id = -static_cast<int32_t>(const_vals_.size());  // -1, -2, ...
    ids[bits] = id;
    return id;
  }

  int32_t NewBufferSlot(DataType dtype) {
    buf_kind_.push_back(ElemKindOf(dtype));
    return prog_.num_buffer_slots++;
  }

  // --- emission --------------------------------------------------------------
  int32_t Emit(Instr in) {
    prog_.code.push_back(in);
    return static_cast<int32_t>(prog_.code.size()) - 1;
  }

  int32_t Here() const { return static_cast<int32_t>(prog_.code.size()); }

  void PatchTarget(int32_t at, int32_t target) {
    prog_.code[static_cast<size_t>(at)].idx = target;
  }

  void Fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      fail_reason_ = why;
    }
  }

  // Emits a conversion making `r` hold a float (interp's Value::AsF promotion).
  int32_t EnsureFloat(int32_t r, bool is_float) {
    if (is_float) {
      return r;
    }
    int32_t dst = AllocReg();
    Emit({Op::kIntToFloat, 0, 0, dst, r, 0, 0});
    return dst;
  }

  // Emits a conversion making `r` hold an int (interp's Value::AsI truncation).
  int32_t EnsureInt(int32_t r, bool is_float) {
    if (!is_float) {
      return r;
    }
    int32_t dst = AllocReg();
    Emit({Op::kFloatToInt, 0, 0, dst, r, 0, 0});
    return dst;
  }

  // Emits a conversion making `r` int-truthy (interp's Value::AsBool).
  int32_t EnsureBool(int32_t r, bool is_float) {
    if (!is_float) {
      return r;
    }
    int32_t dst = AllocReg();
    Emit({Op::kBoolF, 0, 0, dst, r, 0, 0});
    return dst;
  }

  // --- vector registers -------------------------------------------------------
  // The vector file is a separate watermark-allocated array of lane cells; a vector
  // register of width L occupies L consecutive cells. Vector registers never hold
  // constants, so Finalize()'s negative-id rewriting does not apply to them.
  int32_t AllocVReg(int lanes) {
    int32_t r = vtop_;
    vtop_ += lanes;
    if (vtop_ > vmax_top_) {
      vmax_top_ = vtop_;
    }
    return r;
  }

  int32_t EmitV(Instr in) {
    prog_.has_vector = true;
    return Emit(in);
  }

  int32_t EnsureVFloat(int32_t v, bool is_float, int lanes) {
    if (is_float) {
      return v;
    }
    int32_t dst = AllocVReg(lanes);
    EmitV({Op::kVIntToFloat, 0, 0, dst, v, 0, 0, lanes});
    return dst;
  }

  int32_t EnsureVInt(int32_t v, bool is_float, int lanes) {
    if (!is_float) {
      return v;
    }
    int32_t dst = AllocVReg(lanes);
    EmitV({Op::kVFloatToInt, 0, 0, dst, v, 0, 0, lanes});
    return dst;
  }

  int32_t EnsureVBool(int32_t v, bool is_float, int lanes) {
    if (!is_float) {
      return v;
    }
    int32_t dst = AllocVReg(lanes);
    EmitV({Op::kVBoolF, 0, 0, dst, v, 0, 0, lanes});
    return dst;
  }

  // --- variable / buffer scoping ---------------------------------------------
  struct VarBinding {
    int32_t reg;
    bool is_float;
  };

  class BindVar {
   public:
    BindVar(Compiler* c, const VarNode* v, VarBinding b) : c_(c), v_(v) {
      auto it = c_->var_of_.find(v);
      had_old_ = it != c_->var_of_.end();
      if (had_old_) {
        old_ = it->second;
      }
      c_->var_of_[v] = b;
    }
    ~BindVar() {
      if (had_old_) {
        c_->var_of_[v_] = old_;
      } else {
        c_->var_of_.erase(v_);
      }
    }

   private:
    Compiler* c_;
    const VarNode* v_;
    VarBinding old_{};
    bool had_old_ = false;
  };

  class BindBuf {
   public:
    BindBuf(Compiler* c, const VarNode* v, int32_t slot) : c_(c), v_(v) {
      auto it = c_->buf_of_.find(v);
      had_old_ = it != c_->buf_of_.end();
      if (had_old_) {
        old_ = it->second;
      }
      c_->buf_of_[v] = slot;
    }
    ~BindBuf() {
      if (had_old_) {
        c_->buf_of_[v_] = old_;
      } else {
        c_->buf_of_.erase(v_);
      }
    }

   private:
    Compiler* c_;
    const VarNode* v_;
    int32_t old_ = 0;
    bool had_old_ = false;
  };

  int32_t BufferSlotOf(const VarNode* v) {
    auto it = buf_of_.find(v);
    if (it == buf_of_.end()) {
      Fail("unbound buffer " + v->name);
      return 0;
    }
    return it->second;
  }

  // --- expressions -----------------------------------------------------------
  // Compiles `e`; returns the register holding the result and sets *is_float to the
  // statically known value representation (mirrors the runtime is_float flag of the
  // interpreter's Value, which is fully determined by the expression tree).
  int32_t CompileExpr(const Expr& e, bool* is_float) {
    if (!ok_) {
      *is_float = false;
      return 0;
    }
    switch (e->kind) {
      case ExprKind::kIntImm:
        *is_float = false;
        return ConstI(static_cast<const IntImmNode*>(e.get())->value);
      case ExprKind::kFloatImm:
        *is_float = true;
        return ConstF(static_cast<const FloatImmNode*>(e.get())->value);
      case ExprKind::kStringImm:
        *is_float = false;
        return ConstI(0);
      case ExprKind::kVar: {
        const auto* v = static_cast<const VarNode*>(e.get());
        auto it = var_of_.find(v);
        if (it == var_of_.end()) {
          Fail("unbound variable " + v->name);
          *is_float = false;
          return 0;
        }
        *is_float = it->second.is_float;
        return it->second.reg;
      }
      case ExprKind::kCast:
        return CompileCast(static_cast<const CastNode*>(e.get()), is_float);
      case ExprKind::kNot: {
        const auto* n = static_cast<const NotNode*>(e.get());
        int32_t mark = top_;
        bool fa = false;
        int32_t ra = CompileExpr(n->a, &fa);
        ra = EnsureBool(ra, fa);
        top_ = mark;
        int32_t dst = AllocReg();
        Emit({Op::kNot, 0, 0, dst, ra, 0, 0});
        *is_float = false;
        return dst;
      }
      case ExprKind::kSelect: {
        const auto* n = static_cast<const SelectNode*>(e.get());
        return CompileConditional(n->condition, n->true_value, n->false_value, is_float);
      }
      case ExprKind::kLoad:
        return CompileLoad(static_cast<const LoadNode*>(e.get()), is_float);
      case ExprKind::kLet: {
        const auto* n = static_cast<const LetNode*>(e.get());
        bool fv = false;
        int32_t rv = CompileExpr(n->value, &fv);
        BindVar bind(this, n->var.get(), VarBinding{rv, fv});
        return CompileExpr(n->body, is_float);
      }
      case ExprKind::kCall:
        return CompileCall(static_cast<const CallNode*>(e.get()), is_float);
      case ExprKind::kRamp:
      case ExprKind::kBroadcast:
      case ExprKind::kReduce:
      case ExprKind::kTensorRead:
        Fail("vm cannot evaluate " + ToString(e));
        *is_float = false;
        return 0;
      default: {
        const auto* b = dynamic_cast<const BinaryNode*>(e.get());
        if (b == nullptr) {
          Fail("vm cannot evaluate " + ToString(e));
          *is_float = false;
          return 0;
        }
        return CompileBinary(e->kind, b, is_float);
      }
    }
  }

  int32_t CompileBinary(ExprKind kind, const BinaryNode* n, bool* is_float) {
    int32_t mark = top_;
    bool fa = false, fb = false;
    int32_t ra = CompileExpr(n->a, &fa);
    int32_t rb = CompileExpr(n->b, &fb);
    bool fl = fa || fb;
    Op op;
    bool out_float = false;
    switch (kind) {
      case ExprKind::kAdd: op = fl ? Op::kAddF : Op::kAddI; out_float = fl; break;
      case ExprKind::kSub: op = fl ? Op::kSubF : Op::kSubI; out_float = fl; break;
      case ExprKind::kMul: op = fl ? Op::kMulF : Op::kMulI; out_float = fl; break;
      case ExprKind::kDiv: op = fl ? Op::kDivF : Op::kFloorDivI; out_float = fl; break;
      case ExprKind::kMod: op = Op::kFloorModI; break;  // interp: FloorMod(AsI, AsI)
      case ExprKind::kMin: op = fl ? Op::kMinF : Op::kMinI; out_float = fl; break;
      case ExprKind::kMax: op = fl ? Op::kMaxF : Op::kMaxI; out_float = fl; break;
      case ExprKind::kEQ: op = fl ? Op::kEqF : Op::kEqI; break;
      case ExprKind::kNE: op = fl ? Op::kNeF : Op::kNeI; break;
      case ExprKind::kLT: op = fl ? Op::kLtF : Op::kLtI; break;
      case ExprKind::kLE: op = fl ? Op::kLeF : Op::kLeI; break;
      case ExprKind::kGT: op = fl ? Op::kGtF : Op::kGtI; break;
      case ExprKind::kGE: op = fl ? Op::kGeF : Op::kGeI; break;
      case ExprKind::kAnd: op = Op::kAnd; break;
      case ExprKind::kOr: op = Op::kOr; break;
      default:
        Fail("bad binary kind");
        *is_float = false;
        return 0;
    }
    if (kind == ExprKind::kMod) {
      ra = EnsureInt(ra, fa);
      rb = EnsureInt(rb, fb);
    } else if (kind == ExprKind::kAnd || kind == ExprKind::kOr) {
      ra = EnsureBool(ra, fa);
      rb = EnsureBool(rb, fb);
    } else if (fl) {
      // Interp promotes mixed int/float operands via AsF. Note kAdd/kSub/kMul/kMin/kMax
      // with two ints use the raw .i fields, so no conversion is needed there.
      ra = EnsureFloat(ra, fa);
      rb = EnsureFloat(rb, fb);
    }
    top_ = mark;
    int32_t dst = AllocReg();
    Emit({op, 0, 0, dst, ra, rb, 0});
    *is_float = out_float;
    return dst;
  }

  int32_t CompileCast(const CastNode* n, bool* is_float) {
    int32_t mark = top_;
    bool fv = false;
    int32_t rv = CompileExpr(n->value, &fv);
    if (n->dtype.is_float()) {
      rv = EnsureFloat(rv, fv);
      top_ = mark;
      int32_t dst = AllocReg();
      if (n->dtype.bits() == 16) {
        Emit({Op::kQuantF16, 0, 0, dst, rv, 0, 0});
      } else {
        Emit({Op::kMov, 0, 0, dst, rv, 0, 0});
      }
      *is_float = true;
      return dst;
    }
    rv = EnsureInt(rv, fv);
    top_ = mark;
    int32_t dst = AllocReg();
    if (n->dtype.bits() < 64 && !n->dtype.is_handle()) {
      Emit({Op::kWrapInt, static_cast<uint8_t>(n->dtype.is_int() ? 1 : 0),
            static_cast<int16_t>(n->dtype.bits()), dst, rv, 0, 0});
    } else {
      Emit({Op::kMov, 0, 0, dst, rv, 0, 0});
    }
    *is_float = false;
    return dst;
  }

  // Lazy two-armed conditional (Select and the if_then_else intrinsic share interp's
  // evaluate-one-branch semantics). Mixed-representation branches are unified to float.
  int32_t CompileConditional(const Expr& cond, const Expr& tval, const Expr& fval,
                             bool* is_float) {
    int32_t dst = AllocReg();
    int32_t entry = top_;
    bool fc = false;
    int32_t rc = CompileExpr(cond, &fc);
    rc = EnsureBool(rc, fc);
    int32_t jz = Emit({Op::kJmpIfZero, 0, 0, 0, rc, 0, 0});
    top_ = entry;
    bool ft = false, ff = false;
    // Pre-scan both branch types so each branch can be promoted consistently.
    bool out_float = StaticTypeOf(tval) || StaticTypeOf(fval);
    int32_t rt = CompileExpr(tval, &ft);
    if (out_float) {
      rt = EnsureFloat(rt, ft);
    }
    Emit({Op::kMov, 0, 0, dst, rt, 0, 0});
    int32_t jend = Emit({Op::kJmp, 0, 0, 0, 0, 0, 0});
    PatchTarget(jz, Here());
    top_ = entry;
    int32_t rf = CompileExpr(fval, &ff);
    if (out_float) {
      rf = EnsureFloat(rf, ff);
    }
    Emit({Op::kMov, 0, 0, dst, rf, 0, 0});
    PatchTarget(jend, Here());
    top_ = entry;
    *is_float = out_float;
    return dst;
  }

  // Statically computes interp's runtime is_float flag for `e` without emitting code.
  bool StaticTypeOf(const Expr& e) {
    switch (e->kind) {
      case ExprKind::kIntImm:
      case ExprKind::kStringImm:
        return false;
      case ExprKind::kFloatImm:
        return true;
      case ExprKind::kVar: {
        auto it = var_of_.find(static_cast<const VarNode*>(e.get()));
        return it != var_of_.end() && it->second.is_float;
      }
      case ExprKind::kCast:
        return e->dtype.is_float();
      case ExprKind::kNot:
        return false;
      case ExprKind::kRamp:
        return false;
      case ExprKind::kBroadcast:
        return StaticTypeOf(static_cast<const BroadcastNode*>(e.get())->value);
      case ExprKind::kSelect: {
        const auto* n = static_cast<const SelectNode*>(e.get());
        return StaticTypeOf(n->true_value) || StaticTypeOf(n->false_value);
      }
      case ExprKind::kLoad:
        return e->dtype.is_float();
      case ExprKind::kLet: {
        // Register the let binding so the body scan sees it, mirroring CompileExpr.
        const auto* n = static_cast<const LetNode*>(e.get());
        BindVar bind(this, n->var.get(), VarBinding{0, StaticTypeOf(n->value)});
        return StaticTypeOf(n->body);
      }
      case ExprKind::kCall: {
        const auto* n = static_cast<const CallNode*>(e.get());
        if (n->name == "if_then_else") {
          return StaticTypeOf(n->args[1]) || StaticTypeOf(n->args[2]);
        }
        return IsUnaryMathIntrin(n->name);
      }
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kMul:
      case ExprKind::kDiv:
      case ExprKind::kMin:
      case ExprKind::kMax: {
        const auto* b = static_cast<const BinaryNode*>(e.get());
        return StaticTypeOf(b->a) || StaticTypeOf(b->b);
      }
      default:
        return false;  // comparisons, mod, and/or produce ints
    }
  }

  int32_t CompileLoad(const LoadNode* n, bool* is_float) {
    int32_t slot = BufferSlotOf(n->buffer_var.get());
    if (!ok_) {
      *is_float = false;
      return 0;
    }
    ElemKind kind = buf_kind_[static_cast<size_t>(slot)];
    bool buf_float = kind == kF32 || kind == kF16;
    if (n->dtype.is_float() != buf_float || n->dtype.lanes() != 1) {
      Fail("vm load type mismatch on " + n->buffer_var->name);
      *is_float = false;
      return 0;
    }
    int32_t dst = AllocReg();
    int32_t entry = top_;
    int32_t jz = -1;
    if (n->predicate != nullptr) {
      bool fp = false;
      int32_t rp = CompileExpr(n->predicate, &fp);
      rp = EnsureBool(rp, fp);
      jz = Emit({Op::kJmpIfZero, 0, 0, 0, rp, 0, 0});
      top_ = entry;
    }
    bool fi = false;
    int32_t ri = CompileExpr(n->index, &fi);
    ri = EnsureInt(ri, fi);
    Op op = buf_float ? Op::kLoadF32
                      : (kind == kI8 ? Op::kLoadI8 : (kind == kI32 ? Op::kLoadI32
                                                                   : Op::kLoadI64));
    Emit({op, 0, 0, dst, ri, 0, slot});
    if (jz >= 0) {
      // Masked-off lanes read as typed zero, exactly like the interpreter.
      int32_t jend = Emit({Op::kJmp, 0, 0, 0, 0, 0, 0});
      PatchTarget(jz, Here());
      int32_t zero = buf_float ? ConstF(0) : ConstI(0);
      Emit({Op::kMov, 0, 0, dst, zero, 0, 0});
      PatchTarget(jend, Here());
    }
    top_ = entry;
    *is_float = buf_float;
    return dst;
  }

  int32_t CompileCall(const CallNode* n, bool* is_float) {
    const std::string& name = n->name;
    if (name == "if_then_else") {
      return CompileConditional(n->args[0], n->args[1], n->args[2], is_float);
    }
    UnaryMathFn fn;
    if (LookupUnaryMathFn(name, &fn)) {
      int32_t mark = top_;
      bool fa = false;
      int32_t ra = CompileExpr(n->args[0], &fa);
      ra = EnsureFloat(ra, fa);
      top_ = mark;
      int32_t dst = AllocReg();
      Emit({Op::kCallUnary, static_cast<uint8_t>(fn), 0, dst, ra, 0, 0});
      *is_float = true;
      return dst;
    }
    if (name == "popcount") {
      int32_t mark = top_;
      bool fa = false;
      int32_t ra = CompileExpr(n->args[0], &fa);
      ra = EnsureInt(ra, fa);
      top_ = mark;
      int32_t dst = AllocReg();
      Emit({Op::kPopcount, 0, 0, dst, ra, 0, 0});
      *is_float = false;
      return dst;
    }
    if (name == kSyncIntrin || name == kPushDepIntrin || name == kPopDepIntrin) {
      *is_float = false;
      return ConstI(0);  // synchronization: no-op under serial/data-parallel execution
    }
    if (CompileTensorIntrin(n)) {
      *is_float = false;
      return ConstI(0);
    }
    Fail("vm: unknown call " + name);
    *is_float = false;
    return 0;
  }

  // --- vector expressions -----------------------------------------------------
  // Compiles `e` to a vector register of width `lanes` (lane-invariant scalar
  // subexpressions compile once and broadcast). Mirrors the interpreter's lane-wise
  // evaluation: per-lane values are produced by exactly the scalar value model.
  int32_t CompileVecExpr(const Expr& e, int lanes, bool* is_float) {
    if (!ok_) {
      *is_float = false;
      return 0;
    }
    if (e->dtype.lanes() == 1) {
      int32_t mark = top_;
      bool f = false;
      int32_t r = CompileExpr(e, &f);
      top_ = mark;
      int32_t dst = AllocVReg(lanes);
      EmitV({Op::kVBroadcast, 0, 0, dst, r, 0, 0, lanes});
      *is_float = f;
      return dst;
    }
    if (e->dtype.lanes() != lanes) {
      Fail("vector width mismatch: " + ToString(e));
      *is_float = false;
      return 0;
    }
    switch (e->kind) {
      case ExprKind::kIntImm: {
        // Vector-typed immediate (e.g. a folded boolx8 constant): broadcast.
        int32_t dst = AllocVReg(lanes);
        EmitV({Op::kVBroadcast, 0, 0, dst,
               ConstI(static_cast<const IntImmNode*>(e.get())->value), 0, 0, lanes});
        *is_float = false;
        return dst;
      }
      case ExprKind::kFloatImm: {
        int32_t dst = AllocVReg(lanes);
        EmitV({Op::kVBroadcast, 0, 0, dst,
               ConstF(static_cast<const FloatImmNode*>(e.get())->value), 0, 0, lanes});
        *is_float = true;
        return dst;
      }
      case ExprKind::kRamp: {
        const auto* n = static_cast<const RampNode*>(e.get());
        int32_t smark = top_;
        bool fb = false, fs = false;
        int32_t rb = EnsureInt(CompileExpr(n->base, &fb), fb);
        int32_t rs = EnsureInt(CompileExpr(n->stride, &fs), fs);
        top_ = smark;
        int32_t dst = AllocVReg(lanes);
        EmitV({Op::kVRamp, 0, 0, dst, rb, rs, 0, lanes});
        *is_float = false;
        return dst;
      }
      case ExprKind::kBroadcast:
        return CompileVecExpr(static_cast<const BroadcastNode*>(e.get())->value, lanes,
                              is_float);
      case ExprKind::kCast:
        return CompileVecCast(static_cast<const CastNode*>(e.get()), lanes, is_float);
      case ExprKind::kNot: {
        const auto* n = static_cast<const NotNode*>(e.get());
        int32_t vmark = vtop_;
        int32_t smark = top_;
        bool fa = false;
        int32_t va = CompileVecExpr(n->a, lanes, &fa);
        va = EnsureVBool(va, fa, lanes);
        vtop_ = vmark;
        top_ = smark;
        int32_t dst = AllocVReg(lanes);
        EmitV({Op::kVNot, 0, 0, dst, va, 0, 0, lanes});
        *is_float = false;
        return dst;
      }
      case ExprKind::kSelect: {
        const auto* n = static_cast<const SelectNode*>(e.get());
        return CompileVecSelect(n->condition, n->true_value, n->false_value, lanes,
                                is_float);
      }
      case ExprKind::kLoad:
        return CompileVecLoad(static_cast<const LoadNode*>(e.get()), lanes, is_float);
      case ExprKind::kLet: {
        const auto* n = static_cast<const LetNode*>(e.get());
        if (n->value->dtype.lanes() != 1) {
          Fail("vm: vector-valued let " + n->var->name);
          *is_float = false;
          return 0;
        }
        bool fv = false;
        int32_t rv = CompileExpr(n->value, &fv);
        BindVar bind(this, n->var.get(), VarBinding{rv, fv});
        return CompileVecExpr(n->body, lanes, is_float);
      }
      case ExprKind::kCall:
        return CompileVecCall(static_cast<const CallNode*>(e.get()), lanes, is_float);
      default: {
        const auto* b = dynamic_cast<const BinaryNode*>(e.get());
        if (b == nullptr) {
          Fail("vm cannot vector-evaluate " + ToString(e));
          *is_float = false;
          return 0;
        }
        return CompileVecBinary(e->kind, b, lanes, is_float);
      }
    }
  }

  int32_t CompileVecBinary(ExprKind kind, const BinaryNode* n, int lanes,
                           bool* is_float) {
    int32_t vmark = vtop_;
    int32_t smark = top_;
    bool fa = false, fb = false;
    int32_t va = CompileVecExpr(n->a, lanes, &fa);
    int32_t vb = CompileVecExpr(n->b, lanes, &fb);
    bool fl = fa || fb;
    Op op;
    bool out_float = false;
    switch (kind) {
      case ExprKind::kAdd: op = fl ? Op::kVAddF : Op::kVAddI; out_float = fl; break;
      case ExprKind::kSub: op = fl ? Op::kVSubF : Op::kVSubI; out_float = fl; break;
      case ExprKind::kMul: op = fl ? Op::kVMulF : Op::kVMulI; out_float = fl; break;
      case ExprKind::kDiv: op = fl ? Op::kVDivF : Op::kVFloorDivI; out_float = fl; break;
      case ExprKind::kMod: op = Op::kVFloorModI; break;
      case ExprKind::kMin: op = fl ? Op::kVMinF : Op::kVMinI; out_float = fl; break;
      case ExprKind::kMax: op = fl ? Op::kVMaxF : Op::kVMaxI; out_float = fl; break;
      case ExprKind::kEQ: op = fl ? Op::kVEqF : Op::kVEqI; break;
      case ExprKind::kNE: op = fl ? Op::kVNeF : Op::kVNeI; break;
      case ExprKind::kLT: op = fl ? Op::kVLtF : Op::kVLtI; break;
      case ExprKind::kLE: op = fl ? Op::kVLeF : Op::kVLeI; break;
      case ExprKind::kGT: op = fl ? Op::kVGtF : Op::kVGtI; break;
      case ExprKind::kGE: op = fl ? Op::kVGeF : Op::kVGeI; break;
      case ExprKind::kAnd: op = Op::kVAnd; break;
      case ExprKind::kOr: op = Op::kVOr; break;
      default:
        Fail("bad vector binary kind");
        *is_float = false;
        return 0;
    }
    if (kind == ExprKind::kMod) {
      va = EnsureVInt(va, fa, lanes);
      vb = EnsureVInt(vb, fb, lanes);
    } else if (kind == ExprKind::kAnd || kind == ExprKind::kOr) {
      va = EnsureVBool(va, fa, lanes);
      vb = EnsureVBool(vb, fb, lanes);
    } else if (fl) {
      va = EnsureVFloat(va, fa, lanes);
      vb = EnsureVFloat(vb, fb, lanes);
    }
    vtop_ = vmark;
    top_ = smark;
    int32_t dst = AllocVReg(lanes);
    EmitV({op, 0, 0, dst, va, vb, 0, lanes});
    *is_float = out_float;
    return dst;
  }

  int32_t CompileVecCast(const CastNode* n, int lanes, bool* is_float) {
    int32_t vmark = vtop_;
    int32_t smark = top_;
    bool fv = false;
    int32_t vv = CompileVecExpr(n->value, lanes, &fv);
    if (n->dtype.is_float()) {
      vv = EnsureVFloat(vv, fv, lanes);
      vtop_ = vmark;
      top_ = smark;
      int32_t dst = AllocVReg(lanes);
      if (n->dtype.bits() == 16) {
        EmitV({Op::kVQuantF16, 0, 0, dst, vv, 0, 0, lanes});
      } else {
        EmitV({Op::kVMov, 0, 0, dst, vv, 0, 0, lanes});
      }
      *is_float = true;
      return dst;
    }
    vv = EnsureVInt(vv, fv, lanes);
    vtop_ = vmark;
    top_ = smark;
    int32_t dst = AllocVReg(lanes);
    if (n->dtype.bits() < 64 && !n->dtype.is_handle()) {
      EmitV({Op::kVWrapInt, static_cast<uint8_t>(n->dtype.is_int() ? 1 : 0),
             static_cast<int16_t>(n->dtype.bits()), dst, vv, 0, 0, lanes});
    } else {
      EmitV({Op::kVMov, 0, 0, dst, vv, 0, 0, lanes});
    }
    *is_float = false;
    return dst;
  }

  // Vector conditional: both arms are computed and lanes blended. The VectorizeLoop
  // pass has already pushed the condition into each arm's load predicates, so the
  // not-taken arm cannot trap; blended-away lane values are discarded, keeping the
  // result bitwise identical to the interpreter's lazy per-lane evaluation.
  int32_t CompileVecSelect(const Expr& cond, const Expr& tval, const Expr& fval,
                           int lanes, bool* is_float) {
    int32_t vmark = vtop_;
    int32_t smark = top_;
    bool fc = false, ft = false, ff = false;
    int32_t vc = CompileVecExpr(cond, lanes, &fc);
    vc = EnsureVBool(vc, fc, lanes);
    bool out_float = StaticTypeOf(tval) || StaticTypeOf(fval);
    int32_t vt = CompileVecExpr(tval, lanes, &ft);
    if (out_float) {
      vt = EnsureVFloat(vt, ft, lanes);
    }
    int32_t vf = CompileVecExpr(fval, lanes, &ff);
    if (out_float) {
      vf = EnsureVFloat(vf, ff, lanes);
    }
    vtop_ = vmark;
    top_ = smark;
    int32_t dst = AllocVReg(lanes);
    EmitV({Op::kVSelect, 0, 0, dst, vt, vf, vc, lanes});
    *is_float = out_float;
    return dst;
  }

  int32_t CompileVecLoad(const LoadNode* n, int lanes, bool* is_float) {
    int32_t slot = BufferSlotOf(n->buffer_var.get());
    if (!ok_) {
      *is_float = false;
      return 0;
    }
    ElemKind kind = buf_kind_[static_cast<size_t>(slot)];
    bool buf_float = kind == kF32 || kind == kF16;
    if (n->dtype.is_float() != buf_float) {
      Fail("vm vector load type mismatch on " + n->buffer_var->name);
      *is_float = false;
      return 0;
    }
    int32_t vmark = vtop_;
    int32_t smark = top_;
    bool has_pred = n->predicate != nullptr;
    int32_t vp = 0;
    if (has_pred) {
      bool fp = false;
      vp = CompileVecExpr(n->predicate, lanes, &fp);
      vp = EnsureVBool(vp, fp, lanes);
    }
    bool fi = false;
    int32_t vi = CompileVecExpr(n->index, lanes, &fi);
    vi = EnsureVInt(vi, fi, lanes);
    vtop_ = vmark;
    top_ = smark;
    int32_t dst = AllocVReg(lanes);
    Op op = buf_float ? Op::kVLoadF32
                      : (kind == kI8 ? Op::kVLoadI8
                                     : (kind == kI32 ? Op::kVLoadI32 : Op::kVLoadI64));
    EmitV({op, static_cast<uint8_t>(has_pred ? 1 : 0), 0, dst, vi, vp, slot, lanes});
    *is_float = buf_float;
    return dst;
  }

  int32_t CompileVecCall(const CallNode* n, int lanes, bool* is_float) {
    const std::string& name = n->name;
    if (name == "if_then_else" && n->args.size() == 3) {
      return CompileVecSelect(n->args[0], n->args[1], n->args[2], lanes, is_float);
    }
    UnaryMathFn fn;
    if (LookupUnaryMathFn(name, &fn)) {
      int32_t vmark = vtop_;
      int32_t smark = top_;
      bool fa = false;
      int32_t va = CompileVecExpr(n->args[0], lanes, &fa);
      va = EnsureVFloat(va, fa, lanes);
      vtop_ = vmark;
      top_ = smark;
      int32_t dst = AllocVReg(lanes);
      EmitV({Op::kVCallUnary, static_cast<uint8_t>(fn), 0, dst, va, 0, 0, lanes});
      *is_float = true;
      return dst;
    }
    if (name == "popcount") {
      int32_t vmark = vtop_;
      int32_t smark = top_;
      bool fa = false;
      int32_t va = CompileVecExpr(n->args[0], lanes, &fa);
      va = EnsureVInt(va, fa, lanes);
      vtop_ = vmark;
      top_ = smark;
      int32_t dst = AllocVReg(lanes);
      EmitV({Op::kVPopcount, 0, 0, dst, va, 0, 0, lanes});
      *is_float = false;
      return dst;
    }
    Fail("vm: unknown vector call " + name);
    *is_float = false;
    return 0;
  }

  // Mirrors the interpreter's generic tensor-intrinsic ABI (see interp.cc): for each
  // buffer (output first): (handle, base, stride per dim...), then the extents.
  bool CompileTensorIntrin(const CallNode* n) {
    const TensorIntrinInfo* info = LookupTensorIntrin(n->name);
    if (info == nullptr) {
      return false;
    }
    int num_buffers = info->num_buffers;
    uint8_t cat = static_cast<uint8_t>(info->category);
    int total = static_cast<int>(n->args.size());
    int nt;
    if (!DecodeTensorIntrinArity(num_buffers, total, &nt)) {
      Fail("bad intrinsic arity for " + n->name);
      return true;
    }
    TensorIntrinDesc desc;
    desc.category = cat;
    desc.nt = nt;
    int32_t mark = top_;
    int pos = 0;
    for (int b = 0; b < num_buffers; ++b) {
      if (n->args[static_cast<size_t>(pos)]->kind != ExprKind::kVar) {
        Fail("tensor intrinsic expects a buffer handle");
        return true;
      }
      desc.buf_slot.push_back(
          BufferSlotOf(static_cast<const VarNode*>(n->args[static_cast<size_t>(pos)].get())));
      ++pos;
      bool f = false;
      int32_t r = CompileExpr(n->args[static_cast<size_t>(pos++)], &f);
      desc.base_reg.push_back(EnsureInt(r, f));
      for (int d = 0; d < nt; ++d) {
        r = CompileExpr(n->args[static_cast<size_t>(pos++)], &f);
        desc.stride_reg.push_back(EnsureInt(r, f));
      }
    }
    for (int d = 0; d < nt; ++d) {
      bool f = false;
      int32_t r = CompileExpr(n->args[static_cast<size_t>(pos++)], &f);
      desc.extent_reg.push_back(EnsureInt(r, f));
    }
    prog_.intrins.push_back(std::move(desc));
    Emit({Op::kTensorIntrin, 0, 0, 0, 0, 0,
          static_cast<int32_t>(prog_.intrins.size()) - 1});
    top_ = mark;
    return true;
  }

  // --- statements ------------------------------------------------------------
  void CompileStmt(const Stmt& s) {
    if (s == nullptr || !ok_) {
      return;
    }
    switch (s->kind) {
      case StmtKind::kLetStmt: {
        const auto* n = static_cast<const LetStmtNode*>(s.get());
        int32_t mark = top_;
        bool fv = false;
        int32_t rv = CompileExpr(n->value, &fv);
        {
          BindVar bind(this, n->var.get(), VarBinding{rv, fv});
          CompileStmt(n->body);
        }
        top_ = mark;
        break;
      }
      case StmtKind::kAttrStmt:
        CompileStmt(static_cast<const AttrStmtNode*>(s.get())->body);
        break;
      case StmtKind::kAssert: {
        const auto* n = static_cast<const AssertStmtNode*>(s.get());
        int32_t mark = top_;
        bool fc = false;
        int32_t rc = CompileExpr(n->condition, &fc);
        rc = EnsureBool(rc, fc);
        prog_.messages.push_back("assert failed: " + n->message);
        Emit({Op::kAssert, 0, 0, 0, rc, 0,
              static_cast<int32_t>(prog_.messages.size()) - 1});
        top_ = mark;
        CompileStmt(n->body);
        break;
      }
      case StmtKind::kStore:
        CompileStore(static_cast<const StoreNode*>(s.get()));
        break;
      case StmtKind::kAllocate: {
        const auto* n = static_cast<const AllocateNode*>(s.get());
        // lanes > 1 allocates widened scalar storage (lanes * product of extents),
        // exactly like the interpreter: element accesses stay flat scalar indices.
        int32_t slot = NewBufferSlot(n->dtype.element_of());
        int32_t mark = top_;
        int32_t size = ConstI(1);
        bool first = true;
        for (const Expr& e : n->extents) {
          bool f = false;
          int32_t r = EnsureInt(CompileExpr(e, &f), f);
          if (first) {
            size = r;
            first = false;
          } else {
            int32_t prod = AllocReg();
            Emit({Op::kMulI, 0, 0, prod, size, r, 0});
            size = prod;
          }
        }
        if (n->dtype.lanes() > 1) {
          int32_t widened = AllocReg();
          Emit({Op::kMulI, 0, 0, widened, size, ConstI(n->dtype.lanes()), 0});
          size = widened;
        }
        Emit({Op::kAlloc, static_cast<uint8_t>(ElemKindOf(n->dtype.element_of())), 0, 0,
              size, 0, slot});
        top_ = mark;
        {
          BindBuf bind(this, n->buffer_var.get(), slot);
          CompileStmt(n->body);
        }
        break;
      }
      case StmtKind::kFor:
        CompileFor(static_cast<const ForNode*>(s.get()));
        break;
      case StmtKind::kIfThenElse: {
        const auto* n = static_cast<const IfThenElseNode*>(s.get());
        int32_t mark = top_;
        bool fc = false;
        int32_t rc = CompileExpr(n->condition, &fc);
        rc = EnsureBool(rc, fc);
        int32_t jz = Emit({Op::kJmpIfZero, 0, 0, 0, rc, 0, 0});
        top_ = mark;
        CompileStmt(n->then_case);
        if (n->else_case != nullptr) {
          int32_t jend = Emit({Op::kJmp, 0, 0, 0, 0, 0, 0});
          PatchTarget(jz, Here());
          CompileStmt(n->else_case);
          PatchTarget(jend, Here());
        } else {
          PatchTarget(jz, Here());
        }
        break;
      }
      case StmtKind::kSeq: {
        const auto* n = static_cast<const SeqStmtNode*>(s.get());
        for (const Stmt& st : n->seq) {
          CompileStmt(st);
        }
        break;
      }
      case StmtKind::kEvaluate: {
        int32_t mark = top_;
        bool f = false;
        CompileExpr(static_cast<const EvaluateNode*>(s.get())->value, &f);
        top_ = mark;
        break;
      }
    }
  }

  void CompileStore(const StoreNode* n) {
    int32_t slot = BufferSlotOf(n->buffer_var.get());
    if (!ok_) {
      return;
    }
    ElemKind kind = buf_kind_[static_cast<size_t>(slot)];
    int lanes = std::max(n->value->dtype.lanes(), n->index->dtype.lanes());
    if (lanes > 1) {
      CompileVecStore(n, slot, kind, lanes);
      return;
    }
    int32_t mark = top_;
    int32_t jz = -1;
    if (n->predicate != nullptr) {
      bool fp = false;
      int32_t rp = CompileExpr(n->predicate, &fp);
      rp = EnsureBool(rp, fp);
      jz = Emit({Op::kJmpIfZero, 0, 0, 0, rp, 0, 0});
      top_ = mark;
    }
    // Interp evaluates index before value (trap order).
    bool fi = false;
    int32_t ri = EnsureInt(CompileExpr(n->index, &fi), fi);
    bool fv = false;
    int32_t rv = CompileExpr(n->value, &fv);
    Op op;
    if (kind == kF32 || kind == kF16) {
      rv = EnsureFloat(rv, fv);  // WriteElem narrows through AsF
      op = kind == kF16 ? Op::kStoreF16 : Op::kStoreF32;
    } else {
      rv = EnsureInt(rv, fv);
      op = kind == kI8 ? Op::kStoreI8 : (kind == kI32 ? Op::kStoreI32 : Op::kStoreI64);
    }
    Emit({op, 0, 0, 0, rv, ri, slot});
    if (jz >= 0) {
      PatchTarget(jz, Here());
    }
    top_ = mark;
  }

  // Vector store: predicate -> index -> value vectors, then one scatter instruction
  // that writes unmasked lanes (same per-lane writes as the interpreter's lane loop).
  void CompileVecStore(const StoreNode* n, int32_t slot, ElemKind kind, int lanes) {
    int32_t vmark = vtop_;
    int32_t smark = top_;
    bool has_pred = n->predicate != nullptr;
    int32_t vp = 0;
    if (has_pred) {
      bool fp = false;
      vp = CompileVecExpr(n->predicate, lanes, &fp);
      vp = EnsureVBool(vp, fp, lanes);
    }
    bool fi = false;
    int32_t vi = CompileVecExpr(n->index, lanes, &fi);
    vi = EnsureVInt(vi, fi, lanes);
    bool fv = false;
    int32_t vv = CompileVecExpr(n->value, lanes, &fv);
    Op op;
    if (kind == kF32 || kind == kF16) {
      vv = EnsureVFloat(vv, fv, lanes);
      op = kind == kF16 ? Op::kVStoreF16 : Op::kVStoreF32;
    } else {
      vv = EnsureVInt(vv, fv, lanes);
      op = kind == kI8 ? Op::kVStoreI8
                       : (kind == kI32 ? Op::kVStoreI32 : Op::kVStoreI64);
    }
    EmitV({op, static_cast<uint8_t>(has_pred ? 1 : 0), 0, vp, vv, vi, slot, lanes});
    vtop_ = vmark;
    top_ = smark;
  }

  void CompileFor(const ForNode* n) {
    int32_t mark = top_;
    bool fm = false, fe = false;
    int32_t rmin = EnsureInt(CompileExpr(n->min, &fm), fm);
    int32_t rext = EnsureInt(CompileExpr(n->extent, &fe), fe);
    int32_t rbound = AllocReg();
    Emit({Op::kAddI, 0, 0, rbound, rmin, rext, 0});
    int32_t loop_reg = AllocReg();
    bool parallel = n->for_type == ForType::kParallel && !in_parallel_ &&
                    !ParallelHazard(n, arg_bufs_);
    BindVar bind(this, n->loop_var.get(), VarBinding{loop_reg, false});
    if (parallel) {
      // The loop body becomes a detached instruction range: the kParFor handler runs it
      // once per iteration (chunked across workers), then resumes at body_end.
      prog_.has_parallel = true;
      prog_.parfors.push_back(ParForDesc{});
      int32_t desc_idx = static_cast<int32_t>(prog_.parfors.size()) - 1;
      Emit({Op::kParFor, 0, 0, 0, 0, 0, desc_idx});
      int32_t body_begin = Here();
      in_parallel_ = true;
      CompileStmt(n->body);
      in_parallel_ = false;
      ParForDesc& d = prog_.parfors[static_cast<size_t>(desc_idx)];
      d.loop_reg = loop_reg;
      d.min_reg = rmin;
      d.bound_reg = rbound;
      d.body_begin = body_begin;
      d.body_end = Here();
    } else {
      // Strength reduction reserves accumulator registers *before* the body compiles
      // (body temporaries must live above them) and emits self-mov placeholder slots
      // for the init/increment instructions; unused slots stay self-movs and the
      // dead-code sweep removes them, so positions of already-patched jump targets
      // never shift during compilation.
      bool sr = spec_.strength_reduce;
      int32_t acc_base = -1;
      int32_t pre_slots[kMaxStrengthRed] = {0};
      int32_t post_slots[kMaxStrengthRed] = {0};
      if (sr) {
        acc_base = top_;
        for (int k = 0; k < kMaxStrengthRed; ++k) {
          AllocReg();
        }
      }
      Emit({Op::kMov, 0, 0, loop_reg, rmin, 0, 0});
      if (sr) {
        for (int k = 0; k < kMaxStrengthRed; ++k) {
          pre_slots[k] = Emit(SelfMov());
        }
      }
      int32_t test = Emit({Op::kJmpGeI, 0, 0, 0, loop_reg, rbound, 0});
      int32_t body_begin = Here();
      CompileStmt(n->body);
      int32_t body_end = Here();
      Emit({Op::kIncI, 0, 0, loop_reg, 0, 0, 0});
      if (sr) {
        for (int k = 0; k < kMaxStrengthRed; ++k) {
          post_slots[k] = Emit(SelfMov());
        }
      }
      Emit({Op::kJmp, 0, 0, 0, 0, 0, test});
      PatchTarget(test, Here());
      if (sr && ok_) {
        StrengthReduce(body_begin, body_end, loop_reg, rmin, acc_base, pre_slots,
                       post_slots);
      }
    }
    top_ = mark;
  }

  // --- bytecode specialization -------------------------------------------------
  // Strength reduction and the peephole pass work on the emitted instruction stream
  // before Finalize(), while constants are still identifiable (negative placeholder
  // ids with values in const_vals_). Deleted instructions are first tombstoned as
  // self-movs (kMov r0, r0 — never emitted by regular compilation) so positions stay
  // stable, then SweepDeadCode() drops the tombstones and remaps jump targets.

  static Instr SelfMov() { return {Op::kMov, 0, 0, 0, 0, 0, 0}; }

  static bool IsSelfMov(const Instr& in) {
    return in.op == Op::kMov && in.dst == in.a;
  }

  // Applies `fn` to every field of `in` naming a *scalar* register the executor
  // reads. Vector-file operands are a separate register space and are never
  // enumerated; descriptor-held registers (tensor intrinsics, parallel loops) are
  // handled by the callers that need them.
  template <typename Fn>
  static void ForEachScalarRead(Instr& in, Fn&& fn) {
    switch (in.op) {
      case Op::kMov:
      case Op::kIntToFloat:
      case Op::kFloatToInt:
      case Op::kWrapInt:
      case Op::kQuantF16:
      case Op::kNot:
      case Op::kBoolF:
      case Op::kCallUnary:
      case Op::kPopcount:
        fn(in.a);
        break;
      case Op::kAddI: case Op::kAddF: case Op::kSubI: case Op::kSubF:
      case Op::kMulI: case Op::kMulF: case Op::kDivF: case Op::kFloorDivI:
      case Op::kFloorModI: case Op::kMinI: case Op::kMinF: case Op::kMaxI:
      case Op::kMaxF: case Op::kEqI: case Op::kEqF: case Op::kNeI: case Op::kNeF:
      case Op::kLtI: case Op::kLtF: case Op::kLeI: case Op::kLeF: case Op::kGtI:
      case Op::kGtF: case Op::kGeI: case Op::kGeF: case Op::kAnd: case Op::kOr:
        fn(in.a);
        fn(in.b);
        break;
      case Op::kJmpIfZero:
        fn(in.a);
        break;
      case Op::kJmpGeI:
        fn(in.a);
        fn(in.b);
        break;
      case Op::kIncI:
        fn(in.dst);  // read-modify-write
        break;
      case Op::kLoadF32: case Op::kLoadI8: case Op::kLoadI32: case Op::kLoadI64:
        fn(in.a);
        break;
      case Op::kStoreF32: case Op::kStoreF16: case Op::kStoreI8:
      case Op::kStoreI32: case Op::kStoreI64:
        fn(in.a);
        fn(in.b);
        break;
      case Op::kAlloc:
        fn(in.a);
        break;
      case Op::kAssert:
        fn(in.a);
        break;
      case Op::kVRamp:
        fn(in.a);
        fn(in.b);
        break;
      case Op::kVBroadcast:
        fn(in.a);
        break;
      default:
        break;  // kJmp/kTensorIntrin/kParFor and the remaining vector opcodes
    }
  }

  // True when ForEachScalarRead/ScalarWriteOf fully model `op`'s scalar-register
  // usage. Exhaustive over the Op enum with no default, so adding an opcode without
  // classifying it here trips -Wswitch where enabled — and at run time the
  // optimization passes refuse to touch programs containing unmodeled opcodes
  // (fail closed) instead of silently folding registers they cannot see.
  static bool ScalarUseModeled(Op op) {
    switch (op) {
      case Op::kMov: case Op::kIntToFloat: case Op::kFloatToInt: case Op::kWrapInt:
      case Op::kQuantF16: case Op::kNot: case Op::kBoolF: case Op::kCallUnary:
      case Op::kPopcount:
      case Op::kAddI: case Op::kAddF: case Op::kSubI: case Op::kSubF:
      case Op::kMulI: case Op::kMulF: case Op::kDivF: case Op::kFloorDivI:
      case Op::kFloorModI: case Op::kMinI: case Op::kMinF: case Op::kMaxI:
      case Op::kMaxF: case Op::kEqI: case Op::kEqF: case Op::kNeI: case Op::kNeF:
      case Op::kLtI: case Op::kLtF: case Op::kLeI: case Op::kLeF: case Op::kGtI:
      case Op::kGtF: case Op::kGeI: case Op::kGeF: case Op::kAnd: case Op::kOr:
      case Op::kJmp: case Op::kJmpIfZero: case Op::kJmpGeI: case Op::kIncI:
      case Op::kLoadF32: case Op::kLoadI8: case Op::kLoadI32: case Op::kLoadI64:
      case Op::kStoreF32: case Op::kStoreF16: case Op::kStoreI8:
      case Op::kStoreI32: case Op::kStoreI64:
      case Op::kAlloc: case Op::kAssert: case Op::kTensorIntrin: case Op::kParFor:
      case Op::kVRamp: case Op::kVBroadcast: case Op::kVMov:
      case Op::kVIntToFloat: case Op::kVFloatToInt: case Op::kVBoolF:
      case Op::kVNot: case Op::kVQuantF16: case Op::kVWrapInt:
      case Op::kVAddI: case Op::kVAddF: case Op::kVSubI: case Op::kVSubF:
      case Op::kVMulI: case Op::kVMulF: case Op::kVDivF: case Op::kVFloorDivI:
      case Op::kVFloorModI: case Op::kVMinI: case Op::kVMinF: case Op::kVMaxI:
      case Op::kVMaxF: case Op::kVEqI: case Op::kVEqF: case Op::kVNeI:
      case Op::kVNeF: case Op::kVLtI: case Op::kVLtF: case Op::kVLeI:
      case Op::kVLeF: case Op::kVGtI: case Op::kVGtF: case Op::kVGeI:
      case Op::kVGeF: case Op::kVAnd: case Op::kVOr: case Op::kVSelect:
      case Op::kVCallUnary: case Op::kVPopcount:
      case Op::kVLoadF32: case Op::kVLoadI8: case Op::kVLoadI32: case Op::kVLoadI64:
      case Op::kVStoreF32: case Op::kVStoreF16: case Op::kVStoreI8:
      case Op::kVStoreI32: case Op::kVStoreI64:
        return true;
    }
    return false;
  }

  bool AllScalarUseModeled(int32_t begin, int32_t end) const {
    for (int32_t pc = begin; pc < end; ++pc) {
      if (!ScalarUseModeled(prog_.code[static_cast<size_t>(pc)].op)) {
        return false;
      }
    }
    return true;
  }

  // The scalar register `in` writes, or -1.
  static int32_t ScalarWriteOf(const Instr& in) {
    switch (in.op) {
      case Op::kMov:
      case Op::kIntToFloat:
      case Op::kFloatToInt:
      case Op::kWrapInt:
      case Op::kQuantF16:
      case Op::kNot:
      case Op::kBoolF:
      case Op::kCallUnary:
      case Op::kPopcount:
      case Op::kIncI:
      case Op::kAddI: case Op::kAddF: case Op::kSubI: case Op::kSubF:
      case Op::kMulI: case Op::kMulF: case Op::kDivF: case Op::kFloorDivI:
      case Op::kFloorModI: case Op::kMinI: case Op::kMinF: case Op::kMaxI:
      case Op::kMaxF: case Op::kEqI: case Op::kEqF: case Op::kNeI: case Op::kNeF:
      case Op::kLtI: case Op::kLtF: case Op::kLeI: case Op::kLeF: case Op::kGtI:
      case Op::kGtF: case Op::kGeI: case Op::kGeF: case Op::kAnd: case Op::kOr:
      case Op::kLoadF32: case Op::kLoadI8: case Op::kLoadI32: case Op::kLoadI64:
        return in.dst;
      default:
        return -1;
    }
  }

  // Writes of `reg` inside [begin, end), including parallel-loop descriptors whose
  // kParFor instruction sits in the range (the executor writes their loop register).
  int WriteCountInRange(int32_t reg, int32_t begin, int32_t end) const {
    int count = 0;
    for (int32_t pc = begin; pc < end; ++pc) {
      const Instr& in = prog_.code[static_cast<size_t>(pc)];
      if (ScalarWriteOf(in) == reg) {
        ++count;
      }
      if (in.op == Op::kParFor &&
          prog_.parfors[static_cast<size_t>(in.idx)].loop_reg == reg) {
        ++count;
      }
    }
    return count;
  }

  // Rewrites reads of `from` to `to` in the instructions of [begin, end) and in the
  // descriptors their kTensorIntrin/kParFor instructions reference.
  void RewriteReadsInRange(int32_t begin, int32_t end, int32_t from, int32_t to,
                           int32_t skip_pc = -1) {
    for (int32_t pc = begin; pc < end; ++pc) {
      if (pc == skip_pc) {
        continue;
      }
      Instr& in = prog_.code[static_cast<size_t>(pc)];
      if (IsSelfMov(in)) {
        continue;  // tombstone: rewriting its fields would un-tombstone it
      }
      ForEachScalarRead(in, [&](int32_t& r) {
        if (r == from) {
          r = to;
        }
      });
      if (in.op == Op::kTensorIntrin) {
        TensorIntrinDesc& d = prog_.intrins[static_cast<size_t>(in.idx)];
        for (int32_t& r : d.base_reg) { if (r == from) r = to; }
        for (int32_t& r : d.stride_reg) { if (r == from) r = to; }
        for (int32_t& r : d.extent_reg) { if (r == from) r = to; }
      } else if (in.op == Op::kParFor) {
        ParForDesc& d = prog_.parfors[static_cast<size_t>(in.idx)];
        if (d.min_reg == from) d.min_reg = to;
        if (d.bound_reg == from) d.bound_reg = to;
      }
    }
  }

  // Strength reduction over one serial loop's body range: a kMulI of the loop
  // register with a loop-invariant operand recomputes `i * stride` every iteration.
  // The product moves to a reserved accumulator initialized to `min * stride` before
  // the loop and bumped by `stride` at the back edge; readers of the old result are
  // redirected to the accumulator and the multiply is tombstoned. Safety: the result
  // register must be a body-local temporary (allocated above the reserved
  // accumulators, hence dead after the loop) with exactly one write in the range, so
  // redirecting its readers cannot affect any other lifetime of the slot.
  void StrengthReduce(int32_t begin, int32_t end, int32_t loop_reg, int32_t rmin,
                      int32_t acc_base, const int32_t* pre_slots,
                      const int32_t* post_slots) {
    if (!AllScalarUseModeled(begin, end)) {
      return;  // fail closed: never rewrite around opcodes we cannot model
    }
    int used = 0;
    for (int32_t pc = begin; pc < end && used < kMaxStrengthRed; ++pc) {
      Instr in = prog_.code[static_cast<size_t>(pc)];
      if (in.op != Op::kMulI) {
        continue;
      }
      int32_t other;
      if (in.a == loop_reg && in.b != loop_reg) {
        other = in.b;
      } else if (in.b == loop_reg && in.a != loop_reg) {
        other = in.a;
      } else {
        continue;  // not affine in the loop var (or i*i)
      }
      if (in.dst < acc_base + kMaxStrengthRed) {
        continue;  // not a body-local temporary
      }
      // An accumulator of this loop varies per iteration; never treat it as the
      // invariant operand (i * acc would be quadratic, not affine).
      if (other >= acc_base && other < acc_base + kMaxStrengthRed) {
        continue;
      }
      if (other >= 0 && WriteCountInRange(other, begin, end) > 0) {
        continue;  // operand not invariant in the loop
      }
      if (WriteCountInRange(in.dst, begin, end) != 1) {
        continue;
      }
      int32_t acc = acc_base + used;
      prog_.code[static_cast<size_t>(pre_slots[used])] =
          {Op::kMulI, 0, 0, acc, rmin, other, 0};
      prog_.code[static_cast<size_t>(post_slots[used])] =
          {Op::kAddI, 0, 0, acc, acc, other, 0};
      RewriteReadsInRange(begin, end, in.dst, acc, /*skip_pc=*/pc);
      prog_.code[static_cast<size_t>(pc)] = SelfMov();
      ++prog_.spec_strength_reduced;
      ++used;
    }
  }

  // Peephole over the whole program: collapses constant-operand arithmetic (both
  // operands in the constant pool) into new pool constants and propagates
  // constant-source movs, tombstoning the collapsed instructions. Only applied when
  // the result register has exactly one write in the entire program — then every
  // read anywhere observes that write, and redirecting readers to the folded
  // constant is unconditionally safe. Float folds use the executor's arithmetic and
  // ConstF rounds the result to f32 as the executor's opcodes do, so results stay
  // bitwise identical.
  void Peephole() {
    if (!AllScalarUseModeled(0, static_cast<int32_t>(prog_.code.size()))) {
      return;  // fail closed: never rewrite around opcodes we cannot model
    }
    for (int round = 0; round < 4; ++round) {
      std::vector<int> writes(static_cast<size_t>(max_top_), 0);
      for (const Instr& in : prog_.code) {
        int32_t w = ScalarWriteOf(in);
        if (w >= 0 && w < max_top_ && !IsSelfMov(in)) {
          ++writes[static_cast<size_t>(w)];
        }
      }
      for (const ParForDesc& d : prog_.parfors) {
        if (d.loop_reg >= 0 && d.loop_reg < max_top_) {
          ++writes[static_cast<size_t>(d.loop_reg)];
        }
      }
      bool changed = false;
      for (size_t i = 0; i < prog_.code.size(); ++i) {
        Instr in = prog_.code[i];
        if (IsSelfMov(in) || ScalarWriteOf(in) < 0 || in.op == Op::kIncI) {
          continue;
        }
        if (in.dst < 0 || in.dst >= max_top_ ||
            writes[static_cast<size_t>(in.dst)] != 1) {
          continue;
        }
        int32_t to;
        if (in.op == Op::kMov && in.a < 0) {
          to = in.a;  // constant-source mov: readers can use the constant directly
        } else if (!FoldConstInstr(in, &to)) {
          continue;
        }
        RewriteReadsInRange(0, static_cast<int32_t>(prog_.code.size()), in.dst, to);
        prog_.code[i] = SelfMov();
        changed = true;
      }
      if (!changed) {
        break;
      }
    }
  }

  // Evaluates `in` when all operands are pool constants, mirroring RunRange exactly.
  // On success *out is a constant register holding the result.
  bool FoldConstInstr(const Instr& in, int32_t* out) {
    auto cv = [&](int32_t r) { return const_vals_[static_cast<size_t>(-r - 1)]; };
    bool unary = false;
    switch (in.op) {
      case Op::kIntToFloat: case Op::kFloatToInt: case Op::kWrapInt:
      case Op::kQuantF16: case Op::kNot: case Op::kBoolF:
        unary = true;
        break;
      default:
        break;
    }
    if (in.a >= 0 || (!unary && in.b >= 0)) {
      return false;
    }
    VMValue a = cv(in.a);
    VMValue b = unary ? VMValue{} : cv(in.b);
    switch (in.op) {
      case Op::kIntToFloat: *out = ConstF(static_cast<double>(a.i)); return true;
      case Op::kFloatToInt: *out = ConstI(static_cast<int64_t>(a.f)); return true;
      case Op::kWrapInt: *out = ConstI(WrapInt(a.i, in.bits, in.flag != 0)); return true;
      case Op::kQuantF16:
        *out = ConstF(static_cast<double>(QuantizeFloat16(static_cast<float>(a.f))));
        return true;
      case Op::kNot: *out = ConstI(a.i != 0 ? 0 : 1); return true;
      case Op::kBoolF: *out = ConstI(a.f != 0); return true;
      case Op::kAddI: *out = ConstI(a.i + b.i); return true;
      case Op::kSubI: *out = ConstI(a.i - b.i); return true;
      case Op::kMulI: *out = ConstI(a.i * b.i); return true;
      case Op::kFloorDivI:
        if (b.i == 0) return false;
        *out = ConstI(FloorDiv(a.i, b.i));
        return true;
      case Op::kFloorModI:
        if (b.i == 0) return false;
        *out = ConstI(FloorMod(a.i, b.i));
        return true;
      case Op::kMinI: *out = ConstI(std::min(a.i, b.i)); return true;
      case Op::kMaxI: *out = ConstI(std::max(a.i, b.i)); return true;
      case Op::kAddF: *out = ConstF(a.f + b.f); return true;
      case Op::kSubF: *out = ConstF(a.f - b.f); return true;
      case Op::kMulF: *out = ConstF(a.f * b.f); return true;
      case Op::kDivF: *out = ConstF(a.f / b.f); return true;
      case Op::kMinF: *out = ConstF(std::min(a.f, b.f)); return true;
      case Op::kMaxF: *out = ConstF(std::max(a.f, b.f)); return true;
      case Op::kEqI: *out = ConstI(a.i == b.i); return true;
      case Op::kNeI: *out = ConstI(a.i != b.i); return true;
      case Op::kLtI: *out = ConstI(a.i < b.i); return true;
      case Op::kLeI: *out = ConstI(a.i <= b.i); return true;
      case Op::kGtI: *out = ConstI(a.i > b.i); return true;
      case Op::kGeI: *out = ConstI(a.i >= b.i); return true;
      case Op::kEqF: *out = ConstI(a.f == b.f); return true;
      case Op::kNeF: *out = ConstI(a.f != b.f); return true;
      case Op::kLtF: *out = ConstI(a.f < b.f); return true;
      case Op::kLeF: *out = ConstI(a.f <= b.f); return true;
      case Op::kGtF: *out = ConstI(a.f > b.f); return true;
      case Op::kGeF: *out = ConstI(a.f >= b.f); return true;
      case Op::kAnd: *out = ConstI((a.i != 0) && (b.i != 0)); return true;
      case Op::kOr: *out = ConstI((a.i != 0) || (b.i != 0)); return true;
      default:
        return false;
    }
  }

  // Drops self-mov tombstones (and the never-used reserved strength-reduction
  // slots), remapping jump targets and parallel-loop body ranges. A deleted
  // position that was itself a branch target maps to the next surviving
  // instruction, which is exactly where the tombstone would have fallen through.
  void SweepDeadCode() {
    size_t n = prog_.code.size();
    std::vector<int32_t> map(n + 1, 0);
    std::vector<Instr> kept;
    kept.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      map[i] = static_cast<int32_t>(kept.size());
      if (IsSelfMov(prog_.code[i])) {
        // Attributed to the peephole counter only when that pass ran: the sweep
        // also drops strength-reduction placeholders, which are not peephole wins.
        if (spec_.peephole) {
          ++prog_.spec_peephole_removed;
        }
        continue;
      }
      kept.push_back(prog_.code[i]);
    }
    map[n] = static_cast<int32_t>(kept.size());
    for (Instr& in : kept) {
      if (in.op == Op::kJmp || in.op == Op::kJmpIfZero || in.op == Op::kJmpGeI) {
        in.idx = map[static_cast<size_t>(in.idx)];
      }
    }
    for (ParForDesc& d : prog_.parfors) {
      d.body_begin = map[static_cast<size_t>(d.body_begin)];
      d.body_end = map[static_cast<size_t>(d.body_end)];
    }
    prog_.code = std::move(kept);
  }

  // Rewrites negative constant placeholders to dense register slots above the scoped
  // high-water mark and materializes the initial register image.
  void Finalize() {
    if (spec_.peephole) {
      Peephole();
    }
    // Always sweep: strength reduction and constant folding leave self-mov
    // tombstones (and reserved-but-unused accumulator slots) behind, and genuine
    // self-movs from register coincidence are no-ops either way.
    SweepDeadCode();
    auto fix = [this](int32_t& r) {
      if (r < 0) {
        r = max_top_ + (-r - 1);
      }
    };
    for (Instr& in : prog_.code) {
      fix(in.dst);
      fix(in.a);
      fix(in.b);
    }
    for (TensorIntrinDesc& d : prog_.intrins) {
      for (int32_t& r : d.base_reg) fix(r);
      for (int32_t& r : d.stride_reg) fix(r);
      for (int32_t& r : d.extent_reg) fix(r);
    }
    for (ParForDesc& d : prog_.parfors) {
      fix(d.loop_reg);
      fix(d.min_reg);
      fix(d.bound_reg);
    }
    prog_.reg_init.assign(static_cast<size_t>(max_top_) + const_vals_.size(), VMValue{});
    for (size_t k = 0; k < const_vals_.size(); ++k) {
      prog_.reg_init[static_cast<size_t>(max_top_) + k] = const_vals_[k];
    }
    prog_.num_vregs = vmax_top_;
  }

  static constexpr int kMaxStrengthRed = 4;

  Program prog_;
  LoopSpecializeOptions spec_;
  std::unordered_map<const VarNode*, VarBinding> var_of_;
  std::unordered_map<const VarNode*, int32_t> buf_of_;
  std::unordered_set<const VarNode*> arg_bufs_;
  std::vector<ElemKind> buf_kind_;  // per slot
  std::unordered_map<uint64_t, int32_t> int_const_ids_;
  std::unordered_map<uint64_t, int32_t> float_const_ids_;
  std::vector<VMValue> const_vals_;
  int32_t top_ = 0;
  int32_t max_top_ = 0;
  int32_t vtop_ = 0;
  int32_t vmax_top_ = 0;
  bool in_parallel_ = false;
  bool ok_ = true;
  std::string fail_reason_;
};

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

struct VMBuffer {
  void* data = nullptr;
  int64_t num_elements = 0;
  uint8_t kind = kF32;
};

struct ExecState {
  std::vector<VMValue> regs;
  std::vector<VMValue> vregs;  // vector register file: lane cells
  std::vector<VMBuffer> bufs;
  std::vector<std::vector<char>> owned;  // per-slot storage for kAlloc buffers
};

int ElemBytes(uint8_t kind) {
  switch (kind) {
    case kI8: return 1;
    case kI64: return 8;
    default: return 4;  // kF32/kF16 stored as float, kI32 as int32
  }
}

[[noreturn]] void BoundsFail(int64_t idx, int64_t n) {
  LOG(FATAL) << (idx < 0 ? "buffer underflow" : "buffer overflow") << ": index " << idx
             << " of " << n;
  std::abort();  // unreachable: LOG(FATAL) throws
}

inline void CheckBounds(const VMBuffer& b, int64_t idx) {
  if (idx < 0 || idx >= b.num_elements) {
    BoundsFail(idx, b.num_elements);
  }
}

// Scalar value with a runtime type tag, used only by the tensor-intrinsic helper to
// mirror the interpreter's mixed-type MAC semantics.
struct ScalarVal {
  double f = 0;
  int64_t i = 0;
  bool is_float = false;
  double AsF() const { return is_float ? f : RoundF32(static_cast<double>(i)); }
};

ScalarVal ReadBuf(const VMBuffer& b, int64_t idx) {
  CheckBounds(b, idx);
  ScalarVal v;
  switch (b.kind) {
    case kF32:
    case kF16:
      v.f = static_cast<const float*>(b.data)[idx];
      v.is_float = true;
      break;
    case kI8:
      v.i = static_cast<const int8_t*>(b.data)[idx];
      break;
    case kI32:
      v.i = static_cast<const int32_t*>(b.data)[idx];
      break;
    default:
      v.i = static_cast<const int64_t*>(b.data)[idx];
      break;
  }
  return v;
}

void WriteBuf(VMBuffer& b, int64_t idx, const ScalarVal& v) {
  CheckBounds(b, idx);
  switch (b.kind) {
    case kF32:
      static_cast<float*>(b.data)[idx] = static_cast<float>(v.AsF());
      break;
    case kF16:
      static_cast<float*>(b.data)[idx] = QuantizeFloat16(static_cast<float>(v.AsF()));
      break;
    case kI8:
      static_cast<int8_t*>(b.data)[idx] = static_cast<int8_t>(v.is_float
                                                                  ? static_cast<int64_t>(v.f)
                                                                  : v.i);
      break;
    case kI32:
      static_cast<int32_t*>(b.data)[idx] = static_cast<int32_t>(
          v.is_float ? static_cast<int64_t>(v.f) : v.i);
      break;
    default:
      static_cast<int64_t*>(b.data)[idx] = v.is_float ? static_cast<int64_t>(v.f) : v.i;
      break;
  }
}

// Shared worker pool for kParallel loops run without an explicit ExecOptions::pool.
// Sized at least 4 so chunked execution is exercised (and deterministic) even on
// small machines. The pool belongs to the process that built it: a forked child
// inherits the object but none of its threads (and possibly its mutex mid-hold), so
// a call from another pid builds a fresh pool and deliberately leaks the inherited
// one. Lock-free, so a fork taken while another thread is in here cannot leave the
// child a held lock.
ThreadPool* WorkerPool() {
  struct OwnedPool {
    pid_t owner = ::getpid();
    ThreadPool pool{std::max(DefaultNumThreads(), 4)};
  };
  static std::atomic<OwnedPool*> current{nullptr};
  OwnedPool* seen = current.load(std::memory_order_acquire);
  if (seen != nullptr && seen->owner == ::getpid()) {
    return &seen->pool;
  }
  auto* fresh = new OwnedPool();
  if (current.compare_exchange_strong(seen, fresh, std::memory_order_acq_rel)) {
    return &fresh->pool;
  }
  delete fresh;  // another thread of this process installed its pool first
  return &seen->pool;
}

void RunRange(const Program& p, ExecState& st, int32_t pc, int32_t end,
              const ExecOptions& opt);

void ExecTensorIntrin(const Program& p, ExecState& st, const TensorIntrinDesc& d) {
  int num_buffers = static_cast<int>(d.buf_slot.size());
  int nt = d.nt;
  struct Access {
    VMBuffer* buf;
    int64_t base;
    const int32_t* strides;
  };
  Access acc[3];
  for (int b = 0; b < num_buffers; ++b) {
    acc[b].buf = &st.bufs[static_cast<size_t>(d.buf_slot[static_cast<size_t>(b)])];
    acc[b].base = st.regs[static_cast<size_t>(d.base_reg[static_cast<size_t>(b)])].i;
    acc[b].strides = d.stride_reg.data() + b * nt;
  }
  std::vector<int64_t> extents(static_cast<size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    extents[static_cast<size_t>(t)] =
        st.regs[static_cast<size_t>(d.extent_reg[static_cast<size_t>(t)])].i;
  }
  std::vector<int64_t> idx(static_cast<size_t>(nt), 0);
  auto offset = [&](const Access& a) {
    int64_t off = a.base;
    for (int t = 0; t < nt; ++t) {
      off += idx[static_cast<size_t>(t)] * st.regs[static_cast<size_t>(a.strides[t])].i;
    }
    return off;
  };
  do {  // the body runs at least once (nt == 0 means a single scalar update)
    switch (d.category) {
      case 0: {  // fill
        ScalarVal zero;
        zero.is_float = acc[0].buf->kind == kF32 || acc[0].buf->kind == kF16;
        WriteBuf(*acc[0].buf, offset(acc[0]), zero);
        break;
      }
      case 1:  // copy
        WriteBuf(*acc[0].buf, offset(acc[0]), ReadBuf(*acc[1].buf, offset(acc[1])));
        break;
      default: {  // mac
        ScalarVal out = ReadBuf(*acc[0].buf, offset(acc[0]));
        ScalarVal a = ReadBuf(*acc[1].buf, offset(acc[1]));
        ScalarVal b = ReadBuf(*acc[2].buf, offset(acc[2]));
        ScalarVal r;
        if (out.is_float || a.is_float || b.is_float) {
          r.f = RoundF32(out.AsF() + RoundF32(a.AsF() * b.AsF()));
          r.is_float = true;
        } else {
          r.i = out.i + a.i * b.i;
        }
        WriteBuf(*acc[0].buf, offset(acc[0]), r);
        break;
      }
    }
    int t = nt - 1;
    while (t >= 0) {
      if (++idx[static_cast<size_t>(t)] < extents[static_cast<size_t>(t)]) {
        break;
      }
      idx[static_cast<size_t>(t)] = 0;
      --t;
    }
    if (t < 0) {
      break;
    }
  } while (true);
}

int ResolveThreads(const ExecOptions& opt) {
  return opt.num_threads > 0 ? opt.num_threads : DefaultNumThreads();
}

void ExecParFor(const Program& p, ExecState& st, const ParForDesc& d,
                const ExecOptions& opt) {
  int64_t lo = st.regs[static_cast<size_t>(d.min_reg)].i;
  int64_t hi = st.regs[static_cast<size_t>(d.bound_reg)].i;
  ParallelFor(opt, lo, hi, [&p, &st, &d, &opt](int64_t begin, int64_t end) {
    // Each chunk clones the register file and buffer table: loop-invariant values
    // and outer buffers are shared read-only, while registers written in the body
    // and buffers allocated in the body stay private to the chunk.
    ExecState local;
    local.regs = st.regs;
    local.vregs = st.vregs;
    local.bufs = st.bufs;
    local.owned.resize(st.owned.size());
    for (int64_t v = begin; v < end; ++v) {
      local.regs[static_cast<size_t>(d.loop_reg)].i = v;
      RunRange(p, local, d.body_begin, d.body_end, opt);
    }
  });
}

void RunRange(const Program& p, ExecState& st, int32_t pc, int32_t end,
              const ExecOptions& opt) {
  const Instr* code = p.code.data();
  VMValue* r = st.regs.data();
  VMValue* v = st.vregs.data();
  while (pc < end) {
    const Instr& in = code[pc];
    switch (in.op) {
      case Op::kMov: r[in.dst] = r[in.a]; ++pc; break;
      case Op::kIntToFloat:
        r[in.dst].f = RoundF32(static_cast<double>(r[in.a].i));
        ++pc;
        break;
      case Op::kFloatToInt: r[in.dst].i = static_cast<int64_t>(r[in.a].f); ++pc; break;
      case Op::kWrapInt:
        r[in.dst].i = WrapInt(r[in.a].i, in.bits, in.flag != 0);
        ++pc;
        break;
      case Op::kQuantF16:
        r[in.dst].f = static_cast<double>(QuantizeFloat16(static_cast<float>(r[in.a].f)));
        ++pc;
        break;
      case Op::kAddI: r[in.dst].i = r[in.a].i + r[in.b].i; ++pc; break;
      case Op::kAddF: r[in.dst].f = RoundF32(r[in.a].f + r[in.b].f); ++pc; break;
      case Op::kSubI: r[in.dst].i = r[in.a].i - r[in.b].i; ++pc; break;
      case Op::kSubF: r[in.dst].f = RoundF32(r[in.a].f - r[in.b].f); ++pc; break;
      case Op::kMulI: r[in.dst].i = r[in.a].i * r[in.b].i; ++pc; break;
      case Op::kMulF: r[in.dst].f = RoundF32(r[in.a].f * r[in.b].f); ++pc; break;
      case Op::kDivF: r[in.dst].f = RoundF32(r[in.a].f / r[in.b].f); ++pc; break;
      case Op::kFloorDivI: r[in.dst].i = FloorDiv(r[in.a].i, r[in.b].i); ++pc; break;
      case Op::kFloorModI: r[in.dst].i = FloorMod(r[in.a].i, r[in.b].i); ++pc; break;
      case Op::kMinI: r[in.dst].i = std::min(r[in.a].i, r[in.b].i); ++pc; break;
      case Op::kMinF: r[in.dst].f = std::min(r[in.a].f, r[in.b].f); ++pc; break;
      case Op::kMaxI: r[in.dst].i = std::max(r[in.a].i, r[in.b].i); ++pc; break;
      case Op::kMaxF: r[in.dst].f = std::max(r[in.a].f, r[in.b].f); ++pc; break;
      case Op::kEqI: r[in.dst].i = r[in.a].i == r[in.b].i; ++pc; break;
      case Op::kEqF: r[in.dst].i = r[in.a].f == r[in.b].f; ++pc; break;
      case Op::kNeI: r[in.dst].i = r[in.a].i != r[in.b].i; ++pc; break;
      case Op::kNeF: r[in.dst].i = r[in.a].f != r[in.b].f; ++pc; break;
      case Op::kLtI: r[in.dst].i = r[in.a].i < r[in.b].i; ++pc; break;
      case Op::kLtF: r[in.dst].i = r[in.a].f < r[in.b].f; ++pc; break;
      case Op::kLeI: r[in.dst].i = r[in.a].i <= r[in.b].i; ++pc; break;
      case Op::kLeF: r[in.dst].i = r[in.a].f <= r[in.b].f; ++pc; break;
      case Op::kGtI: r[in.dst].i = r[in.a].i > r[in.b].i; ++pc; break;
      case Op::kGtF: r[in.dst].i = r[in.a].f > r[in.b].f; ++pc; break;
      case Op::kGeI: r[in.dst].i = r[in.a].i >= r[in.b].i; ++pc; break;
      case Op::kGeF: r[in.dst].i = r[in.a].f >= r[in.b].f; ++pc; break;
      case Op::kAnd: r[in.dst].i = (r[in.a].i != 0) && (r[in.b].i != 0); ++pc; break;
      case Op::kOr: r[in.dst].i = (r[in.a].i != 0) || (r[in.b].i != 0); ++pc; break;
      case Op::kNot: r[in.dst].i = r[in.a].i != 0 ? 0 : 1; ++pc; break;
      case Op::kBoolF: r[in.dst].i = r[in.a].f != 0; ++pc; break;
      case Op::kJmp: pc = in.idx; break;
      case Op::kJmpIfZero: pc = r[in.a].i == 0 ? in.idx : pc + 1; break;
      case Op::kJmpGeI: pc = r[in.a].i >= r[in.b].i ? in.idx : pc + 1; break;
      case Op::kIncI: ++r[in.dst].i; ++pc; break;
      case Op::kLoadF32: {
        const VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];
        int64_t i = r[in.a].i;
        CheckBounds(b, i);
        r[in.dst].f = static_cast<const float*>(b.data)[i];
        ++pc;
        break;
      }
      case Op::kLoadI8: {
        const VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];
        int64_t i = r[in.a].i;
        CheckBounds(b, i);
        r[in.dst].i = static_cast<const int8_t*>(b.data)[i];
        ++pc;
        break;
      }
      case Op::kLoadI32: {
        const VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];
        int64_t i = r[in.a].i;
        CheckBounds(b, i);
        r[in.dst].i = static_cast<const int32_t*>(b.data)[i];
        ++pc;
        break;
      }
      case Op::kLoadI64: {
        const VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];
        int64_t i = r[in.a].i;
        CheckBounds(b, i);
        r[in.dst].i = static_cast<const int64_t*>(b.data)[i];
        ++pc;
        break;
      }
      case Op::kStoreF32: {
        VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];
        int64_t i = r[in.b].i;
        CheckBounds(b, i);
        static_cast<float*>(b.data)[i] = static_cast<float>(r[in.a].f);
        ++pc;
        break;
      }
      case Op::kStoreF16: {
        VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];
        int64_t i = r[in.b].i;
        CheckBounds(b, i);
        static_cast<float*>(b.data)[i] =
            QuantizeFloat16(static_cast<float>(r[in.a].f));
        ++pc;
        break;
      }
      case Op::kStoreI8: {
        VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];
        int64_t i = r[in.b].i;
        CheckBounds(b, i);
        static_cast<int8_t*>(b.data)[i] = static_cast<int8_t>(r[in.a].i);
        ++pc;
        break;
      }
      case Op::kStoreI32: {
        VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];
        int64_t i = r[in.b].i;
        CheckBounds(b, i);
        static_cast<int32_t*>(b.data)[i] = static_cast<int32_t>(r[in.a].i);
        ++pc;
        break;
      }
      case Op::kStoreI64: {
        VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];
        int64_t i = r[in.b].i;
        CheckBounds(b, i);
        static_cast<int64_t*>(b.data)[i] = r[in.a].i;
        ++pc;
        break;
      }
      case Op::kAlloc: {
        int64_t elems = r[in.a].i;
        std::vector<char>& storage = st.owned[static_cast<size_t>(in.idx)];
        storage.assign(static_cast<size_t>(elems * ElemBytes(in.flag)), 0);
        st.bufs[static_cast<size_t>(in.idx)] =
            VMBuffer{storage.data(), elems, in.flag};
        ++pc;
        break;
      }
      case Op::kCallUnary:
        r[in.dst].f = EvalUnaryMathFn(static_cast<UnaryMathFn>(in.flag), r[in.a].f);
        ++pc;
        break;
      case Op::kPopcount:
        r[in.dst].i = __builtin_popcountll(static_cast<uint64_t>(r[in.a].i));
        ++pc;
        break;
      case Op::kTensorIntrin:
        ExecTensorIntrin(p, st, p.intrins[static_cast<size_t>(in.idx)]);
        ++pc;
        break;
      case Op::kParFor: {
        const ParForDesc& d = p.parfors[static_cast<size_t>(in.idx)];
        ExecParFor(p, st, d, opt);
        pc = d.body_end;
        break;
      }
      case Op::kAssert:
        if (r[in.a].i == 0) {
          LOG(FATAL) << p.messages[static_cast<size_t>(in.idx)];
        }
        ++pc;
        break;
      // --- SIMD vector opcodes ------------------------------------------------
      case Op::kVRamp: {
        int64_t base = r[in.a].i, stride = r[in.b].i;
        for (int32_t l = 0; l < in.lanes; ++l) {
          v[in.dst + l].i = base + l * stride;
        }
        ++pc;
        break;
      }
      case Op::kVBroadcast: {
        VMValue x = r[in.a];
        for (int32_t l = 0; l < in.lanes; ++l) {
          v[in.dst + l] = x;
        }
        ++pc;
        break;
      }
      case Op::kVMov:
        for (int32_t l = 0; l < in.lanes; ++l) v[in.dst + l] = v[in.a + l];
        ++pc;
        break;
      case Op::kVIntToFloat:
        for (int32_t l = 0; l < in.lanes; ++l) {
          v[in.dst + l].f = RoundF32(static_cast<double>(v[in.a + l].i));
        }
        ++pc;
        break;
      case Op::kVFloatToInt:
        for (int32_t l = 0; l < in.lanes; ++l) {
          v[in.dst + l].i = static_cast<int64_t>(v[in.a + l].f);
        }
        ++pc;
        break;
      case Op::kVBoolF:
        for (int32_t l = 0; l < in.lanes; ++l) v[in.dst + l].i = v[in.a + l].f != 0;
        ++pc;
        break;
      case Op::kVNot:
        for (int32_t l = 0; l < in.lanes; ++l) {
          v[in.dst + l].i = v[in.a + l].i != 0 ? 0 : 1;
        }
        ++pc;
        break;
      case Op::kVQuantF16:
        for (int32_t l = 0; l < in.lanes; ++l) {
          v[in.dst + l].f =
              static_cast<double>(QuantizeFloat16(static_cast<float>(v[in.a + l].f)));
        }
        ++pc;
        break;
      case Op::kVWrapInt:
        for (int32_t l = 0; l < in.lanes; ++l) {
          v[in.dst + l].i = WrapInt(v[in.a + l].i, in.bits, in.flag != 0);
        }
        ++pc;
        break;
#define TVMCPP_VM_VBINOP(OPC, FIELD, EXPR)                              \
  case Op::OPC:                                                         \
    for (int32_t l = 0; l < in.lanes; ++l) {                            \
      auto va = v[in.a + l].FIELD;                                      \
      auto vb = v[in.b + l].FIELD;                                      \
      (void)va; (void)vb;                                               \
      EXPR;                                                             \
    }                                                                   \
    ++pc;                                                               \
    break;
      TVMCPP_VM_VBINOP(kVAddI, i, v[in.dst + l].i = va + vb)
      TVMCPP_VM_VBINOP(kVAddF, f, v[in.dst + l].f = RoundF32(va + vb))
      TVMCPP_VM_VBINOP(kVSubI, i, v[in.dst + l].i = va - vb)
      TVMCPP_VM_VBINOP(kVSubF, f, v[in.dst + l].f = RoundF32(va - vb))
      TVMCPP_VM_VBINOP(kVMulI, i, v[in.dst + l].i = va * vb)
      TVMCPP_VM_VBINOP(kVMulF, f, v[in.dst + l].f = RoundF32(va * vb))
      TVMCPP_VM_VBINOP(kVDivF, f, v[in.dst + l].f = RoundF32(va / vb))
      TVMCPP_VM_VBINOP(kVFloorDivI, i, v[in.dst + l].i = FloorDiv(va, vb))
      TVMCPP_VM_VBINOP(kVFloorModI, i, v[in.dst + l].i = FloorMod(va, vb))
      TVMCPP_VM_VBINOP(kVMinI, i, v[in.dst + l].i = std::min(va, vb))
      TVMCPP_VM_VBINOP(kVMinF, f, v[in.dst + l].f = std::min(va, vb))
      TVMCPP_VM_VBINOP(kVMaxI, i, v[in.dst + l].i = std::max(va, vb))
      TVMCPP_VM_VBINOP(kVMaxF, f, v[in.dst + l].f = std::max(va, vb))
      TVMCPP_VM_VBINOP(kVEqI, i, v[in.dst + l].i = va == vb)
      TVMCPP_VM_VBINOP(kVEqF, f, v[in.dst + l].i = va == vb)
      TVMCPP_VM_VBINOP(kVNeI, i, v[in.dst + l].i = va != vb)
      TVMCPP_VM_VBINOP(kVNeF, f, v[in.dst + l].i = va != vb)
      TVMCPP_VM_VBINOP(kVLtI, i, v[in.dst + l].i = va < vb)
      TVMCPP_VM_VBINOP(kVLtF, f, v[in.dst + l].i = va < vb)
      TVMCPP_VM_VBINOP(kVLeI, i, v[in.dst + l].i = va <= vb)
      TVMCPP_VM_VBINOP(kVLeF, f, v[in.dst + l].i = va <= vb)
      TVMCPP_VM_VBINOP(kVGtI, i, v[in.dst + l].i = va > vb)
      TVMCPP_VM_VBINOP(kVGtF, f, v[in.dst + l].i = va > vb)
      TVMCPP_VM_VBINOP(kVGeI, i, v[in.dst + l].i = va >= vb)
      TVMCPP_VM_VBINOP(kVGeF, f, v[in.dst + l].i = va >= vb)
      TVMCPP_VM_VBINOP(kVAnd, i, v[in.dst + l].i = (va != 0) && (vb != 0))
      TVMCPP_VM_VBINOP(kVOr, i, v[in.dst + l].i = (va != 0) || (vb != 0))
#undef TVMCPP_VM_VBINOP
      case Op::kVSelect:
        for (int32_t l = 0; l < in.lanes; ++l) {
          v[in.dst + l] = v[in.idx + l].i != 0 ? v[in.a + l] : v[in.b + l];
        }
        ++pc;
        break;
      case Op::kVCallUnary:
        for (int32_t l = 0; l < in.lanes; ++l) {
          v[in.dst + l].f =
              EvalUnaryMathFn(static_cast<UnaryMathFn>(in.flag), v[in.a + l].f);
        }
        ++pc;
        break;
      case Op::kVPopcount:
        for (int32_t l = 0; l < in.lanes; ++l) {
          v[in.dst + l].i =
              __builtin_popcountll(static_cast<uint64_t>(v[in.a + l].i));
        }
        ++pc;
        break;
#define TVMCPP_VM_VLOAD(OPC, CTYPE, FIELD, ZERO)                          \
  case Op::OPC: {                                                         \
    const VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];             \
    for (int32_t l = 0; l < in.lanes; ++l) {                              \
      if (in.flag != 0 && v[in.b + l].i == 0) {                           \
        v[in.dst + l].FIELD = ZERO; /* masked lane reads typed zero */    \
        continue;                                                         \
      }                                                                   \
      int64_t i = v[in.a + l].i;                                          \
      CheckBounds(b, i);                                                  \
      v[in.dst + l].FIELD = static_cast<const CTYPE*>(b.data)[i];         \
    }                                                                     \
    ++pc;                                                                 \
    break;                                                                \
  }
      TVMCPP_VM_VLOAD(kVLoadF32, float, f, 0.0)
      TVMCPP_VM_VLOAD(kVLoadI8, int8_t, i, 0)
      TVMCPP_VM_VLOAD(kVLoadI32, int32_t, i, 0)
      TVMCPP_VM_VLOAD(kVLoadI64, int64_t, i, 0)
#undef TVMCPP_VM_VLOAD
#define TVMCPP_VM_VSTORE(OPC, CTYPE, WRITE)                               \
  case Op::OPC: {                                                         \
    VMBuffer& b = st.bufs[static_cast<size_t>(in.idx)];                   \
    for (int32_t l = 0; l < in.lanes; ++l) {                              \
      if (in.flag != 0 && v[in.dst + l].i == 0) {                         \
        continue; /* masked lane skipped */                               \
      }                                                                   \
      int64_t i = v[in.b + l].i;                                          \
      CheckBounds(b, i);                                                  \
      static_cast<CTYPE*>(b.data)[i] = WRITE;                             \
    }                                                                     \
    ++pc;                                                                 \
    break;                                                                \
  }
      TVMCPP_VM_VSTORE(kVStoreF32, float, static_cast<float>(v[in.a + l].f))
      TVMCPP_VM_VSTORE(kVStoreF16, float,
                       QuantizeFloat16(static_cast<float>(v[in.a + l].f)))
      TVMCPP_VM_VSTORE(kVStoreI8, int8_t, static_cast<int8_t>(v[in.a + l].i))
      TVMCPP_VM_VSTORE(kVStoreI32, int32_t, static_cast<int32_t>(v[in.a + l].i))
      TVMCPP_VM_VSTORE(kVStoreI64, int64_t, v[in.a + l].i)
#undef TVMCPP_VM_VSTORE
    }
  }
}

}  // namespace

void ParallelFor(const ExecOptions& options, int64_t lo, int64_t hi,
                 const std::function<void(int64_t, int64_t)>& chunk) {
  int threads = ResolveThreads(options);
  ThreadPool* pool = options.pool;
  if (pool == nullptr && threads > 1 && hi - lo > 1) {
    pool = WorkerPool();
  }
  tvmcpp::ParallelFor(pool, threads, lo, hi, chunk);
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

int DefaultNumThreads() {
  static const int n = [] {
    if (const char* s = std::getenv("TVMCPP_NUM_THREADS")) {
      int v = std::atoi(s);
      if (v > 0) {
        return v;
      }
    }
    unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
  }();
  return n;
}

std::shared_ptr<const Program> CompileToProgram(const LoweredFunc& func,
                                                const LoopSpecializeOptions& spec) {
  Stmt body = func.body;
  if (body == nullptr) {
    return nullptr;
  }
  // Block-synchronous serialization of cooperative programs, and kVectorized loops
  // materialized as vector IR so they compile to SIMD opcodes (loops the pass bails
  // on stay serial).
  body = PrepareHostBody(body);
  // Loop specialization (src/lower/unroll.cc): unroll small fixed-extent innermost
  // loops and hoist invariant index arithmetic. Bitwise-neutral by construction;
  // the final Simplify folds the constant indices the unroller exposed.
  LoopSpecializeStats ir_stats;
  if (spec.unroll_limit > 0 || spec.hoist_invariants) {
    body = SpecializeLoops(body, spec, &ir_stats);
  }
  body = Simplify(body);
  Compiler compiler(spec, ir_stats);
  return compiler.Compile(func, body);
}

void Run(const Program& program, const std::vector<BufferBinding>& args,
         const ExecOptions& options) {
  // Throwing fail-point: an injected error surfaces as a per-run fault exactly
  // like a real execution failure, exercising the serving layer's retry/fallback
  // ladder. Evaluated on the caller's thread before any chunk is dispatched, so a
  // throw never strands kParallel chunk jobs.
  FAILPOINT("vm.run");
  CHECK_EQ(static_cast<int32_t>(args.size()), program.num_args)
      << "argument count mismatch for " << program.name;
  ExecState st;
  st.regs = program.reg_init;
  st.vregs.assign(static_cast<size_t>(program.num_vregs), VMValue{});
  st.bufs.assign(static_cast<size_t>(program.num_buffer_slots), VMBuffer{});
  st.owned.resize(static_cast<size_t>(program.num_buffer_slots));
  for (size_t i = 0; i < args.size(); ++i) {
    st.bufs[i] = VMBuffer{args[i].data, args[i].num_elements, program.arg_kind[i]};
  }
  RunRange(program, st, 0, static_cast<int32_t>(program.code.size()), options);
}

int ProgramNumInstructions(const Program& program) {
  return static_cast<int>(program.code.size());
}

int ProgramNumRegisters(const Program& program) {
  return static_cast<int>(program.reg_init.size());
}

bool ProgramHasParallel(const Program& program) { return program.has_parallel; }

bool ProgramHasVector(const Program& program) { return program.has_vector; }

ProgramStats GetProgramStats(const Program& program) {
  ProgramStats st;
  st.num_instructions = static_cast<int>(program.code.size());
  st.num_registers = static_cast<int>(program.reg_init.size());
  for (const Instr& in : program.code) {
    switch (in.op) {
      case Op::kJmp:
      case Op::kJmpIfZero:
      case Op::kJmpGeI:
        ++st.jumps;
        break;
      case Op::kMulI:
        ++st.int_muls;
        break;
      case Op::kMov:
        ++st.movs;
        break;
      case Op::kLoadF32: case Op::kLoadI8: case Op::kLoadI32: case Op::kLoadI64:
      case Op::kVLoadF32: case Op::kVLoadI8: case Op::kVLoadI32: case Op::kVLoadI64:
        ++st.loads;
        break;
      case Op::kStoreF32: case Op::kStoreF16: case Op::kStoreI8:
      case Op::kStoreI32: case Op::kStoreI64:
      case Op::kVStoreF32: case Op::kVStoreF16: case Op::kVStoreI8:
      case Op::kVStoreI32: case Op::kVStoreI64:
        ++st.stores;
        break;
      default:
        break;
    }
  }
  st.unrolled_loops = program.spec_unrolled_loops;
  st.hoisted_lets = program.spec_hoisted_lets;
  st.csed_muls = program.spec_csed_muls;
  st.strength_reduced = program.spec_strength_reduced;
  st.peephole_removed = program.spec_peephole_removed;
  return st;
}

// --- fallback diagnostics ----------------------------------------------------------

namespace {

std::atomic<int64_t> g_fallback_count{0};

std::atomic<bool>& StrictSlot() {
  static std::atomic<bool> strict = [] {
    const char* s = std::getenv("TVMCPP_VM_STRICT");
    return s != nullptr && std::string(s) == "1";
  }();
  return strict;
}

}  // namespace

int64_t FallbackCount() { return g_fallback_count.load(std::memory_order_relaxed); }

void ResetFallbackCount() { g_fallback_count.store(0, std::memory_order_relaxed); }

bool StrictMode() { return StrictSlot().load(std::memory_order_relaxed); }

void SetStrictMode(bool strict) {
  StrictSlot().store(strict, std::memory_order_relaxed);
}

void NoteFallback(const std::string& func_name) {
  g_fallback_count.fetch_add(1, std::memory_order_relaxed);
  if (StrictMode()) {
    LOG(FATAL) << "TVMCPP_VM_STRICT: " << func_name
               << " silently fell back down-tier (native or VM compile failed); see "
                  "the preceding log line for the unsupported construct";
  }
}

}  // namespace vm
}  // namespace tvmcpp
