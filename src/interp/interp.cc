#include "src/interp/interp.h"

#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ir/functor.h"
#include "src/ir/intrin_table.h"
#include "src/ir/printer.h"
#include "src/ir/simplify.h"
#include "src/support/float16.h"

namespace tvmcpp {

int InterpElementBytes(DataType t) {
  if (t.is_float()) {
    return 4;  // float16 widened to float
  }
  if (t.bits() <= 8) {
    return 1;
  }
  if (t.bits() <= 32) {
    return 4;
  }
  return 8;
}

namespace {

// Scalar runtime value. Every float value is an f32 (src/support/float16.h): Float()
// rounds whatever produced it, and an int promotes as int64 -> double -> f32.
struct Value {
  double f = 0;
  int64_t i = 0;
  bool is_float = false;

  static Value Int(int64_t v) { return Value{0, v, false}; }
  static Value Float(double v) { return Value{RoundF32(v), 0, true}; }
  double AsF() const { return is_float ? f : RoundF32(static_cast<double>(i)); }
  int64_t AsI() const { return is_float ? static_cast<int64_t>(f) : i; }
  bool AsBool() const { return is_float ? f != 0 : i != 0; }
};

struct BufferState {
  void* data = nullptr;
  DataType dtype;
  int64_t num_elements = 0;
  std::vector<char> owned;  // storage for interpreter-allocated buffers
};

class Interp {
 public:
  void Bind(const VarNode* v, Value value) { env_[v] = value; }
  void BindBuffer(const VarNode* v, BufferState state) { buffers_[v] = std::move(state); }

  void Exec(const Stmt& s) {
    if (s == nullptr) {
      return;
    }
    switch (s->kind) {
      case StmtKind::kLetStmt: {
        const auto* n = static_cast<const LetStmtNode*>(s.get());
        env_[n->var.get()] = Eval(n->value);
        Exec(n->body);
        break;
      }
      case StmtKind::kAttrStmt:
        Exec(static_cast<const AttrStmtNode*>(s.get())->body);
        break;
      case StmtKind::kAssert: {
        const auto* n = static_cast<const AssertStmtNode*>(s.get());
        CHECK(Eval(n->condition).AsBool()) << "assert failed: " << n->message;
        Exec(n->body);
        break;
      }
      case StmtKind::kStore: {
        const auto* n = static_cast<const StoreNode*>(s.get());
        int lanes = std::max(n->value->dtype.lanes(), n->index->dtype.lanes());
        if (lanes > 1) {
          // Vector store: per lane, predicate -> index -> value, exactly the scalar
          // evaluation (and trap) order applied lane by lane.
          BufferState& buf = GetBuffer(n->buffer_var.get());
          for (int lane = 0; lane < lanes; ++lane) {
            if (n->predicate != nullptr && !Eval(n->predicate, lane).AsBool()) {
              continue;
            }
            int64_t idx = Eval(n->index, lane).AsI();
            WriteElem(buf, idx, Eval(n->value, lane));
          }
          break;
        }
        if (n->predicate != nullptr && !Eval(n->predicate).AsBool()) {
          break;
        }
        BufferState& buf = GetBuffer(n->buffer_var.get());
        int64_t idx = Eval(n->index).AsI();
        WriteElem(buf, idx, Eval(n->value));
        break;
      }
      case StmtKind::kAllocate: {
        const auto* n = static_cast<const AllocateNode*>(s.get());
        int64_t size = n->dtype.lanes();  // lanes > 1: widened scalar storage
        for (const Expr& e : n->extents) {
          size *= Eval(e).AsI();
        }
        BufferState state;
        state.dtype = n->dtype.element_of();
        state.num_elements = size;
        state.owned.assign(static_cast<size_t>(size * InterpElementBytes(n->dtype)), 0);
        state.data = state.owned.data();
        buffers_[n->buffer_var.get()] = std::move(state);
        Exec(n->body);
        buffers_.erase(n->buffer_var.get());
        break;
      }
      case StmtKind::kFor: {
        const auto* n = static_cast<const ForNode*>(s.get());
        int64_t min_v = Eval(n->min).AsI();
        int64_t extent = Eval(n->extent).AsI();
        for (int64_t v = min_v; v < min_v + extent; ++v) {
          env_[n->loop_var.get()] = Value::Int(v);
          Exec(n->body);
        }
        break;
      }
      case StmtKind::kIfThenElse: {
        const auto* n = static_cast<const IfThenElseNode*>(s.get());
        if (Eval(n->condition).AsBool()) {
          Exec(n->then_case);
        } else if (n->else_case != nullptr) {
          Exec(n->else_case);
        }
        break;
      }
      case StmtKind::kSeq: {
        const auto* n = static_cast<const SeqStmtNode*>(s.get());
        for (const Stmt& st : n->seq) {
          Exec(st);
        }
        break;
      }
      case StmtKind::kEvaluate:
        Eval(static_cast<const EvaluateNode*>(s.get())->value);
        break;
    }
  }

  // Evaluates `e`; for vector expressions `lane` selects the lane (Ramp expands to
  // base + lane*stride, Broadcast ignores the lane, vector loads index per lane).
  // Scalar subexpressions are lane-invariant, so threading `lane` through every
  // recursion gives exact lane-wise reference semantics.
  Value Eval(const Expr& e, int lane = 0) {
    switch (e->kind) {
      case ExprKind::kIntImm:
        return Value::Int(static_cast<const IntImmNode*>(e.get())->value);
      case ExprKind::kFloatImm:
        return Value::Float(static_cast<const FloatImmNode*>(e.get())->value);
      case ExprKind::kStringImm:
        return Value::Int(0);
      case ExprKind::kVar: {
        auto it = env_.find(static_cast<const VarNode*>(e.get()));
        CHECK(it != env_.end()) << "unbound variable "
                                << static_cast<const VarNode*>(e.get())->name;
        return it->second;
      }
      case ExprKind::kRamp: {
        const auto* n = static_cast<const RampNode*>(e.get());
        return Value::Int(Eval(n->base, lane).AsI() +
                          static_cast<int64_t>(lane) * Eval(n->stride, lane).AsI());
      }
      case ExprKind::kBroadcast:
        return Eval(static_cast<const BroadcastNode*>(e.get())->value, lane);
      case ExprKind::kCast: {
        const auto* n = static_cast<const CastNode*>(e.get());
        Value v = Eval(n->value, lane);
        if (n->dtype.is_float()) {
          double d = v.AsF();
          if (n->dtype.bits() == 16) {
            d = static_cast<double>(QuantizeFloat16(static_cast<float>(d)));
          }
          return Value::Float(d);
        }
        int64_t i = v.AsI();
        if (n->dtype.bits() < 64 && !n->dtype.is_handle()) {
          i = WrapInt(i, n->dtype.bits(), n->dtype.is_int());
        }
        return Value::Int(i);
      }
      case ExprKind::kNot:
        return Value::Int(
            Eval(static_cast<const NotNode*>(e.get())->a, lane).AsBool() ? 0 : 1);
      case ExprKind::kSelect: {
        const auto* n = static_cast<const SelectNode*>(e.get());
        return Eval(n->condition, lane).AsBool() ? Eval(n->true_value, lane)
                                                 : Eval(n->false_value, lane);
      }
      case ExprKind::kLoad: {
        const auto* n = static_cast<const LoadNode*>(e.get());
        if (n->predicate != nullptr && !Eval(n->predicate, lane).AsBool()) {
          return n->dtype.is_float() ? Value::Float(0) : Value::Int(0);
        }
        BufferState& buf = GetBuffer(n->buffer_var.get());
        return ReadElem(buf, Eval(n->index, lane).AsI());
      }
      case ExprKind::kLet: {
        const auto* n = static_cast<const LetNode*>(e.get());
        env_[n->var.get()] = Eval(n->value, lane);
        return Eval(n->body, lane);
      }
      case ExprKind::kCall:
        return EvalCall(static_cast<const CallNode*>(e.get()), lane);
      default: {
        const auto* b = dynamic_cast<const BinaryNode*>(e.get());
        CHECK(b != nullptr) << "interpreter cannot evaluate " << ToString(e);
        return EvalBinary(e->kind, Eval(b->a, lane), Eval(b->b, lane), e->dtype);
      }
    }
  }

 private:
  BufferState& GetBuffer(const VarNode* v) {
    auto it = buffers_.find(v);
    CHECK(it != buffers_.end()) << "unbound buffer " << v->name;
    return it->second;
  }

  static Value ReadElem(const BufferState& buf, int64_t idx) {
    CHECK_GE(idx, 0) << "buffer underflow";
    CHECK_LT(idx, buf.num_elements) << "buffer overflow";
    if (buf.dtype.is_float()) {
      return Value::Float(static_cast<const float*>(buf.data)[idx]);
    }
    int bytes = InterpElementBytes(buf.dtype);
    if (bytes == 1) {
      return Value::Int(static_cast<const int8_t*>(buf.data)[idx]);
    }
    if (bytes == 4) {
      return Value::Int(static_cast<const int32_t*>(buf.data)[idx]);
    }
    return Value::Int(static_cast<const int64_t*>(buf.data)[idx]);
  }

  static void WriteElem(BufferState& buf, int64_t idx, const Value& v) {
    CHECK_GE(idx, 0) << "buffer underflow";
    CHECK_LT(idx, buf.num_elements) << "buffer overflow";
    if (buf.dtype.is_float()) {
      float f = static_cast<float>(v.AsF());
      if (buf.dtype.bits() == 16) {
        f = QuantizeFloat16(f);  // round through the half-precision grid
      }
      static_cast<float*>(buf.data)[idx] = f;
      return;
    }
    int bytes = InterpElementBytes(buf.dtype);
    if (bytes == 1) {
      static_cast<int8_t*>(buf.data)[idx] = static_cast<int8_t>(v.AsI());
    } else if (bytes == 4) {
      static_cast<int32_t*>(buf.data)[idx] = static_cast<int32_t>(v.AsI());
    } else {
      static_cast<int64_t*>(buf.data)[idx] = v.AsI();
    }
  }

  static Value EvalBinary(ExprKind kind, const Value& a, const Value& b, DataType t) {
    bool fl = a.is_float || b.is_float;
    switch (kind) {
      case ExprKind::kAdd:
        return fl ? Value::Float(a.AsF() + b.AsF()) : Value::Int(a.i + b.i);
      case ExprKind::kSub:
        return fl ? Value::Float(a.AsF() - b.AsF()) : Value::Int(a.i - b.i);
      case ExprKind::kMul:
        return fl ? Value::Float(a.AsF() * b.AsF()) : Value::Int(a.i * b.i);
      case ExprKind::kDiv:
        return fl ? Value::Float(a.AsF() / b.AsF()) : Value::Int(FloorDiv(a.i, b.i));
      case ExprKind::kMod:
        return Value::Int(FloorMod(a.AsI(), b.AsI()));
      case ExprKind::kMin:
        return fl ? Value::Float(std::min(a.AsF(), b.AsF())) : Value::Int(std::min(a.i, b.i));
      case ExprKind::kMax:
        return fl ? Value::Float(std::max(a.AsF(), b.AsF())) : Value::Int(std::max(a.i, b.i));
      case ExprKind::kEQ:
        return Value::Int(fl ? a.AsF() == b.AsF() : a.i == b.i);
      case ExprKind::kNE:
        return Value::Int(fl ? a.AsF() != b.AsF() : a.i != b.i);
      case ExprKind::kLT:
        return Value::Int(fl ? a.AsF() < b.AsF() : a.i < b.i);
      case ExprKind::kLE:
        return Value::Int(fl ? a.AsF() <= b.AsF() : a.i <= b.i);
      case ExprKind::kGT:
        return Value::Int(fl ? a.AsF() > b.AsF() : a.i > b.i);
      case ExprKind::kGE:
        return Value::Int(fl ? a.AsF() >= b.AsF() : a.i >= b.i);
      case ExprKind::kAnd:
        return Value::Int(a.AsBool() && b.AsBool());
      case ExprKind::kOr:
        return Value::Int(a.AsBool() || b.AsBool());
      default:
        LOG(FATAL) << "bad binary kind";
    }
  }

  Value EvalCall(const CallNode* n, int lane = 0) {
    const std::string& name = n->name;
    if (name == "if_then_else") {
      return Eval(n->args[0], lane).AsBool() ? Eval(n->args[1], lane)
                                             : Eval(n->args[2], lane);
    }
    UnaryMathFn fn;
    if (LookupUnaryMathFn(name, &fn)) {
      return Value::Float(EvalUnaryMathFn(fn, Eval(n->args[0], lane).AsF()));
    }
    if (name == "popcount") {
      return Value::Int(
          __builtin_popcountll(static_cast<uint64_t>(Eval(n->args[0], lane).AsI())));
    }
    if (name == kSyncIntrin || name == kPushDepIntrin || name == kPopDepIntrin) {
      return Value::Int(0);  // synchronization: no-op under serial execution
    }
    if (ExecTensorIntrin(n)) {
      return Value::Int(0);
    }
    LOG(FATAL) << "interpreter: unknown call " << name;
  }

  // Generic tensor-intrinsic execution over the shared name -> category table
  // (src/ir/intrin_table.h; the bytecode VM compiles from the same table).
  bool ExecTensorIntrin(const CallNode* n) {
    const TensorIntrinInfo* info = LookupTensorIntrin(n->name);
    if (info == nullptr) {
      return false;
    }
    using Category = TensorIntrinCategory;
    Category cat = info->category;
    int num_buffers = info->num_buffers;
    int total = static_cast<int>(n->args.size());
    int nt;
    CHECK(DecodeTensorIntrinArity(num_buffers, total, &nt))
        << "bad intrinsic arity for " << n->name;

    struct Access {
      BufferState* buf;
      int64_t base;
      std::vector<int64_t> strides;
    };
    std::vector<Access> acc;
    int pos = 0;
    for (int b = 0; b < num_buffers; ++b) {
      Access a;
      CHECK(n->args[pos]->kind == ExprKind::kVar);
      a.buf = &GetBuffer(static_cast<const VarNode*>(n->args[pos].get()));
      ++pos;
      a.base = Eval(n->args[pos++]).AsI();
      for (int d = 0; d < nt; ++d) {
        a.strides.push_back(Eval(n->args[pos++]).AsI());
      }
      acc.push_back(std::move(a));
    }
    std::vector<int64_t> extents;
    for (int d = 0; d < nt; ++d) {
      extents.push_back(Eval(n->args[pos++]).AsI());
    }
    // Iterate the full tensorized domain.
    std::vector<int64_t> idx(static_cast<size_t>(nt), 0);
    auto offset = [&](const Access& a) {
      int64_t off = a.base;
      for (int d = 0; d < nt; ++d) {
        off += idx[static_cast<size_t>(d)] * a.strides[static_cast<size_t>(d)];
      }
      return off;
    };
    bool done = nt == 0;
    bool ran_scalar = false;
    do {
      switch (cat) {
        case Category::kFill:
          WriteElem(*acc[0].buf, offset(acc[0]),
                    acc[0].buf->dtype.is_float() ? Value::Float(0) : Value::Int(0));
          break;
        case Category::kCopy:
          WriteElem(*acc[0].buf, offset(acc[0]), ReadElem(*acc[1].buf, offset(acc[1])));
          break;
        case Category::kMac: {
          Value out = ReadElem(*acc[0].buf, offset(acc[0]));
          Value a = ReadElem(*acc[1].buf, offset(acc[1]));
          Value b = ReadElem(*acc[2].buf, offset(acc[2]));
          Value r = out.is_float || a.is_float || b.is_float
                        ? Value::Float(out.AsF() + RoundF32(a.AsF() * b.AsF()))
                        : Value::Int(out.i + a.i * b.i);
          WriteElem(*acc[0].buf, offset(acc[0]), r);
          break;
        }
      }
      ran_scalar = true;
      // Advance the multi-index.
      int d = nt - 1;
      while (d >= 0) {
        if (++idx[static_cast<size_t>(d)] < extents[static_cast<size_t>(d)]) {
          break;
        }
        idx[static_cast<size_t>(d)] = 0;
        --d;
      }
      done = d < 0;
    } while (!done);
    (void)ran_scalar;
    return true;
  }

  std::unordered_map<const VarNode*, Value> env_;
  std::unordered_map<const VarNode*, BufferState> buffers_;
};

}  // namespace

void RunLoweredInterp(const LoweredFunc& func, const std::vector<BufferBinding>& args) {
  CHECK_EQ(args.size(), func.args.size()) << "argument count mismatch for " << func.name;
  Stmt body = func.body;
  if (HasThreadIdxBinding(body)) {
    // Cooperative (barrier-synchronized) programs need block-synchronous serialization.
    body = SerializeThreadBlocks(body);
  }
  Interp interp;
  for (size_t i = 0; i < args.size(); ++i) {
    BufferState state;
    state.data = args[i].data;
    state.dtype = args[i].dtype;
    state.num_elements = args[i].num_elements;
    interp.BindBuffer(func.args[i].var.get(), std::move(state));
  }
  interp.Exec(body);
}

}  // namespace tvmcpp
