#include "src/codegen/codegen.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/interp/interp.h"
#include "src/ir/functor.h"
#include "src/ir/intrin_table.h"
#include "src/ir/printer.h"
#include "src/ir/simplify.h"

namespace tvmcpp {
namespace codegen {

namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string HexU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Stands for the kernel's own symbol in the names of its outlined parallel bodies
// until the symbol (a hash of the emitted text) is known. '@' appears nowhere else
// in emitted code: identifiers are positional and CEscape escapes it.
constexpr const char* kSelf = "tn@";

// Size rule for running a kParallel loop on the caller's pool: its static work, the
// constant extent times the constant extents of every loop nested in its body, must
// reach 2^16. A loop VectorizeLoop materialized counts as its lane count. Smaller
// loops (and loops with a symbolic extent) run inline, where chunk dispatch and
// worker wake-up would cost more than they save.
constexpr double kMinParallelWork = 65536;

// Largest constant-size allocation emitted as a stack array instead of calloc.
constexpr int64_t kMaxStackElems = 256;

double StaticWork(const ForNode* loop) {
  auto extent = [](const Expr& e) {
    return e->kind == ExprKind::kIntImm
               ? static_cast<double>(static_cast<const IntImmNode*>(e.get())->value)
               : -1.0;
  };
  double work = extent(loop->extent);
  if (work <= 0) {
    return 0;
  }
  int lanes = 1;
  PostOrderVisitStmt(loop->body, [&](const Stmt& s) {
    if (s->kind == StmtKind::kFor) {
      double e = extent(static_cast<const ForNode*>(s.get())->extent);
      if (e >= 0) {
        work *= e;
      }
    } else if (s->kind == StmtKind::kStore) {
      const auto* n = static_cast<const StoreNode*>(s.get());
      lanes = std::max({lanes, n->value->dtype.lanes(), n->index->dtype.lanes()});
    }
  });
  return work * lanes;
}

std::string CEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '@': out += "\\100"; break;  // keeps kSelf out of string literals
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// C storage type for the interpreter's widened buffer layout (InterpElementBytes).
const char* StorageCType(DataType t) {
  if (t.is_float()) {
    return "float";
  }
  int bytes = InterpElementBytes(t);
  if (bytes == 1) {
    return "int8_t";
  }
  if (bytes == 4) {
    return "int32_t";
  }
  return "int64_t";
}

// A C expression string plus the static value-model type it evaluates to: float
// (is_float) or int64_t. Mirrors the interpreter's Value::is_float flag, which is
// statically determined (same rule the VM's StaticTypeOf uses). Every float value is
// an f32, so float math is plain C `float` arithmetic: for + - * / that gives the
// interpreter's round-once-from-double bits exactly.
struct CV {
  std::string s;
  bool is_float = false;
};

class CEmitter {
 public:
  std::string EmitFunc(const LoweredFunc& func, const Stmt& body) {
    body_.clear();
    indent_ = 1;
    for (size_t i = 0; i < func.args.size(); ++i) {
      const BufferArg& a = func.args[i];
      DataType store = a.dtype.element_of();
      std::string name = "a" + std::to_string(i);
      bufs_[a.var.get()] = BufInfo{name, store};
      arg_bufs_.insert(a.var.get());
      Line(std::string(StorageCType(store)) + "* " + name + " = (" +
           StorageCType(store) + "*)bufs[" + std::to_string(i) + "];");
      Line("(void)" + name + ";");
    }
    EmitStmt(body);
    return body_;
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  // Env structs and static body functions of the outlined parallel loops, which
  // must precede the kernel function.
  const std::string& outlined() const { return outlined_; }

 private:
  struct BufInfo {
    std::string name;
    DataType dtype;  // scalar storage dtype (element_of)
  };
  struct VarInfo {
    std::string name;
    bool is_float = false;
  };

  void Fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      error_ = why;
    }
  }

  void Line(const std::string& s) {
    body_.append(static_cast<size_t>(indent_) * 2, ' ');
    body_ += s;
    body_ += '\n';
  }

  std::string NewTemp() { return "t" + std::to_string(temp_counter_++); }

  // Positional, so kernels that differ only in the names of their graph nodes emit
  // the same text.
  std::string VarName(const VarNode* v) {
    auto it = var_names_.find(v);
    if (it != var_names_.end()) {
      return it->second;
    }
    std::string name = "v" + std::to_string(temp_counter_++);
    var_names_[v] = name;
    return name;
  }

  // --- value-model conversions (interp Value::AsF / AsI / AsBool) ---------------
  // An int promotes as int64 -> double -> f32, never by a direct int64 -> f32 cast.
  static std::string AsF(const CV& v) {
    return v.is_float ? v.s : "(float)(double)" + v.s;
  }
  static std::string AsI(const CV& v) {
    return v.is_float ? "(int64_t)" + v.s : v.s;
  }
  static std::string AsBool(const CV& v) { return "(" + v.s + " != 0)"; }

  // ReadElem: value read as the buffer's storage type; float buffers yield floats.
  CV ReadElem(const BufInfo& buf, const std::string& idx) {
    if (buf.dtype.is_float()) {
      return {buf.name + "[" + idx + "]", true};
    }
    return {"(int64_t)" + buf.name + "[" + idx + "]", false};
  }

  // WriteElem as a statement: float stores round f16 through the RNE grid, int
  // stores truncate float values through int64 first (interp AsI), then narrow.
  void WriteElem(const BufInfo& buf, const std::string& idx, const CV& val) {
    if (buf.dtype.is_float()) {
      std::string f = AsF(val);
      if (buf.dtype.bits() == 16) {
        f = "tn_qf16(" + f + ")";
      }
      Line(buf.name + "[" + idx + "] = " + f + ";");
      return;
    }
    Line(buf.name + "[" + idx + "] = (" + std::string(StorageCType(buf.dtype)) +
         ")(" + AsI(val) + ");");
  }

  CV EmitImmInt(int64_t v) {
    if (v == INT64_MIN) {
      return {"(-INT64_C(9223372036854775807) - 1)", false};
    }
    return {"INT64_C(" + std::to_string(v) + ")", false};
  }

  CV EmitImmFloat(double v) {
    float f = static_cast<float>(v);  // a float immediate is an f32 value
    if (f != f) {
      return {"(0.0f / 0.0f)", true};  // NaN
    }
    if (std::isinf(f)) {
      return {f > 0 ? "(1.0f / 0.0f)" : "(-1.0f / 0.0f)", true};
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%af", static_cast<double>(f));  // exact hexfloat
    return {std::string(buf), true};
  }

  // Evaluates `e` at the current lane context (lane_: "0" in scalar context, the
  // per-lane loop variable inside vector stores). Mirrors Interp::Eval(e, lane).
  CV EmitExpr(const Expr& e) {
    if (!ok_) {
      return {"0", false};
    }
    switch (e->kind) {
      case ExprKind::kIntImm:
        return EmitImmInt(static_cast<const IntImmNode*>(e.get())->value);
      case ExprKind::kFloatImm:
        return EmitImmFloat(static_cast<const FloatImmNode*>(e.get())->value);
      case ExprKind::kStringImm:
        return {"INT64_C(0)", false};
      case ExprKind::kVar: {
        const auto* v = static_cast<const VarNode*>(e.get());
        auto it = env_.find(v);
        if (it == env_.end()) {
          Fail("unbound variable " + v->name);
          return {"0", false};
        }
        return {it->second.name, it->second.is_float};
      }
      case ExprKind::kRamp: {
        const auto* n = static_cast<const RampNode*>(e.get());
        CV base = EmitExpr(n->base);
        CV stride = EmitExpr(n->stride);
        return {"(" + AsI(base) + " + (int64_t)" + lane_ + " * " + AsI(stride) + ")",
                false};
      }
      case ExprKind::kBroadcast:
        return EmitExpr(static_cast<const BroadcastNode*>(e.get())->value);
      case ExprKind::kCast:
        return EmitCast(static_cast<const CastNode*>(e.get()));
      case ExprKind::kNot: {
        CV a = EmitExpr(static_cast<const NotNode*>(e.get())->a);
        return {"(int64_t)(" + AsBool(a) + " ? 0 : 1)", false};
      }
      case ExprKind::kSelect: {
        const auto* n = static_cast<const SelectNode*>(e.get());
        return EmitConditional(n->condition, n->true_value, n->false_value);
      }
      case ExprKind::kLoad:
        return EmitLoad(static_cast<const LoadNode*>(e.get()));
      case ExprKind::kLet: {
        const auto* n = static_cast<const LetNode*>(e.get());
        CV val = EmitExpr(n->value);
        std::string name = VarName(n->var.get());
        auto saved = SaveVar(n->var.get());
        env_[n->var.get()] = VarInfo{name, val.is_float};
        CV body = EmitExpr(n->body);
        RestoreVar(n->var.get(), saved);
        std::string type = val.is_float ? "float" : "int64_t";
        return {"({ " + type + " " + name + " = " + val.s + "; " + body.s + "; })",
                body.is_float};
      }
      case ExprKind::kCall:
        return EmitCall(static_cast<const CallNode*>(e.get()));
      default: {
        const auto* b = dynamic_cast<const BinaryNode*>(e.get());
        if (b == nullptr) {
          Fail("codegen cannot evaluate " + ToString(e));
          return {"0", false};
        }
        return EmitBinary(e->kind, EmitExpr(b->a), EmitExpr(b->b));
      }
    }
  }

  CV EmitCast(const CastNode* n) {
    CV v = EmitExpr(n->value);
    if (n->dtype.is_float()) {
      if (n->dtype.bits() == 16) {
        return {"tn_qf16(" + AsF(v) + ")", true};
      }
      return {"(" + AsF(v) + ")", true};
    }
    std::string i = AsI(v);
    if (n->dtype.bits() < 64 && !n->dtype.is_handle()) {
      return {"tn_wrap(" + i + ", " + std::to_string(n->dtype.bits()) + ", " +
                  (n->dtype.is_int() ? "1" : "0") + ")",
              false};
    }
    return {"(" + i + ")", false};
  }

  // Select and if_then_else: lazy branch evaluation via the C conditional operator.
  // Mixed int/float arms promote to float, matching the VM's static unification
  // (StaticTypeOf(t) || StaticTypeOf(f)).
  CV EmitConditional(const Expr& cond, const Expr& tval, const Expr& fval) {
    CV c = EmitExpr(cond);
    CV t = EmitExpr(tval);
    CV f = EmitExpr(fval);
    bool fl = t.is_float || f.is_float;
    std::string ts = fl ? AsF(t) : t.s;
    std::string fs = fl ? AsF(f) : f.s;
    return {"(" + AsBool(c) + " ? " + ts + " : " + fs + ")", fl};
  }

  CV EmitLoad(const LoadNode* n) {
    auto it = bufs_.find(n->buffer_var.get());
    if (it == bufs_.end()) {
      Fail("unbound buffer " + n->buffer_var->name);
      return {"0", false};
    }
    const BufInfo& buf = it->second;
    if (n->dtype.is_float() != buf.dtype.is_float()) {
      // Same restriction as the VM compiler; keeps the static float/int model exact.
      Fail("load type mismatch on " + n->buffer_var->name);
      return {"0", false};
    }
    if (n->predicate != nullptr) {
      // Masked lanes yield a typed zero without evaluating the index (interp order:
      // predicate first, index only when live).
      CV p = EmitExpr(n->predicate);
      CV idx = EmitExpr(n->index);
      CV read = ReadElem(buf, AsI(idx));
      std::string zero = n->dtype.is_float() ? "0.0f" : "INT64_C(0)";
      return {"(" + AsBool(p) + " ? " + read.s + " : " + zero + ")",
              buf.dtype.is_float()};
    }
    CV idx = EmitExpr(n->index);
    return ReadElem(buf, AsI(idx));
  }

  CV EmitBinary(ExprKind kind, const CV& a, const CV& b) {
    bool fl = a.is_float || b.is_float;
    auto arith = [&](const char* op) -> CV {
      if (fl) {
        return {"(" + AsF(a) + " " + op + " " + AsF(b) + ")", true};
      }
      return {"(" + a.s + " " + op + " " + b.s + ")", false};
    };
    auto cmp = [&](const char* op) -> CV {
      if (fl) {
        return {"(int64_t)(" + AsF(a) + " " + op + " " + AsF(b) + ")", false};
      }
      return {"(int64_t)(" + a.s + " " + op + " " + b.s + ")", false};
    };
    switch (kind) {
      case ExprKind::kAdd:
        return arith("+");
      case ExprKind::kSub:
        return arith("-");
      case ExprKind::kMul:
        return arith("*");
      case ExprKind::kDiv:
        if (fl) {
          return {"(" + AsF(a) + " / " + AsF(b) + ")", true};
        }
        return {"tn_floordiv(" + a.s + ", " + b.s + ")", false};
      case ExprKind::kMod:
        return {"tn_floormod(" + AsI(a) + ", " + AsI(b) + ")", false};
      case ExprKind::kMin:
        if (fl) {
          return {"tn_fminf(" + AsF(a) + ", " + AsF(b) + ")", true};
        }
        return {"tn_imin(" + a.s + ", " + b.s + ")", false};
      case ExprKind::kMax:
        if (fl) {
          return {"tn_fmaxf(" + AsF(a) + ", " + AsF(b) + ")", true};
        }
        return {"tn_imax(" + a.s + ", " + b.s + ")", false};
      case ExprKind::kEQ:
        return cmp("==");
      case ExprKind::kNE:
        return cmp("!=");
      case ExprKind::kLT:
        return cmp("<");
      case ExprKind::kLE:
        return cmp("<=");
      case ExprKind::kGT:
        return cmp(">");
      case ExprKind::kGE:
        return cmp(">=");
      case ExprKind::kAnd:
        // C && short-circuits where the interpreter evaluates both operands; the
        // operands are pure and non-trapping in valid programs, so evaluating
        // fewer of them cannot change any observable result.
        return {"(int64_t)(" + AsBool(a) + " && " + AsBool(b) + ")", false};
      case ExprKind::kOr:
        return {"(int64_t)(" + AsBool(a) + " || " + AsBool(b) + ")", false};
      default:
        Fail("bad binary kind");
        return {"0", false};
    }
  }

  CV EmitCall(const CallNode* n) {
    const std::string& name = n->name;
    if (name == "if_then_else") {
      return EmitConditional(n->args[0], n->args[1], n->args[2]);
    }
    UnaryMathFn fn;
    if (LookupUnaryMathFn(name, &fn)) {
      CV x = EmitExpr(n->args[0]);
      const char* cfn = nullptr;
      switch (fn) {
        case UnaryMathFn::kExp: cfn = "exp"; break;
        case UnaryMathFn::kLog: cfn = "log"; break;
        case UnaryMathFn::kSqrt: cfn = "sqrt"; break;
        case UnaryMathFn::kTanh: cfn = "tanh"; break;
        case UnaryMathFn::kSigmoid: cfn = "tn_sigmoid"; break;
      }
      // glibc's double function, rounded to f32 (interp EvalUnaryMathFn).
      return {"(float)" + std::string(cfn) + "((double)" + AsF(x) + ")", true};
    }
    if (name == "popcount") {
      CV x = EmitExpr(n->args[0]);
      return {"(int64_t)__builtin_popcountll((uint64_t)(" + AsI(x) + "))", false};
    }
    if (name == kSyncIntrin || name == kPushDepIntrin || name == kPopDepIntrin) {
      return {"INT64_C(0)", false};  // synchronization: no-op under serial execution
    }
    if (LookupTensorIntrin(name) != nullptr) {
      Fail("tensor intrinsic " + name + " outside statement position");
      return {"0", false};
    }
    Fail("unknown call " + name);
    return {"0", false};
  }

  // --- statements -----------------------------------------------------------------

  void EmitStmt(const Stmt& s) {
    if (s == nullptr || !ok_) {
      return;
    }
    switch (s->kind) {
      case StmtKind::kLetStmt: {
        const auto* n = static_cast<const LetStmtNode*>(s.get());
        CV val = EmitExpr(n->value);
        std::string name = VarName(n->var.get());
        Line("{");
        ++indent_;
        Line(std::string(val.is_float ? "float" : "int64_t") + " " + name + " = " +
             val.s + ";");
        auto saved = SaveVar(n->var.get());
        env_[n->var.get()] = VarInfo{name, val.is_float};
        EmitStmt(n->body);
        RestoreVar(n->var.get(), saved);
        --indent_;
        Line("}");
        break;
      }
      case StmtKind::kAttrStmt:
        EmitStmt(static_cast<const AttrStmtNode*>(s.get())->body);
        break;
      case StmtKind::kAssert: {
        const auto* n = static_cast<const AssertStmtNode*>(s.get());
        CV c = EmitExpr(n->condition);
        Line("if (!" + AsBool(c) + ") tn_assert_fail(\"assert failed: " +
             CEscape(n->message) + "\");");
        EmitStmt(n->body);
        break;
      }
      case StmtKind::kStore:
        EmitStore(static_cast<const StoreNode*>(s.get()));
        break;
      case StmtKind::kAllocate:
        EmitAllocate(static_cast<const AllocateNode*>(s.get()));
        break;
      case StmtKind::kFor: {
        const auto* n = static_cast<const ForNode*>(s.get());
        if (n->for_type == ForType::kParallel && !in_parallel_ &&
            StaticWork(n) >= kMinParallelWork && !ParallelHazard(n, arg_bufs_)) {
          EmitParallelFor(n);
        } else {
          EmitSerialFor(n);
        }
        break;
      }
      case StmtKind::kIfThenElse: {
        const auto* n = static_cast<const IfThenElseNode*>(s.get());
        CV c = EmitExpr(n->condition);
        Line("if " + AsBool(c) + " {");
        ++indent_;
        EmitStmt(n->then_case);
        --indent_;
        if (n->else_case != nullptr) {
          Line("} else {");
          ++indent_;
          EmitStmt(n->else_case);
          --indent_;
        }
        Line("}");
        break;
      }
      case StmtKind::kSeq: {
        const auto* n = static_cast<const SeqStmtNode*>(s.get());
        for (const Stmt& st : n->seq) {
          EmitStmt(st);
        }
        break;
      }
      case StmtKind::kEvaluate:
        EmitEvaluate(static_cast<const EvaluateNode*>(s.get())->value);
        break;
    }
  }

  // Every other loop runs serially, like the interpreter: kParallel loops that are
  // small, hazardous or nested in an outlined one, kVThread/kThreadBinding loops
  // (data-parallel by construction), and any kVectorized loop the VectorizeLoop
  // pass could not prove.
  void EmitSerialFor(const ForNode* n) {
    CV min_v = EmitExpr(n->min);
    CV ext = EmitExpr(n->extent);
    std::string tmin = NewTemp();
    std::string text = NewTemp();
    std::string lv = VarName(n->loop_var.get());
    Line("{");
    ++indent_;
    Line("int64_t " + tmin + " = " + AsI(min_v) + ";");
    Line("int64_t " + text + " = " + AsI(ext) + ";");
    const IntImmNode* unroll = as_int(n->extent);
    if (n->for_type == ForType::kUnrolled && unroll != nullptr && unroll->value > 1) {
      Line("#pragma GCC unroll " + std::to_string(unroll->value));
    }
    Line("for (int64_t " + lv + " = " + tmin + "; " + lv + " < " + tmin + " + " + text +
         "; ++" + lv + ") {");
    ++indent_;
    auto saved = SaveVar(n->loop_var.get());
    env_[n->loop_var.get()] = VarInfo{lv, false};
    EmitStmt(n->body);
    RestoreVar(n->loop_var.get(), saved);
    --indent_;
    Line("}");
    --indent_;
    Line("}");
  }

  // An outermost parallel loop that passed the size and hazard rules: its body is
  // outlined into `static void <kSelf>_pN(void* env, int64_t begin, int64_t end)`
  // over a struct that captures every variable and buffer in scope by value, and
  // the kernel hands it to tn_parallel, which chunks [min, min + extent) on the
  // host's pool. Body-local allocations stay chunk-private, as on the VM.
  void EmitParallelFor(const ForNode* n) {
    CV min_v = EmitExpr(n->min);
    CV ext = EmitExpr(n->extent);
    std::string id = std::to_string(num_outlined_++);
    std::string env_type = std::string("struct ") + kSelf + "_e" + id;
    std::string body_fn = std::string(kSelf) + "_p" + id;
    // (C name, C type), sorted so the text and its content-addressed symbol do not
    // depend on hash-map order.
    std::vector<std::pair<std::string, std::string>> captures;
    for (const auto& [var, info] : env_) {
      captures.emplace_back(info.name, info.is_float ? "float" : "int64_t");
    }
    for (const auto& [var, buf] : bufs_) {
      captures.emplace_back(buf.name, std::string(StorageCType(buf.dtype)) + "*");
    }
    std::sort(captures.begin(), captures.end());

    std::string caller_body = std::move(body_);
    int caller_indent = indent_;
    body_.clear();
    indent_ = 1;
    Line(env_type + "* tn_env = (" + env_type + "*)tn_envp;");
    for (const auto& [name, type] : captures) {
      Line(type + " " + name + " = tn_env->" + name + ";");
      Line("(void)" + name + ";");
    }
    std::string lv = VarName(n->loop_var.get());
    Line("for (int64_t " + lv + " = tn_begin; " + lv + " < tn_end; ++" + lv + ") {");
    ++indent_;
    auto saved = SaveVar(n->loop_var.get());
    env_[n->loop_var.get()] = VarInfo{lv, false};
    in_parallel_ = true;
    EmitStmt(n->body);
    in_parallel_ = false;
    RestoreVar(n->loop_var.get(), saved);
    --indent_;
    Line("}");
    std::string fields;
    std::string init;
    for (const auto& [name, type] : captures) {
      fields += "  " + type + " " + name + ";\n";
      init += (init.empty() ? "." : ", .") + name + " = " + name;
    }
    outlined_ += env_type + " {\n" + fields + "};\n" + "static void " + body_fn +
                 "(void* tn_envp, int64_t tn_begin, int64_t tn_end) {\n" + body_ +
                 "}\n\n";
    body_ = std::move(caller_body);
    indent_ = caller_indent;

    std::string tmin = NewTemp();
    std::string text = NewTemp();
    std::string tenv = NewTemp();
    Line("{");
    ++indent_;
    Line("int64_t " + tmin + " = " + AsI(min_v) + ";");
    Line("int64_t " + text + " = " + AsI(ext) + ";");
    Line(env_type + " " + tenv + " = {" + init + "};");
    Line("tn_parallel(par, " + body_fn + ", &" + tenv + ", " + tmin + ", " + tmin +
         " + " + text + ");");
    --indent_;
    Line("}");
  }

  void EmitStore(const StoreNode* n) {
    auto it = bufs_.find(n->buffer_var.get());
    if (it == bufs_.end()) {
      Fail("unbound buffer " + n->buffer_var->name);
      return;
    }
    const BufInfo& buf = it->second;
    if (n->value->dtype.is_float() != buf.dtype.is_float()) {
      Fail("store type mismatch on " + n->buffer_var->name);
      return;
    }
    int lanes = std::max(n->value->dtype.lanes(), n->index->dtype.lanes());
    if (lanes > 1) {
      // Vector store: per lane, predicate -> index -> value, exactly the scalar
      // order applied lane by lane (interp reference semantics).
      std::string lv = "l" + std::to_string(temp_counter_++);
      Line("for (int64_t " + lv + " = 0; " + lv + " < " + std::to_string(lanes) +
           "; ++" + lv + ") {");
      ++indent_;
      std::string saved_lane = lane_;
      lane_ = lv;
      int close_braces = 1;
      if (n->predicate != nullptr) {
        CV p = EmitExpr(n->predicate);
        Line("if " + AsBool(p) + " {");
        ++indent_;
        ++close_braces;
      }
      CV idx = EmitExpr(n->index);
      std::string ti = NewTemp();
      Line("int64_t " + ti + " = " + AsI(idx) + ";");
      WriteElem(buf, ti, EmitExpr(n->value));
      lane_ = saved_lane;
      for (int i = 0; i < close_braces; ++i) {
        --indent_;
        Line("}");
      }
      return;
    }
    int close_braces = 1;
    Line("{");
    ++indent_;
    if (n->predicate != nullptr) {
      CV p = EmitExpr(n->predicate);
      Line("if " + AsBool(p) + " {");
      ++indent_;
      ++close_braces;
    }
    CV idx = EmitExpr(n->index);
    std::string ti = NewTemp();
    Line("int64_t " + ti + " = " + AsI(idx) + ";");
    WriteElem(buf, ti, EmitExpr(n->value));
    for (int i = 0; i < close_braces; ++i) {
      --indent_;
      Line("}");
    }
  }

  // lanes > 1 allocates widened scalar storage, exactly like the interpreter, and the
  // storage is zeroed like the interpreter's. A constant size of at most
  // kMaxStackElems elements (the conv template's accumulator tile) is a zeroed
  // block-scoped array the compiler can keep in registers; a larger or symbolic size
  // is calloc'd and freed.
  void EmitAllocate(const AllocateNode* n) {
    DataType store = n->dtype.element_of();
    const std::string ctype = StorageCType(store);
    std::string name = VarName(n->buffer_var.get());
    int64_t elems = n->dtype.lanes();
    for (const Expr& e : n->extents) {
      const IntImmNode* c = as_int(e);
      bool small = c != nullptr && c->value > 0 && c->value <= kMaxStackElems;
      elems = small && elems <= kMaxStackElems ? elems * c->value : kMaxStackElems + 1;
    }
    const bool on_stack = elems <= kMaxStackElems;
    Line("{");
    ++indent_;
    if (on_stack) {
      Line(ctype + " " + name + "[" + std::to_string(elems) + "] = {0};");
    } else {
      std::string sz = NewTemp();
      Line("int64_t " + sz + " = " + std::to_string(n->dtype.lanes()) + ";");
      for (const Expr& e : n->extents) {
        CV v = EmitExpr(e);
        Line(sz + " *= " + AsI(v) + ";");
      }
      Line(ctype + "* " + name + " = (" + ctype + "*)calloc((size_t)" + sz + ", sizeof(" +
           ctype + "));");
    }
    bool had = bufs_.count(n->buffer_var.get()) > 0;
    BufInfo saved_buf = had ? bufs_[n->buffer_var.get()] : BufInfo{};
    bufs_[n->buffer_var.get()] = BufInfo{name, store};
    EmitStmt(n->body);
    if (had) {
      bufs_[n->buffer_var.get()] = saved_buf;
    } else {
      bufs_.erase(n->buffer_var.get());
    }
    if (!on_stack) {
      Line("free(" + name + ");");
    }
    --indent_;
    Line("}");
  }

  void EmitEvaluate(const Expr& e) {
    if (e->kind == ExprKind::kCall) {
      const auto* call = static_cast<const CallNode*>(e.get());
      if (call->name == kSyncIntrin || call->name == kPushDepIntrin ||
          call->name == kPopDepIntrin) {
        return;  // synchronization: no-op under serial execution
      }
      if (LookupTensorIntrin(call->name) != nullptr) {
        EmitTensorIntrin(call);
        return;
      }
    }
    CV v = EmitExpr(e);
    Line("(void)(" + v.s + ");");
  }

  // Generic strided-loop execution of a tensor intrinsic over the shared
  // name -> category table, mirroring Interp::ExecTensorIntrin.
  void EmitTensorIntrin(const CallNode* n) {
    const TensorIntrinInfo* info = LookupTensorIntrin(n->name);
    int num_buffers = info->num_buffers;
    int total = static_cast<int>(n->args.size());
    int nt;
    if (!DecodeTensorIntrinArity(num_buffers, total, &nt)) {
      Fail("bad intrinsic arity for " + n->name);
      return;
    }
    struct Access {
      const BufInfo* buf;
      std::string base;
      std::vector<std::string> strides;
    };
    Line("{");
    ++indent_;
    std::vector<Access> acc;
    int pos = 0;
    for (int b = 0; b < num_buffers; ++b) {
      Access a;
      if (n->args[static_cast<size_t>(pos)]->kind != ExprKind::kVar) {
        Fail("tensor intrinsic expects a buffer handle");
        --indent_;
        Line("}");
        return;
      }
      const auto* v =
          static_cast<const VarNode*>(n->args[static_cast<size_t>(pos)].get());
      auto it = bufs_.find(v);
      if (it == bufs_.end()) {
        Fail("unbound buffer " + v->name);
        --indent_;
        Line("}");
        return;
      }
      a.buf = &it->second;
      ++pos;
      a.base = NewTemp();
      Line("int64_t " + a.base + " = " + AsI(EmitExpr(n->args[static_cast<size_t>(pos++)])) + ";");
      for (int d = 0; d < nt; ++d) {
        std::string st = NewTemp();
        Line("int64_t " + st + " = " + AsI(EmitExpr(n->args[static_cast<size_t>(pos++)])) + ";");
        a.strides.push_back(st);
      }
      acc.push_back(std::move(a));
    }
    std::vector<std::string> extents;
    for (int d = 0; d < nt; ++d) {
      std::string ex = NewTemp();
      Line("int64_t " + ex + " = " + AsI(EmitExpr(n->args[static_cast<size_t>(pos++)])) + ";");
      extents.push_back(ex);
    }
    std::vector<std::string> ivs;
    for (int d = 0; d < nt; ++d) {
      std::string iv = "i" + std::to_string(temp_counter_++);
      Line("for (int64_t " + iv + " = 0; " + iv + " < " + extents[static_cast<size_t>(d)] +
           "; ++" + iv + ") {");
      ++indent_;
      ivs.push_back(iv);
    }
    auto offset = [&](const Access& a) {
      std::string off = a.base;
      for (int d = 0; d < nt; ++d) {
        off += " + " + ivs[static_cast<size_t>(d)] + " * " + a.strides[static_cast<size_t>(d)];
      }
      return "(" + off + ")";
    };
    using Category = TensorIntrinCategory;
    switch (info->category) {
      case Category::kFill: {
        CV zero = acc[0].buf->dtype.is_float() ? CV{"0.0f", true} : CV{"INT64_C(0)", false};
        WriteElem(*acc[0].buf, offset(acc[0]), zero);
        break;
      }
      case Category::kCopy:
        WriteElem(*acc[0].buf, offset(acc[0]), ReadElem(*acc[1].buf, offset(acc[1])));
        break;
      case Category::kMac: {
        CV out = ReadElem(*acc[0].buf, offset(acc[0]));
        CV a = ReadElem(*acc[1].buf, offset(acc[1]));
        CV b = ReadElem(*acc[2].buf, offset(acc[2]));
        bool fl = out.is_float || a.is_float || b.is_float;
        CV r;
        if (fl) {
          // f32 product, then f32 sum: -ffp-contract=off keeps them two roundings.
          r = {"(" + AsF(out) + " + " + AsF(a) + " * " + AsF(b) + ")", true};
        } else {
          r = {"(" + out.s + " + " + a.s + " * " + b.s + ")", false};
        }
        WriteElem(*acc[0].buf, offset(acc[0]), r);
        break;
      }
    }
    for (int d = 0; d < nt; ++d) {
      --indent_;
      Line("}");
    }
    --indent_;
    Line("}");
  }

  // --- scoped binding helpers -------------------------------------------------------
  std::pair<bool, VarInfo> SaveVar(const VarNode* v) {
    auto it = env_.find(v);
    if (it == env_.end()) {
      return {false, VarInfo{}};
    }
    return {true, it->second};
  }
  void RestoreVar(const VarNode* v, const std::pair<bool, VarInfo>& saved) {
    if (saved.first) {
      env_[v] = saved.second;
    } else {
      env_.erase(v);
    }
  }

  bool ok_ = true;
  std::string error_;
  std::string body_;
  std::string outlined_;
  int num_outlined_ = 0;
  bool in_parallel_ = false;
  std::unordered_set<const VarNode*> arg_bufs_;
  int indent_ = 1;
  int temp_counter_ = 0;
  std::string lane_ = "0";
  std::unordered_map<const VarNode*, VarInfo> env_;
  std::unordered_map<const VarNode*, BufInfo> bufs_;
  std::unordered_map<const VarNode*, std::string> var_names_;
};

}  // namespace

const std::string& Preamble() {
  static const std::string preamble = R"PRE(#include <stdint.h>
#include <stdlib.h>
#include <stdio.h>
#include <math.h>

/* Value-model helpers mirroring the reference interpreter (src/interp) bit for bit. */

static inline int64_t tn_floordiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

static inline int64_t tn_floormod(int64_t a, int64_t b) {
  return a - tn_floordiv(a, b) * b;
}

/* Narrow-cast wrap: ((i mod 2^bits) + 2^bits) mod 2^bits, re-signed for int types. */
static inline int64_t tn_wrap(int64_t i, int bits, int sgn) {
  int64_t mod = (int64_t)1 << bits;
  i = ((i % mod) + mod) % mod;
  if (sgn && i >= (mod >> 1)) i -= mod;
  return i;
}

/* std::min / std::max semantics: min(a,b) = b<a ? b : a; max(a,b) = a<b ? b : a. */
static inline float tn_fminf(float a, float b) { return b < a ? b : a; }
static inline float tn_fmaxf(float a, float b) { return a < b ? b : a; }
static inline int64_t tn_imin(int64_t a, int64_t b) { return b < a ? b : a; }
static inline int64_t tn_imax(int64_t a, int64_t b) { return a < b ? b : a; }

static inline double tn_sigmoid(double x) { return 1.0 / (1.0 + exp(-x)); }

/* IEEE binary16 round-to-nearest-even, a C port of src/support/float16.h. Union
   type punning is well-defined in C11 (unlike C++), so no memcpy is needed. */
static inline uint16_t tn_f32_to_h(float value) {
  union { float f; uint32_t u; } cv;
  cv.f = value;
  uint32_t f = cv.u;
  uint16_t sign = (uint16_t)((f >> 16) & 0x8000u);
  uint32_t exp = (f >> 23) & 0xffu;
  uint32_t mant = f & 0x7fffffu;
  if (exp == 0xffu) {
    if (mant == 0) return (uint16_t)(sign | 0x7c00u);
    return (uint16_t)(sign | 0x7c00u | 0x200u | (mant >> 13));
  }
  int e = (int)exp - 127 + 15;
  if (e >= 0x1f) return (uint16_t)(sign | 0x7c00u);
  if (e <= 0) {
    if (e < -10) return sign;
    mant |= 0x800000u;
    uint32_t shift = (uint32_t)(14 - e);
    uint32_t half_mant = mant >> shift;
    uint32_t rem = mant & ((1u << shift) - 1u);
    uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) ++half_mant;
    return (uint16_t)(sign | half_mant);
  }
  uint16_t bits = (uint16_t)(sign | ((uint32_t)e << 10) | (mant >> 13));
  uint32_t rem = mant & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (bits & 1u))) ++bits;
  return bits;
}

static inline float tn_h_to_f32(uint16_t h) {
  uint32_t sign = (uint32_t)(h & 0x8000u) << 16;
  uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;
  uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;
    } else {
      int e = 0;
      uint32_t m = mant;
      while (!(m & 0x400u)) {
        m <<= 1;
        ++e;
      }
      f = sign | ((uint32_t)(127 - 15 + 1 - e) << 23) | ((m & 0x3ffu) << 13);
    }
  } else if (exp == 0x1fu) {
    f = sign | 0x7f800000u | (mant << 13);
  } else {
    f = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  union { uint32_t u; float f; } cv;
  cv.u = f;
  return cv.f;
}

static inline float tn_qf16(float v) { return tn_h_to_f32(tn_f32_to_h(v)); }

/* Parallel-launch ABI (ParallelLauncher in src/codegen/native.h). An outlined
   kParallel loop body runs as body(env, b, e) over chunks [b, e) of its range on
   the host's pool, or over the whole range on this thread without a launcher. */
typedef void (*tn_body_fn)(void* env, int64_t begin, int64_t end);
typedef struct tn_launcher {
  void (*launch)(const struct tn_launcher* self, tn_body_fn body, void* env,
                 int64_t begin, int64_t end);
  const void* exec;
} tn_launcher;

static inline void tn_parallel(const tn_launcher* par, tn_body_fn body, void* env,
                               int64_t begin, int64_t end) {
  if (par != NULL) {
    par->launch(par, body, env, begin, end);
  } else {
    body(env, begin, end);
  }
}

static void tn_assert_fail(const char* msg) {
  fprintf(stderr, "%s\n", msg);
  abort();
}

)PRE";
  return preamble;
}

CSource EmitC(const LoweredFunc& func) {
  CSource src;
  Stmt body = func.body;
  if (body == nullptr) {
    src.error = "null body";
    return src;
  }
  // The VM's preprocessing pipeline (CompileToProgram) minus SpecializeLoops: each
  // pass is bitwise-neutral, so the three tiers execute the same program, and the
  // unrolling and hoisting SpecializeLoops does for the VM `cc -O2` does here.
  body = Simplify(PrepareHostBody(body));

  CEmitter emitter;
  std::string fn_body = emitter.EmitFunc(func, body);
  if (!emitter.ok()) {
    src.error = emitter.error();
    return src;
  }
  // Content-addressed symbol: a hash of the emitted text alone, so workload-identical
  // kernels share one symbol and dedupe inside a module and across cache entries.
  std::string text = emitter.outlined() + "void " + kSelf +
                     "(void** bufs, const tn_launcher* par) {\n" + fn_body + "}\n";
  src.symbol = "tn_" + HexU64(Fnv1a(text));
  for (size_t pos = text.find(kSelf); pos != std::string::npos;
       pos = text.find(kSelf, pos + src.symbol.size())) {
    text.replace(pos, std::string(kSelf).size(), src.symbol);
  }
  src.code = std::move(text);
  src.ok = true;
  return src;
}

}  // namespace codegen
}  // namespace tvmcpp
