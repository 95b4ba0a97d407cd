// The low-level expression IR of tvm-cpp.
//
// Expressions are immutable trees of shared_ptr<const Node>. This mirrors TVM's TIR
// expression layer: scalar arithmetic, comparisons, vector Ramp/Broadcast, buffer Load,
// intrinsic Call, Let, Select, Cast, and Reduce (used only inside tensor-expression bodies
// before lowering).
#ifndef SRC_IR_EXPR_H_
#define SRC_IR_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/dtype.h"
#include "src/support/logging.h"

namespace tvmcpp {

// Expression node kinds; used for fast switch-based dispatch in visitors.
enum class ExprKind : uint8_t {
  kIntImm,
  kFloatImm,
  kStringImm,
  kVar,
  kCast,
  kAdd,
  kSub,
  kMul,
  kDiv,      // floor division on ints (all loop extents here are non-negative)
  kMod,      // floor modulo on ints
  kMin,
  kMax,
  kEQ,
  kNE,
  kLT,
  kLE,
  kGT,
  kGE,
  kAnd,
  kOr,
  kNot,
  kSelect,
  kLoad,
  kRamp,
  kBroadcast,
  kCall,
  kLet,
  kReduce,
  kTensorRead,
};

class ExprNode {
 public:
  ExprNode(ExprKind kind, DataType dtype) : kind(kind), dtype(dtype) {}
  virtual ~ExprNode() = default;
  const ExprKind kind;
  const DataType dtype;
};

using Expr = std::shared_ptr<const ExprNode>;

// ---------------------------------------------------------------------------
// Leaf nodes
// ---------------------------------------------------------------------------

class IntImmNode : public ExprNode {
 public:
  IntImmNode(DataType t, int64_t value) : ExprNode(ExprKind::kIntImm, t), value(value) {}
  const int64_t value;
};

class FloatImmNode : public ExprNode {
 public:
  FloatImmNode(DataType t, double value) : ExprNode(ExprKind::kFloatImm, t), value(value) {}
  const double value;
};

class StringImmNode : public ExprNode {
 public:
  explicit StringImmNode(std::string value)
      : ExprNode(ExprKind::kStringImm, DataType::Handle()), value(std::move(value)) {}
  const std::string value;
};

// A named variable. Identity is pointer identity (each VarNode is a distinct variable).
class VarNode : public ExprNode {
 public:
  VarNode(std::string name, DataType t)
      : ExprNode(ExprKind::kVar, t), name(std::move(name)) {}
  const std::string name;
};

using Var = std::shared_ptr<const VarNode>;

// ---------------------------------------------------------------------------
// Composite nodes
// ---------------------------------------------------------------------------

class CastNode : public ExprNode {
 public:
  CastNode(DataType t, Expr value)
      : ExprNode(ExprKind::kCast, t), value(std::move(value)) {}
  const Expr value;
};

// Common base for all binary operations (arithmetic and comparisons).
class BinaryNode : public ExprNode {
 public:
  BinaryNode(ExprKind kind, DataType t, Expr a, Expr b)
      : ExprNode(kind, t), a(std::move(a)), b(std::move(b)) {}
  const Expr a;
  const Expr b;
};

class NotNode : public ExprNode {
 public:
  explicit NotNode(Expr a)
      : ExprNode(ExprKind::kNot, DataType::Bool(a->dtype.lanes())), a(std::move(a)) {}
  const Expr a;
};

class SelectNode : public ExprNode {
 public:
  SelectNode(Expr cond, Expr tval, Expr fval)
      : ExprNode(ExprKind::kSelect, tval->dtype),
        condition(std::move(cond)),
        true_value(std::move(tval)),
        false_value(std::move(fval)) {}
  const Expr condition;
  const Expr true_value;
  const Expr false_value;
};

// Load of `dtype` lanes from flat buffer `buffer_var` at `index` (vector index if lanes > 1).
// `predicate` masks lanes; a null predicate means all lanes enabled.
class LoadNode : public ExprNode {
 public:
  LoadNode(DataType t, Var buffer_var, Expr index, Expr predicate)
      : ExprNode(ExprKind::kLoad, t),
        buffer_var(std::move(buffer_var)),
        index(std::move(index)),
        predicate(std::move(predicate)) {}
  const Var buffer_var;
  const Expr index;
  const Expr predicate;  // may be null
};

// Vector [base, base+stride, ..., base+(lanes-1)*stride].
class RampNode : public ExprNode {
 public:
  RampNode(Expr base, Expr stride, int lanes)
      : ExprNode(ExprKind::kRamp, base->dtype.with_lanes(lanes)),
        base(std::move(base)),
        stride(std::move(stride)),
        lanes(lanes) {}
  const Expr base;
  const Expr stride;
  const int lanes;
};

class BroadcastNode : public ExprNode {
 public:
  BroadcastNode(Expr value, int lanes)
      : ExprNode(ExprKind::kBroadcast, value->dtype.with_lanes(lanes)),
        value(std::move(value)),
        lanes(lanes) {}
  const Expr value;
  const int lanes;
};

// Calls: pure math intrinsics (exp/...), hardware intrinsics (Section 4.3 tensorization),
// and runtime helpers. Everything is identified by name.
enum class CallType : uint8_t { kPureIntrinsic, kIntrinsic, kExtern };

class CallNode : public ExprNode {
 public:
  CallNode(DataType t, std::string name, std::vector<Expr> args, CallType call_type)
      : ExprNode(ExprKind::kCall, t),
        name(std::move(name)),
        args(std::move(args)),
        call_type(call_type) {}
  const std::string name;
  const std::vector<Expr> args;
  const CallType call_type;
};

class LetNode : public ExprNode {
 public:
  LetNode(Var var, Expr value, Expr body)
      : ExprNode(ExprKind::kLet, body->dtype),
        var(std::move(var)),
        value(std::move(value)),
        body(std::move(body)) {}
  const Var var;
  const Expr value;
  const Expr body;
};

// ---------------------------------------------------------------------------
// Ranges and iteration variables (shared between te and schedule layers)
// ---------------------------------------------------------------------------

// Half-open range [min, min+extent).
class Range {
 public:
  Range() = default;
  Range(Expr min, Expr extent) : min_(std::move(min)), extent_(std::move(extent)) {}
  const Expr& min() const { return min_; }
  const Expr& extent() const { return extent_; }
  bool defined() const { return min_ != nullptr && extent_ != nullptr; }

 private:
  Expr min_;
  Expr extent_;
};

// Role of an iteration variable in a schedule.
enum class IterVarType : uint8_t {
  kDataPar,       // data parallel axis
  kCommReduce,    // commutative reduction axis
  kThreadIndex,   // bound to a hardware thread index (blockIdx/threadIdx)
  kVirtualThread, // virtual thread for latency hiding (Section 4.4)
  kVectorized,
  kUnrolled,
  kOpaque,
};

class IterVarNode {
 public:
  IterVarNode(Range dom, Var var, IterVarType type, std::string thread_tag)
      : dom(std::move(dom)), var(std::move(var)), type(type), thread_tag(std::move(thread_tag)) {}
  Range dom;
  const Var var;
  IterVarType type;
  const std::string thread_tag;  // e.g. "blockIdx.x", "threadIdx.y"; empty if none
};

using IterVar = std::shared_ptr<IterVarNode>;

// Reduction over `axis` combining `source` with a named commutative reducer.
// Only appears inside tensor-expression bodies; lowering eliminates it. A point of
// the reduction domain where `condition` (optional, TVM's `where=`) is false
// contributes nothing: lowering guards the update with it, never the init.
class ReduceNode : public ExprNode {
 public:
  ReduceNode(std::string op, Expr source, std::vector<IterVar> axis, Expr identity,
             Expr condition = nullptr)
      : ExprNode(ExprKind::kReduce, source->dtype),
        op(std::move(op)),
        source(std::move(source)),
        axis(std::move(axis)),
        identity(std::move(identity)),
        condition(std::move(condition)) {}
  const std::string op;  // "sum", "max", or "min"
  const Expr source;
  const std::vector<IterVar> axis;
  const Expr identity;
  const Expr condition;  // nullptr: every point contributes
};

// Read of element `indices` of output `value_index` of a tensor operation. This node only
// exists before lowering; storage flattening replaces it with a flat Load. The operation is
// stored as an opaque pointer to avoid a dependency cycle (te defines Operation).
class TensorReadNode : public ExprNode {
 public:
  TensorReadNode(DataType t, std::shared_ptr<void> op, int value_index, std::string name,
                 std::vector<Expr> indices)
      : ExprNode(ExprKind::kTensorRead, t),
        op(std::move(op)),
        value_index(value_index),
        name(std::move(name)),
        indices(std::move(indices)) {}
  const std::shared_ptr<void> op;
  const int value_index;
  const std::string name;
  const std::vector<Expr> indices;
};

Expr tensor_read(DataType t, std::shared_ptr<void> op, int value_index, const std::string& name,
                 std::vector<Expr> indices);

// ---------------------------------------------------------------------------
// Constructor helpers
// ---------------------------------------------------------------------------

Expr make_const(DataType t, double value);
Expr make_int(int64_t value);
Expr make_float(double value);
Expr make_zero(DataType t);
Var make_var(const std::string& name, DataType t = DataType::Int32());
IterVar make_itervar(const std::string& name, Expr extent,
                     IterVarType type = IterVarType::kDataPar, const std::string& tag = "");

// Typed binary constructors. These normalize operand dtypes (int literal -> float, etc.)
// but perform no simplification; see Simplify() in simplify.h.
Expr add(Expr a, Expr b);
Expr sub(Expr a, Expr b);
Expr mul(Expr a, Expr b);
Expr div(Expr a, Expr b);
Expr mod(Expr a, Expr b);
Expr min(Expr a, Expr b);
Expr max(Expr a, Expr b);
Expr eq(Expr a, Expr b);
Expr ne(Expr a, Expr b);
Expr lt(Expr a, Expr b);
Expr le(Expr a, Expr b);
Expr gt(Expr a, Expr b);
Expr ge(Expr a, Expr b);
Expr logic_and(Expr a, Expr b);
Expr logic_or(Expr a, Expr b);
Expr logic_not(Expr a);
Expr select(Expr cond, Expr t, Expr f);
Expr cast(DataType t, Expr value);
Expr let(Var v, Expr value, Expr body);
Expr load(DataType t, Var buf, Expr index, Expr predicate = nullptr);
Expr ramp(Expr base, Expr stride, int lanes);
Expr broadcast(Expr value, int lanes);
Expr call_pure(DataType t, const std::string& name, std::vector<Expr> args);
Expr call_intrin(DataType t, const std::string& name, std::vector<Expr> args);
Expr call_extern(DataType t, const std::string& name, std::vector<Expr> args);

// Math intrinsics used by the operator library.
Expr exp(Expr x);
Expr log(Expr x);
Expr sqrt(Expr x);
Expr tanh(Expr x);
Expr sigmoid(Expr x);
Expr popcount(Expr x);
Expr floordiv_expr(Expr a, Expr b);
// Ternary with lazy semantics used for padding (out-of-bounds reads return `f`).
Expr if_then_else(Expr cond, Expr t, Expr f);

// Operator sugar.
inline Expr operator+(const Expr& a, const Expr& b) { return add(a, b); }
inline Expr operator-(const Expr& a, const Expr& b) { return sub(a, b); }
inline Expr operator*(const Expr& a, const Expr& b) { return mul(a, b); }
inline Expr operator/(const Expr& a, const Expr& b) { return div(a, b); }
inline Expr operator%(const Expr& a, const Expr& b) { return mod(a, b); }
inline Expr operator+(const Expr& a, int64_t b) { return add(a, make_int(b)); }
inline Expr operator-(const Expr& a, int64_t b) { return sub(a, make_int(b)); }
inline Expr operator*(const Expr& a, int64_t b) { return mul(a, make_int(b)); }
inline Expr operator/(const Expr& a, int64_t b) { return div(a, make_int(b)); }
inline Expr operator%(const Expr& a, int64_t b) { return mod(a, make_int(b)); }
inline Expr operator+(int64_t a, const Expr& b) { return add(make_int(a), b); }
inline Expr operator*(int64_t a, const Expr& b) { return mul(make_int(a), b); }
inline Expr operator-(int64_t a, const Expr& b) { return sub(make_int(a), b); }

// Pattern helpers.
const IntImmNode* as_int(const Expr& e);
const FloatImmNode* as_float(const Expr& e);
// Returns true and sets *out when `e` is a constant integer.
bool is_const_int(const Expr& e, int64_t* out);
bool is_zero(const Expr& e);
bool is_one(const Expr& e);
// Extracts the constant value of `e`, aborting if it is not an IntImm.
int64_t get_const_int(const Expr& e);

template <typename T>
std::shared_ptr<const T> as(const Expr& e) {
  return std::static_pointer_cast<const T>(e);
}

}  // namespace tvmcpp

#endif  // SRC_IR_EXPR_H_
