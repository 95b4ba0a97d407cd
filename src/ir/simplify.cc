#include "src/ir/simplify.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/ir/functor.h"
#include "src/ir/substitute.h"
#include "src/support/float16.h"

namespace tvmcpp {

int64_t FloorDiv(int64_t a, int64_t b) {
  CHECK_NE(b, 0) << "division by zero";
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) {
    --q;
  }
  return q;
}

int64_t FloorMod(int64_t a, int64_t b) { return a - FloorDiv(a, b) * b; }

void Analyzer::Bind(const VarNode* v, int64_t min_value, int64_t max_value) {
  bounds_[v] = ConstBound{min_value, max_value};
}

void Analyzer::Bind(const VarNode* v, const Range& r) {
  Expr mn = Simplify(r.min());
  Expr ext = Simplify(r.extent());
  int64_t mn_v, ext_v;
  if (is_const_int(mn, &mn_v) && is_const_int(ext, &ext_v)) {
    Bind(v, mn_v, mn_v + ext_v - 1);
  } else {
    // Unknown range: leave unbound (conservative).
    bounds_.erase(v);
  }
}

void Analyzer::Unbind(const VarNode* v) { bounds_.erase(v); }

namespace {

constexpr int64_t kNegInf = std::numeric_limits<int64_t>::min();
constexpr int64_t kPosInf = std::numeric_limits<int64_t>::max();

bool IsInf(int64_t v) { return v == kNegInf || v == kPosInf; }

int64_t SatAdd(int64_t a, int64_t b) {
  if (IsInf(a) || IsInf(b)) {
    if (a == kPosInf || b == kPosInf) {
      return kPosInf;
    }
    return kNegInf;
  }
  int64_t r;
  if (__builtin_add_overflow(a, b, &r)) {
    return a > 0 ? kPosInf : kNegInf;
  }
  return r;
}

int64_t SatMul(int64_t a, int64_t b) {
  if (a == 0 || b == 0) {
    return 0;
  }
  if (IsInf(a) || IsInf(b)) {
    return ((a > 0) == (b > 0)) ? kPosInf : kNegInf;
  }
  int64_t r;
  if (__builtin_mul_overflow(a, b, &r)) {
    return ((a > 0) == (b > 0)) ? kPosInf : kNegInf;
  }
  return r;
}

class BoundEvaluator {
 public:
  explicit BoundEvaluator(const std::unordered_map<const VarNode*, ConstBound>& bounds)
      : bounds_(bounds) {}

  ConstBound Eval(const Expr& e) const {
    if (e == nullptr) {
      return ConstBound::Everything();
    }
    switch (e->kind) {
      case ExprKind::kIntImm:
        return ConstBound::Single(static_cast<const IntImmNode*>(e.get())->value);
      case ExprKind::kVar: {
        auto it = bounds_.find(static_cast<const VarNode*>(e.get()));
        return it == bounds_.end() ? ConstBound::Everything() : it->second;
      }
      case ExprKind::kCast: {
        const auto* n = static_cast<const CastNode*>(e.get());
        if (n->dtype.is_int() && n->value->dtype.is_int()) {
          return Eval(n->value);
        }
        return ConstBound::Everything();
      }
      case ExprKind::kAdd: {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        ConstBound a = Eval(n->a), b = Eval(n->b);
        return {SatAdd(a.min, b.min), SatAdd(a.max, b.max)};
      }
      case ExprKind::kSub: {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        ConstBound a = Eval(n->a), b = Eval(n->b);
        return {SatAdd(a.min, b.max == kPosInf ? kNegInf : -b.max),
                SatAdd(a.max, b.min == kNegInf ? kPosInf : -b.min)};
      }
      case ExprKind::kMul: {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        ConstBound a = Eval(n->a), b = Eval(n->b);
        int64_t c[4] = {SatMul(a.min, b.min), SatMul(a.min, b.max), SatMul(a.max, b.min),
                        SatMul(a.max, b.max)};
        return {*std::min_element(c, c + 4), *std::max_element(c, c + 4)};
      }
      case ExprKind::kDiv: {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        ConstBound a = Eval(n->a), b = Eval(n->b);
        if (b.IsSingle() && b.min > 0 && a.IsBounded()) {
          return {FloorDiv(a.min, b.min), FloorDiv(a.max, b.min)};
        }
        return ConstBound::Everything();
      }
      case ExprKind::kMod: {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        ConstBound b = Eval(n->b);
        if (b.IsSingle() && b.min > 0) {
          ConstBound a = Eval(n->a);
          if (a.IsBounded() && a.min >= 0 && a.max < b.min) {
            return a;  // modulo is identity
          }
          return {0, b.min - 1};
        }
        return ConstBound::Everything();
      }
      case ExprKind::kMin: {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        ConstBound a = Eval(n->a), b = Eval(n->b);
        return {std::min(a.min, b.min), std::min(a.max, b.max)};
      }
      case ExprKind::kMax: {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        ConstBound a = Eval(n->a), b = Eval(n->b);
        return {std::max(a.min, b.min), std::max(a.max, b.max)};
      }
      case ExprKind::kSelect: {
        const auto* n = static_cast<const SelectNode*>(e.get());
        ConstBound a = Eval(n->true_value), b = Eval(n->false_value);
        return {std::min(a.min, b.min), std::max(a.max, b.max)};
      }
      case ExprKind::kCall: {
        const auto* n = static_cast<const CallNode*>(e.get());
        if (n->name == "if_then_else" && n->args.size() == 3) {
          ConstBound a = Eval(n->args[1]), b = Eval(n->args[2]);
          return {std::min(a.min, b.min), std::max(a.max, b.max)};
        }
        return ConstBound::Everything();
      }
      default:
        return ConstBound::Everything();
    }
  }

 private:
  const std::unordered_map<const VarNode*, ConstBound>& bounds_;
};

// The rewriting simplifier. Applies recursively bottom-up via ExprMutator, with
// rule application in the binary hook.
class Simplifier : public StmtMutator {
 public:
  explicit Simplifier(const std::unordered_map<const VarNode*, ConstBound>& bounds)
      : bounds_(bounds), bound_eval_(bounds) {}

  Expr Mutate(const Expr& e) override {
    if (e == nullptr) {
      return e;
    }
    Expr r = StmtMutator::Mutate(e);
    return PostRule(r);
  }

 protected:
  Expr MutateBinary(const BinaryNode* op, const Expr& e) override {
    Expr a = Mutate(op->a);
    Expr b = Mutate(op->b);
    return SimplifyBinary(op->kind, std::move(a), std::move(b));
  }

  // A cast of an immediate folds to exactly what the tiers compute for it. A float
  // target keeps the double (every tier rounds a float immediate to f32 when it
  // evaluates it) but quantizes it through the f16 grid for an f16 target; an int
  // target truncates the f32 value toward zero and wraps to a narrow width.
  Expr MutateCast(const CastNode* op, const Expr& e) override {
    Expr v = Mutate(op->value);
    const IntImmNode* iv = as_int(v);
    const FloatImmNode* fv = as_float(v);
    if (iv != nullptr || fv != nullptr) {
      if (op->dtype.is_float()) {
        double d = iv != nullptr ? static_cast<double>(iv->value) : fv->value;
        if (op->dtype.bits() == 16) {
          d = QuantizeFloat16(static_cast<float>(d));
        }
        return std::make_shared<FloatImmNode>(op->dtype, d);
      }
      if (op->dtype.is_int() || op->dtype.is_uint()) {
        int64_t i = iv != nullptr ? iv->value : static_cast<int64_t>(RoundF32(fv->value));
        if (op->dtype.bits() < 64) {
          i = WrapInt(i, op->dtype.bits(), op->dtype.is_int());
        }
        return std::make_shared<IntImmNode>(op->dtype, i);
      }
    }
    if (v->dtype == op->dtype) {
      return v;
    }
    return cast(op->dtype, v);
  }

  Expr MutateSelect(const SelectNode* op, const Expr& e) override {
    Expr c = Mutate(op->condition);
    int64_t cv;
    if (is_const_int(c, &cv)) {
      return cv != 0 ? Mutate(op->true_value) : Mutate(op->false_value);
    }
    Expr t = Mutate(op->true_value);
    Expr f = Mutate(op->false_value);
    if (StructuralEqual(t, f)) {
      return t;
    }
    return select(c, t, f);
  }

  Expr MutateNot(const NotNode* op, const Expr& e) override {
    Expr a = Mutate(op->a);
    int64_t v;
    if (is_const_int(a, &v)) {
      return make_const(DataType::Bool(), v == 0 ? 1 : 0);
    }
    return logic_not(a);
  }

  Expr MutateCall(const CallNode* op, const Expr& e) override {
    Expr base = StmtMutator::MutateCall(op, e);
    const auto* n = static_cast<const CallNode*>(base.get());
    if (n->name == "if_then_else" && n->args.size() == 3) {
      int64_t cv;
      if (is_const_int(n->args[0], &cv)) {
        return cv != 0 ? n->args[1] : n->args[2];
      }
      if (bound_eval_.Eval(n->args[0]).min >= 1) {
        return n->args[1];
      }
    }
    return base;
  }

  // Statement-level cleanups.
  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    Expr mn = Mutate(op->min);
    Expr extent = Mutate(op->extent);
    int64_t ev;
    if (is_const_int(extent, &ev)) {
      if (ev == 0) {
        return nop();
      }
      if (ev == 1 && op->for_type != ForType::kThreadBinding &&
          op->for_type != ForType::kVThread) {
        Stmt body = MutateStmt(op->body);
        VarMap vmap{{op->loop_var.get(), mn}};
        Simplifier inner(bounds_);
        return inner.MutateStmt(Substitute(body, vmap));
      }
    }
    Stmt body = MutateStmt(op->body);
    return for_stmt(op->loop_var, mn, extent, body, op->for_type, op->thread_tag);
  }

  Stmt MutateIfThenElse(const IfThenElseNode* op, const Stmt& s) override {
    Expr cond = Mutate(op->condition);
    int64_t cv;
    if (is_const_int(cond, &cv)) {
      if (cv != 0) {
        return MutateStmt(op->then_case);
      }
      return op->else_case ? MutateStmt(op->else_case) : nop();
    }
    if (bound_eval_.Eval(cond).min >= 1) {
      return MutateStmt(op->then_case);
    }
    Stmt then_case = MutateStmt(op->then_case);
    Stmt else_case = op->else_case ? MutateStmt(op->else_case) : nullptr;
    return if_then_else_stmt(cond, then_case, else_case);
  }

 private:
  // Scalar-int guard for the linear-decomposition rewrites: they rebuild with scalar
  // int constants, which cannot mix with vector (lanes > 1) terms.
  static bool BothInt(const Expr& a, const Expr& b) {
    return (a->dtype.is_int() || a->dtype.is_uint()) &&
           (b->dtype.is_int() || b->dtype.is_uint()) && a->dtype.lanes() == 1 &&
           b->dtype.lanes() == 1;
  }

  // A linear decomposition: sum of coeff*term plus a constant. Terms are non-additive
  // expressions grouped by structural equality.
  struct LinTerm {
    Expr term;
    int64_t coeff;
  };

  static void LinearizeInto(const Expr& e, int64_t scale, std::vector<LinTerm>* terms,
                            int64_t* konst, int depth = 0) {
    if (const IntImmNode* i = as_int(e)) {
      *konst += scale * i->value;
      return;
    }
    if (depth < 16) {
      if (e->kind == ExprKind::kAdd || e->kind == ExprKind::kSub) {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        LinearizeInto(n->a, scale, terms, konst, depth + 1);
        LinearizeInto(n->b, e->kind == ExprKind::kAdd ? scale : -scale, terms, konst,
                      depth + 1);
        return;
      }
      if (e->kind == ExprKind::kMul) {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        if (const IntImmNode* c = as_int(n->b)) {
          LinearizeInto(n->a, scale * c->value, terms, konst, depth + 1);
          return;
        }
        if (const IntImmNode* c = as_int(n->a)) {
          LinearizeInto(n->b, scale * c->value, terms, konst, depth + 1);
          return;
        }
      }
    }
    for (LinTerm& t : *terms) {
      if (StructuralEqual(t.term, e)) {
        t.coeff += scale;
        return;
      }
    }
    terms->push_back(LinTerm{e, scale});
  }

  static Expr RebuildLinear(const std::vector<LinTerm>& terms, int64_t konst, DataType t) {
    Expr result;
    for (const LinTerm& lt : terms) {
      if (lt.coeff == 0) {
        continue;
      }
      Expr piece = lt.coeff == 1 ? lt.term : mul(lt.term, make_int(lt.coeff));
      result = result == nullptr ? piece : add(result, piece);
    }
    if (result == nullptr) {
      return make_const(t, static_cast<double>(konst));
    }
    if (konst != 0) {
      result = add(result, make_int(konst));
    }
    return result;
  }

  Expr SimplifyBinary(ExprKind kind, Expr a, Expr b) {
    // Constant folding.
    const IntImmNode* ia = as_int(a);
    const IntImmNode* ib = as_int(b);
    if (ia != nullptr && ib != nullptr) {
      return FoldInt(kind, ia->value, ib->value, a->dtype);
    }
    const FloatImmNode* fa = as_float(a);
    const FloatImmNode* fb = as_float(b);
    if (fa != nullptr && fb != nullptr) {
      return FoldFloat(kind, fa->value, fb->value, a->dtype);
    }
    // Zero-absorbing identities are exact only for integers: in IEEE arithmetic
    // x + 0.0 flips -0.0 to +0.0, x * 0.0 keeps x's sign on the zero (and makes
    // NaN from Inf), 0.0 / x is -0.0 for negative x, and x - x is NaN for
    // non-finite x. Folding any of those would diverge bitwise from the
    // unsimplified tree the reference interpreter evaluates, so for floats only
    // the exact identities (x * 1, x / 1, x - 0 with +0) survive.
    const bool is_float = a->dtype.is_float();
    switch (kind) {
      case ExprKind::kAdd:
      case ExprKind::kSub: {
        if (kind == ExprKind::kAdd && is_zero(a) && !is_float) {
          return b;
        }
        if (is_zero(b) && (!is_float || (kind == ExprKind::kSub && fb != nullptr &&
                                         !std::signbit(fb->value)))) {
          return a;
        }
        if (BothInt(a, b)) {
          // Canonicalize via linear decomposition so symbolic terms cancel, e.g.
          // (by*4 + ty) - by*4 -> ty.
          std::vector<LinTerm> terms;
          int64_t konst = 0;
          LinearizeInto(a, 1, &terms, &konst);
          LinearizeInto(b, kind == ExprKind::kAdd ? 1 : -1, &terms, &konst);
          return RebuildLinear(terms, konst, a->dtype);
        }
        if (kind == ExprKind::kSub && !is_float && StructuralEqual(a, b)) {
          return make_zero(a->dtype);
        }
        break;
      }
      case ExprKind::kMul:
        if ((is_zero(a) || is_zero(b)) && !is_float) {
          return make_zero(a->dtype);
        }
        if (is_one(a)) {
          return b;
        }
        if (is_one(b)) {
          return a;
        }
        // (x * c1) * c2 -> x * (c1*c2)
        if (ib != nullptr) {
          if (const auto* an = MatchBinary(a, ExprKind::kMul)) {
            if (const IntImmNode* c1 = as_int(an->b)) {
              return SimplifyBinary(ExprKind::kMul, an->a, make_int(c1->value * ib->value));
            }
          }
        }
        if (ia != nullptr || fa != nullptr) {
          return mul(b, a);
        }
        break;
      case ExprKind::kDiv:
        if (is_one(b)) {
          return a;
        }
        if (is_zero(a) && !is_float) {
          return a;
        }
        if (ib != nullptr && ib->value > 0 && BothInt(a, b)) {
          int64_t c = ib->value;
          // Exact identity: (q*c + r) div c = q + (r div c). Split `a` into terms whose
          // coefficients divide c and a remainder.
          std::vector<LinTerm> terms;
          int64_t konst = 0;
          LinearizeInto(a, 1, &terms, &konst);
          std::vector<LinTerm> quotient, rest;
          for (const LinTerm& t : terms) {
            if (t.coeff % c == 0) {
              quotient.push_back(LinTerm{t.term, t.coeff / c});
            } else {
              rest.push_back(t);
            }
          }
          Expr rest_expr = RebuildLinear(rest, konst, a->dtype);
          ConstBound rb = bound_eval_.Eval(rest_expr);
          if (!quotient.empty() || rest.size() < terms.size()) {
            Expr q = RebuildLinear(quotient, 0, a->dtype);
            if (rb.min >= 0 && rb.max < c) {
              return q;
            }
            int64_t rv;
            if (is_const_int(rest_expr, &rv)) {
              return SimplifyBinary(ExprKind::kAdd, q, make_int(FloorDiv(rv, c)));
            }
            if (rest.size() < terms.size()) {
              return SimplifyBinary(ExprKind::kAdd, q, div(rest_expr, b));
            }
          }
          if (rb.min >= 0 && rb.max < c) {
            return make_zero(a->dtype);
          }
        }
        break;
      case ExprKind::kMod:
        if (is_one(b)) {
          return make_zero(a->dtype);
        }
        if (ib != nullptr && ib->value > 0 && BothInt(a, b)) {
          int64_t c = ib->value;
          // Exact identity: (q*c + r) mod c = r mod c.
          std::vector<LinTerm> terms;
          int64_t konst = 0;
          LinearizeInto(a, 1, &terms, &konst);
          std::vector<LinTerm> rest;
          bool dropped = false;
          for (const LinTerm& t : terms) {
            if (t.coeff % c == 0) {
              dropped = true;
            } else {
              rest.push_back(t);
            }
          }
          int64_t kmod = FloorMod(konst, c);
          dropped |= kmod != konst;
          Expr rest_expr = RebuildLinear(rest, kmod, a->dtype);
          ConstBound rb = bound_eval_.Eval(rest_expr);
          if (rb.min >= 0 && rb.max < c) {
            return rest_expr;
          }
          int64_t rv;
          if (is_const_int(rest_expr, &rv)) {
            return make_const(a->dtype, static_cast<double>(FloorMod(rv, c)));
          }
          if (dropped) {
            return mod(rest_expr, b);
          }
        }
        break;
      case ExprKind::kMin: {
        if (StructuralEqual(a, b)) {
          return a;
        }
        ConstBound ab = bound_eval_.Eval(a);
        ConstBound bb = bound_eval_.Eval(b);
        if (ab.max <= bb.min) {
          return a;
        }
        if (bb.max <= ab.min) {
          return b;
        }
        break;
      }
      case ExprKind::kMax: {
        if (StructuralEqual(a, b)) {
          return a;
        }
        ConstBound ab = bound_eval_.Eval(a);
        ConstBound bb = bound_eval_.Eval(b);
        if (ab.min >= bb.max) {
          return a;
        }
        if (bb.min >= ab.max) {
          return b;
        }
        break;
      }
      case ExprKind::kLT:
      case ExprKind::kLE:
      case ExprKind::kGT:
      case ExprKind::kGE:
      case ExprKind::kEQ:
      case ExprKind::kNE: {
        if (BothInt(a, b)) {
          ConstBound ab = bound_eval_.Eval(a);
          ConstBound bb = bound_eval_.Eval(b);
          int prove = ProveCmp(kind, ab, bb);
          if (prove == 1) {
            return make_const(DataType::Bool(a->dtype.lanes()), 1);
          }
          if (prove == 0) {
            return make_const(DataType::Bool(a->dtype.lanes()), 0);
          }
        }
        break;
      }
      case ExprKind::kAnd: {
        int64_t v;
        if (is_const_int(a, &v)) {
          return v != 0 ? b : a;
        }
        if (is_const_int(b, &v)) {
          return v != 0 ? a : b;
        }
        break;
      }
      case ExprKind::kOr: {
        int64_t v;
        if (is_const_int(a, &v)) {
          return v != 0 ? a : b;
        }
        if (is_const_int(b, &v)) {
          return v != 0 ? b : a;
        }
        break;
      }
      default:
        break;
    }
    return Rebuild(kind, std::move(a), std::move(b));
  }

  // Returns 1 if provably true, 0 if provably false, -1 if unknown.
  static int ProveCmp(ExprKind kind, const ConstBound& a, const ConstBound& b) {
    switch (kind) {
      case ExprKind::kLT:
        if (a.max < b.min) {
          return 1;
        }
        if (a.min >= b.max) {
          return 0;
        }
        return -1;
      case ExprKind::kLE:
        if (a.max <= b.min) {
          return 1;
        }
        if (a.min > b.max) {
          return 0;
        }
        return -1;
      case ExprKind::kGT:
        return ProveCmp(ExprKind::kLT, b, a);
      case ExprKind::kGE:
        return ProveCmp(ExprKind::kLE, b, a);
      case ExprKind::kEQ:
        if (a.IsSingle() && b.IsSingle() && a.min == b.min) {
          return 1;
        }
        if (a.max < b.min || b.max < a.min) {
          return 0;
        }
        return -1;
      case ExprKind::kNE: {
        int r = ProveCmp(ExprKind::kEQ, a, b);
        return r == -1 ? -1 : 1 - r;
      }
      default:
        return -1;
    }
  }

  static const BinaryNode* MatchBinary(const Expr& e, ExprKind kind) {
    return e->kind == kind ? static_cast<const BinaryNode*>(e.get()) : nullptr;
  }

  static Expr Rebuild(ExprKind kind, Expr a, Expr b) {
    switch (kind) {
      case ExprKind::kAdd:
        return add(a, b);
      case ExprKind::kSub:
        return sub(a, b);
      case ExprKind::kMul:
        return mul(a, b);
      case ExprKind::kDiv:
        return div(a, b);
      case ExprKind::kMod:
        return mod(a, b);
      case ExprKind::kMin:
        return min(a, b);
      case ExprKind::kMax:
        return max(a, b);
      case ExprKind::kEQ:
        return eq(a, b);
      case ExprKind::kNE:
        return ne(a, b);
      case ExprKind::kLT:
        return lt(a, b);
      case ExprKind::kLE:
        return le(a, b);
      case ExprKind::kGT:
        return gt(a, b);
      case ExprKind::kGE:
        return ge(a, b);
      case ExprKind::kAnd:
        return logic_and(a, b);
      case ExprKind::kOr:
        return logic_or(a, b);
      default:
        LOG(FATAL) << "not a binary kind";
    }
  }

  static Expr FoldInt(ExprKind kind, int64_t a, int64_t b, DataType t) {
    switch (kind) {
      case ExprKind::kAdd:
        return std::make_shared<IntImmNode>(t, a + b);
      case ExprKind::kSub:
        return std::make_shared<IntImmNode>(t, a - b);
      case ExprKind::kMul:
        return std::make_shared<IntImmNode>(t, a * b);
      case ExprKind::kDiv:
        return std::make_shared<IntImmNode>(t, FloorDiv(a, b));
      case ExprKind::kMod:
        return std::make_shared<IntImmNode>(t, FloorMod(a, b));
      case ExprKind::kMin:
        return std::make_shared<IntImmNode>(t, std::min(a, b));
      case ExprKind::kMax:
        return std::make_shared<IntImmNode>(t, std::max(a, b));
      case ExprKind::kEQ:
        return make_const(DataType::Bool(), a == b);
      case ExprKind::kNE:
        return make_const(DataType::Bool(), a != b);
      case ExprKind::kLT:
        return make_const(DataType::Bool(), a < b);
      case ExprKind::kLE:
        return make_const(DataType::Bool(), a <= b);
      case ExprKind::kGT:
        return make_const(DataType::Bool(), a > b);
      case ExprKind::kGE:
        return make_const(DataType::Bool(), a >= b);
      case ExprKind::kAnd:
        return make_const(DataType::Bool(), (a != 0) && (b != 0));
      case ExprKind::kOr:
        return make_const(DataType::Bool(), (a != 0) || (b != 0));
      default:
        LOG(FATAL) << "not a binary kind";
    }
  }

  // Every tier evaluates a float immediate as its f32 value, so the fold rounds its
  // operands first. The result needs no rounding of its own: it is an immediate too.
  static Expr FoldFloat(ExprKind kind, double a, double b, DataType t) {
    a = RoundF32(a);
    b = RoundF32(b);
    switch (kind) {
      case ExprKind::kAdd:
        return std::make_shared<FloatImmNode>(t, a + b);
      case ExprKind::kSub:
        return std::make_shared<FloatImmNode>(t, a - b);
      case ExprKind::kMul:
        return std::make_shared<FloatImmNode>(t, a * b);
      case ExprKind::kDiv:
        return std::make_shared<FloatImmNode>(t, a / b);
      case ExprKind::kMin:
        return std::make_shared<FloatImmNode>(t, std::min(a, b));
      case ExprKind::kMax:
        return std::make_shared<FloatImmNode>(t, std::max(a, b));
      case ExprKind::kEQ:
        return make_const(DataType::Bool(), a == b);
      case ExprKind::kNE:
        return make_const(DataType::Bool(), a != b);
      case ExprKind::kLT:
        return make_const(DataType::Bool(), a < b);
      case ExprKind::kLE:
        return make_const(DataType::Bool(), a <= b);
      case ExprKind::kGT:
        return make_const(DataType::Bool(), a > b);
      case ExprKind::kGE:
        return make_const(DataType::Bool(), a >= b);
      default:
        LOG(FATAL) << "unsupported float fold";
    }
  }

  Expr PostRule(const Expr& e) { return e; }

  const std::unordered_map<const VarNode*, ConstBound>& bounds_;
  BoundEvaluator bound_eval_;
};

}  // namespace

ConstBound Analyzer::GetConstBound(const Expr& e) const {
  BoundEvaluator eval(bounds_);
  return eval.Eval(e);
}

bool Analyzer::CanProve(const Expr& cond) const {
  Expr s = Simplify(cond);
  int64_t v;
  return is_const_int(s, &v) && v != 0;
}

bool Analyzer::CanProveGE(const Expr& a, int64_t b) const {
  ConstBound bound = GetConstBound(Simplify(a));
  return bound.min >= b;
}

bool Analyzer::CanProveLT(const Expr& a, int64_t b) const {
  ConstBound bound = GetConstBound(Simplify(a));
  return bound.max < b;
}

Expr Analyzer::Simplify(const Expr& e) const {
  Simplifier s(bounds_);
  // Two passes pick up rewrites exposed by the first.
  return s.Mutate(s.Mutate(e));
}

Stmt Analyzer::Simplify(const Stmt& st) const {
  Simplifier s(bounds_);
  return s.MutateStmt(st);
}

Expr Simplify(const Expr& e) {
  Analyzer a;
  return a.Simplify(e);
}

Stmt Simplify(const Stmt& s) {
  Analyzer a;
  return a.Simplify(s);
}

}  // namespace tvmcpp
