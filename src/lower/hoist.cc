// HoistIfThenElse: moves statement guards out of the loops they do not need to be
// in, and folds what a guard makes redundant.
//
// A conv whose reduction carries the pad's in-bounds test as its `where` lowers to
//
//   for ry { for rx { for ow { for lane { if (row && col) acc += ite(row && col,
//       data[clamp(h), clamp(w)], 0) * weight } } } }
//
// and leaves this pass as
//
//   for ry in rows inside the map {
//     for rx in columns where the tile starts outside { for ow { if (col) {
//         for lane { acc += data[h, w] * weight } } } }
//     for rx in columns where the whole tile is inside { for ow { for lane {
//         acc += data[h, w] * weight } } }
//     for rx in columns where the tile ends outside { ... as the first ... } }
//
// so a padded tap is never visited, and a tile that straddles the border tests
// each ow once per tap, outside the lanes. Every rewrite runs the same iterations
// in the same order: a conjunct is lifted only when it is pure integer arithmetic
// (no load, call, or division by a non-constant) and only over a loop whose whole
// body it guards; a loop range replaces exactly the guard it came from; and under
// a guard a select on a proven condition always takes its true arm and a proven
// clamp never clamps.
#include <utility>
#include <vector>

#include "src/ir/functor.h"
#include "src/ir/simplify.h"
#include "src/ir/substitute.h"
#include "src/lower/lower.h"

namespace tvmcpp {

namespace {

void SplitConjuncts(const Expr& cond, std::vector<Expr>* out) {
  if (cond->kind == ExprKind::kAnd) {
    const auto* n = static_cast<const BinaryNode*>(cond.get());
    SplitConjuncts(n->a, out);
    SplitConjuncts(n->b, out);
    return;
  }
  out->push_back(cond);
}

// Integer arithmetic and logic over variables and immediates only: evaluating it
// anywhere in scope neither reads memory nor traps.
bool IsPure(const Expr& e) {
  bool pure = true;
  PostOrderVisit(e, [&](const Expr& x) {
    switch (x->kind) {
      case ExprKind::kVar:
      case ExprKind::kIntImm:
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kMul:
      case ExprKind::kMin:
      case ExprKind::kMax:
      case ExprKind::kEQ:
      case ExprKind::kNE:
      case ExprKind::kLT:
      case ExprKind::kLE:
      case ExprKind::kGT:
      case ExprKind::kGE:
      case ExprKind::kAnd:
      case ExprKind::kOr:
      case ExprKind::kNot:
        break;
      case ExprKind::kDiv:
      case ExprKind::kMod: {
        int64_t d;
        pure &= is_const_int(static_cast<const BinaryNode*>(x.get())->b, &d) && d != 0;
        break;
      }
      default:
        pure = false;
    }
    pure &= x->dtype.lanes() == 1 && !x->dtype.is_float();
  });
  return pure;
}

// An integer comparison as the expression it asserts non-negative (a < b is
// b - a - 1 >= 0), or nullptr.
Expr NonNegForm(const Expr& c) {
  switch (c->kind) {
    case ExprKind::kLT:
    case ExprKind::kLE:
    case ExprKind::kGT:
    case ExprKind::kGE: {
      const auto* n = static_cast<const BinaryNode*>(c.get());
      if (!n->a->dtype.is_int() || !n->b->dtype.is_int()) {
        return nullptr;
      }
      switch (c->kind) {
        case ExprKind::kLT: return Simplify(n->b - n->a - make_int(1));
        case ExprKind::kLE: return Simplify(n->b - n->a);
        case ExprKind::kGT: return Simplify(n->a - n->b - make_int(1));
        default: return Simplify(n->a - n->b);
      }
    }
    default:
      return nullptr;
  }
}

// The constant change of `e` per unit step of `v`, when `e` is affine in `v`.
bool StepIn(const Expr& e, const Var& v, int64_t* step) {
  return is_const_int(Simplify(Substitute(e, {{v.get(), v + make_int(1)}}) - e), step);
}

Stmt Guard(const std::vector<Expr>& conds, Stmt body) {
  for (auto it = conds.rbegin(); it != conds.rend(); ++it) {
    body = if_then_else_stmt(*it, std::move(body));
  }
  return body;
}

class GuardHoister : public StmtMutator {
 protected:
  Stmt MutateIfThenElse(const IfThenElseNode* op, const Stmt& s) override {
    if (op->else_case != nullptr) {
      return StmtMutator::MutateIfThenElse(op, s);
    }
    std::vector<Expr> conds;
    SplitConjuncts(op->condition, &conds);
    size_t mark = facts_.size();
    for (const Expr& c : conds) {
      if (IsPure(c)) {  // a conjunct that reads memory may not hold after a store
        facts_.push_back({c, NonNegForm(c)});
      }
    }
    Stmt then_case = MutateStmt(op->then_case);
    facts_.resize(mark);
    return Guard(conds, std::move(then_case));
  }

  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    if (op->for_type == ForType::kThreadBinding || op->for_type == ForType::kVThread) {
      ++thread_depth_;
      Stmt body = MutateStmt(op->body);
      --thread_depth_;
      return body.get() == op->body.get() ? s : Rebuild(op, std::move(body));
    }
    Stmt body = MutateStmt(op->body);
    const VarNode* v = op->loop_var.get();
    std::vector<Expr> lifted;
    std::vector<Expr> kept;
    while (body->kind == StmtKind::kIfThenElse) {
      const auto* n = static_cast<const IfThenElseNode*>(body.get());
      if (n->else_case != nullptr) {
        break;
      }
      bool invariant = IsPure(n->condition) && !UsesVar(n->condition, v);
      (invariant ? lifted : kept).push_back(n->condition);
      body = n->then_case;
    }
    const auto* branch = body->kind == StmtKind::kIfThenElse
                             ? static_cast<const IfThenElseNode*>(body.get())
                             : nullptr;
    if (kept.empty() && branch != nullptr && IsPure(branch->condition) &&
        !UsesVar(branch->condition, v)) {
      // An invariant two-way branch: one loop per arm.
      return Guard(lifted, if_then_else_stmt(branch->condition, Rebuild(op, branch->then_case),
                                             Rebuild(op, branch->else_case)));
    }
    const bool serial = op->for_type == ForType::kSerial && thread_depth_ == 0;
    Expr lo, hi;
    Stmt loop;
    if (serial && NarrowRange(op, &kept, &lo, &hi)) {
      loop = Ranged(op, lo, hi, Guard(kept, body));
    } else if (serial && kept.empty() && branch != nullptr &&
               Partition(op, branch, &loop)) {
      // `loop` is the sequence of three ranges.
    } else if (Expr all_pass = Tiled(op) && thread_depth_ == 0 ? HoldsThroughout(op, kept)
                                                                 : nullptr) {
      // A tile whose guards pass at both ends passes at every point: run it
      // unguarded there, and guarded only where it overlaps the padding.
      loop = if_then_else_stmt(all_pass, Rebuild(op, body), Rebuild(op, Guard(kept, body)));
    } else if (lifted.empty() && kept.empty() && body.get() == op->body.get()) {
      return s;
    } else {
      loop = Rebuild(op, Guard(kept, body));
    }
    return Guard(lifted, std::move(loop));
  }

  Expr MutateSelect(const SelectNode* op, const Expr& e) override {
    if (Proven(op->condition)) {
      return Mutate(op->true_value);
    }
    return ExprMutator::MutateSelect(op, e);
  }

  Expr MutateCall(const CallNode* op, const Expr& e) override {
    if (op->name == "if_then_else" && op->args.size() == 3 && Proven(op->args[0])) {
      return Mutate(op->args[1]);
    }
    return ExprMutator::MutateCall(op, e);
  }

  // min(x, y) is x when x <= y is proven, and max likewise: the pad's clamps.
  // Bottom-up, so an outer clamp sees its folded operand.
  Expr MutateBinary(const BinaryNode* op, const Expr& e) override {
    Expr base = ExprMutator::MutateBinary(op, e);
    if ((op->kind != ExprKind::kMin && op->kind != ExprKind::kMax) || facts_.empty() ||
        !op->dtype.is_int()) {
      return base;
    }
    const auto* n = static_cast<const BinaryNode*>(base.get());
    bool is_min = op->kind == ExprKind::kMin;
    if (Proven(is_min ? le(n->a, n->b) : ge(n->a, n->b))) {
      return n->a;
    }
    if (Proven(is_min ? le(n->b, n->a) : ge(n->b, n->a))) {
      return n->b;
    }
    return base;
  }

  // A folded clamp leaves an index that simplifies to an affine form again.
  Expr MutateLoad(const LoadNode* op, const Expr& e) override {
    Expr base = ExprMutator::MutateLoad(op, e);
    if (base.get() == e.get()) {
      return e;
    }
    const auto* n = static_cast<const LoadNode*>(base.get());
    return load(n->dtype, n->buffer_var, Simplify(n->index), n->predicate);
  }

 private:
  struct Fact {
    Expr cond;
    Expr nonneg;  // NonNegForm(cond), or nullptr
  };

  // True when every conjunct of `cond` follows from one guard fact: it is the fact,
  // or both are integer comparisons and the fact's bound is at least as tight.
  bool Proven(const Expr& cond) const {
    if (facts_.empty()) {
      return false;
    }
    std::vector<Expr> conds;
    SplitConjuncts(cond, &conds);
    for (const Expr& c : conds) {
      Expr nonneg = NonNegForm(c);
      bool found = false;
      for (const Fact& f : facts_) {
        int64_t slack;
        if (StructuralEqual(c, f.cond) ||
            (nonneg != nullptr && f.nonneg != nullptr &&
             is_const_int(Simplify(nonneg - f.nonneg), &slack) && slack >= 0)) {
          found = true;
          break;
        }
      }
      if (!found) {
        return false;
      }
    }
    return true;
  }

  static Stmt Rebuild(const ForNode* op, Stmt body) {
    return for_stmt(op->loop_var, op->min, op->extent, std::move(body), op->for_type,
                    op->thread_tag);
  }

  // For guards that are each a comparison affine in the loop variable of `op` (a
  // constant extent), the condition that each holds at the end of the loop where
  // its slack is smallest, and so at every iteration. nullptr otherwise.
  static Expr HoldsThroughout(const ForNode* op, const std::vector<Expr>& conds) {
    int64_t extent;
    if (conds.empty() || !is_const_int(op->extent, &extent) || extent < 2) {
      return nullptr;
    }
    const Var& v = op->loop_var;
    Expr holds;
    for (const Expr& c : conds) {
      Expr nonneg = NonNegForm(c);
      if (nonneg == nullptr || !IsPure(c)) {
        return nullptr;
      }
      int64_t step;
      if (!StepIn(nonneg, v, &step)) {
        return nullptr;
      }
      // Monotone in v: the end where it is smallest decides.
      Expr at = step >= 0 ? op->min : op->min + make_int(extent - 1);
      Expr end = Substitute(c, {{v.get(), at}});
      holds = holds == nullptr ? end : logic_and(holds, end);
    }
    return Simplify(holds);
  }

  // An unrolled or vectorized loop: a tile loop, whose range must stay constant.
  static bool Tiled(const ForNode* op) {
    return op->for_type == ForType::kUnrolled || op->for_type == ForType::kVectorized;
  }

  static Stmt Ranged(const ForNode* op, const Expr& lo, const Expr& hi, Stmt body) {
    return for_stmt(op->loop_var, lo, Simplify(max(hi - lo, make_int(0))), std::move(body),
                    op->for_type, op->thread_tag);
  }

  // Folds each guard in `conds` of the form v + c >= 0 or c - v >= 0 (v the loop
  // variable of `op`, c free of it) into the range [*lo, *hi) the loop runs over,
  // removes it from `conds`, and returns whether any was folded. The loop then
  // visits exactly the iterations the guards allowed, in the same order.
  static bool NarrowRange(const ForNode* op, std::vector<Expr>* conds, Expr* lo, Expr* hi) {
    const Var& v = op->loop_var;
    *lo = op->min;
    *hi = op->min + op->extent;
    std::vector<Expr> rest;
    for (const Expr& c : *conds) {
      Expr nonneg = IsPure(c) ? NonNegForm(c) : nullptr;
      int64_t step = 0;
      if (nonneg == nullptr || !StepIn(nonneg, v, &step) || (step != 1 && step != -1)) {
        rest.push_back(c);
        continue;
      }
      Expr at_zero = Simplify(Substitute(nonneg, {{v.get(), make_int(0)}}));
      if (step == 1) {  // v >= -at_zero
        *lo = max(*lo, Simplify(make_int(0) - at_zero));
      } else {  // v <= at_zero
        *hi = min(*hi, Simplify(at_zero + make_int(1)));
      }
    }
    if (rest.size() == conds->size()) {
      return false;
    }
    *conds = std::move(rest);
    *lo = Simplify(*lo);
    *hi = Simplify(*hi);
    return true;
  }

  // A loop whose body is `if (c) A else B`, with c a conjunction of guards that
  // NarrowRange folds entirely, becomes three loops over consecutive ranges: B, then
  // A where c holds, then B. Each iteration runs the arm it ran before, in order.
  static bool Partition(const ForNode* op, const IfThenElseNode* branch, Stmt* out) {
    std::vector<Expr> conds;
    SplitConjuncts(branch->condition, &conds);
    Expr lo, hi;
    if (!NarrowRange(op, &conds, &lo, &hi) || !conds.empty()) {
      return false;
    }
    Expr end = Simplify(op->min + op->extent);
    Expr a = Simplify(min(lo, end));
    Expr b = Simplify(max(hi, a));
    *out = seq({Ranged(op, op->min, a, branch->else_case), Ranged(op, a, b, branch->then_case),
                Ranged(op, b, end, branch->else_case)});
    return true;
  }

  std::vector<Fact> facts_;
  int thread_depth_ = 0;  // enclosing thread-bound or vthread loops
};

}  // namespace

Stmt HoistIfThenElse(const Stmt& s) { return GuardHoister().MutateStmt(s); }

}  // namespace tvmcpp
