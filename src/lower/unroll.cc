// Loop specialization: compile-time unrolling and loop-invariant code motion.
//
// The execution engines pay per-iteration dispatch, back-edge, and index-arithmetic
// cost on exactly the loops the schedules worked hardest to shape. This file removes
// that cost ahead of bytecode compilation:
//
//   * SpecializeLoops   — the engine-side pipeline (applied by the VM compiler):
//       1. fully unrolls *innermost* serial/unrolled loops whose constant extent is
//          <= LoopSpecializeOptions::unroll_limit, constant-folding the
//          resulting constant indices through Simplify (this is also what expands
//          schedule-requested ForType::kUnrolled loops);
//       2. hoists subexpressions invariant in the innermost loop — pure integer
//          index arithmetic such as the row offsets of a dense kernel or the
//          batch-offset adds introduced by RebatchGraph — into LetStmt bindings
//          computed once per outer iteration.
//
// Bitwise identity with the unspecialized body holds by construction: unrolling
// substitutes integer constants for the loop variable iteration-by-iteration in the
// original order (integer folding is exact, float folding uses the same double
// arithmetic as the engines), and hoisting only moves side-effect-free integer
// arithmetic (never Loads, Calls, or float ops), so every value and every trap is
// produced exactly as before. tests/test_specialize.cc enforces this differentially
// under TVMCPP_VM_STRICT=1.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/ir/functor.h"
#include "src/ir/simplify.h"
#include "src/ir/substitute.h"
#include "src/lower/lower.h"

namespace tvmcpp {

namespace {

// Number of primitive statements (stores, evaluates) in a subtree: the unroll size
// guard multiplies this by the extent to bound code growth.
int CountLeafStmts(const Stmt& s) {
  int count = 0;
  PostOrderVisitStmt(s, [&](const Stmt& st) {
    count += st->kind == StmtKind::kStore || st->kind == StmtKind::kEvaluate;
  });
  return count;
}

bool ContainsFor(const Stmt& s) {
  bool found = false;
  PostOrderVisitStmt(s, [&](const Stmt& st) { found |= st->kind == StmtKind::kFor; });
  return found;
}

bool ContainsAllocate(const Stmt& s) {
  bool found = false;
  PostOrderVisitStmt(s,
                     [&](const Stmt& st) { found |= st->kind == StmtKind::kAllocate; });
  return found;
}

// Fully unrolls innermost serial/unrolled loops with small constant extents,
// bottom-up so a nest of small loops (conv2d's 3x3 window) collapses entirely.
class InnerLoopUnroller : public StmtMutator {
 public:
  InnerLoopUnroller(int64_t limit, int* count) : limit_(limit), count_(count) {}

 protected:
  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    Stmt base = StmtMutator::MutateFor(op, s);
    const auto* n = static_cast<const ForNode*>(base.get());
    if (n->for_type != ForType::kSerial && n->for_type != ForType::kUnrolled) {
      return base;
    }
    int64_t extent, min_v;
    if (!is_const_int(n->extent, &extent) || !is_const_int(n->min, &min_v)) {
      return base;
    }
    if (extent <= 0 || extent > limit_) {
      return base;
    }
    // Only innermost loops: an inner loop that survived (too wide to unroll) keeps
    // this one rolled too, bounding total expansion to one small nest's body.
    if (ContainsFor(n->body) || ContainsAllocate(n->body)) {
      return base;
    }
    if (CountLeafStmts(n->body) * extent > kMaxUnrolledStmts) {
      return base;
    }
    ++*count_;
    // One simplified copy of the body per iteration value, in original order, the
    // loop variable substituted by its constant.
    std::vector<Stmt> unrolled;
    unrolled.reserve(static_cast<size_t>(extent));
    for (int64_t i = 0; i < extent; ++i) {
      VarMap vmap{{n->loop_var.get(), make_int(min_v + i)}};
      unrolled.push_back(Simplify(Substitute(n->body, vmap)));
    }
    return seq(std::move(unrolled));
  }

 private:
  static constexpr int kMaxUnrolledStmts = 256;
  int64_t limit_;
  int* count_;
};

// True when `e` is built only from integer Vars, IntImms, and exact integer
// arithmetic/comparisons — the class of expressions whose value is
// position-independent and can be hoisted without changing any result or trap.
// Comparisons and And/Or qualify because both engines evaluate integer boolean
// operands eagerly (no short-circuit over side effects exists here: the subtree is
// load- and call-free by construction). Hoisting them moves a whole padding guard
// (e.g. conv2d's `0 <= ih && ih < H`) out of the innermost loop.
bool PureIntArith(const Expr& e) {
  switch (e->kind) {
    case ExprKind::kIntImm:
      return true;
    case ExprKind::kVar:
      return !e->dtype.is_handle();
    case ExprKind::kNot:
      return PureIntArith(static_cast<const NotNode*>(e.get())->a);
    case ExprKind::kDiv:
    case ExprKind::kMod: {
      // Division can trap: moving one ahead of a (possibly zero-trip) loop must
      // not introduce a fault the original program never executed, so only
      // nonzero-constant divisors (the only kind lowering emits) qualify.
      if (!(e->dtype.is_int() || e->dtype.is_uint()) || e->dtype.lanes() != 1) {
        return false;
      }
      const auto* b = static_cast<const BinaryNode*>(e.get());
      int64_t divisor;
      return is_const_int(b->b, &divisor) && divisor != 0 && PureIntArith(b->a);
    }
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
    case ExprKind::kOr: {
      if (!(e->dtype.is_int() || e->dtype.is_uint()) || e->dtype.lanes() != 1) {
        return false;
      }
      const auto* b = static_cast<const BinaryNode*>(e.get());
      return PureIntArith(b->a) && PureIntArith(b->b);
    }
    default:
      return false;
  }
}

bool UsesAnyVar(const Expr& e, const std::unordered_set<const VarNode*>& vars) {
  bool uses = false;
  PostOrderVisit(e, [&](const Expr& x) {
    uses |= x->kind == ExprKind::kVar &&
            vars.count(static_cast<const VarNode*>(x.get())) > 0;
  });
  return uses;
}

bool UsesSomeVar(const Expr& e) {
  bool uses = false;
  PostOrderVisit(e, [&](const Expr& x) { uses |= x->kind == ExprKind::kVar; });
  return uses;
}

// Structural key for candidate matching. The printed form alone is ambiguous:
// two distinct VarNodes may share a name, and substituting one for the other would
// silently miscompile — so variables are keyed by node identity. Only the node
// kinds PureIntArith admits need compact encodings; anything else (unreachable for
// candidates) falls back to an identity-tagged form.
void AppendExprKey(const Expr& e, std::string* out) {
  char buf[32];
  switch (e->kind) {
    case ExprKind::kIntImm:
      std::snprintf(buf, sizeof(buf), "i%lld",
                    static_cast<long long>(static_cast<const IntImmNode*>(e.get())->value));
      *out += buf;
      return;
    case ExprKind::kVar:
      std::snprintf(buf, sizeof(buf), "v%p", static_cast<const void*>(e.get()));
      *out += buf;
      return;
    case ExprKind::kNot:
      *out += "!(";
      AppendExprKey(static_cast<const NotNode*>(e.get())->a, out);
      *out += ')';
      return;
    default:
      break;
  }
  if (const auto* b = dynamic_cast<const BinaryNode*>(e.get())) {
    std::snprintf(buf, sizeof(buf), "b%d(", static_cast<int>(e->kind));
    *out += buf;
    AppendExprKey(b->a, out);
    *out += ',';
    AppendExprKey(b->b, out);
    *out += ')';
    return;
  }
  std::snprintf(buf, sizeof(buf), "?%p", static_cast<const void*>(e.get()));
  *out += buf;
}

std::string ExprKey(const Expr& e) {
  std::string key;
  key.reserve(64);
  AppendExprKey(e, &key);
  return key;
}

// Collects maximal hoistable subexpressions: walking top-down, a subtree that
// qualifies is recorded whole and not descended into, so nested candidates never
// overlap. Keys are printed forms — structurally identical subtrees share one
// binding.
class CandidateCollector : public ExprMutator {
 public:
  CandidateCollector(const std::unordered_set<const VarNode*>* forbidden,
                     std::vector<std::pair<std::string, Expr>>* out)
      : forbidden_(forbidden), out_(out) {}

  Expr Mutate(const Expr& e) override {
    if (Hoistable(e, *forbidden_)) {
      std::string key = ExprKey(e);
      if (!seen_.count(key)) {
        seen_.insert(key);
        out_->emplace_back(key, e);
      }
      return e;
    }
    return ExprMutator::Mutate(e);
  }

  // A candidate is non-leaf pure integer arithmetic (including comparisons and
  // boolean combinations — a hoisted padding guard collapses to one register read)
  // that mentions at least one variable (pure constants fold on their own) and none
  // of the forbidden ones (the loop variable and anything bound inside the body).
  static bool Hoistable(const Expr& e, const std::unordered_set<const VarNode*>& forbidden) {
    switch (e->kind) {
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kMul:
      case ExprKind::kDiv:
      case ExprKind::kMod:
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
      default:
        return false;
    }
    return PureIntArith(e) && UsesSomeVar(e) && !UsesAnyVar(e, forbidden);
  }

 private:
  const std::unordered_set<const VarNode*>* forbidden_;
  std::vector<std::pair<std::string, Expr>>* out_;
  std::unordered_set<std::string> seen_;
};

// Replaces every occurrence of a recorded candidate with its hoisted variable.
class CandidateReplacer : public StmtMutator {
 public:
  CandidateReplacer(const std::unordered_set<const VarNode*>* forbidden,
                    const std::unordered_map<std::string, Var>* bindings)
      : forbidden_(forbidden), bindings_(bindings) {}

  Expr Mutate(const Expr& e) override {
    if (CandidateCollector::Hoistable(e, *forbidden_)) {
      auto it = bindings_->find(ExprKey(e));
      if (it != bindings_->end()) {
        return it->second;
      }
    }
    return StmtMutator::Mutate(e);
  }

 private:
  const std::unordered_set<const VarNode*>* forbidden_;
  const std::unordered_map<std::string, Var>* bindings_;
};

// Applies the candidate collector to every expression rooted in `s` (without
// descending into nested statements — the caller walks those).
void ForEachRootExpr(const Stmt& s, const std::function<void(const Expr&)>& fn) {
  PostOrderVisitStmt(s, [&](const Stmt& st) {
    switch (st->kind) {
      case StmtKind::kLetStmt:
        fn(static_cast<const LetStmtNode*>(st.get())->value);
        break;
      case StmtKind::kAssert:
        fn(static_cast<const AssertStmtNode*>(st.get())->condition);
        break;
      case StmtKind::kStore: {
        const auto* n = static_cast<const StoreNode*>(st.get());
        fn(n->value);
        fn(n->index);
        if (n->predicate != nullptr) {
          fn(n->predicate);
        }
        break;
      }
      case StmtKind::kIfThenElse:
        fn(static_cast<const IfThenElseNode*>(st.get())->condition);
        break;
      case StmtKind::kEvaluate:
        fn(static_cast<const EvaluateNode*>(st.get())->value);
        break;
      default:
        break;  // For/Allocate cannot appear in an innermost-loop body
    }
  });
}

// Vars bound by LetStmt/Let inside `s`: hoisting an expression that reads one would
// move it out of its binding's scope.
std::unordered_set<const VarNode*> VarsBoundInside(const Stmt& s) {
  std::unordered_set<const VarNode*> bound;
  PostOrderVisitStmt(s, [&](const Stmt& st) {
    if (st->kind == StmtKind::kLetStmt) {
      bound.insert(static_cast<const LetStmtNode*>(st.get())->var.get());
    }
  });
  ForEachRootExpr(s, [&](const Expr& root) {
    PostOrderVisit(root, [&](const Expr& e) {
      if (e->kind == ExprKind::kLet) {
        bound.insert(static_cast<const LetNode*>(e.get())->var.get());
      }
    });
  });
  return bound;
}

bool ContainsMul(const Expr& e) {
  bool found = false;
  PostOrderVisit(e, [&](const Expr& x) { found |= x->kind == ExprKind::kMul; });
  return found;
}

// Replaces loop-var-dependent multiplies recorded by the CSE step (keyed by printed
// form) with their bound variables.
class MulReplacer : public StmtMutator {
 public:
  explicit MulReplacer(const std::unordered_map<std::string, Var>* bindings)
      : bindings_(bindings) {}

  Expr Mutate(const Expr& e) override {
    if (e->kind == ExprKind::kMul) {
      auto it = bindings_->find(ExprKey(e));
      if (it != bindings_->end()) {
        return it->second;
      }
    }
    return StmtMutator::Mutate(e);
  }

 private:
  const std::unordered_map<std::string, Var>* bindings_;
};

// Loop-invariant code motion over innermost loops: invariant integer arithmetic
// (index/offset computations and padding guards) moves to LetStmt bindings
// immediately outside the loop, computed once per outer iteration instead of once
// per element. A second step binds *loop-var-dependent* multiplies that recur in
// the body (an unrolled nest recomputes `ic * stride` in every copy) to one LetStmt
// at the top of the body — computed once per iteration, and with a single write
// site the VM compiler's strength reduction can turn `i * stride` into a running
// accumulator.
class InvariantHoister : public StmtMutator {
 public:
  InvariantHoister(int* hoisted, int* csed) : hoisted_(hoisted), csed_(csed) {}

 protected:
  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    Stmt base = StmtMutator::MutateFor(op, s);
    const auto* n = static_cast<const ForNode*>(base.get());
    if (n->for_type == ForType::kVectorized || n->for_type == ForType::kThreadBinding ||
        n->for_type == ForType::kVThread) {
      return base;
    }
    if (ContainsFor(n->body) || ContainsAllocate(n->body)) {
      return base;  // innermost loops only
    }
    std::unordered_set<const VarNode*> forbidden = VarsBoundInside(n->body);
    forbidden.insert(n->loop_var.get());
    // Step 1: hoist maximal invariant subexpressions out of the loop.
    std::vector<std::pair<std::string, Expr>> candidates;
    CandidateCollector collector(&forbidden, &candidates);
    ForEachRootExpr(n->body, [&](const Expr& e) { collector.Mutate(e); });
    Stmt body = n->body;
    std::unordered_map<std::string, Var> bindings;
    if (!candidates.empty()) {
      for (const auto& [key, expr] : candidates) {
        bindings.emplace(key, make_var("hoist" + std::to_string(next_id_++),
                                       expr->dtype));
      }
      CandidateReplacer replacer(&forbidden, &bindings);
      body = replacer.MutateStmt(body);
    }
    // Step 2: bind recurring loop-var multiplies inside the body. Only innermost
    // multiplies (mul-free operands) are considered, so candidates never nest.
    std::unordered_set<const VarNode*> mul_forbidden = VarsBoundInside(body);
    std::vector<std::pair<std::string, Expr>> muls;
    std::unordered_map<std::string, int> mul_count;
    ForEachRootExpr(body, [&](const Expr& root) {
      PostOrderVisit(root, [&](const Expr& e) {
        if (e->kind != ExprKind::kMul || !PureIntArith(e)) {
          return;
        }
        const auto* b = static_cast<const BinaryNode*>(e.get());
        if (ContainsMul(b->a) || ContainsMul(b->b) ||
            !UsesVar(e, n->loop_var.get()) || UsesAnyVar(e, mul_forbidden)) {
          return;
        }
        std::string key = ExprKey(e);
        if (mul_count[key]++ == 0) {
          muls.emplace_back(key, e);
        }
      });
    });
    std::vector<std::pair<std::string, Expr>> selected;
    std::unordered_map<std::string, Var> mul_bindings;
    for (const auto& [key, expr] : muls) {
      const auto* b = static_cast<const BinaryNode*>(expr.get());
      bool affine = b->a.get() == n->loop_var.get() || b->b.get() == n->loop_var.get();
      // Repeated products are worth one compute per iteration on their own;
      // single-use `i * stride` still wins by becoming a strength-reduced
      // accumulator in the VM.
      if (mul_count.at(key) >= 2 || affine) {
        selected.emplace_back(key, expr);
        mul_bindings.emplace(key, make_var("mulcse" + std::to_string(next_id_++),
                                           expr->dtype));
      }
    }
    if (candidates.empty() && selected.empty()) {
      return base;
    }
    if (!selected.empty()) {
      MulReplacer mul_replacer(&mul_bindings);
      body = mul_replacer.MutateStmt(body);
      for (auto it = selected.rbegin(); it != selected.rend(); ++it) {
        body = let_stmt(mul_bindings.at(it->first), it->second, std::move(body));
        ++*csed_;
      }
    }
    Stmt out = for_stmt(n->loop_var, n->min, n->extent, std::move(body), n->for_type,
                        n->thread_tag);
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      out = let_stmt(bindings.at(it->first), it->second, std::move(out));
      ++*hoisted_;
    }
    return out;
  }

 private:
  int* hoisted_;
  int* csed_;
  int next_id_ = 0;
};

}  // namespace

LoopSpecializeOptions LoopSpecializeOptions::Disabled() {
  LoopSpecializeOptions opts;
  opts.unroll_limit = 0;
  opts.hoist_invariants = false;
  opts.strength_reduce = false;
  opts.peephole = false;
  return opts;
}

Stmt SpecializeLoops(const Stmt& s, const LoopSpecializeOptions& opts,
                     LoopSpecializeStats* stats) {
  LoopSpecializeStats local;
  LoopSpecializeStats* st = stats != nullptr ? stats : &local;
  Stmt body = s;
  if (opts.unroll_limit > 0) {
    // Unroll first: a fully-collapsed small nest turns its parent into an innermost
    // loop, which the hoister then gets to clean up.
    InnerLoopUnroller unroller(opts.unroll_limit, &st->unrolled_loops);
    body = unroller.MutateStmt(body);
  }
  if (opts.hoist_invariants) {
    InvariantHoister hoister(&st->hoisted_lets, &st->csed_muls);
    body = hoister.MutateStmt(body);
  }
  return body;
}

}  // namespace tvmcpp
