// VectorizeLoop: materializes ForType::kVectorized loops as vector IR.
//
// A vectorized loop of constant extent L is rewritten into a single-iteration body of
// vector expressions: the loop variable becomes Ramp(min, 1, L), scalar subexpressions
// are Broadcast to L lanes, and Load/Store become lane-typed. Lane-dependent guards
// (non-exact split conditions, inlined padding) are converted into predicated
// stores/loads so no lane evaluates an access its guard masks off. Loops wider than
// kMaxDirectLanes are strip-mined into full-width vector chunks plus a scalar tail.
//
// The pass is conservative: anything it cannot prove vectorizable (vector-dependent
// nested loop bounds, allocations or opaque intrinsic calls in the body, already-vector
// IR) leaves the loop untouched, and the engines keep executing it serially — exactly
// the pre-pass semantics.
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ir/functor.h"
#include "src/ir/intrin_table.h"
#include "src/ir/simplify.h"
#include "src/ir/substitute.h"
#include "src/lower/lower.h"

namespace tvmcpp {

namespace {

// Loops up to this extent vectorize in one shot (lanes == extent); wider loops are
// strip-mined at kStripLanes with a scalar tail for the remainder.
constexpr int64_t kMaxDirectLanes = 64;
constexpr int64_t kStripLanes = 16;

// Appends `pred` (lane-wise AND) to the predicate of every Load inside an expression.
// Used when a lane-dependent guard is pushed into the arms of a Select/if_then_else or
// into a guarded store: masked-off lanes must not trap on out-of-bounds reads. A load
// whose width differs from the mask (a lane-invariant load under a Broadcast) cannot
// carry the lane predicate — the scalar evaluation path would test it at one lane —
// so masking fails and the caller keeps the loop serial.
class LoadMasker : public ExprMutator {
 public:
  explicit LoadMasker(Expr pred) : pred_(std::move(pred)) {}

  bool ok() const { return ok_; }

 protected:
  Expr MutateLoad(const LoadNode* op, const Expr& e) override {
    Expr base = ExprMutator::MutateLoad(op, e);
    const auto* n = static_cast<const LoadNode*>(base.get());
    if (n->dtype.lanes() != pred_->dtype.lanes()) {
      ok_ = false;
      return base;
    }
    Expr pred = n->predicate == nullptr ? pred_ : logic_and(n->predicate, pred_);
    return load(n->dtype, n->buffer_var, n->index, pred);
  }

 private:
  Expr pred_;
  bool ok_ = true;
};

Expr MaskLoads(const Expr& e, const Expr& pred, bool* ok) {
  LoadMasker m(pred);
  Expr out = m.Mutate(e);
  *ok &= m.ok();
  return out;
}

// Computes the constant per-lane stride of a vector index expression: e is affine in
// the lane number with `*stride` per lane (Broadcast contributes 0, Ramp its constant
// stride, +/-/* combine). Returns false when the lane dependence is not provably
// affine (div/mod of the lane, gathers, ...).
bool LaneStride(const Expr& e, int64_t* stride) {
  if (e->dtype.lanes() == 1) {
    *stride = 0;
    return true;
  }
  switch (e->kind) {
    case ExprKind::kBroadcast:
      *stride = 0;
      return true;
    case ExprKind::kRamp:
      return is_const_int(static_cast<const RampNode*>(e.get())->stride, stride);
    case ExprKind::kAdd:
    case ExprKind::kSub: {
      const auto* n = static_cast<const BinaryNode*>(e.get());
      int64_t sa, sb;
      if (!LaneStride(n->a, &sa) || !LaneStride(n->b, &sb)) {
        return false;
      }
      *stride = e->kind == ExprKind::kAdd ? sa + sb : sa - sb;
      return true;
    }
    case ExprKind::kMul: {
      const auto* n = static_cast<const BinaryNode*>(e.get());
      auto const_side = [](const Expr& x, int64_t* c) {
        Expr v = x;
        if (v->kind == ExprKind::kBroadcast) {
          v = static_cast<const BroadcastNode*>(v.get())->value;
        }
        return is_const_int(v, c);
      };
      int64_t c, s;
      if (const_side(n->a, &c) && LaneStride(n->b, &s)) {
        *stride = c * s;
        return true;
      }
      if (const_side(n->b, &c) && LaneStride(n->a, &s)) {
        *stride = c * s;
        return true;
      }
      return false;
    }
    default:
      return false;
  }
}

// True when `e` provably addresses a distinct element per lane.
bool LaneInjective(const Expr& e) {
  int64_t stride;
  return LaneStride(e, &stride) && stride != 0;
}

// Whole-body dependence check on a vectorized loop body. Serial execution
// interleaves all statements per iteration, while the vector form completes each
// statement for all lanes before the next — so a load of a buffer that the body also
// stores is only safe when every store to that buffer hits exactly the load's
// address lane-for-lane: structurally equal indices that are injective across lanes
// (the read-modify-write pattern C[i] = C[i] + ...). Anything else — a shifted index
// (A[i+1] = A[i] + 1), a colliding index (C[i/2] += A[i]), or a cross-statement
// overlap ({A[i] = B[i]; C[i] = A[i+1]}) — reorders reads against writes and must
// keep the loop serial.
class DependenceScanner : public StmtVisitor {
 public:
  bool Hazardous(const Stmt& body) {
    PostOrderVisitStmt(body, [&](const Stmt& st) {
      if (st->kind == StmtKind::kStore) {
        const auto* n = static_cast<const StoreNode*>(st.get());
        stores_[n->buffer_var.get()].push_back(n->index);
      }
    });
    if (stores_.empty()) {
      return false;
    }
    VisitStmt(body);
    return hazardous_;
  }

 protected:
  void VisitLoad(const LoadNode* op) override {
    ExprVisitor::VisitLoad(op);
    auto it = stores_.find(op->buffer_var.get());
    if (it == stores_.end()) {
      return;
    }
    for (const Expr& store_idx : it->second) {
      if (!LaneInjective(store_idx) || !StructuralEqual(store_idx, op->index)) {
        hazardous_ = true;
      }
    }
  }

 private:
  std::unordered_map<const VarNode*, std::vector<Expr>> stores_;
  bool hazardous_ = false;
};

// True when `e` contains an integer division/modulo whose divisor is not a non-zero
// constant. The VM evaluates masked-off and not-taken lanes eagerly (loads are
// maskable, arithmetic is not), so such an expression could trap with a division by
// zero on a lane the guard excluded — the interpreter's lazy per-lane evaluation
// would not. Callers bail to serial in that case.
bool HasTrappingDivMod(const Expr& e) {
  bool found = false;
  PostOrderVisit(e, [&](const Expr& x) {
    if (x->kind != ExprKind::kDiv && x->kind != ExprKind::kMod) {
      return;
    }
    if (x->kind == ExprKind::kDiv && x->dtype.is_float()) {
      return;  // float division does not trap
    }
    Expr d = static_cast<const BinaryNode*>(x.get())->b;
    if (d->kind == ExprKind::kBroadcast) {
      d = static_cast<const BroadcastNode*>(d.get())->value;
    }
    int64_t v;
    if (!(is_const_int(d, &v) && v != 0)) {
      found = true;
    }
  });
  return found;
}

// Rewrites one loop body: loop_var -> Ramp(base, 1, lanes), propagating vector dtypes
// upward. Sets failed() instead of throwing so the caller can keep the serial loop.
class Vectorizer : public StmtMutator {
 public:
  Vectorizer(const VarNode* var, Expr base, int lanes)
      : var_(var), lanes_(lanes), ramp_(ramp(std::move(base), make_int(1), lanes)) {}

  bool failed() const { return failed_; }
  const std::string& reason() const { return reason_; }

 protected:
  Expr MutateVar(const VarNode* op, const Expr& e) override {
    return op == var_ ? ramp_ : e;
  }

  Expr MutateBinary(const BinaryNode* op, const Expr& e) override {
    Expr a = Mutate(op->a);
    Expr b = Mutate(op->b);
    if (a->dtype.lanes() == 1 && b->dtype.lanes() == 1) {
      if (a.get() == op->a.get() && b.get() == op->b.get()) {
        return e;
      }
      return RebuildBinary(op->kind, std::move(a), std::move(b));
    }
    if (op->kind == ExprKind::kAdd) {
      // scalar + ramp(base, stride) is ramp(scalar + base, stride): one ramp instead
      // of a broadcast, a ramp and a vector add, with the same integer per lane.
      if (a->kind == ExprKind::kRamp && b->dtype.lanes() == 1) {
        std::swap(a, b);
      }
      const auto* r = b->kind == ExprKind::kRamp ? static_cast<const RampNode*>(b.get())
                                                 : nullptr;
      if (r != nullptr && r->lanes == lanes_ && a->dtype.lanes() == 1 && a->dtype.is_int()) {
        return ramp(add(std::move(a), r->base), r->stride, r->lanes);
      }
    }
    a = VectorizeTo(std::move(a));
    b = VectorizeTo(std::move(b));
    if (failed_) {
      return e;
    }
    return RebuildBinary(op->kind, std::move(a), std::move(b));
  }

  Expr MutateCast(const CastNode* op, const Expr& e) override {
    Expr v = Mutate(op->value);
    if (v->dtype.lanes() == 1) {
      return v.get() == op->value.get() ? e : cast(op->dtype, v);
    }
    return cast(op->dtype.with_lanes(v->dtype.lanes()), v);
  }

  Expr MutateNot(const NotNode* op, const Expr& e) override {
    Expr a = Mutate(op->a);
    return a.get() == op->a.get() ? e : logic_not(a);
  }

  Expr MutateLoad(const LoadNode* op, const Expr& e) override {
    Expr index = Mutate(op->index);
    Expr pred = op->predicate == nullptr ? nullptr : Mutate(op->predicate);
    bool vec = index->dtype.lanes() > 1 || (pred != nullptr && pred->dtype.lanes() > 1);
    if (!vec) {
      if (index.get() == op->index.get() &&
          (op->predicate == nullptr || pred.get() == op->predicate.get())) {
        return e;
      }
      return load(op->dtype, op->buffer_var, index, pred);
    }
    if (op->dtype.lanes() != 1) {
      return FailWith(e, "load is already vector-typed");
    }
    index = VectorizeTo(std::move(index));
    if (pred != nullptr) {
      pred = VectorizeTo(std::move(pred));
      if (HasTrappingDivMod(index)) {
        // Masked lanes still evaluate the index eagerly on the VM.
        return FailWith(e, "trapping div/mod in a predicated load index");
      }
      bool maskable = true;
      index = MaskLoads(index, pred, &maskable);
      if (!maskable) {
        return FailWith(e, "lane-invariant load in a predicated load index");
      }
    }
    if (failed_) {
      return e;
    }
    return load(op->dtype.with_lanes(lanes_), op->buffer_var, index, pred);
  }

  Expr MutateSelect(const SelectNode* op, const Expr& e) override {
    return MutateConditional(op->condition, op->true_value, op->false_value, e);
  }

  Expr MutateCall(const CallNode* op, const Expr& e) override {
    if (op->name == "if_then_else" && op->args.size() == 3) {
      return MutateConditional(op->args[0], op->args[1], op->args[2], e);
    }
    bool any_vec = false;
    bool changed = false;
    std::vector<Expr> args;
    args.reserve(op->args.size());
    for (const Expr& a : op->args) {
      Expr m = Mutate(a);
      any_vec |= m->dtype.lanes() > 1;
      changed |= m.get() != a.get();
      args.push_back(std::move(m));
    }
    if (!any_vec) {
      if (!changed) {
        return e;
      }
      return std::make_shared<CallNode>(op->dtype, op->name, std::move(args),
                                        op->call_type);
    }
    // Lane-wise pure math intrinsics vectorize; opaque/hardware intrinsics do not.
    if (op->call_type == CallType::kPureIntrinsic && args.size() == 1 &&
        (IsUnaryMathIntrin(op->name) || op->name == "popcount")) {
      return std::make_shared<CallNode>(op->dtype.with_lanes(lanes_), op->name,
                                        std::move(args), op->call_type);
    }
    return FailWith(e, "call " + op->name + " with vector argument");
  }

  Expr MutateLet(const LetNode* op, const Expr& e) override {
    Expr value = Mutate(op->value);
    if (value->dtype.lanes() == 1) {
      Expr body = Mutate(op->body);
      if (value.get() == op->value.get() && body.get() == op->body.get()) {
        return e;
      }
      return let(op->var, value, body);
    }
    // Vector-valued binding: inline the (pure) definition so neither engine needs
    // vector-typed environment slots.
    VarMap vmap{{op->var.get(), op->value}};
    return Mutate(Substitute(op->body, vmap));
  }

  Expr MutateRamp(const RampNode* op, const Expr& e) override {
    Expr base = Mutate(op->base);
    Expr stride = Mutate(op->stride);
    if (base.get() == op->base.get() && stride.get() == op->stride.get()) {
      return e;
    }
    return FailWith(e, "ramp over the vectorized variable");
  }

  Expr MutateBroadcast(const BroadcastNode* op, const Expr& e) override {
    Expr v = Mutate(op->value);
    if (v.get() == op->value.get()) {
      return e;
    }
    return FailWith(e, "broadcast over the vectorized variable");
  }

  Expr MutateReduce(const ReduceNode* op, const Expr& e) override {
    return FailWith(e, "reduce in vectorized body");
  }

  Expr MutateTensorRead(const TensorReadNode* op, const Expr& e) override {
    return FailWith(e, "tensor read in vectorized body");
  }

  Stmt MutateStore(const StoreNode* op, const Stmt& s) override {
    Expr index = Mutate(op->index);
    Expr value = Mutate(op->value);
    Expr pred = op->predicate == nullptr ? nullptr : Mutate(op->predicate);
    bool vec = index->dtype.lanes() > 1 || value->dtype.lanes() > 1 ||
               (pred != nullptr && pred->dtype.lanes() > 1);
    if (!vec) {
      if (index.get() == op->index.get() && value.get() == op->value.get() &&
          (op->predicate == nullptr || pred.get() == op->predicate.get())) {
        return s;
      }
      return store(op->buffer_var, value, index, pred);
    }
    if (index->dtype.lanes() == 1) {
      // Lane-invariant address (e.g. a reduction into one element): the serial loop
      // carries a dependence across lanes, so vectorizing would drop all but the last
      // write. Keep the loop serial.
      FailWith(index, "vectorized store to a lane-invariant address");
      return s;
    }
    index = VectorizeTo(std::move(index));
    value = VectorizeTo(std::move(value));
    if (pred != nullptr) {
      pred = VectorizeTo(std::move(pred));
    }
    if (failed_) {
      return s;
    }
    return store(op->buffer_var, value, index, pred);
  }

  Stmt MutateIfThenElse(const IfThenElseNode* op, const Stmt& s) override {
    Expr cond = Mutate(op->condition);
    if (cond->dtype.lanes() == 1) {
      return StmtMutator::MutateIfThenElse(op, s);
    }
    // Lane-dependent guard (non-exact split): push it into the guarded stores as a
    // lane predicate. Anything but a plain store nest under such a guard bails out.
    if (op->else_case != nullptr) {
      FailWith(Expr(cond), "lane-dependent guard with an else branch");
      return s;
    }
    Stmt body = MutateStmt(op->then_case);
    if (failed_) {
      return s;
    }
    Stmt predicated = PredicateStores(body, cond);
    if (predicated == nullptr) {
      FailWith(Expr(cond), "lane-dependent guard over a non-store body");
      return s;
    }
    return predicated;
  }

  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    Expr mn = Mutate(op->min);
    Expr extent = Mutate(op->extent);
    if (mn->dtype.lanes() != 1 || extent->dtype.lanes() != 1) {
      FailWith(extent, "loop bounds depend on the vectorized variable");
      return s;
    }
    Stmt body = MutateStmt(op->body);
    if (mn.get() == op->min.get() && extent.get() == op->extent.get() &&
        body.get() == op->body.get()) {
      return s;
    }
    return for_stmt(op->loop_var, mn, extent, body, op->for_type, op->thread_tag);
  }

  Stmt MutateAllocate(const AllocateNode* op, const Stmt& s) override {
    FailWith(Expr(nullptr), "allocation inside a vectorized body");
    return s;
  }

  Stmt MutateAssert(const AssertStmtNode* op, const Stmt& s) override {
    Expr cond = Mutate(op->condition);
    if (cond->dtype.lanes() != 1) {
      FailWith(cond, "assert condition depends on the vectorized variable");
      return s;
    }
    return StmtMutator::MutateAssert(op, s);
  }

  Stmt MutateLetStmt(const LetStmtNode* op, const Stmt& s) override {
    Expr value = Mutate(op->value);
    if (value->dtype.lanes() == 1) {
      Stmt body = MutateStmt(op->body);
      if (value.get() == op->value.get() && body.get() == op->body.get()) {
        return s;
      }
      return let_stmt(op->var, value, body);
    }
    VarMap vmap{{op->var.get(), op->value}};
    return MutateStmt(Substitute(op->body, vmap));
  }

  Stmt MutateEvaluate(const EvaluateNode* op, const Stmt& s) override {
    Expr v = Mutate(op->value);
    if (v->dtype.lanes() != 1) {
      FailWith(v, "evaluate of a vector expression");
      return s;
    }
    return v.get() == op->value.get() ? s : evaluate(v);
  }

 private:
  // Broadcasts a scalar to the vectorization width; width mismatches fail.
  Expr VectorizeTo(Expr e) {
    if (e->dtype.lanes() == lanes_) {
      return e;
    }
    if (e->dtype.lanes() == 1) {
      return broadcast(std::move(e), lanes_);
    }
    return FailWith(e, "mixed vector widths");
  }

  Expr FailWith(const Expr& e, const std::string& why) {
    if (!failed_) {
      failed_ = true;
      reason_ = why;
    }
    return e;
  }

  static Expr RebuildBinary(ExprKind kind, Expr a, Expr b) {
    switch (kind) {
      case ExprKind::kAdd: return add(std::move(a), std::move(b));
      case ExprKind::kSub: return sub(std::move(a), std::move(b));
      case ExprKind::kMul: return mul(std::move(a), std::move(b));
      case ExprKind::kDiv: return div(std::move(a), std::move(b));
      case ExprKind::kMod: return mod(std::move(a), std::move(b));
      case ExprKind::kMin: return min(std::move(a), std::move(b));
      case ExprKind::kMax: return max(std::move(a), std::move(b));
      case ExprKind::kEQ: return eq(std::move(a), std::move(b));
      case ExprKind::kNE: return ne(std::move(a), std::move(b));
      case ExprKind::kLT: return lt(std::move(a), std::move(b));
      case ExprKind::kLE: return le(std::move(a), std::move(b));
      case ExprKind::kGT: return gt(std::move(a), std::move(b));
      case ExprKind::kGE: return ge(std::move(a), std::move(b));
      case ExprKind::kAnd: return logic_and(std::move(a), std::move(b));
      case ExprKind::kOr: return logic_or(std::move(a), std::move(b));
      default:
        LOG(FATAL) << "not a binary kind";
    }
  }

  // Lane-dependent conditional: both arms are evaluated lane-wise and blended, so the
  // guard is pushed into each arm's loads (a masked-off lane must not trap on the
  // access its guard was protecting). Loads read 0 on masked lanes; those lanes are
  // discarded by the select.
  Expr MutateConditional(const Expr& cond0, const Expr& tval0, const Expr& fval0,
                         const Expr& e) {
    Expr cond = Mutate(cond0);
    Expr tval = Mutate(tval0);
    Expr fval = Mutate(fval0);
    bool vec = cond->dtype.lanes() > 1 || tval->dtype.lanes() > 1 ||
               fval->dtype.lanes() > 1;
    if (!vec) {
      if (cond.get() == cond0.get() && tval.get() == tval0.get() &&
          fval.get() == fval0.get()) {
        return e;
      }
      if (e->kind == ExprKind::kSelect) {
        return select(cond, tval, fval);
      }
      return if_then_else(cond, tval, fval);
    }
    cond = VectorizeTo(std::move(cond));
    tval = VectorizeTo(std::move(tval));
    fval = VectorizeTo(std::move(fval));
    if (failed_) {
      return e;
    }
    if (HasTrappingDivMod(tval) || HasTrappingDivMod(fval)) {
      return FailWith(e, "trapping div/mod under a lane-dependent conditional");
    }
    bool maskable = true;
    tval = MaskLoads(tval, cond, &maskable);
    fval = MaskLoads(fval, logic_not(cond), &maskable);
    if (!maskable) {
      return FailWith(e, "lane-invariant load under a lane-dependent conditional");
    }
    return select(cond, tval, fval);
  }

  // Applies `cond` as a lane predicate to every store in a store-only statement tree
  // (also masking loads inside the stored values). Returns nullptr when the tree
  // contains anything but stores/seqs, when a store's address is lane-invariant (the
  // scalar store path would test the vector predicate at lane 0 only), or when a
  // masked lane could still trap in eagerly evaluated arithmetic.
  static Stmt PredicateStores(const Stmt& s, const Expr& cond) {
    if (s == nullptr) {
      return nullptr;
    }
    if (s->kind == StmtKind::kStore) {
      const auto* n = static_cast<const StoreNode*>(s.get());
      if (n->index->dtype.lanes() == 1 || HasTrappingDivMod(n->value) ||
          HasTrappingDivMod(n->index)) {
        return nullptr;
      }
      // Loads nested in the index are masked too: the VM evaluates the full index
      // vector even for lanes the store predicate skips.
      bool maskable = true;
      Expr value = MaskLoads(n->value, cond, &maskable);
      Expr index = MaskLoads(n->index, cond, &maskable);
      if (!maskable) {
        return nullptr;
      }
      Expr pred = n->predicate == nullptr ? cond : logic_and(n->predicate, cond);
      return store(n->buffer_var, value, index, pred);
    }
    if (s->kind == StmtKind::kSeq) {
      std::vector<Stmt> out;
      for (const Stmt& st : static_cast<const SeqStmtNode*>(s.get())->seq) {
        Stmt p = PredicateStores(st, cond);
        if (p == nullptr) {
          return nullptr;
        }
        out.push_back(std::move(p));
      }
      return seq(std::move(out));
    }
    return nullptr;
  }

  const VarNode* var_;
  int lanes_;
  Expr ramp_;
  bool failed_ = false;
  std::string reason_;
};

class LoopVectorizer : public StmtMutator {
 protected:
  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    Stmt base = StmtMutator::MutateFor(op, s);  // inner loops vectorize first
    const auto* n = static_cast<const ForNode*>(base.get());
    if (n->for_type != ForType::kVectorized) {
      return base;
    }
    int64_t extent, mn;
    if (!is_const_int(n->extent, &extent) || !is_const_int(n->min, &mn) || extent < 2) {
      return base;  // dynamic or trivial extent: keep serial semantics
    }
    if (extent <= kMaxDirectLanes) {
      Stmt v = TryVectorize(n->loop_var, make_int(mn), static_cast<int>(extent),
                            n->body);
      return v == nullptr ? base : v;
    }
    // Strip-mine: full-width vector chunks plus a scalar tail for the remainder.
    int64_t chunks = extent / kStripLanes;
    int64_t tail = extent % kStripLanes;
    Var chunk = make_var(n->loop_var->name + ".vo", n->loop_var->dtype);
    Expr chunk_base = Simplify(make_int(mn) + Expr(chunk) * make_int(kStripLanes));
    Stmt vbody = TryVectorize(n->loop_var, chunk_base, static_cast<int>(kStripLanes),
                              n->body);
    if (vbody == nullptr) {
      return base;
    }
    Stmt vloop = for_stmt(chunk, make_int(0), make_int(chunks), vbody);
    if (tail == 0) {
      return vloop;
    }
    Stmt tail_loop = for_stmt(n->loop_var, make_int(mn + chunks * kStripLanes),
                              make_int(tail), n->body);
    return seq({std::move(vloop), std::move(tail_loop)});
  }

 private:
  static Stmt TryVectorize(const Var& loop_var, Expr lane_base, int lanes,
                           const Stmt& body) {
    Vectorizer vec(loop_var.get(), std::move(lane_base), lanes);
    Stmt out = vec.MutateStmt(body);
    if (vec.failed()) {
      LOG(INFO) << "vectorize: loop over " << loop_var->name
                << " stays serial: " << vec.reason();
      return nullptr;
    }
    DependenceScanner deps;
    if (deps.Hazardous(out)) {
      LOG(INFO) << "vectorize: loop over " << loop_var->name
                << " stays serial: cross-lane load/store dependence";
      return nullptr;
    }
    return Simplify(out);
  }
};

}  // namespace

Stmt VectorizeLoop(const Stmt& s) {
  LoopVectorizer v;
  return v.MutateStmt(s);
}

}  // namespace tvmcpp
