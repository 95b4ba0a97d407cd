#include "src/ir/functor.h"

#include <memory>
#include <utility>
#include <vector>

namespace tvmcpp {

namespace {

bool IsBinaryKind(ExprKind k) {
  switch (k) {
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
      return true;
    default:
      return false;
  }
}

}  // namespace

void ExprVisitor::Visit(const Expr& e) {
  if (e == nullptr) {
    return;
  }
  if (IsBinaryKind(e->kind)) {
    VisitBinary(static_cast<const BinaryNode*>(e.get()));
    return;
  }
  switch (e->kind) {
    case ExprKind::kVar:
      VisitVar(static_cast<const VarNode*>(e.get()));
      break;
    case ExprKind::kIntImm:
      VisitIntImm(static_cast<const IntImmNode*>(e.get()));
      break;
    case ExprKind::kFloatImm:
      VisitFloatImm(static_cast<const FloatImmNode*>(e.get()));
      break;
    case ExprKind::kStringImm:
      VisitStringImm(static_cast<const StringImmNode*>(e.get()));
      break;
    case ExprKind::kCast:
      VisitCast(static_cast<const CastNode*>(e.get()));
      break;
    case ExprKind::kNot:
      VisitNot(static_cast<const NotNode*>(e.get()));
      break;
    case ExprKind::kSelect:
      VisitSelect(static_cast<const SelectNode*>(e.get()));
      break;
    case ExprKind::kLoad:
      VisitLoad(static_cast<const LoadNode*>(e.get()));
      break;
    case ExprKind::kRamp:
      VisitRamp(static_cast<const RampNode*>(e.get()));
      break;
    case ExprKind::kBroadcast:
      VisitBroadcast(static_cast<const BroadcastNode*>(e.get()));
      break;
    case ExprKind::kCall:
      VisitCall(static_cast<const CallNode*>(e.get()));
      break;
    case ExprKind::kLet:
      VisitLet(static_cast<const LetNode*>(e.get()));
      break;
    case ExprKind::kReduce:
      VisitReduce(static_cast<const ReduceNode*>(e.get()));
      break;
    case ExprKind::kTensorRead:
      VisitTensorRead(static_cast<const TensorReadNode*>(e.get()));
      break;
    default:
      LOG(FATAL) << "unhandled expr kind";
  }
}

void ExprVisitor::VisitCast(const CastNode* op) { Visit(op->value); }
void ExprVisitor::VisitBinary(const BinaryNode* op) {
  Visit(op->a);
  Visit(op->b);
}
void ExprVisitor::VisitNot(const NotNode* op) { Visit(op->a); }
void ExprVisitor::VisitSelect(const SelectNode* op) {
  Visit(op->condition);
  Visit(op->true_value);
  Visit(op->false_value);
}
void ExprVisitor::VisitLoad(const LoadNode* op) {
  Visit(op->index);
  if (op->predicate) {
    Visit(op->predicate);
  }
}
void ExprVisitor::VisitRamp(const RampNode* op) {
  Visit(op->base);
  Visit(op->stride);
}
void ExprVisitor::VisitBroadcast(const BroadcastNode* op) { Visit(op->value); }
void ExprVisitor::VisitCall(const CallNode* op) {
  for (const Expr& a : op->args) {
    Visit(a);
  }
}
void ExprVisitor::VisitLet(const LetNode* op) {
  Visit(op->value);
  Visit(op->body);
}
void ExprVisitor::VisitReduce(const ReduceNode* op) {
  Visit(op->source);
  Visit(op->identity);
  if (op->condition != nullptr) {
    Visit(op->condition);
  }
}
void ExprVisitor::VisitTensorRead(const TensorReadNode* op) {
  for (const Expr& i : op->indices) {
    Visit(i);
  }
}

void StmtVisitor::VisitStmt(const Stmt& s) {
  if (s == nullptr) {
    return;
  }
  switch (s->kind) {
    case StmtKind::kLetStmt:
      VisitLetStmt(static_cast<const LetStmtNode*>(s.get()));
      break;
    case StmtKind::kAttrStmt:
      VisitAttrStmt(static_cast<const AttrStmtNode*>(s.get()));
      break;
    case StmtKind::kAssert:
      VisitAssert(static_cast<const AssertStmtNode*>(s.get()));
      break;
    case StmtKind::kStore:
      VisitStore(static_cast<const StoreNode*>(s.get()));
      break;
    case StmtKind::kAllocate:
      VisitAllocate(static_cast<const AllocateNode*>(s.get()));
      break;
    case StmtKind::kFor:
      VisitFor(static_cast<const ForNode*>(s.get()));
      break;
    case StmtKind::kIfThenElse:
      VisitIfThenElse(static_cast<const IfThenElseNode*>(s.get()));
      break;
    case StmtKind::kSeq:
      VisitSeq(static_cast<const SeqStmtNode*>(s.get()));
      break;
    case StmtKind::kEvaluate:
      VisitEvaluate(static_cast<const EvaluateNode*>(s.get()));
      break;
  }
}

void StmtVisitor::VisitLetStmt(const LetStmtNode* op) {
  Visit(op->value);
  VisitStmt(op->body);
}
void StmtVisitor::VisitAttrStmt(const AttrStmtNode* op) {
  if (op->value) {
    Visit(op->value);
  }
  VisitStmt(op->body);
}
void StmtVisitor::VisitAssert(const AssertStmtNode* op) {
  Visit(op->condition);
  VisitStmt(op->body);
}
void StmtVisitor::VisitStore(const StoreNode* op) {
  Visit(op->value);
  Visit(op->index);
  if (op->predicate) {
    Visit(op->predicate);
  }
}
void StmtVisitor::VisitAllocate(const AllocateNode* op) {
  for (const Expr& e : op->extents) {
    Visit(e);
  }
  VisitStmt(op->body);
}
void StmtVisitor::VisitFor(const ForNode* op) {
  Visit(op->min);
  Visit(op->extent);
  VisitStmt(op->body);
}
void StmtVisitor::VisitIfThenElse(const IfThenElseNode* op) {
  Visit(op->condition);
  VisitStmt(op->then_case);
  if (op->else_case) {
    VisitStmt(op->else_case);
  }
}
void StmtVisitor::VisitSeq(const SeqStmtNode* op) {
  for (const Stmt& s : op->seq) {
    VisitStmt(s);
  }
}
void StmtVisitor::VisitEvaluate(const EvaluateNode* op) { Visit(op->value); }

Expr ExprMutator::Mutate(const Expr& e) {
  if (e == nullptr) {
    return e;
  }
  if (IsBinaryKind(e->kind)) {
    return MutateBinary(static_cast<const BinaryNode*>(e.get()), e);
  }
  switch (e->kind) {
    case ExprKind::kVar:
      return MutateVar(static_cast<const VarNode*>(e.get()), e);
    case ExprKind::kIntImm:
      return MutateIntImm(static_cast<const IntImmNode*>(e.get()), e);
    case ExprKind::kFloatImm:
      return MutateFloatImm(static_cast<const FloatImmNode*>(e.get()), e);
    case ExprKind::kStringImm:
      return MutateStringImm(static_cast<const StringImmNode*>(e.get()), e);
    case ExprKind::kCast:
      return MutateCast(static_cast<const CastNode*>(e.get()), e);
    case ExprKind::kNot:
      return MutateNot(static_cast<const NotNode*>(e.get()), e);
    case ExprKind::kSelect:
      return MutateSelect(static_cast<const SelectNode*>(e.get()), e);
    case ExprKind::kLoad:
      return MutateLoad(static_cast<const LoadNode*>(e.get()), e);
    case ExprKind::kRamp:
      return MutateRamp(static_cast<const RampNode*>(e.get()), e);
    case ExprKind::kBroadcast:
      return MutateBroadcast(static_cast<const BroadcastNode*>(e.get()), e);
    case ExprKind::kCall:
      return MutateCall(static_cast<const CallNode*>(e.get()), e);
    case ExprKind::kLet:
      return MutateLet(static_cast<const LetNode*>(e.get()), e);
    case ExprKind::kReduce:
      return MutateReduce(static_cast<const ReduceNode*>(e.get()), e);
    case ExprKind::kTensorRead:
      return MutateTensorRead(static_cast<const TensorReadNode*>(e.get()), e);
    default:
      LOG(FATAL) << "unhandled expr kind";
  }
}

Expr ExprMutator::MutateCast(const CastNode* op, const Expr& e) {
  Expr v = Mutate(op->value);
  if (v.get() == op->value.get()) {
    return e;
  }
  return std::make_shared<CastNode>(op->dtype, std::move(v));
}

Expr ExprMutator::MutateBinary(const BinaryNode* op, const Expr& e) {
  Expr a = Mutate(op->a);
  Expr b = Mutate(op->b);
  if (a.get() == op->a.get() && b.get() == op->b.get()) {
    return e;
  }
  switch (op->kind) {
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

Expr ExprMutator::MutateNot(const NotNode* op, const Expr& e) {
  Expr a = Mutate(op->a);
  if (a.get() == op->a.get()) {
    return e;
  }
  return logic_not(a);
}

Expr ExprMutator::MutateSelect(const SelectNode* op, const Expr& e) {
  Expr c = Mutate(op->condition);
  Expr t = Mutate(op->true_value);
  Expr f = Mutate(op->false_value);
  if (c.get() == op->condition.get() && t.get() == op->true_value.get() &&
      f.get() == op->false_value.get()) {
    return e;
  }
  return select(c, t, f);
}

Expr ExprMutator::MutateLoad(const LoadNode* op, const Expr& e) {
  Expr index = Mutate(op->index);
  Expr pred = op->predicate ? Mutate(op->predicate) : nullptr;
  if (index.get() == op->index.get() && pred.get() == op->predicate.get()) {
    return e;
  }
  return load(op->dtype, op->buffer_var, index, pred);
}

Expr ExprMutator::MutateRamp(const RampNode* op, const Expr& e) {
  Expr base = Mutate(op->base);
  Expr stride = Mutate(op->stride);
  if (base.get() == op->base.get() && stride.get() == op->stride.get()) {
    return e;
  }
  return ramp(base, stride, op->lanes);
}

Expr ExprMutator::MutateBroadcast(const BroadcastNode* op, const Expr& e) {
  Expr v = Mutate(op->value);
  if (v.get() == op->value.get()) {
    return e;
  }
  return std::make_shared<BroadcastNode>(std::move(v), op->lanes);
}

Expr ExprMutator::MutateCall(const CallNode* op, const Expr& e) {
  bool changed = false;
  std::vector<Expr> args;
  args.reserve(op->args.size());
  for (const Expr& a : op->args) {
    Expr na = Mutate(a);
    changed |= na.get() != a.get();
    args.push_back(std::move(na));
  }
  if (!changed) {
    return e;
  }
  return std::make_shared<CallNode>(op->dtype, op->name, std::move(args), op->call_type);
}

Expr ExprMutator::MutateLet(const LetNode* op, const Expr& e) {
  Expr value = Mutate(op->value);
  Expr body = Mutate(op->body);
  if (value.get() == op->value.get() && body.get() == op->body.get()) {
    return e;
  }
  return let(op->var, value, body);
}

Expr ExprMutator::MutateReduce(const ReduceNode* op, const Expr& e) {
  Expr source = Mutate(op->source);
  Expr identity = Mutate(op->identity);
  Expr condition = op->condition == nullptr ? nullptr : Mutate(op->condition);
  if (source.get() == op->source.get() && identity.get() == op->identity.get() &&
      condition.get() == op->condition.get()) {
    return e;
  }
  return std::make_shared<ReduceNode>(op->op, std::move(source), op->axis, std::move(identity),
                                      std::move(condition));
}

Expr ExprMutator::MutateTensorRead(const TensorReadNode* op, const Expr& e) {
  bool changed = false;
  std::vector<Expr> indices;
  indices.reserve(op->indices.size());
  for (const Expr& i : op->indices) {
    Expr ni = Mutate(i);
    changed |= ni.get() != i.get();
    indices.push_back(std::move(ni));
  }
  if (!changed) {
    return e;
  }
  return tensor_read(op->dtype, op->op, op->value_index, op->name, std::move(indices));
}

Stmt StmtMutator::MutateStmt(const Stmt& s) {
  if (s == nullptr) {
    return s;
  }
  switch (s->kind) {
    case StmtKind::kLetStmt:
      return MutateLetStmt(static_cast<const LetStmtNode*>(s.get()), s);
    case StmtKind::kAttrStmt:
      return MutateAttrStmt(static_cast<const AttrStmtNode*>(s.get()), s);
    case StmtKind::kAssert:
      return MutateAssert(static_cast<const AssertStmtNode*>(s.get()), s);
    case StmtKind::kStore:
      return MutateStore(static_cast<const StoreNode*>(s.get()), s);
    case StmtKind::kAllocate:
      return MutateAllocate(static_cast<const AllocateNode*>(s.get()), s);
    case StmtKind::kFor:
      return MutateFor(static_cast<const ForNode*>(s.get()), s);
    case StmtKind::kIfThenElse:
      return MutateIfThenElse(static_cast<const IfThenElseNode*>(s.get()), s);
    case StmtKind::kSeq:
      return MutateSeq(static_cast<const SeqStmtNode*>(s.get()), s);
    case StmtKind::kEvaluate:
      return MutateEvaluate(static_cast<const EvaluateNode*>(s.get()), s);
  }
  LOG(FATAL) << "unhandled stmt kind";
}

Stmt StmtMutator::MutateLetStmt(const LetStmtNode* op, const Stmt& s) {
  Expr value = Mutate(op->value);
  Stmt body = MutateStmt(op->body);
  if (value.get() == op->value.get() && body.get() == op->body.get()) {
    return s;
  }
  return let_stmt(op->var, value, body);
}

Stmt StmtMutator::MutateAttrStmt(const AttrStmtNode* op, const Stmt& s) {
  Expr value = op->value ? Mutate(op->value) : nullptr;
  Stmt body = MutateStmt(op->body);
  if (value.get() == op->value.get() && body.get() == op->body.get()) {
    return s;
  }
  return attr_stmt(op->key, value, body);
}

Stmt StmtMutator::MutateAssert(const AssertStmtNode* op, const Stmt& s) {
  Expr cond = Mutate(op->condition);
  Stmt body = MutateStmt(op->body);
  if (cond.get() == op->condition.get() && body.get() == op->body.get()) {
    return s;
  }
  return assert_stmt(cond, op->message, body);
}

Stmt StmtMutator::MutateStore(const StoreNode* op, const Stmt& s) {
  Expr value = Mutate(op->value);
  Expr index = Mutate(op->index);
  Expr pred = op->predicate ? Mutate(op->predicate) : nullptr;
  if (value.get() == op->value.get() && index.get() == op->index.get() &&
      pred.get() == op->predicate.get()) {
    return s;
  }
  return store(op->buffer_var, value, index, pred);
}

Stmt StmtMutator::MutateAllocate(const AllocateNode* op, const Stmt& s) {
  bool changed = false;
  std::vector<Expr> extents;
  extents.reserve(op->extents.size());
  for (const Expr& e : op->extents) {
    Expr ne = Mutate(e);
    changed |= ne.get() != e.get();
    extents.push_back(std::move(ne));
  }
  Stmt body = MutateStmt(op->body);
  changed |= body.get() != op->body.get();
  if (!changed) {
    return s;
  }
  return allocate(op->buffer_var, op->dtype, std::move(extents), op->scope, body);
}

Stmt StmtMutator::MutateFor(const ForNode* op, const Stmt& s) {
  Expr mn = Mutate(op->min);
  Expr extent = Mutate(op->extent);
  Stmt body = MutateStmt(op->body);
  if (mn.get() == op->min.get() && extent.get() == op->extent.get() &&
      body.get() == op->body.get()) {
    return s;
  }
  return for_stmt(op->loop_var, mn, extent, body, op->for_type, op->thread_tag);
}

Stmt StmtMutator::MutateIfThenElse(const IfThenElseNode* op, const Stmt& s) {
  Expr cond = Mutate(op->condition);
  Stmt then_case = MutateStmt(op->then_case);
  Stmt else_case = op->else_case ? MutateStmt(op->else_case) : nullptr;
  if (cond.get() == op->condition.get() && then_case.get() == op->then_case.get() &&
      else_case.get() == op->else_case.get()) {
    return s;
  }
  return if_then_else_stmt(cond, then_case, else_case);
}

Stmt StmtMutator::MutateSeq(const SeqStmtNode* op, const Stmt& s) {
  bool changed = false;
  std::vector<Stmt> stmts;
  stmts.reserve(op->seq.size());
  for (const Stmt& st : op->seq) {
    Stmt ns = MutateStmt(st);
    changed |= ns.get() != st.get();
    stmts.push_back(std::move(ns));
  }
  if (!changed) {
    return s;
  }
  return seq(std::move(stmts));
}

Stmt StmtMutator::MutateEvaluate(const EvaluateNode* op, const Stmt& s) {
  Expr value = Mutate(op->value);
  if (value.get() == op->value.get()) {
    return s;
  }
  return evaluate(value);
}

namespace {

class PostOrderFunctor : public ExprVisitor {
 public:
  explicit PostOrderFunctor(const std::function<void(const Expr&)>& f) : f_(f) {}
  void Visit(const Expr& e) override {
    if (e == nullptr) {
      return;
    }
    ExprVisitor::Visit(e);
    f_(e);
  }

 private:
  const std::function<void(const Expr&)>& f_;
};

class PostOrderStmtFunctor : public StmtVisitor {
 public:
  explicit PostOrderStmtFunctor(const std::function<void(const Stmt&)>& f) : f_(f) {}
  void VisitStmt(const Stmt& s) override {
    if (s == nullptr) {
      return;
    }
    StmtVisitor::VisitStmt(s);
    f_(s);
  }
  // Do not descend into expressions for the stmt walk.
  void Visit(const Expr& e) override {}

 private:
  const std::function<void(const Stmt&)>& f_;
};

}  // namespace

void PostOrderVisit(const Expr& e, const std::function<void(const Expr&)>& fvisit) {
  PostOrderFunctor functor(fvisit);
  functor.Visit(e);
}

void PostOrderVisitStmt(const Stmt& s, const std::function<void(const Stmt&)>& fvisit) {
  PostOrderStmtFunctor functor(fvisit);
  functor.VisitStmt(s);
}

}  // namespace tvmcpp
