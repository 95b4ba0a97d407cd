// The kParallel hazard rule shared by the execution tiers that chunk parallel loops
// (the bytecode VM and the native C backend).
#include <unordered_set>

#include "src/ir/functor.h"
#include "src/ir/intrin_table.h"
#include "src/lower/lower.h"

namespace tvmcpp {

namespace {

using VarSet = std::unordered_set<const VarNode*>;

bool UsesAnyVar(const Expr& e, const VarSet& vars) {
  bool uses = false;
  PostOrderVisit(e, [&](const Expr& x) {
    uses |= x->kind == ExprKind::kVar &&
            vars.count(static_cast<const VarNode*>(x.get())) > 0;
  });
  return uses;
}

class HazardScan {
 public:
  HazardScan(const ForNode* loop, const VarSet& arg_buffers)
      : args_(arg_buffers), dep_{loop->loop_var.get()} {}

  // `dep_` holds the loop var plus let-vars derived from it; `local_` the
  // allocations made inside the body, which every chunk gets its own copy of.
  bool Visit(const Stmt& s) {
    if (s == nullptr) {
      return false;
    }
    switch (s->kind) {
      case StmtKind::kLetStmt: {
        const auto* n = static_cast<const LetStmtNode*>(s.get());
        if (UsesAnyVar(n->value, dep_)) {
          dep_.insert(n->var.get());
        }
        return Visit(n->body);
      }
      case StmtKind::kAttrStmt:
        return Visit(static_cast<const AttrStmtNode*>(s.get())->body);
      case StmtKind::kAssert:
        return Visit(static_cast<const AssertStmtNode*>(s.get())->body);
      case StmtKind::kAllocate: {
        const auto* n = static_cast<const AllocateNode*>(s.get());
        local_.insert(n->buffer_var.get());
        return Visit(n->body);
      }
      case StmtKind::kFor:
        return Visit(static_cast<const ForNode*>(s.get())->body);
      case StmtKind::kIfThenElse: {
        const auto* n = static_cast<const IfThenElseNode*>(s.get());
        return Visit(n->then_case) || Visit(n->else_case);
      }
      case StmtKind::kSeq: {
        bool hazard = false;
        for (const Stmt& st : static_cast<const SeqStmtNode*>(s.get())->seq) {
          hazard |= Visit(st);
        }
        return hazard;
      }
      case StmtKind::kStore: {
        const auto* n = static_cast<const StoreNode*>(s.get());
        return WriteHazard(n->buffer_var.get(), n->index);
      }
      case StmtKind::kEvaluate: {
        const Expr& v = static_cast<const EvaluateNode*>(s.get())->value;
        if (v->kind != ExprKind::kCall) {
          return false;
        }
        const auto* call = static_cast<const CallNode*>(v.get());
        // Tensor intrinsics write their first buffer (handle, base, strides...).
        if (call->args.size() < 2 || call->args[0]->kind != ExprKind::kVar ||
            call->name == kSyncIntrin || call->name == kPushDepIntrin ||
            call->name == kPopDepIntrin) {
          return false;
        }
        // The output base must track the loop var.
        return WriteHazard(static_cast<const VarNode*>(call->args[0].get()),
                           call->args[1]);
      }
    }
    return false;
  }

 private:
  bool WriteHazard(const VarNode* buffer, const Expr& index) {
    if (local_.count(buffer) > 0) {
      return false;  // body-local allocation: chunk-private
    }
    if (args_.count(buffer) == 0) {
      return true;  // outer scratch allocation shared by all chunks
    }
    return !UsesAnyVar(index, dep_);
  }

  const VarSet& args_;
  VarSet dep_;
  VarSet local_;
};

}  // namespace

bool ParallelHazard(const ForNode* loop, const VarSet& arg_buffers) {
  return HazardScan(loop, arg_buffers).Visit(loop->body);
}

}  // namespace tvmcpp
