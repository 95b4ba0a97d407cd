#include "src/ir/substitute.h"

#include <cstring>
#include <unordered_map>

#include "src/ir/functor.h"

namespace tvmcpp {

namespace {

class Substitutor : public StmtMutator {
 public:
  explicit Substitutor(const VarMap& vmap) : vmap_(vmap) {}

 protected:
  Expr MutateVar(const VarNode* op, const Expr& e) override {
    auto it = vmap_.find(op);
    return it == vmap_.end() ? e : it->second;
  }

  // Loads/stores address buffers through a Var; remap those too when the map carries a
  // var-to-var renaming (used by cache_write to redirect stage output buffers).
  Expr MutateLoad(const LoadNode* op, const Expr& e) override {
    Expr base = StmtMutator::MutateLoad(op, e);
    auto it = vmap_.find(op->buffer_var.get());
    if (it == vmap_.end()) {
      return base;
    }
    const auto* n = static_cast<const LoadNode*>(base.get());
    CHECK(it->second->kind == ExprKind::kVar) << "buffer var must map to a var";
    return load(n->dtype, as<VarNode>(it->second), n->index, n->predicate);
  }

  Stmt MutateStore(const StoreNode* op, const Stmt& s) override {
    Stmt base = StmtMutator::MutateStore(op, s);
    auto it = vmap_.find(op->buffer_var.get());
    if (it == vmap_.end()) {
      return base;
    }
    const auto* n = static_cast<const StoreNode*>(base.get());
    CHECK(it->second->kind == ExprKind::kVar) << "buffer var must map to a var";
    return store(as<VarNode>(it->second), n->value, n->index, n->predicate);
  }

 private:
  const VarMap& vmap_;
};

}  // namespace

Expr Substitute(const Expr& e, const VarMap& vmap) {
  if (vmap.empty()) {
    return e;
  }
  Substitutor sub(vmap);
  return sub.Mutate(e);
}

Stmt Substitute(const Stmt& s, const VarMap& vmap) {
  if (vmap.empty()) {
    return s;
  }
  Substitutor sub(vmap);
  return sub.MutateStmt(s);
}

bool StructuralEqual(const Expr& a, const Expr& b) {
  if (a.get() == b.get()) {
    return true;
  }
  if (a == nullptr || b == nullptr) {
    return false;
  }
  if (a->kind != b->kind || a->dtype != b->dtype) {
    return false;
  }
  switch (a->kind) {
    case ExprKind::kIntImm:
      return static_cast<const IntImmNode*>(a.get())->value ==
             static_cast<const IntImmNode*>(b.get())->value;
    case ExprKind::kFloatImm: {
      // Bitwise, so 0.0 and -0.0 stay distinct (== would let Simplify fold
      // select(c, 0.0, -0.0) to one arm and flip a zero's sign).
      double x = static_cast<const FloatImmNode*>(a.get())->value;
      double y = static_cast<const FloatImmNode*>(b.get())->value;
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ExprKind::kStringImm:
      return static_cast<const StringImmNode*>(a.get())->value ==
             static_cast<const StringImmNode*>(b.get())->value;
    case ExprKind::kVar:
      return false;  // distinct VarNodes are distinct variables
    case ExprKind::kCast:
      return StructuralEqual(static_cast<const CastNode*>(a.get())->value,
                             static_cast<const CastNode*>(b.get())->value);
    case ExprKind::kNot:
      return StructuralEqual(static_cast<const NotNode*>(a.get())->a,
                             static_cast<const NotNode*>(b.get())->a);
    case ExprKind::kSelect: {
      const auto* sa = static_cast<const SelectNode*>(a.get());
      const auto* sb = static_cast<const SelectNode*>(b.get());
      return StructuralEqual(sa->condition, sb->condition) &&
             StructuralEqual(sa->true_value, sb->true_value) &&
             StructuralEqual(sa->false_value, sb->false_value);
    }
    case ExprKind::kLoad: {
      const auto* la = static_cast<const LoadNode*>(a.get());
      const auto* lb = static_cast<const LoadNode*>(b.get());
      // The predicate is part of the value: two same-address loads with
      // complementary lane masks yield different vectors, and conflating them
      // lets select(c, t, f) fold to the wrong arm after load masking.
      return la->buffer_var.get() == lb->buffer_var.get() &&
             StructuralEqual(la->index, lb->index) &&
             StructuralEqual(la->predicate, lb->predicate);
    }
    case ExprKind::kRamp: {
      const auto* ra = static_cast<const RampNode*>(a.get());
      const auto* rb = static_cast<const RampNode*>(b.get());
      return ra->lanes == rb->lanes && StructuralEqual(ra->base, rb->base) &&
             StructuralEqual(ra->stride, rb->stride);
    }
    case ExprKind::kBroadcast: {
      const auto* ba = static_cast<const BroadcastNode*>(a.get());
      const auto* bb = static_cast<const BroadcastNode*>(b.get());
      return ba->lanes == bb->lanes && StructuralEqual(ba->value, bb->value);
    }
    case ExprKind::kTensorRead: {
      const auto* ta = static_cast<const TensorReadNode*>(a.get());
      const auto* tb = static_cast<const TensorReadNode*>(b.get());
      if (ta->op.get() != tb->op.get() || ta->value_index != tb->value_index ||
          ta->indices.size() != tb->indices.size()) {
        return false;
      }
      for (size_t i = 0; i < ta->indices.size(); ++i) {
        if (!StructuralEqual(ta->indices[i], tb->indices[i])) {
          return false;
        }
      }
      return true;
    }
    case ExprKind::kCall: {
      const auto* ca = static_cast<const CallNode*>(a.get());
      const auto* cb = static_cast<const CallNode*>(b.get());
      if (ca->name != cb->name || ca->args.size() != cb->args.size()) {
        return false;
      }
      for (size_t i = 0; i < ca->args.size(); ++i) {
        if (!StructuralEqual(ca->args[i], cb->args[i])) {
          return false;
        }
      }
      return true;
    }
    default: {
      // Binary nodes.
      const auto* ba = dynamic_cast<const BinaryNode*>(a.get());
      const auto* bb = dynamic_cast<const BinaryNode*>(b.get());
      if (ba != nullptr && bb != nullptr) {
        return StructuralEqual(ba->a, bb->a) && StructuralEqual(ba->b, bb->b);
      }
      return false;
    }
  }
}

bool UsesVar(const Expr& e, const VarNode* v) {
  bool found = false;
  PostOrderVisit(e, [&](const Expr& x) {
    if (x.get() == static_cast<const ExprNode*>(v)) {
      found = true;
    }
  });
  return found;
}

}  // namespace tvmcpp
