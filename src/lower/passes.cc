// Post-lowering passes: virtual-thread injection (Figure 8), shared-allocation
// hoisting, and thread-block serialization. Loop unrolling and the loop
// specialization pipeline live in src/lower/unroll.cc.
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ir/functor.h"
#include "src/ir/simplify.h"
#include "src/ir/substitute.h"
#include "src/lower/lower.h"

namespace tvmcpp {

namespace {

// (Loop unrolling lives in src/lower/unroll.cc with the rest of the loop
// specialization machinery.)

// Adds `vt * chunk` to every access of `buffer` (used when a per-vthread buffer is
// expanded to hold all vthread copies).
class BufferOffsetter : public StmtMutator {
 public:
  BufferOffsetter(const VarNode* buffer, Expr offset)
      : buffer_(buffer), offset_(std::move(offset)) {}

 protected:
  Expr MutateLoad(const LoadNode* op, const Expr& e) override {
    Expr base = ExprMutator::MutateLoad(op, e);
    const auto* n = static_cast<const LoadNode*>(base.get());
    if (n->buffer_var.get() != buffer_) {
      return base;
    }
    return load(n->dtype, n->buffer_var, Simplify(n->index + offset_), n->predicate);
  }

  Stmt MutateStore(const StoreNode* op, const Stmt& s) override {
    Stmt base = StmtMutator::MutateStore(op, s);
    const auto* n = static_cast<const StoreNode*>(base.get());
    if (n->buffer_var.get() != buffer_) {
      return base;
    }
    return store(n->buffer_var, n->value, Simplify(n->index + offset_), n->predicate);
  }

  // Intrinsic calls address buffers as (handle, offset, ...); shift the offset argument
  // that follows the buffer handle.
  Expr MutateCall(const CallNode* op, const Expr& e) override {
    Expr base = ExprMutator::MutateCall(op, e);
    const auto* n = static_cast<const CallNode*>(base.get());
    if (n->call_type != CallType::kIntrinsic) {
      return base;
    }
    bool changed = false;
    std::vector<Expr> args = n->args;
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i]->kind == ExprKind::kVar &&
          static_cast<const VarNode*>(args[i].get()) == buffer_) {
        args[i + 1] = Simplify(args[i + 1] + offset_);
        changed = true;
      }
    }
    if (!changed) {
      return base;
    }
    return call_intrin(n->dtype, n->name, std::move(args));
  }

 private:
  const VarNode* buffer_;
  Expr offset_;
};

// Collects allocations directly inside a vthread body and strips them (they are re-created
// expanded by the injector).
class AllocStripper : public StmtMutator {
 public:
  struct Alloc {
    Var var;
    DataType dtype;
    int64_t size = 1;
    std::string scope;
  };

  std::vector<Alloc> allocs;

 protected:
  Stmt MutateAllocate(const AllocateNode* op, const Stmt& s) override {
    Alloc a;
    a.var = op->buffer_var;
    a.dtype = op->dtype;
    a.scope = op->scope;
    for (const Expr& e : op->extents) {
      a.size *= get_const_int(Simplify(e));
    }
    allocs.push_back(a);
    return MutateStmt(op->body);
  }
};

// Interleaves the per-vthread copies of a statement at Seq granularity, recursing into
// serial loops so the interleave happens inside them (Figure 8's final stream).
class VThreadInjector : public StmtMutator {
 protected:
  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    if (op->for_type != ForType::kVThread) {
      return StmtMutator::MutateFor(op, s);
    }
    int64_t n = get_const_int(op->extent);
    // Recursively lower nested vthreads first.
    Stmt body = MutateStmt(op->body);
    // Hoist and expand per-vthread allocations.
    AllocStripper stripper;
    body = stripper.MutateStmt(body);
    for (const AllocStripper::Alloc& a : stripper.allocs) {
      BufferOffsetter off(a.var.get(), op->loop_var * make_int(a.size));
      body = off.MutateStmt(body);
    }
    Stmt interleaved = Interleave(body, op->loop_var, n);
    for (auto it = stripper.allocs.rbegin(); it != stripper.allocs.rend(); ++it) {
      interleaved = allocate(it->var, it->dtype, {make_int(it->size * n)}, it->scope,
                             interleaved);
    }
    return interleaved;
  }

 private:
  static Stmt Duplicate(const Stmt& s, const Var& vt, int64_t n) {
    std::vector<Stmt> copies;
    copies.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      VarMap vmap{{vt.get(), make_int(i)}};
      copies.push_back(Simplify(Substitute(s, vmap)));
    }
    return seq(std::move(copies));
  }

  // Number of primitive operations (stores / tensor-intrinsic calls) in a subtree.
  // Loop nests containing a single operation are "macro instructions" (a DMA copy, a
  // GEMM block): the interleaver duplicates them atomically rather than descending,
  // matching Figure 8's instruction-level interleaving granularity.
  static int CountOps(const Stmt& s) {
    int ops = 0;
    PostOrderVisitStmt(s, [&](const Stmt& st) {
      if (st->kind == StmtKind::kStore) {
        ++ops;
      } else if (st->kind == StmtKind::kEvaluate) {
        const Expr& e = static_cast<const EvaluateNode*>(st.get())->value;
        if (e->kind == ExprKind::kCall) {
          const auto* c = static_cast<const CallNode*>(e.get());
          if (c->call_type == CallType::kIntrinsic && c->name != kSyncIntrin) {
            ++ops;
          }
        }
      }
    });
    return ops;
  }

  static Stmt Interleave(const Stmt& s, const Var& vt, int64_t n) {
    if (s == nullptr) {
      return s;
    }
    if (s->kind == StmtKind::kFor && CountOps(s) <= 1) {
      return Duplicate(s, vt, n);
    }
    switch (s->kind) {
      case StmtKind::kSeq: {
        const auto* sn = static_cast<const SeqStmtNode*>(s.get());
        std::vector<Stmt> out;
        for (const Stmt& elem : sn->seq) {
          out.push_back(Interleave(elem, vt, n));
        }
        return seq(std::move(out));
      }
      case StmtKind::kFor: {
        const auto* fn = static_cast<const ForNode*>(s.get());
        if (fn->for_type == ForType::kSerial && !UsesVar(fn->extent, vt.get()) &&
            !UsesVar(fn->min, vt.get())) {
          // Interleave inside the loop so vthread copies alternate every iteration.
          Stmt body = Interleave(fn->body, vt, n);
          return for_stmt(fn->loop_var, fn->min, fn->extent, body, fn->for_type,
                          fn->thread_tag);
        }
        return Duplicate(s, vt, n);
      }
      case StmtKind::kAllocate: {
        const auto* an = static_cast<const AllocateNode*>(s.get());
        // Non-hoisted allocation (created deeper): keep structure, interleave body.
        Stmt body = Interleave(an->body, vt, n);
        return allocate(an->buffer_var, an->dtype, an->extents, an->scope, body);
      }
      case StmtKind::kAttrStmt: {
        const auto* an = static_cast<const AttrStmtNode*>(s.get());
        return attr_stmt(an->key, an->value, Interleave(an->body, vt, n));
      }
      default:
        return Duplicate(s, vt, n);
    }
  }
};

}  // namespace

namespace {

// Strips Allocates with the given scope, recording them.
class ScopedAllocHoister : public StmtMutator {
 public:
  struct Alloc {
    Var var;
    DataType dtype;
    std::vector<Expr> extents;
    std::string scope;
  };
  std::vector<Alloc> hoisted;

 protected:
  Stmt MutateAllocate(const AllocateNode* op, const Stmt& s) override {
    if (op->scope != "shared") {
      return StmtMutator::MutateAllocate(op, s);
    }
    // Shared extents are constant by construction; hoisting only extends lifetime.
    hoisted.push_back(Alloc{op->buffer_var, op->dtype, op->extents, op->scope});
    return MutateStmt(op->body);
  }
};

}  // namespace

Stmt HoistSharedAllocations(const Stmt& s) {
  ScopedAllocHoister hoister;
  Stmt body = hoister.MutateStmt(s);
  for (auto it = hoister.hoisted.rbegin(); it != hoister.hoisted.rend(); ++it) {
    body = allocate(it->var, it->dtype, it->extents, it->scope, body);
  }
  return body;
}

Stmt InjectVirtualThreads(const Stmt& s) {
  VThreadInjector inj;
  return inj.MutateStmt(s);
}

namespace {

bool IsSyncStmt(const Stmt& s) {
  if (s == nullptr || s->kind != StmtKind::kEvaluate) {
    return false;
  }
  const Expr& e = static_cast<const EvaluateNode*>(s.get())->value;
  return e->kind == ExprKind::kCall &&
         static_cast<const CallNode*>(e.get())->name == kSyncIntrin;
}

bool ContainsSync(const Stmt& s) {
  bool found = false;
  PostOrderVisitStmt(s, [&](const Stmt& st) { found |= IsSyncStmt(st); });
  return found;
}

struct ThreadLoop {
  Var var;
  int64_t extent;
};

// Removes threadIdx-bound For loops from a subtree, collecting them outer-to-inner.
class ThreadLoopStripper : public StmtMutator {
 public:
  std::vector<ThreadLoop> threads;

 protected:
  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    if (op->for_type == ForType::kThreadBinding &&
        op->thread_tag.rfind("threadIdx", 0) == 0) {
      threads.push_back(ThreadLoop{op->loop_var, get_const_int(op->extent)});
      return MutateStmt(op->body);
    }
    return StmtMutator::MutateFor(op, s);
  }
};

// Collects and strips non-shared allocations inside a thread region (for privatization).
class PrivateAllocStripper : public StmtMutator {
 public:
  struct Alloc {
    Var var;
    DataType dtype;
    int64_t size;
    std::string scope;
  };
  std::vector<Alloc> allocs;

 protected:
  Stmt MutateAllocate(const AllocateNode* op, const Stmt& s) override {
    int64_t size = 1;
    for (const Expr& e : op->extents) {
      size *= get_const_int(Simplify(e));
    }
    allocs.push_back(Alloc{op->buffer_var, op->dtype, size, op->scope});
    return MutateStmt(op->body);
  }
};

class BlockSerializer : public StmtMutator {
 protected:
  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    if (!(op->for_type == ForType::kThreadBinding &&
          op->thread_tag.rfind("threadIdx", 0) == 0)) {
      return StmtMutator::MutateFor(op, s);
    }
    // Found the outermost thread loop of a kernel region.
    ThreadLoopStripper stripper;
    stripper.threads.push_back(ThreadLoop{op->loop_var, get_const_int(op->extent)});
    Stmt body = stripper.MutateStmt(op->body);
    const std::vector<ThreadLoop>& threads = stripper.threads;

    // Privatize per-thread buffers: expand by the grid size, offset by the linear tid.
    PrivateAllocStripper allocs;
    body = allocs.MutateStmt(body);
    int64_t grid = 1;
    for (const ThreadLoop& t : threads) {
      grid *= t.extent;
    }
    Expr tid = make_int(0);
    for (const ThreadLoop& t : threads) {
      tid = tid * make_int(t.extent) + t.var;
    }
    for (const PrivateAllocStripper::Alloc& a : allocs.allocs) {
      BufferOffsetter off(a.var.get(), Simplify(tid * make_int(a.size)));
      body = off.MutateStmt(body);
    }

    // Fission at barriers: thread loops wrap each sync-free phase.
    Stmt result = Fission(body, threads);
    for (auto it = allocs.allocs.rbegin(); it != allocs.allocs.rend(); ++it) {
      result = allocate(it->var, it->dtype, {make_int(it->size * grid)}, it->scope, result);
    }
    return result;
  }

 private:
  static Stmt WrapThreads(Stmt body, const std::vector<ThreadLoop>& threads) {
    for (auto it = threads.rbegin(); it != threads.rend(); ++it) {
      body = for_stmt(it->var, make_int(0), make_int(it->extent), std::move(body),
                      ForType::kSerial);
    }
    return body;
  }

  static Stmt Fission(const Stmt& s, const std::vector<ThreadLoop>& threads) {
    if (!ContainsSync(s)) {
      return WrapThreads(s, threads);
    }
    switch (s->kind) {
      case StmtKind::kSeq: {
        const auto* n = static_cast<const SeqStmtNode*>(s.get());
        std::vector<Stmt> out;
        std::vector<Stmt> pending;  // consecutive sync-free statements
        auto flush = [&]() {
          if (!pending.empty()) {
            out.push_back(WrapThreads(seq(std::move(pending)), threads));
            pending.clear();
          }
        };
        for (const Stmt& elem : n->seq) {
          if (IsSyncStmt(elem)) {
            flush();  // the barrier itself becomes the phase boundary
          } else if (ContainsSync(elem)) {
            flush();
            out.push_back(Fission(elem, threads));
          } else {
            pending.push_back(elem);
          }
        }
        flush();
        return seq(std::move(out));
      }
      case StmtKind::kFor: {
        const auto* n = static_cast<const ForNode*>(s.get());
        CHECK(n->for_type == ForType::kSerial || n->for_type == ForType::kUnrolled ||
              n->for_type == ForType::kVThread)
            << "barrier under unsupported loop type";
        return for_stmt(n->loop_var, n->min, n->extent, Fission(n->body, threads),
                        n->for_type, n->thread_tag);
      }
      case StmtKind::kAllocate: {
        const auto* n = static_cast<const AllocateNode*>(s.get());
        return allocate(n->buffer_var, n->dtype, n->extents, n->scope,
                        Fission(n->body, threads));
      }
      case StmtKind::kAttrStmt: {
        const auto* n = static_cast<const AttrStmtNode*>(s.get());
        return attr_stmt(n->key, n->value, Fission(n->body, threads));
      }
      case StmtKind::kEvaluate:
        if (IsSyncStmt(s)) {
          return nop();
        }
        return WrapThreads(s, threads);
      default:
        LOG(FATAL) << "barrier under unsupported statement kind";
    }
  }
};

}  // namespace

Stmt SerializeThreadBlocks(const Stmt& s) {
  BlockSerializer ser;
  return ser.MutateStmt(s);
}

bool HasThreadIdxBinding(const Stmt& s) {
  bool found = false;
  PostOrderVisitStmt(s, [&](const Stmt& st) {
    if (st->kind == StmtKind::kFor) {
      const auto* n = static_cast<const ForNode*>(st.get());
      found |= n->for_type == ForType::kThreadBinding &&
               n->thread_tag.rfind("threadIdx", 0) == 0;
    }
  });
  return found;
}

Stmt PrepareHostBody(const Stmt& s) {
  Stmt body = HasThreadIdxBinding(s) ? SerializeThreadBlocks(s) : s;
  return VectorizeLoop(body);
}

}  // namespace tvmcpp
