// Post-lowering pass tests: loop unrolling, shared-allocation hoisting, thread-block
// serialization, and virtual-thread injection — each checked for semantics preservation
// and for its structural post-conditions.
#include <gtest/gtest.h>

#include <vector>

#include "src/graph/executor.h"
#include "src/interp/interp.h"
#include "src/ir/functor.h"
#include "src/ir/printer.h"
#include "src/lower/lower.h"
#include "src/schedule/schedule.h"
#include "src/te/tensor.h"

namespace tvmcpp {
namespace {

std::vector<float> Iota(size_t n) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(i % 17) - 8;
  }
  return v;
}

// Schedule-requested unroll() loops are expanded by SpecializeLoops, the VM
// compiler's pre-pass, under its unroll_limit.
TEST(UnrollPass, ExpandsAnnotatedLoops) {
  const int n = 32;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) { return A({i[0]}) * make_float(2); },
                     "C");
  Schedule s = create_schedule({C});
  Stage st = (*s)[C];
  IterVar o, i;
  st->split(st->leaf_iter_vars[0], 4, &o, &i);
  st->unroll(i);
  LoweredFunc f = Lower(s, {A, C}, "u");
  LoopSpecializeOptions opts;
  opts.unroll_limit = 8;
  Stmt unrolled = SpecializeLoops(f.body, opts);
  // The annotated loop must be gone.
  bool has_unrolled_for = false;
  PostOrderVisitStmt(unrolled, [&](const Stmt& st2) {
    if (st2->kind == StmtKind::kFor) {
      has_unrolled_for |=
          static_cast<const ForNode*>(st2.get())->for_type == ForType::kUnrolled;
    }
  });
  EXPECT_FALSE(has_unrolled_for) << ToString(unrolled);
  // And semantics must hold.
  std::vector<float> a = Iota(n), c(n, 0);
  LoweredFunc fu = f;
  fu.body = unrolled;
  RunLowered(fu, {{a.data(), DataType::Float32(), n}, {c.data(), DataType::Float32(), n}});
  for (int j = 0; j < n; ++j) {
    EXPECT_FLOAT_EQ(c[static_cast<size_t>(j)], 2 * a[static_cast<size_t>(j)]);
  }
}

TEST(UnrollPass, LeavesLargeLoopsAlone) {
  const int n = 64;
  Tensor A = placeholder({make_int(n)}, DataType::Float32(), "A");
  Tensor C = compute({make_int(n)},
                     [&](const std::vector<Var>& i) { return A({i[0]}); }, "C");
  Schedule s = create_schedule({C});
  (*s)[C]->unroll((*s)[C]->leaf_iter_vars[0]);
  LoweredFunc f = Lower(s, {A, C}, "u");
  LoopSpecializeOptions opts;
  opts.unroll_limit = 16;
  Stmt out = SpecializeLoops(f.body, opts);  // 64 > 16: stays a loop
  bool has_for = false;
  PostOrderVisitStmt(out, [&](const Stmt& st) { has_for |= st->kind == StmtKind::kFor; });
  EXPECT_TRUE(has_for);
}

TEST(SerializePass, RemovesThreadBindingAndBarriers) {
  const int n = 64;
  Tensor A = placeholder({make_int(n), make_int(n)}, DataType::Float32(), "A");
  Tensor B = placeholder({make_int(n), make_int(n)}, DataType::Float32(), "B");
  IterVar rk = reduce_axis(Range(make_int(0), make_int(n)), "rk");
  Tensor C = compute({make_int(n), make_int(n)},
                     [&](const std::vector<Var>& i) {
                       return sum(A({i[0], rk->var}) * B({rk->var, i[1]}), {rk});
                     },
                     "C");
  Schedule s = create_schedule({C});
  Tensor CL = s->cache_write(C, "local");
  Stage sc = (*s)[C];
  IterVar by, ty, bx, tx;
  sc->split(sc->leaf_iter_vars[0], 16, &by, &ty);
  sc->split(sc->leaf_iter_vars[2], 16, &bx, &tx);
  sc->reorder({by, bx, ty, tx});
  sc->bind(by, thread_axis("blockIdx.y"));
  sc->bind(bx, thread_axis("blockIdx.x"));
  sc->bind(ty, thread_axis("threadIdx.y"));
  sc->bind(tx, thread_axis("threadIdx.x"));
  (*s)[CL]->compute_at(sc, tx);
  Stage scl = (*s)[CL];
  IterVar ko, ki;
  scl->split(scl->leaf_iter_vars[2], 8, &ko, &ki);
  Tensor AS = s->cache_read(A, "shared", {CL.op()});
  (*s)[AS]->compute_at(scl, ko);

  LoweredFunc f = Lower(s, {A, B, C}, "mm");
  Stmt serial = SerializeThreadBlocks(f.body);
  int thread_loops = 0, syncs = 0;
  PostOrderVisitStmt(serial, [&](const Stmt& st) {
    if (st->kind == StmtKind::kFor) {
      const auto* n2 = static_cast<const ForNode*>(st.get());
      thread_loops += n2->for_type == ForType::kThreadBinding &&
                      n2->thread_tag.rfind("threadIdx", 0) == 0;
    }
    if (st->kind == StmtKind::kEvaluate) {
      const Expr& e = static_cast<const EvaluateNode*>(st.get())->value;
      syncs += e->kind == ExprKind::kCall &&
               static_cast<const CallNode*>(e.get())->name == kSyncIntrin;
    }
  });
  EXPECT_EQ(thread_loops, 0) << "threadIdx loops must be serialized";
  EXPECT_EQ(syncs, 0) << "barriers must be consumed by fission";
}

TEST(HoistPass, SharedAllocationsMoveAboveThreads) {
  // Build a statement by hand: thread loop around a shared allocate.
  Var tx = make_var("tx");
  Var buf = make_var("buf", DataType::Handle());
  Stmt body = store(buf, make_float(1), tx);
  Stmt alloc = allocate(buf, DataType::Float32(), {make_int(8)}, "shared", body);
  Stmt loop = for_stmt(tx, make_int(0), make_int(8), alloc, ForType::kThreadBinding,
                       "threadIdx.x");
  Stmt hoisted = HoistSharedAllocations(loop);
  // The outermost statement must now be the allocation.
  EXPECT_EQ(hoisted->kind, StmtKind::kAllocate);
}

TEST(VThreadPass, InterleavesAtMacroGranularity) {
  // vthread loop whose body is {copy-nest; compute-nest}: after injection the copies of
  // the two vthreads must alternate (copy0, copy1, compute0, compute1).
  Var vt = make_var("vthread");
  Var src = make_var("src", DataType::Handle());
  Var dst = make_var("dst", DataType::Handle());
  Var i = make_var("i");
  Stmt copy = for_stmt(i, make_int(0), make_int(4),
                       store(dst, load(DataType::Float32(), src, i + vt * 4), i));
  Var j = make_var("j");
  Stmt use = for_stmt(j, make_int(0), make_int(4),
                      store(dst, load(DataType::Float32(), dst, j) * make_float(2), j));
  Stmt body = allocate(dst, DataType::Float32(), {make_int(4)}, "local", seq({copy, use}));
  Stmt loop = for_stmt(vt, make_int(0), make_int(2), body, ForType::kVThread, "vthread");
  Stmt injected = InjectVirtualThreads(loop);
  std::string text = ToString(injected);
  EXPECT_EQ(text.find("vthread ("), std::string::npos);
  // The local buffer must have been expanded 2x.
  bool found_alloc8 = text.find("dst[float32 * 8]") != std::string::npos;
  EXPECT_TRUE(found_alloc8) << text;
}

}  // namespace
}  // namespace tvmcpp
