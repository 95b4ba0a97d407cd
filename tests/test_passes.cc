// Post-lowering pass tests: loop unrolling, shared-allocation hoisting, thread-block
// serialization, and virtual-thread injection — each checked for semantics preservation
// and for its structural post-conditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/graph/executor.h"
#include "src/interp/interp.h"
#include "src/ir/functor.h"
#include "src/ir/printer.h"
#include "src/lower/lower.h"
#include "src/schedule/schedule.h"
#include "src/te/tensor.h"
#include "src/topi/nn.h"
#include "src/topi/schedules.h"

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

// The guard chain (if-conditions, outermost first) and the loops around the first
// store that reads the conv kernel (the MAC), outermost first, as printed names.
struct MacContext {
  std::vector<std::string> chain;  // "for <var>" or "if <cond>"
  std::vector<ForType> loop_types;
  std::string value;
};

bool FindMac(const Stmt& s, std::vector<std::string>* chain, MacContext* out) {
  switch (s->kind) {
    case StmtKind::kStore: {
      const auto* n = static_cast<const StoreNode*>(s.get());
      if (ToString(n->value).find("kernel[") == std::string::npos) {
        return false;
      }
      out->chain = *chain;
      out->value = ToString(n->value);
      return true;
    }
    case StmtKind::kFor: {
      const auto* n = static_cast<const ForNode*>(s.get());
      chain->push_back("for " + n->loop_var->name);
      out->loop_types.push_back(n->for_type);
      if (FindMac(n->body, chain, out)) {
        return true;
      }
      out->loop_types.pop_back();
      chain->pop_back();
      return false;
    }
    case StmtKind::kIfThenElse: {
      const auto* n = static_cast<const IfThenElseNode*>(s.get());
      chain->push_back("if " + ToString(n->condition));
      if (FindMac(n->then_case, chain, out)) {
        return true;
      }
      chain->pop_back();
      return n->else_case != nullptr && FindMac(n->else_case, chain, out);
    }
    case StmtKind::kSeq:
      for (const Stmt& st : static_cast<const SeqStmtNode*>(s.get())->seq) {
        if (FindMac(st, chain, out)) {
          return true;
        }
      }
      return false;
    case StmtKind::kAllocate:
      return FindMac(static_cast<const AllocateNode*>(s.get())->body, chain, out);
    default:
      return false;
  }
}

// Prints a statement that is a chain of loops and else-less guards around one
// store, outermost first.
std::vector<std::string> Chain(const Stmt& s) {
  std::vector<std::string> seen;
  Stmt st = s;
  while (st != nullptr) {
    if (st->kind == StmtKind::kFor) {
      const auto* n = static_cast<const ForNode*>(st.get());
      seen.push_back("for " + n->loop_var->name + " [" + ToString(n->min) + ", +" +
                     ToString(n->extent) + ")");
      st = n->body;
    } else if (st->kind == StmtKind::kIfThenElse) {
      const auto* n = static_cast<const IfThenElseNode*>(st.get());
      seen.push_back(n->else_case == nullptr ? "if " + ToString(n->condition) : "if-else");
      st = n->else_case == nullptr ? n->then_case : nullptr;
    } else {
      seen.push_back(st->kind == StmtKind::kStore
                         ? "store " + ToString(static_cast<const StoreNode*>(st.get())->value)
                         : "other");
      st = nullptr;
    }
  }
  return seen;
}

// Runs `body` over A (int32[8]), C (float[8]) and B (float[32], filled with -1).
std::vector<float> RunOverABC(const Var& a, const Var& b, const Var& c, const Stmt& body) {
  std::vector<int32_t> av = {9, 1, 7, 2, 3, 8, 0, 4};
  std::vector<float> cv = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> out(32, -1.0f);
  LoweredFunc f;
  f.name = "hoist_unit";
  f.args = {BufferArg{a, DataType::Int32(), {8}, "A"},
            BufferArg{c, DataType::Float32(), {8}, "C"},
            BufferArg{b, DataType::Float32(), {32}, "B"}};
  f.body = body;
  RunLowered(f, {{av.data(), DataType::Int32(), 8},
                 {cv.data(), DataType::Float32(), 8},
                 {out.data(), DataType::Float32(), 32}});
  return out;
}

TEST(HoistIfThenElsePass, SplitsLiftsKeepsAndFolds) {
  // for i { for j { if (i*2 >= 3 && i + j*2 < 9 && A[i] < 5)
  //     B[i*4 + j] = if_then_else(i*2 >= 3, C[i], 0) } }
  Var a = make_var("A", DataType::Handle());
  Var b = make_var("B", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var i = make_var("i");
  Var j = make_var("j");
  Expr invariant = ge(i * 2, make_int(3));
  Expr variant = lt(i + j * 2, make_int(9));
  Expr impure = lt(load(DataType::Int32(), a, i), make_int(5));
  Stmt body = for_stmt(
      i, make_int(0), make_int(8),
      for_stmt(j, make_int(0), make_int(4),
               if_then_else_stmt(
                   logic_and(logic_and(invariant, variant), impure),
                   store(b, if_then_else(invariant, load(DataType::Float32(), c, i),
                                         make_float(0)),
                         i * 4 + j))));
  Stmt hoisted = HoistIfThenElse(body);
  // The conjunct that only uses i is lifted above j (not above i); the one that
  // uses j and the one that reads memory stay inside j, in their order; the
  // if_then_else on the guarded condition folds to its true arm.
  std::vector<std::string> expected = {
      "for i [0, +8)",       "if ((i*2) >= 3)",  "for j [0, +4)",
      "if ((i + (j*2)) < 9)", "if (A[i] < 5)",    "store C[i]",
  };
  EXPECT_EQ(Chain(hoisted), expected) << ToString(hoisted);
  EXPECT_EQ(RunOverABC(a, b, c, body), RunOverABC(a, b, c, hoisted));
}

TEST(HoistIfThenElsePass, UnitStepGuardsBecomeLoopRanges) {
  // for i in [0, 8) { if (i >= 1 && i < 7) B[i] = C[max(min(i - 1, 7), 0)] }
  // runs over [1, 7) with the clamps folded; and a two-way branch on such guards
  // splits its loop into three consecutive ranges.
  Var a = make_var("A", DataType::Handle());
  Var b = make_var("B", DataType::Handle());
  Var c = make_var("C", DataType::Handle());
  Var i = make_var("i");
  Expr in_range = logic_and(ge(i, make_int(1)), lt(i, make_int(7)));
  Expr clamped = max(min(i - make_int(1), make_int(7)), make_int(0));
  Stmt guarded = for_stmt(i, make_int(0), make_int(8),
                          if_then_else_stmt(in_range, store(b, load(DataType::Float32(), c,
                                                                    clamped),
                                                            i)));
  Stmt narrowed = HoistIfThenElse(guarded);
  EXPECT_EQ(Chain(narrowed),
            (std::vector<std::string>{"for i [1, +6)", "store C[(i + -1)]"}))
      << ToString(narrowed);
  EXPECT_EQ(RunOverABC(a, b, c, guarded), RunOverABC(a, b, c, narrowed));

  Stmt branch = for_stmt(
      i, make_int(0), make_int(8),
      if_then_else_stmt(logic_and(ge(i, make_int(2)), lt(i, make_int(5))),
                        store(b, make_float(1), i), store(b, make_float(2), i)));
  Stmt parts = HoistIfThenElse(branch);
  ASSERT_EQ(parts->kind, StmtKind::kSeq) << ToString(parts);
  const auto& seq = static_cast<const SeqStmtNode*>(parts.get())->seq;
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(Chain(seq[0]), (std::vector<std::string>{"for i [0, +2)", "store 2f"}));
  EXPECT_EQ(Chain(seq[1]), (std::vector<std::string>{"for i [2, +3)", "store 1f"}));
  EXPECT_EQ(Chain(seq[2]), (std::vector<std::string>{"for i [5, +3)", "store 2f"}));
  EXPECT_EQ(RunOverABC(a, b, c, branch), RunOverABC(a, b, c, parts));
}

TEST(HoistIfThenElsePass, ConvOnOneByOneMapVisitsOnlyTheCentreTap) {
  // A 3x3 conv on a 1x1 map (a ResNet-18 stage-3 conv at 32x32) meets data at one
  // tap. Its row test becomes ry's range and its column test rx's (tile_ow is 1),
  // both [1, 2): the MAC is unguarded, runs once per channel, and reads the input
  // with no clamp.
  topi::OpWorkload wl{"conv2d", 1, 1, 1, 16, 32, 3, 1, 1};
  wl.oc_block = 8;
  Target cpu = Target::ArmA53();
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  ASSERT_EQ(config.at("tile_ow"), 1);
  Tensor out = topi::Relu(built.output);
  Schedule s = topi::ScheduleFusedGroup(cpu, {out}, built.output, config, &wl);
  LoweredFunc f = Lower(s, {built.inputs[0], built.inputs[1], out}, "conv_1x1_map");
  MacContext mac;
  std::vector<std::string> chain;
  ASSERT_TRUE(FindMac(f.body, &chain, &mac)) << ToString(f.body);
  for (const std::string& e : mac.chain) {
    EXPECT_EQ(e.rfind("for ", 0), 0u) << e << "\n" << ToString(f.body);
  }
  std::string text = ToString(f.body);
  EXPECT_NE(text.find("for (conv2d.ry, 1, 1)"), std::string::npos) << text;
  EXPECT_NE(text.find("for (conv2d.rx, 1, 1)"), std::string::npos) << text;
  EXPECT_EQ(mac.loop_types.back(), ForType::kVectorized);
  EXPECT_EQ(mac.value.find("max("), std::string::npos) << mac.value;
  EXPECT_EQ(mac.value.find("min("), std::string::npos) << mac.value;
}

TEST(HoistIfThenElsePass, ConvTileKeepsItsColumnTestOutsideTheLanes) {
  // On an 8x8 map with tile_ow 4, ry runs over the rows inside the map, and rx
  // splits into three ranges: in the middle every column of the tile is inside the
  // map and the MAC is unguarded; at either edge the column test sits per ow of
  // the unrolled tile, outside the 8-lane loop.
  topi::OpWorkload wl{"conv2d", 1, 8, 8, 16, 16, 3, 1, 1};
  wl.oc_block = 8;
  Target cpu = Target::ArmA53();
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  ASSERT_EQ(config.at("tile_ow"), 4);
  Tensor out = topi::Relu(built.output);
  Schedule s = topi::ScheduleFusedGroup(cpu, {out}, built.output, config, &wl);
  LoweredFunc f = Lower(s, {built.inputs[0], built.inputs[1], out}, "conv_8x8_map");
  int rx_loops = 0;
  int guarded_macs = 0;
  int unguarded_macs = 0;
  std::function<void(const Stmt&, std::vector<std::string>*)> walk =
      [&](const Stmt& st, std::vector<std::string>* path) {
        if (st == nullptr) {
          return;
        }
        if (st->kind == StmtKind::kFor) {
          const auto* n = static_cast<const ForNode*>(st.get());
          rx_loops += n->loop_var->name == "conv2d.rx";
          path->push_back(n->loop_var->name);
          walk(n->body, path);
          path->pop_back();
        } else if (st->kind == StmtKind::kIfThenElse) {
          const auto* n = static_cast<const IfThenElseNode*>(st.get());
          path->push_back("if");
          walk(n->then_case, path);
          walk(n->else_case, path);
          path->pop_back();
        } else if (st->kind == StmtKind::kSeq) {
          for (const Stmt& x : static_cast<const SeqStmtNode*>(st.get())->seq) {
            walk(x, path);
          }
        } else if (st->kind == StmtKind::kAllocate) {
          walk(static_cast<const AllocateNode*>(st.get())->body, path);
        } else if (st->kind == StmtKind::kStore &&
                   ToString(static_cast<const StoreNode*>(st.get())->value).find("kernel[") !=
                       std::string::npos) {
          auto at = [&](const std::string& name) {
            return std::find(path->begin(), path->end(), name) - path->begin();
          };
          auto guard = std::find(path->begin(), path->end(), "if");
          if (guard == path->end()) {
            ++unguarded_macs;
            return;
          }
          ++guarded_macs;
          EXPECT_GT(guard - path->begin(), at("conv2d.i3"));
          EXPECT_LT(guard - path->begin(), at("conv2d.i1.i"));
        }
      };
  std::vector<std::string> path;
  walk(f.body, &path);
  EXPECT_EQ(rx_loops, 3) << ToString(f.body);
  EXPECT_EQ(unguarded_macs, 1) << ToString(f.body);
  EXPECT_EQ(guarded_macs, 2) << ToString(f.body);
}

}  // namespace
}  // namespace tvmcpp
