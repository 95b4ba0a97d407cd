#include "src/sim/analysis.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ir/functor.h"
#include "src/ir/simplify.h"
#include "src/ir/substitute.h"

namespace tvmcpp {

namespace {

struct LoopFrame {
  const VarNode* var;
  int64_t extent;
  ForType for_type;
  std::string thread_tag;
  size_t stats_index;  // index into ProgramStats::loops
};

// Cost weights for arithmetic expressions.
struct OpCount {
  double flops = 0;
  double int_ops = 0;
  double special = 0;
  int64_t loads = 0;
};

class Analyzer2 : public StmtVisitor {
 public:
  explicit Analyzer2(const LoweredFunc& func) {
    for (const BufferArg& arg : func.args) {
      BufferStats b;
      b.name = arg.name;
      b.var = arg.var.get();
      b.dtype = arg.dtype;
      b.scope = "global";
      int64_t n = 1;
      for (int64_t d : arg.shape) {
        n *= d;
      }
      b.size_elements = n;
      stats_.buffers.push_back(b);
      index_[arg.var.get()] = stats_.buffers.size() - 1;
    }
  }

  ProgramStats Finish(const Stmt& body) {
    VisitStmt(body);
    for (BufferStats& b : stats_.buffers) {
      if (b.size_elements >= 0) {
        b.unique_elements = std::min(b.unique_elements, b.size_elements);
      }
    }
    return std::move(stats_);
  }

 protected:
  void VisitAllocate(const AllocateNode* op) override {
    BufferStats b;
    b.name = op->buffer_var->name;
    b.var = op->buffer_var.get();
    b.dtype = op->dtype;
    b.scope = op->scope;
    int64_t n = 1;
    for (const Expr& e : op->extents) {
      n *= ConstOr(e, 1);
    }
    b.size_elements = n;
    stats_.buffers.push_back(b);
    index_[op->buffer_var.get()] = stats_.buffers.size() - 1;
    stats_.alloc_bytes_by_scope[op->scope] +=
        n * (op->dtype.bits() + 7) / 8 * Multiplier(/*count_threads=*/false);
    VisitStmt(op->body);
  }

  void VisitFor(const ForNode* op) override {
    // A loop whose range a guard narrowed (HoistIfThenElse) depends on the loops
    // around it: count its largest trip count.
    int64_t extent = ConstOr(op->extent, -1);
    if (extent < 0) {
      ConstBound b = ranges_.GetConstBound(op->extent);
      extent = b.IsBounded() ? std::max<int64_t>(b.max, 0) : 1;
    }
    ConstBound first = ranges_.GetConstBound(op->min);
    if (first.IsBounded() && extent > 0) {
      ranges_.Bind(op->loop_var.get(), first.min, first.max + extent - 1);
    }
    LoopStats ls;
    ls.var_name = op->loop_var->name;
    ls.extent = extent;
    ls.for_type = op->for_type;
    ls.thread_tag = op->thread_tag;
    ls.depth = static_cast<int>(loop_stack_.size());
    stats_.loops.push_back(ls);
    size_t stats_index = stats_.loops.size() - 1;

    switch (op->for_type) {
      case ForType::kThreadBinding:
        if (op->thread_tag.rfind("blockIdx", 0) == 0) {
          stats_.grid_threads *= extent;
        } else {
          stats_.block_threads *= extent;
        }
        break;
      case ForType::kVThread:
        stats_.virtual_threads *= extent;
        break;
      case ForType::kParallel:
        stats_.has_parallel = true;
        stats_.parallel_extent *= extent;
        break;
      case ForType::kVectorized:
        stats_.has_vectorized = true;
        stats_.vector_extent = extent;
        break;
      case ForType::kUnrolled:
        stats_.has_unrolled = true;
        break;
      default:
        break;
    }
    if (op->for_type != ForType::kUnrolled && op->for_type != ForType::kVectorized) {
      stats_.loop_iterations += Multiplier(true) * extent;
    }
    loop_stack_.push_back(LoopFrame{op->loop_var.get(), extent, op->for_type,
                                    op->thread_tag, stats_index});
    VisitStmt(op->body);
    loop_stack_.pop_back();
    ranges_.Unbind(op->loop_var.get());
  }

  void VisitIfThenElse(const IfThenElseNode* op) override {
    stats_.branch_count += Multiplier(true);
    // The guard is assumed to mostly pass, so a two-way branch costs its then-branch
    // (where HoistIfThenElse puts the unguarded copy of a tile).
    Visit(op->condition);
    VisitStmt(op->then_case);
  }

  void VisitStore(const StoreNode* op) override {
    int64_t mult = Multiplier(true);
    RecordAccess(op->buffer_var.get(), op->index, mult, /*is_store=*/true);
    OpCount c = CountOps(op->value);
    stats_.flops += c.flops * static_cast<double>(mult);
    stats_.int_ops += c.int_ops * static_cast<double>(mult);
    stats_.special_ops += c.special * static_cast<double>(mult);
    CollectLoads(op->value, mult);
  }

  void VisitEvaluate(const EvaluateNode* op) override {
    if (op->value->kind != ExprKind::kCall) {
      return;
    }
    const auto* call = static_cast<const CallNode*>(op->value.get());
    if (call->name == kSyncIntrin) {
      stats_.sync_count += Multiplier(true);
      return;
    }
    if (call->call_type == CallType::kIntrinsic) {
      RecordTensorIntrin(call);
    }
  }

 private:
  Analyzer ranges_;  // bounds of the enclosing loop variables

  int64_t ConstOr(const Expr& e, int64_t fallback) const {
    Expr s = Simplify(e);
    int64_t v;
    return is_const_int(s, &v) ? v : fallback;
  }

  // Product of enclosing loop extents. Thread-bound loops always count (the work exists,
  // it is just spread across parallel units; models divide by parallelism separately).
  int64_t Multiplier(bool count_threads) const {
    int64_t m = 1;
    for (const LoopFrame& f : loop_stack_) {
      if (!count_threads && f.for_type == ForType::kThreadBinding) {
        continue;
      }
      m *= f.extent;
    }
    return m;
  }

  // Element stride of `index` w.r.t. `v` (other loop vars zeroed); -1 if non-constant.
  int64_t StrideOf(const Expr& index, const VarNode* v) const {
    VarMap zero, one;
    for (const LoopFrame& f : loop_stack_) {
      zero[f.var] = make_int(0);
      one[f.var] = make_int(f.var == v ? 1 : 0);
    }
    Expr d = Simplify(sub(Substitute(index, one), Substitute(index, zero)));
    int64_t s;
    return is_const_int(d, &s) ? s : -1;
  }

  void RecordAccess(const VarNode* buf, const Expr& index, int64_t mult, bool is_store) {
    auto it = index_.find(buf);
    if (it == index_.end()) {
      // Unknown buffer (should not happen); register lazily.
      BufferStats b;
      b.name = buf->name;
      b.var = buf;
      stats_.buffers.push_back(b);
      it = index_.emplace(buf, stats_.buffers.size() - 1).first;
    }
    BufferStats& b = stats_.buffers[it->second];
    if (is_store) {
      b.stores += mult;
    } else {
      b.loads += mult;
    }
    // Strides per loop var.
    std::vector<int64_t> strides(loop_stack_.size());
    for (size_t i = 0; i < loop_stack_.size(); ++i) {
      strides[i] = StrideOf(index, loop_stack_[i].var);
    }
    if (!loop_stack_.empty()) {
      // Innermost non-thread loop stride.
      for (size_t i = loop_stack_.size(); i-- > 0;) {
        if (loop_stack_[i].for_type != ForType::kThreadBinding) {
          b.innermost_stride = strides[i];
          break;
        }
      }
      for (size_t i = 0; i < loop_stack_.size(); ++i) {
        if (loop_stack_[i].thread_tag == "threadIdx.x") {
          b.thread_stride = strides[i];
        }
      }
    }
    // Unique elements touched by this access across the whole nest.
    int64_t unique = 1;
    for (size_t i = 0; i < loop_stack_.size(); ++i) {
      if (strides[i] != 0) {
        unique *= loop_stack_[i].extent;
      }
    }
    b.unique_elements += unique;
    // Per-loop-level touch features: elements per one iteration of each enclosing loop.
    int64_t inner_unique = 1;
    for (size_t i = loop_stack_.size(); i-- > 0;) {
      LoopStats& ls = stats_.loops[loop_stack_[i].stats_index];
      int64_t inner_accesses = 1;
      for (size_t j = i + 1; j < loop_stack_.size(); ++j) {
        inner_accesses *= loop_stack_[j].extent;
      }
      AddTouch(&ls, b.name, inner_unique, inner_accesses);
      if (strides[i] != 0) {
        inner_unique *= loop_stack_[i].extent;
      }
    }
  }

  static void AddTouch(LoopStats* ls, const std::string& buffer, int64_t elements,
                       int64_t accesses) {
    for (LoopBufferTouch& t : ls->touches) {
      if (t.buffer == buffer) {
        t.elements_per_iteration += elements;
        t.accesses_per_iteration += accesses;
        return;
      }
    }
    ls->touches.push_back(LoopBufferTouch{buffer, elements, accesses});
  }

  void CollectLoads(const Expr& e, int64_t mult) {
    PostOrderVisit(e, [&](const Expr& x) {
      if (x->kind == ExprKind::kLoad) {
        const auto* n = static_cast<const LoadNode*>(x.get());
        RecordAccess(n->buffer_var.get(), n->index, mult, /*is_store=*/false);
        stats_.total_loads += mult;
      }
    });
    stats_.total_stores += mult;
  }

  static OpCount CountOps(const Expr& e) {
    OpCount c;
    PostOrderVisit(e, [&](const Expr& x) {
      switch (x->kind) {
        case ExprKind::kAdd:
        case ExprKind::kSub:
        case ExprKind::kMul:
        case ExprKind::kDiv:
        case ExprKind::kMin:
        case ExprKind::kMax:
          if (x->dtype.is_float()) {
            c.flops += 1;
          } else {
            c.int_ops += 1;
          }
          break;
        case ExprKind::kCall: {
          const auto* call = static_cast<const CallNode*>(x.get());
          if (call->name == "exp" || call->name == "log" || call->name == "tanh" ||
              call->name == "sigmoid" || call->name == "sqrt") {
            c.special += 8;
          } else if (call->name == "popcount") {
            c.int_ops += 1;
          }
          break;
        }
        default:
          break;
      }
    });
    return c;
  }

  // Tensor intrinsic accounting via the lowering ABI (see lower.cc MakeIntrinCall).
  void RecordTensorIntrin(const CallNode* call) {
    int num_buffers = 0;
    double flops_per_point = 0;
    if (call->name == kFillZeroIntrin) {
      num_buffers = 1;
    } else if (call->name == kDmaCopyIntrin) {
      num_buffers = 2;
    } else if (call->name == kGemmIntrin || call->name == "arm_bitserial_gemv") {
      num_buffers = 3;
      flops_per_point = 2;
    } else {
      return;
    }
    int total = static_cast<int>(call->args.size());
    int nt = (total - 2 * num_buffers) / (num_buffers + 1);
    if (num_buffers * (2 + nt) + nt != total) {
      return;
    }
    int64_t points = 1;
    for (int d = 0; d < nt; ++d) {
      points *= ConstOr(call->args[static_cast<size_t>(num_buffers * (2 + nt) + d)], 1);
    }
    int64_t mult = Multiplier(true);
    stats_.flops += flops_per_point * static_cast<double>(points * mult);
    // Buffer traffic: each buffer touched over its non-zero-stride dims.
    int pos = 0;
    for (int bidx = 0; bidx < num_buffers; ++bidx) {
      const Expr& handle = call->args[static_cast<size_t>(pos)];
      pos += 2;  // skip offset
      int64_t unique = 1;
      for (int d = 0; d < nt; ++d) {
        int64_t stride = ConstOr(call->args[static_cast<size_t>(pos + d)], 0);
        int64_t ext = ConstOr(call->args[static_cast<size_t>(num_buffers * (2 + nt) + d)], 1);
        if (stride != 0) {
          unique *= ext;
        }
      }
      pos += nt;
      if (handle->kind == ExprKind::kVar) {
        auto it = index_.find(static_cast<const VarNode*>(handle.get()));
        if (it != index_.end()) {
          BufferStats& b = stats_.buffers[it->second];
          if (bidx == 0) {
            b.stores += unique * mult;
          } else {
            b.loads += unique * mult;
          }
          b.unique_elements += unique;
        }
      }
    }
  }

  ProgramStats stats_;
  std::unordered_map<const VarNode*, size_t> index_;
  std::vector<LoopFrame> loop_stack_;
};

}  // namespace

ProgramStats AnalyzeProgram(const LoweredFunc& func) {
  Analyzer2 a(func);
  return a.Finish(func.body);
}

}  // namespace tvmcpp
