#include "src/lower/lower.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/ir/functor.h"
#include "src/ir/printer.h"
#include "src/ir/simplify.h"
#include "src/ir/substitute.h"
#include "src/lower/intset.h"

namespace tvmcpp {

namespace {

// Realized buffer of one operation output.
struct BufferInfo {
  Var var;
  DataType dtype;
  std::vector<int64_t> extents;  // realized extents (local region size)
  std::vector<Expr> offsets;     // global coordinate of the local origin per dim (may be empty)
  std::string scope = "global";
  bool external = false;
  // Storage order of the dims, major to minor; empty means logical order.
  std::vector<size_t> layout;
};

// Computes the flat index of local `coords` in a row-major buffer whose dims are
// stored in `info.layout` order.
Expr FlattenIndex(const std::vector<Expr>& coords, const BufferInfo& info) {
  CHECK_EQ(coords.size(), info.extents.size());
  Expr index = make_int(0);
  for (size_t k = 0; k < coords.size(); ++k) {
    size_t d = info.layout.empty() ? k : info.layout[k];
    index = index * make_int(info.extents[d]) + coords[d];
  }
  return Simplify(index);
}

// Storage order of an attached stage's buffer: its dims sorted by the position of the
// innermost leaf loop each one feeds, so the dim of the innermost loop is minor. A
// tile reordered as (ow, oc) with oc vectorized is then stored [ow][oc], contiguous
// across the vector. A stage whose leaf order keeps its logical order keeps it, and
// so does a shared buffer, which every thread of a block fills cooperatively.
std::vector<size_t> LeafOrderLayout(const Stage& stage) {
  const auto* cop = static_cast<const ComputeOpNode*>(stage->op.get());
  std::vector<size_t> layout(cop->axis.size());
  for (size_t d = 0; d < layout.size(); ++d) {
    layout[d] = d;
  }
  if (stage->scope == "shared") {
    return layout;
  }
  std::unordered_map<const IterVarNode*, std::vector<size_t>> dims_of;
  for (size_t d = 0; d < cop->axis.size(); ++d) {
    dims_of[cop->axis[d].get()] = {d};
  }
  for (const IterVarRelation& rel : stage->relations) {
    if (rel.kind == IterVarRelation::Kind::kSplit) {
      dims_of[rel.outer.get()] = dims_of[rel.parent.get()];
      dims_of[rel.inner.get()] = dims_of[rel.parent.get()];
    } else {
      std::vector<size_t> dims = dims_of[rel.outer.get()];
      const std::vector<size_t>& inner = dims_of[rel.inner.get()];
      dims.insert(dims.end(), inner.begin(), inner.end());
      dims_of[rel.fused.get()] = std::move(dims);
    }
  }
  std::vector<size_t> innermost(cop->axis.size(), 0);
  for (size_t pos = 0; pos < stage->leaf_iter_vars.size(); ++pos) {
    for (size_t d : dims_of[stage->leaf_iter_vars[pos].get()]) {
      innermost[d] = pos;
    }
  }
  std::stable_sort(layout.begin(), layout.end(),
                   [&](size_t a, size_t b) { return innermost[a] < innermost[b]; });
  return layout;
}

// One scheduled loop to be emitted, outermost first.
struct LoopSpec {
  IterVar iv;
  Var loop_var;  // may be a shared thread var
  Expr extent;   // constant after bound inference
  ForType for_type = ForType::kSerial;
  std::string thread_tag;
  bool emit_loop = true;  // false when reusing an active thread var
  const IterVarAttr* attr = nullptr;
};

// Per-stage inferred bounds and leaf-to-root value maps.
struct StageBounds {
  std::unordered_map<const IterVarNode*, Expr> extent;       // local extents
  std::unordered_map<const IterVarNode*, Expr> local_value;  // local value in leaf vars
  std::vector<Expr> predicates;                              // non-exact split guards
};

class LowerContext {
 public:
  LowerContext(Schedule sch, const std::vector<Tensor>& args, std::string name)
      : sch_(std::move(sch)), name_(std::move(name)) {
    for (const Tensor& t : args) {
      RegisterExternal(t);
      arg_order_.push_back(t);
    }
  }

  LoweredFunc Run() {
    InlineStages();
    BuildAttachMap();
    std::vector<Stmt> pipeline;
    std::vector<const OperationNode*> internal_allocs;
    for (const Stage& stage : sch_->stages) {
      if (dynamic_cast<ComputeOpNode*>(stage->op.get()) == nullptr) {
        continue;  // placeholder
      }
      if (stage->attach_type != AttachType::kRoot) {
        continue;  // inline or attached
      }
      if (!buffers_.count(stage->op.get())) {
        RegisterInternal(stage, FullExtents(stage->op), {});
        internal_allocs.push_back(stage->op.get());
      }
      pipeline.push_back(MakeStageNest(stage));
    }
    Stmt body = seq(std::move(pipeline));
    for (auto it = internal_allocs.rbegin(); it != internal_allocs.rend(); ++it) {
      const BufferInfo& info = buffers_.at(*it);
      std::vector<Expr> extents;
      for (int64_t e : info.extents) {
        extents.push_back(make_int(e));
      }
      body = allocate(info.var, info.dtype, std::move(extents), info.scope, body);
    }
    body = HoistIfThenElse(analyzer_.Simplify(body));
    body = HoistSharedAllocations(body);
    LoweredFunc func;
    func.name = name_;
    for (const Tensor& t : arg_order_) {
      const BufferInfo& info = buffers_.at(t.op().get());
      func.args.push_back(BufferArg{info.var, info.dtype, info.extents, t.name()});
    }
    func.body = std::move(body);
    return func;
  }

 private:
  friend class StageEmitter;

  std::vector<int64_t> FullExtents(const Operation& op) const {
    std::vector<int64_t> extents;
    for (const Expr& e : op->output_shape(0)) {
      extents.push_back(get_const_int(Simplify(e)));
    }
    return extents;
  }

  void RegisterExternal(const Tensor& t) {
    if (buffers_.count(t.op().get())) {
      return;
    }
    BufferInfo info;
    info.var = make_var(t.name(), DataType::Handle());
    info.dtype = t.dtype();
    info.extents = FullExtents(t.op());
    info.external = true;
    buffers_.emplace(t.op().get(), std::move(info));
  }

  void RegisterInternal(const Stage& stage, std::vector<int64_t> extents,
                        std::vector<Expr> offsets, std::vector<size_t> layout = {}) {
    BufferInfo info;
    info.var = make_var(stage->op->name, DataType::Handle());
    info.dtype = stage->op->output_dtype(0);
    info.extents = std::move(extents);
    info.offsets = std::move(offsets);
    info.scope = stage->scope;
    info.layout = std::move(layout);
    buffers_[stage->op.get()] = std::move(info);
  }

  // Substitutes inline stages' bodies into every consumer (in dependency order, so chains
  // of inlined stages resolve).
  void InlineStages() {
    for (const Stage& stage : sch_->stages) {
      if (stage->attach_type != AttachType::kInline) {
        continue;
      }
      auto* cop = dynamic_cast<ComputeOpNode*>(stage->op.get());
      CHECK(cop != nullptr);
      const OperationNode* target = stage->op.get();
      const std::vector<IterVar>& axis = cop->axis;
      Expr body = cop->body[0];
      class Inliner : public ExprMutator {
       public:
        Inliner(const OperationNode* target, const std::vector<IterVar>& axis,
                const Expr& body)
            : target_(target), axis_(axis), body_(body) {}

       protected:
        Expr MutateTensorRead(const TensorReadNode* op, const Expr& e) override {
          Expr base = ExprMutator::MutateTensorRead(op, e);
          const auto* n = static_cast<const TensorReadNode*>(base.get());
          if (n->op.get() != static_cast<const void*>(target_)) {
            return base;
          }
          VarMap vmap;
          for (size_t i = 0; i < axis_.size(); ++i) {
            vmap[axis_[i]->var.get()] = n->indices[i];
          }
          return Substitute(body_, vmap);
        }

       private:
        const OperationNode* target_;
        const std::vector<IterVar>& axis_;
        const Expr& body_;
      };
      Inliner inliner(target, axis, body);
      for (const Stage& consumer : sch_->stages) {
        auto* ccop = dynamic_cast<ComputeOpNode*>(consumer->op.get());
        if (ccop == nullptr || consumer.get() == stage.get()) {
          continue;
        }
        std::vector<Expr> new_body;
        for (const Expr& e : ccop->body) {
          new_body.push_back(inliner.Mutate(e));
        }
        ccop->body = std::move(new_body);
      }
    }
  }

  void BuildAttachMap() {
    for (const Stage& stage : sch_->stages) {
      if (stage->attach_type == AttachType::kScope) {
        Stage parent = stage->attach_stage.lock();
        CHECK(parent != nullptr) << "attach parent expired";
        attach_map_[parent.get()].emplace_back(stage->attach_ivar.get(), stage);
      }
    }
  }

  StageBounds InferStageBounds(const Stage& stage, const std::vector<int64_t>& root_extents) {
    StageBounds b;
    const auto* cop = dynamic_cast<const ComputeOpNode*>(stage->op.get());
    CHECK(cop != nullptr);
    for (size_t i = 0; i < cop->axis.size(); ++i) {
      b.extent[cop->axis[i].get()] = make_int(root_extents[i]);
    }
    for (const IterVar& rv : cop->reduce_axis) {
      b.extent[rv.get()] = Simplify(rv->dom.extent());
    }
    for (const IterVarRelation& rel : stage->relations) {
      if (rel.kind == IterVarRelation::Kind::kSplit) {
        Expr parent_extent = b.extent.at(rel.parent.get());
        int64_t factor = get_const_int(rel.factor);
        int64_t pe;
        if (is_const_int(parent_extent, &pe) && pe <= factor) {
          b.extent[rel.outer.get()] = make_int(1);
          b.extent[rel.inner.get()] = make_int(pe);
        } else {
          b.extent[rel.outer.get()] =
              Simplify((parent_extent + make_int(factor - 1)) / make_int(factor));
          b.extent[rel.inner.get()] = make_int(factor);
        }
      } else {
        b.extent[rel.fused.get()] =
            Simplify(b.extent.at(rel.outer.get()) * b.extent.at(rel.inner.get()));
      }
    }
    for (const IterVar& leaf : stage->leaf_iter_vars) {
      b.local_value[leaf.get()] = leaf->var;
    }
    for (auto it = stage->relations.rbegin(); it != stage->relations.rend(); ++it) {
      const IterVarRelation& rel = *it;
      if (rel.kind == IterVarRelation::Kind::kSplit) {
        Expr outer_v = b.local_value.at(rel.outer.get());
        Expr inner_v = b.local_value.at(rel.inner.get());
        int64_t factor = get_const_int(rel.factor);
        Expr inner_extent = b.extent.at(rel.inner.get());
        // When the parent collapsed into the inner var (extent <= factor), outer is 0.
        Expr parent_v = Simplify(outer_v * inner_extent + inner_v);
        (void)factor;
        b.local_value[rel.parent.get()] = parent_v;
        Expr parent_extent = b.extent.at(rel.parent.get());
        Expr covered =
            Simplify(b.extent.at(rel.outer.get()) * b.extent.at(rel.inner.get()));
        int64_t pe, ce;
        if (!(is_const_int(parent_extent, &pe) && is_const_int(covered, &ce) && pe == ce)) {
          b.predicates.push_back(lt(parent_v, parent_extent));
        }
      } else {
        Expr fused_v = b.local_value.at(rel.fused.get());
        Expr inner_extent = b.extent.at(rel.inner.get());
        b.local_value[rel.outer.get()] = Simplify(fused_v / inner_extent);
        b.local_value[rel.inner.get()] = Simplify(fused_v % inner_extent);
      }
    }
    return b;
  }

  Stmt MakeStageNest(const Stage& stage);

  Schedule sch_;
  std::string name_;
  std::vector<Tensor> arg_order_;
  std::unordered_map<const OperationNode*, BufferInfo> buffers_;
  std::unordered_map<const StageNode*, std::vector<std::pair<const IterVarNode*, Stage>>>
      attach_map_;
  std::map<std::string, std::pair<Var, int64_t>> thread_env_;
  // Active vthread loops (var, extent), innermost last.
  std::vector<std::pair<Var, int64_t>> active_vthreads_;
  Analyzer analyzer_;
};

// Emits one stage's loop nest, descending outermost-in so the thread environment and
// analyzer bindings are active while children and bodies are generated.
class StageEmitter {
 public:
  StageEmitter(LowerContext* ctx, Stage stage) : ctx_(ctx), stage_(std::move(stage)) {
    cop_ = static_cast<const ComputeOpNode*>(stage_->op.get());
    const BufferInfo& out_info = ctx_->buffers_.at(stage_->op.get());
    bounds_ = ctx_->InferStageBounds(stage_, out_info.extents);
    BuildLoops();
    BuildValueMaps(out_info);
    has_reduce_ = !cop_->reduce_axis.empty() && cop_->body[0]->kind == ExprKind::kReduce;
    tensorize_pos_ = loops_.size();
    for (size_t i = 0; i < loops_.size(); ++i) {
      if (loops_[i].attr != nullptr && loops_[i].attr->tensor_intrin != nullptr) {
        tensorize_pos_ = i;
        break;
      }
    }
    first_reduce_pos_ = loops_.size();
    for (size_t i = 0; i < loops_.size(); ++i) {
      if (loops_[i].iv->type == IterVarType::kCommReduce) {
        first_reduce_pos_ = i;
        break;
      }
    }
  }

  Stmt Emit() {
    Stmt result = EmitFrom(0, /*in_update=*/false);
    for (const VarNode* v : bound_vars_) {
      ctx_->analyzer_.Unbind(v);
    }
    for (const std::string& tag : registered_tags_) {
      ctx_->thread_env_.erase(tag);
    }
    return result;
  }

 private:
  void BuildLoops() {
    for (const IterVar& leaf : stage_->leaf_iter_vars) {
      LoopSpec spec;
      spec.iv = leaf;
      spec.extent = bounds_.extent.at(leaf.get());
      spec.attr = stage_->GetAttr(leaf);
      spec.loop_var = leaf->var;
      if (spec.attr != nullptr) {
        spec.for_type = spec.attr->for_type;
        if (spec.attr->bind_thread != nullptr) {
          const IterVar& thr = spec.attr->bind_thread;
          spec.thread_tag = thr->thread_tag;
          if (thr->type == IterVarType::kThreadIndex) {
            int64_t extent_v = get_const_int(spec.extent);
            auto env = ctx_->thread_env_.find(spec.thread_tag);
            if (env != ctx_->thread_env_.end()) {
              spec.emit_loop = false;
              spec.loop_var = env->second.first;
              CHECK_LE(extent_v, env->second.second)
                  << "thread extent exceeds active " << spec.thread_tag;
              if (extent_v < env->second.second) {
                reuse_predicates_.push_back(lt(spec.loop_var, make_int(extent_v)));
              }
            } else {
              spec.loop_var = thr->var;
            }
          } else {
            // Virtual threads always emit their own loop.
            spec.loop_var = thr->var;
          }
        }
      }
      loops_.push_back(std::move(spec));
    }
  }

  void BuildValueMaps(const BufferInfo& out_info) {
    VarMap leaf_rename;
    for (const LoopSpec& spec : loops_) {
      if (spec.loop_var.get() != spec.iv->var.get()) {
        leaf_rename[spec.iv->var.get()] = spec.loop_var;
      }
    }
    for (size_t i = 0; i < cop_->axis.size(); ++i) {
      const IterVar& iv = cop_->axis[i];
      Expr local = Substitute(bounds_.local_value.at(iv.get()), leaf_rename);
      local_map_[iv->var.get()] = local;
      Expr offset = i < out_info.offsets.size() && out_info.offsets[i] != nullptr
                        ? out_info.offsets[i]
                        : make_int(0);
      global_map_[iv->var.get()] = Simplify(local + offset);
    }
    for (const IterVar& rv : cop_->reduce_axis) {
      Expr local = Substitute(bounds_.local_value.at(rv.get()), leaf_rename);
      local_map_[rv->var.get()] = local;
      global_map_[rv->var.get()] = Simplify(local + rv->dom.min());
    }
    for (const Expr& p : bounds_.predicates) {
      predicates_.push_back(Substitute(p, leaf_rename));
    }
    for (const Expr& p : reuse_predicates_) {
      predicates_.push_back(p);
    }
  }

  // Emits loops from position `i` to the end.
  Stmt EmitFrom(size_t i, bool in_update) {
    // Reduction split point: emit Seq(init_nest, update_nest).
    if (has_reduce_ && !in_update && i == first_reduce_pos_) {
      Stmt init = EmitInit();
      Stmt update = EmitFrom(i, /*in_update=*/true);
      return seq({std::move(init), std::move(update)});
    }
    // Tensorize cut: everything below is replaced with an intrinsic call.
    if (i == tensorize_pos_ && i < loops_.size()) {
      const TensorIntrinPtr& intrin = loops_[i].attr->tensor_intrin;
      std::string call_name = intrin->intrin_name;
      if (has_reduce_ && !intrin->update_name.empty()) {
        call_name = intrin->update_name;
      }
      // The intrinsic runs every point of the loops it replaces.
      CHECK(!has_reduce_ ||
            static_cast<const ReduceNode*>(cop_->body[0].get())->condition == nullptr)
          << "a tensorized reduction cannot skip points with a `where`";
      return GuardPredicates(MakeIntrinCall(call_name, /*include_inputs=*/true),
                             /*for_init=*/false);
    }
    if (i == loops_.size()) {
      return GuardPredicates(EmitLeafBody(in_update), /*for_init=*/false);
    }
    const LoopSpec& spec = loops_[i];
    // In the update pass, the common outer spatial loops [0, first_reduce_pos) were
    // already emitted by the pre-reduce recursion; skip them.
    // (EmitFrom(i, true) is only called with i >= first_reduce_pos_.)
    bool registered = false;
    if (spec.emit_loop && !spec.thread_tag.empty() &&
        spec.attr->bind_thread->type == IterVarType::kThreadIndex) {
      ctx_->thread_env_[spec.thread_tag] = {spec.loop_var, get_const_int(spec.extent)};
      registered_tags_.push_back(spec.thread_tag);
      registered = true;
    }
    bool registered_vthread = false;
    if (spec.emit_loop && spec.for_type == ForType::kVThread) {
      ctx_->active_vthreads_.emplace_back(spec.loop_var, get_const_int(spec.extent));
      registered_vthread = true;
    }
    int64_t ev;
    if (spec.emit_loop && is_const_int(spec.extent, &ev)) {
      ctx_->analyzer_.Bind(spec.loop_var.get(), 0, ev - 1);
      bound_vars_.push_back(spec.loop_var.get());
    }
    // Children must be generated first: they register the buffers the body reads.
    bool any_shared = false;
    std::vector<PendingAlloc> allocs;
    std::vector<Stmt> children = EmitChildren(spec.iv, i, &any_shared, &allocs);
    Stmt inner = EmitFrom(i + 1, in_update);
    inner = CombineChildren(std::move(children), any_shared, std::move(inner));
    // Child buffers live across producer and consumer: allocate around both.
    for (auto it2 = allocs.rbegin(); it2 != allocs.rend(); ++it2) {
      inner = allocate(it2->var, it2->dtype, it2->extents, it2->scope, inner);
    }
    (void)registered;
    if (registered_vthread) {
      ctx_->active_vthreads_.pop_back();
    }
    if (spec.emit_loop) {
      return for_stmt(spec.loop_var, make_int(0), spec.extent, inner, spec.for_type,
                      spec.thread_tag);
    }
    return inner;
  }

  // Init nest of a reduction: spatial leaf loops at/after the first reduce position.
  Stmt EmitInit() {
    std::vector<const LoopSpec*> init_loops;
    bool tensorized_init = false;
    for (size_t i = first_reduce_pos_; i < loops_.size(); ++i) {
      if (loops_[i].iv->type == IterVarType::kCommReduce) {
        continue;
      }
      if (i >= tensorize_pos_) {
        tensorized_init = true;
        break;
      }
      init_loops.push_back(&loops_[i]);
    }
    const auto* red = static_cast<const ReduceNode*>(cop_->body[0].get());
    Stmt body;
    if (tensorized_init) {
      const TensorIntrinPtr& intrin = loops_[tensorize_pos_].attr->tensor_intrin;
      CHECK(!intrin->reset_name.empty())
          << "tensorized reduction requires a reset intrinsic";
      body = MakeIntrinCall(intrin->reset_name, /*include_inputs=*/false);
    } else {
      body = MakeStore(red->identity, nullptr);
    }
    body = GuardPredicates(std::move(body), /*for_init=*/true);
    for (size_t i = init_loops.size(); i-- > 0;) {
      const LoopSpec* spec = init_loops[i];
      if (spec->emit_loop) {
        body = for_stmt(spec->loop_var, make_int(0), spec->extent, body, spec->for_type,
                        spec->thread_tag);
      }
    }
    return body;
  }

  // Innermost statement: plain store (injective) or reduction update.
  Stmt EmitLeafBody(bool in_update) {
    if (!has_reduce_) {
      return MakeStore(cop_->body[0], nullptr);
    }
    CHECK(in_update);
    const auto* red = static_cast<const ReduceNode*>(cop_->body[0].get());
    Expr out_read = ReadOutput();
    Expr source = FlattenReads(Substitute(red->source, global_map_));
    Expr combined;
    if (red->op == "sum") {
      combined = out_read + source;
    } else if (red->op == "max") {
      combined = max(out_read, source);
    } else if (red->op == "min") {
      combined = min(out_read, source);
    } else {
      LOG(FATAL) << "unknown reducer " << red->op;
    }
    return MakeStore(nullptr, combined);
  }

  Stmt GuardPredicates(Stmt body, bool for_init) {
    std::vector<Expr> preds;
    if (for_init) {
      // Init runs before reduce loops exist; drop predicates that mention them.
      std::unordered_set<const VarNode*> reduce_leafs;
      for (const LoopSpec& spec : loops_) {
        if (spec.iv->type == IterVarType::kCommReduce) {
          reduce_leafs.insert(spec.loop_var.get());
        }
      }
      for (const Expr& p : predicates_) {
        bool uses = false;
        for (const VarNode* v : reduce_leafs) {
          if (UsesVar(p, v)) {
            uses = true;
            break;
          }
        }
        if (!uses) {
          preds.push_back(p);
        }
      }
    } else {
      preds = predicates_;
      // The reduction's `where` guards the update only: a skipped point leaves the
      // accumulator as the init (or the earlier points) left it.
      const Expr& where =
          has_reduce_ ? static_cast<const ReduceNode*>(cop_->body[0].get())->condition
                      : nullptr;
      if (where != nullptr) {
        preds.push_back(FlattenReads(Substitute(where, global_map_)));
      }
    }
    if (preds.empty()) {
      return body;
    }
    Expr cond = preds[0];
    for (size_t i = 1; i < preds.size(); ++i) {
      cond = logic_and(cond, preds[i]);
    }
    cond = ctx_->analyzer_.Simplify(cond);
    int64_t cv;
    if (is_const_int(cond, &cv) && cv != 0) {
      return body;
    }
    return if_then_else_stmt(cond, std::move(body));
  }

  struct PendingAlloc {
    Var var;
    DataType dtype;
    std::vector<Expr> extents;
    std::string scope;
  };

  // Generates the nests of children attached at `iv` (this registers their buffers, so it
  // must run before the consuming body is emitted). Allocations are returned separately so
  // the caller can wrap them around producer + consumer.
  std::vector<Stmt> EmitChildren(const IterVar& iv, size_t loop_index, bool* any_shared,
                                 std::vector<PendingAlloc>* allocs) {
    std::vector<Stmt> parts;
    auto it = ctx_->attach_map_.find(stage_.get());
    if (it == ctx_->attach_map_.end()) {
      return parts;
    }
    for (const auto& [attach_iv, child] : it->second) {
      if (attach_iv != iv.get()) {
        continue;
      }
      parts.push_back(MakeAttachedChild(child, loop_index, allocs));
      *any_shared |= child->scope == "shared";
    }
    return parts;
  }

  // Sequences children before the inner content, with barriers around shared-scope
  // producers (Section 4.2).
  static Stmt CombineChildren(std::vector<Stmt> children, bool any_shared, Stmt inner) {
    if (children.empty()) {
      return inner;
    }
    std::vector<Stmt> parts = std::move(children);
    if (any_shared) {
      parts.push_back(MakeSync());
    }
    parts.push_back(std::move(inner));
    if (any_shared) {
      parts.push_back(MakeSync());
    }
    return seq(std::move(parts));
  }

  static Stmt MakeSync() {
    return evaluate(call_intrin(DataType::Int32(), kSyncIntrin,
                                {std::make_shared<StringImmNode>("shared")}));
  }

  // Infers the child's region from this stage's reads below the attach point, registers
  // its buffer, and generates its nest. The allocation is recorded in `allocs`.
  Stmt MakeAttachedChild(const Stage& child, size_t attach_index,
                         std::vector<PendingAlloc>* allocs) {
    DomainMap dom;
    for (size_t i = 0; i < loops_.size(); ++i) {
      const LoopSpec& spec = loops_[i];
      if (i > attach_index) {
        dom[spec.loop_var.get()] = IntSet::FromMinExtent(make_int(0), spec.extent);
      }
    }
    if (child->scope == "shared") {
      // A shared buffer covers the whole thread block: all active thread and vthread
      // indices (possibly bound by ancestor stages) range over their extents.
      for (const auto& [tag, ve] : ctx_->thread_env_) {
        if (tag.rfind("threadIdx", 0) == 0) {
          dom[ve.first.get()] = IntSet::FromMinExtent(make_int(0), make_int(ve.second));
        }
      }
      for (const auto& [var, extent] : ctx_->active_vthreads_) {
        dom[var.get()] = IntSet::FromMinExtent(make_int(0), make_int(extent));
      }
    }
    int child_ndim = static_cast<int>(child->op->output_shape(0).size());
    std::vector<IntSet> region(static_cast<size_t>(child_ndim), IntSet::Everything());
    for (const Expr& body : cop_->body) {
      Expr global_body = Substitute(body, global_map_);
      PostOrderVisit(global_body, [&](const Expr& e) {
        if (e->kind != ExprKind::kTensorRead) {
          return;
        }
        const auto* n = static_cast<const TensorReadNode*>(e.get());
        if (n->op.get() != static_cast<const void*>(child->op.get())) {
          return;
        }
        for (int d = 0; d < child_ndim; ++d) {
          IntSet s = EvalIntSet(n->indices[static_cast<size_t>(d)], dom);
          CHECK(s.defined()) << "cannot bound read of " << child->op->name << " dim " << d;
          region[static_cast<size_t>(d)] = UnionIntSet(region[static_cast<size_t>(d)], s);
        }
      });
    }
    std::vector<Expr> offsets;
    std::vector<int64_t> extents;
    std::vector<int64_t> full = ctx_->FullExtents(child->op);
    for (int d = 0; d < child_ndim; ++d) {
      const IntSet& s = region[static_cast<size_t>(d)];
      Expr extent = s.defined() ? ctx_->analyzer_.Simplify(s.max - s.min + 1) : nullptr;
      int64_t ev;
      if (extent != nullptr && is_const_int(extent, &ev) &&
          ev <= full[static_cast<size_t>(d)]) {
        offsets.push_back(ctx_->analyzer_.Simplify(s.min));
        extents.push_back(ev);
      } else {
        offsets.push_back(make_int(0));
        extents.push_back(full[static_cast<size_t>(d)]);
      }
    }
    ctx_->RegisterInternal(child, extents, offsets, LeafOrderLayout(child));
    Stmt child_nest = ctx_->MakeStageNest(child);
    const BufferInfo& cinfo = ctx_->buffers_.at(child->op.get());
    std::vector<Expr> alloc_extents;
    for (size_t d : cinfo.layout) {
      alloc_extents.push_back(make_int(cinfo.extents[d]));
    }
    allocs->push_back(
        PendingAlloc{cinfo.var, cinfo.dtype, std::move(alloc_extents), cinfo.scope});
    return child_nest;
  }

  // Store helper: value = body(global coords) or explicit `override_value`.
  Stmt MakeStore(const Expr& body_expr, Expr override_value) {
    const BufferInfo& info = ctx_->buffers_.at(stage_->op.get());
    std::vector<Expr> coords;
    for (const IterVar& iv : cop_->axis) {
      coords.push_back(local_map_.at(iv->var.get()));
    }
    Expr value = std::move(override_value);
    if (value == nullptr) {
      value = FlattenReads(Substitute(body_expr, global_map_));
    }
    Expr index = FlattenIndex(coords, info);
    return store(info.var, ctx_->analyzer_.Simplify(value), ctx_->analyzer_.Simplify(index));
  }

  Expr ReadOutput() {
    const BufferInfo& info = ctx_->buffers_.at(stage_->op.get());
    std::vector<Expr> coords;
    for (const IterVar& iv : cop_->axis) {
      coords.push_back(local_map_.at(iv->var.get()));
    }
    return load(info.dtype, info.var,
                ctx_->analyzer_.Simplify(FlattenIndex(coords, info)));
  }

  // Tensor-intrinsic call. ABI per buffer (output, then inputs in read order):
  // (handle, base_offset, stride per tensorized loop...), then tensorized extents.
  Stmt MakeIntrinCall(const std::string& name, bool include_inputs) {
    const BufferInfo& out_info = ctx_->buffers_.at(stage_->op.get());
    std::vector<const LoopSpec*> tloops;
    for (size_t i = tensorize_pos_; i < loops_.size(); ++i) {
      tloops.push_back(&loops_[i]);
    }
    VarMap zero_map;
    for (const LoopSpec* t : tloops) {
      zero_map[t->loop_var.get()] = make_int(0);
    }
    std::vector<Expr> args;
    auto push_buffer = [&](const Var& buf, const Expr& flat_index) {
      args.push_back(buf);
      args.push_back(ctx_->analyzer_.Simplify(Substitute(flat_index, zero_map)));
      for (const LoopSpec* t : tloops) {
        VarMap one_map = zero_map;
        one_map[t->loop_var.get()] = make_int(1);
        Expr stride = ctx_->analyzer_.Simplify(Substitute(flat_index, one_map) -
                                               Substitute(flat_index, zero_map));
        args.push_back(stride);
      }
    };
    {
      std::vector<Expr> coords;
      for (const IterVar& iv : cop_->axis) {
        coords.push_back(local_map_.at(iv->var.get()));
      }
      push_buffer(out_info.var, FlattenIndex(coords, out_info));
    }
    if (include_inputs) {
      Expr body = cop_->body[0];
      if (body->kind == ExprKind::kReduce) {
        body = static_cast<const ReduceNode*>(body.get())->source;
      }
      body = Substitute(body, global_map_);
      std::vector<std::pair<Var, Expr>> input_bufs;
      std::unordered_set<const void*> seen;
      PostOrderVisit(body, [&](const Expr& e) {
        if (e->kind != ExprKind::kTensorRead) {
          return;
        }
        const auto* r = static_cast<const TensorReadNode*>(e.get());
        if (!seen.insert(r->op.get()).second) {
          return;
        }
        const BufferInfo& info =
            ctx_->buffers_.at(static_cast<const OperationNode*>(r->op.get()));
        std::vector<Expr> coords;
        for (size_t d = 0; d < r->indices.size(); ++d) {
          Expr off = d < info.offsets.size() && info.offsets[d] != nullptr ? info.offsets[d]
                                                                           : make_int(0);
          coords.push_back(Simplify(r->indices[d] - off));
        }
        input_bufs.emplace_back(info.var, FlattenIndex(coords, info));
      });
      for (const auto& [buf, idx] : input_bufs) {
        push_buffer(buf, idx);
      }
    }
    for (const LoopSpec* t : tloops) {
      args.push_back(t->extent);
    }
    return evaluate(call_intrin(DataType::Int32(), name, std::move(args)));
  }

  // Replaces TensorReads with flat Loads through the buffer map.
  Expr FlattenReads(const Expr& e) {
    class Flattener : public ExprMutator {
     public:
      explicit Flattener(LowerContext* ctx) : ctx_(ctx) {}

     protected:
      Expr MutateTensorRead(const TensorReadNode* op, const Expr& e) override {
        Expr base = ExprMutator::MutateTensorRead(op, e);
        const auto* n = static_cast<const TensorReadNode*>(base.get());
        auto it = ctx_->buffers_.find(static_cast<const OperationNode*>(n->op.get()));
        CHECK(it != ctx_->buffers_.end()) << "read of unrealized tensor " << n->name;
        const BufferInfo& info = it->second;
        std::vector<Expr> coords;
        for (size_t d = 0; d < n->indices.size(); ++d) {
          Expr off = d < info.offsets.size() && info.offsets[d] != nullptr ? info.offsets[d]
                                                                           : make_int(0);
          coords.push_back(Simplify(n->indices[d] - off));
        }
        return load(info.dtype, info.var, FlattenIndex(coords, info));
      }

     private:
      LowerContext* ctx_;
    };
    Flattener f(ctx_);
    return ctx_->analyzer_.Simplify(f.Mutate(e));
  }

  LowerContext* ctx_;
  Stage stage_;
  const ComputeOpNode* cop_ = nullptr;
  StageBounds bounds_;
  std::vector<LoopSpec> loops_;
  std::vector<Expr> reuse_predicates_;
  std::vector<Expr> predicates_;
  VarMap local_map_;
  VarMap global_map_;
  bool has_reduce_ = false;
  size_t tensorize_pos_ = 0;
  size_t first_reduce_pos_ = 0;
  std::vector<const VarNode*> bound_vars_;
  std::vector<std::string> registered_tags_;
};

Stmt LowerContext::MakeStageNest(const Stage& stage) {
  StageEmitter emitter(this, stage);
  return emitter.Emit();
}

}  // namespace

LoweredFunc Lower(const Schedule& sch, const std::vector<Tensor>& args,
                  const std::string& name) {
  LowerContext ctx(sch, args, name);
  return ctx.Run();
}

}  // namespace tvmcpp
