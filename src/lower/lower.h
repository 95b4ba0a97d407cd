// Schedule lowering: turns a Schedule into a low-level loop program (Figure 6's
// "code lowering" step).
//
// The pipeline:
//   1. inline expansion of compute_inline stages
//   2. bound inference: loop extents from root domains + split/fuse relations; regions of
//      compute_at-attached stages via interval analysis of consumer reads
//   3. loop-nest construction with storage flattening (TensorRead -> flat Load),
//      reduction init/update splitting, thread-binding reuse, memory-scope allocation,
//      barrier injection for shared scopes, and tensorization (Section 4.3)
//   4. simplification, then HoistIfThenElse (guards lifted out of the loops they do
//      not depend on)
//
// Post passes (target dependent): InjectVirtualThreads (Section 4.4). The host
// tiers then run PrepareHostBody, and the VM also SpecializeLoops, which expands
// unroll()-annotated loops.
#ifndef SRC_LOWER_LOWER_H_
#define SRC_LOWER_LOWER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/ir/stmt.h"
#include "src/schedule/schedule.h"
#include "src/te/tensor.h"

namespace tvmcpp {

// An external buffer argument of a lowered function.
struct BufferArg {
  Var var;                     // handle variable appearing in Load/Store
  DataType dtype;
  std::vector<int64_t> shape;  // concrete shape (shape-specialized, Section 5)
  std::string name;
};

// A lowered function: loop program plus its external buffer signature.
struct LoweredFunc {
  std::string name;
  std::vector<BufferArg> args;
  Stmt body;
};

// Lowers `sch` into a function over `args` (placeholders and outputs, in call order).
// The schedule is consumed: operation bodies may be rewritten in place.
LoweredFunc Lower(const Schedule& sch, const std::vector<Tensor>& args,
                  const std::string& name);

// --- Loop specialization (src/lower/unroll.cc) -------------------------------------
// Engine-side compile-time specialization applied by the VM compiler before bytecode
// generation (see CompileToProgram): full unrolling of small fixed-extent innermost
// loops with constant folding, and loop-invariant code motion of integer index
// arithmetic into LetStmt bindings. The specialized body is bitwise-equivalent to the
// original; the flags only trade compile time for execution speed.
struct LoopSpecializeOptions {
  // Fully unroll innermost serial/unrolled loops with constant extent <= this
  // (0 disables unrolling).
  int64_t unroll_limit = 8;
  // Hoist loop-invariant integer subexpressions out of innermost loops.
  bool hoist_invariants = true;
  // Bytecode-level knobs consumed by the VM compiler (src/vm/vm.cc): strength
  // reduction of affine loop-variable multiplies into per-iteration increments, and
  // the peephole pass collapsing constant-operand arithmetic and dead register moves.
  bool strength_reduce = true;
  bool peephole = true;
  // Every pass off: the unspecialized baseline for differential tests and benches.
  static LoopSpecializeOptions Disabled();
};

// How often each IR-level specialization fired (exposed per-program through
// vm::GetProgramStats so tests can assert the passes actually ran).
struct LoopSpecializeStats {
  int unrolled_loops = 0;
  int hoisted_lets = 0;  // invariant bindings moved out of innermost loops
  int csed_muls = 0;     // recurring loop-var multiplies bound once per iteration
};

// Runs the IR-level specialization pipeline: unroll-and-fold, then invariant
// hoisting (in that order — a collapsed small nest exposes its parent as innermost).
// Innermost unroll()-annotated loops are expanded here too, by the same rule.
Stmt SpecializeLoops(const Stmt& s, const LoopSpecializeOptions& opts,
                     LoopSpecializeStats* stats = nullptr);

// Splits every else-less guard into its conjuncts and lifts each pure integer one
// (no load, call, or division by a non-constant) above every enclosing loop whose
// whole body it guards and whose variable it does not use; thread-bound and vthread
// loops are never crossed. Under a guard, a select or if_then_else on proven
// conditions folds to its true arm and a proven integer min/max clamp to its
// operand. Bitwise-neutral. The last step of Lower(), so every tier runs its result.
Stmt HoistIfThenElse(const Stmt& s);

// Moves "shared"-scope allocations above the thread-binding loops (shared buffers are
// per-block, not per-thread). Required for correct serial interpretation and mirrors
// real GPU codegen, which declares shared memory at kernel scope.
Stmt HoistSharedAllocations(const Stmt& s);

// True when `s` contains a loop bound to a threadIdx hardware thread (such programs need
// SerializeThreadBlocks before host execution). Shared by both execution engines.
bool HasThreadIdxBinding(const Stmt& s);

// Rewrites threadIdx-bound loop nests into block-synchronous serial form: per-thread
// buffers are privatized (expanded by the thread-grid size) and the thread loops are
// re-introduced around each barrier-delimited phase (loop fission at tvm_storage_sync).
// This gives a serial program with exactly the barrier semantics a GPU provides, so the
// interpreter can execute cooperative schedules correctly.
Stmt SerializeThreadBlocks(const Stmt& s);

// Lowers kVThread loops: duplicates per-vthread buffers and interleaves the copies into a
// single statement stream (Figure 8). Must run after Lower().
Stmt InjectVirtualThreads(const Stmt& s);

// Materializes ForType::kVectorized loops as vector IR: Ramp indices, Broadcast
// scalars, lane-typed Load/Store, predicated lanes for lane-dependent guards, and a
// scalar tail when wide loops are strip-mined. Loops the pass cannot prove
// vectorizable are left untouched (engines keep running them serially). Applied by
// the execution engines (src/vm compile, vector-aware interpretation); the machine
// models (src/sim) analyze the pre-vectorization loop nest.
Stmt VectorizeLoop(const Stmt& s);

// The preparation every host tier shares (the VM compiler, the native C emitter and
// the cost model's VM features): SerializeThreadBlocks when the body binds threadIdx
// loops, then VectorizeLoop. Both steps are bitwise-neutral. The reference
// interpreter serializes only.
Stmt PrepareHostBody(const Stmt& s);

// True when chunking the iterations of the kParallel loop `loop` across workers
// could race (src/lower/parallel.cc): its body writes a buffer that is neither one
// of `arg_buffers` nor allocated inside the body (an outer scratch allocation every
// chunk would share), or writes an argument buffer at an index that does not
// depend on the loop variable or a let derived from it (e.g. a reduction axis
// marked parallel). Such loops run serially. Both tiers that chunk kParallel loops
// (src/vm, src/codegen) ask this one question, so they agree on which loops chunk.
bool ParallelHazard(const ForNode* loop,
                    const std::unordered_set<const VarNode*>& arg_buffers);

}  // namespace tvmcpp

#endif  // SRC_LOWER_LOWER_H_
