// Register-based bytecode VM for lowered loop programs.
//
// CompileToProgram lowers a LoweredFunc body once into a flat instruction stream:
// variables are resolved to dense register slots at compile time (no hash lookups at
// runtime), constants are pre-folded via Simplify and materialized into an initial
// register image, loads/stores are specialized per element type, and loop bodies are
// linear instruction ranges driven by compare-and-branch instructions. Outermost
// ForType::kParallel loops execute as chunked jobs on a shared ThreadPool.
//
// The tree-walking interpreter (src/interp) remains the reference semantics; the VM is
// bitwise-identical to it by construction (same scalar value model, same evaluation
// order, same bounds checks, same float16 rounding helper). Unsupported constructs make
// CompileToProgram return nullptr; the graph executor's tier ladder
// (src/graph/executor.h) then runs the function on the interpreter. Nothing here
// caches programs: callers hold the Program they compiled. See src/vm/README.md for
// the design notes.
#ifndef SRC_VM_VM_H_
#define SRC_VM_VM_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/interp/interp.h"
#include "src/lower/lower.h"

namespace tvmcpp {

class ThreadPool;  // src/runtime/threadpool.h

namespace vm {

struct Program;  // defined in vm.cc; opaque to callers

// Compiles `func` into bytecode. PrepareHostBody first serializes cooperative
// thread blocks and materializes kVectorized loops, which execute as SIMD vector
// opcodes over a vector register file; SpecializeLoops then unrolls/hoists per
// `spec` (src/lower/unroll.cc), and the bytecode compiler applies strength
// reduction and the peephole pass. Returns nullptr when the body contains a
// construct the VM does not support (unknown intrinsics, ...); callers should then
// fall back to RunLoweredInterp. Every compile in the library uses the default
// `spec` (so does the tuning-cache key); LoopSpecializeOptions::Disabled() is the
// unspecialized baseline tests and benches compare against.
std::shared_ptr<const Program> CompileToProgram(const LoweredFunc& func,
                                                const LoopSpecializeOptions& spec = {});

// Host parallelism: TVMCPP_NUM_THREADS when set to a positive count, else
// std::thread::hardware_concurrency(). Read once per process; the single parser of
// that variable (ExecOptions::num_threads and the serving pool size derive from it).
int DefaultNumThreads();

// --- fallback diagnostics ---------------------------------------------------------
// Every silent engine downgrade (native or VM compile failure -> next tier down) is
// counted, and TVMCPP_VM_STRICT=1 (or SetStrictMode(true)) turns the downgrade into a
// hard error so coverage regressions fail loudly instead of quietly de-optimizing.
int64_t FallbackCount();
void ResetFallbackCount();
bool StrictMode();
void SetStrictMode(bool strict);
// Records one down-tier fallback for `func_name`; fatal under strict mode. Called
// only by the tier ladder in src/graph/executor.cc, which owns engine selection.
void NoteFallback(const std::string& func_name);

// Explicit per-run engine context. Execution state itself (registers, buffer table)
// is always run-local, so any number of Run() calls on the same shared Program may be
// in flight concurrently; this struct only selects where kParallel chunks execute.
struct ExecOptions {
  // Worker count for kParallel loops. 0 = DefaultNumThreads(); 1 = force serial
  // execution.
  int num_threads = 0;
  // Execute on the tree-walking reference interpreter instead of the VM, as an
  // *explicit* engine choice: unlike a compile-failure fallback it is not counted
  // by FallbackCount and never trips TVMCPP_VM_STRICT. The serving layer's
  // retry-with-fallback ladder (src/serve) sets this for the final down-tier
  // attempt after VM execution faults. Honored by graph::CompiledGraph::Run;
  // vm::Run itself ignores it (callers pick the engine before dispatching).
  bool force_interp = false;
  // Worker pool for kParallel chunks. nullptr = the process-wide pool, created lazily
  // once per process (a forked child gets its own).
  // The serving scheduler (src/serve) passes its own pool here so request-level jobs
  // and intra-kernel chunks multiplex over the same threads; a thread that waits on
  // chunk futures helps drain the pool (ThreadPool::TryRunOne), so submitting from a
  // pool worker cannot deadlock.
  ThreadPool* pool = nullptr;
  // Mid-run cancellation deadline, honored by graph::CompiledGraph::Run between
  // kernel invocations (throws graph::DeadlineExceededError once passed, bounding
  // tail work for requests popped just before their deadline). The per-kernel
  // engines themselves do not poll it. max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

// Executes a compiled program with `args` bound positionally to the function arguments.
void Run(const Program& program, const std::vector<BufferBinding>& args,
         const ExecOptions& options = {});

// Runs chunk(begin, end) over [lo, hi) with the deterministic contiguous chunking of
// kParallel loops (tvmcpp::ParallelFor, src/runtime/threadpool.h) at `options`'
// thread count, on `options.pool` or the process-wide pool. Shared by the VM's
// kParFor and the native tier's parallel launcher (src/codegen/native.h).
void ParallelFor(const ExecOptions& options, int64_t lo, int64_t hi,
                 const std::function<void(int64_t, int64_t)>& chunk);

// Introspection (tests, benches, docs).
int ProgramNumInstructions(const Program& program);
int ProgramNumRegisters(const Program& program);
bool ProgramHasParallel(const Program& program);
// True when the program contains SIMD vector opcodes (a vectorized schedule actually
// compiled to the vector execution path instead of running scalar).
bool ProgramHasVector(const Program& program);

// Static opcode statistics plus how often each specialization fired during
// compilation. Tests assert on these to pin that the passes actually run (e.g. a
// fully-unrolled kernel has zero jumps); benches report them alongside wall-clock.
struct ProgramStats {
  int num_instructions = 0;
  int num_registers = 0;
  int jumps = 0;      // kJmp + kJmpIfZero + kJmpGeI
  int int_muls = 0;   // kMulI
  int movs = 0;       // kMov
  int loads = 0;      // scalar + vector loads
  int stores = 0;     // scalar + vector stores
  // Specialization effect counters:
  int unrolled_loops = 0;      // IR loops fully unrolled (SpecializeLoops)
  int hoisted_lets = 0;        // invariant LetStmt bindings hoisted (SpecializeLoops)
  int csed_muls = 0;           // recurring loop-var multiplies bound per iteration
  int strength_reduced = 0;    // loop-var multiplies turned into increments
  int peephole_removed = 0;    // instructions deleted by the peephole sweep
};
ProgramStats GetProgramStats(const Program& program);

}  // namespace vm
}  // namespace tvmcpp

#endif  // SRC_VM_VM_H_
