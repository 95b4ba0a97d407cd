// Tier-2 AOT backend, part 2: compile emitted C with the system compiler, dlopen
// the shared object, and cache artifacts by content hash.
//
// CompileNativeModule batches any number of emitted kernels (codegen::CSource)
// into ONE translation unit / one compiler invocation / one .so — the dominant
// cost of the native tier is process spawn + compile, so a whole graph (or a
// whole fuzzer batch) pays it once. Artifacts are cached at three levels:
//   1. in-process: a registry keyed by the 64-bit FNV-1a content hash of the full
//      source + compile flags + compiler, so recompiling an identical module is a
//      map lookup. The source opens with a `/* isa: ... */` line, the target
//      options the compiler resolves -march=native to on this host, so the hash
//      (and the disk entry below) also names the vector ISA the code was built for;
//   2. on disk: <dir>/tn_<hash>.so (plus the .c for debugging) under
//      TVMCPP_NATIVE_CACHE, shared across processes; unset, a per-process temp
//      directory is used (no cross-process reuse, no stale-dir management);
//   3. corrupt or stale disk entries (dlopen failure, missing symbol) are
//      recompiled in place via write-temp + atomic rename — never a crash.
//
// Callers hold the NativeKernels they compiled; choosing this tier and falling down
// from it is the graph executor's job (src/graph/executor.h).
//
// Compile flags build for the host's vector ISA (-march=native) and pin
// bitwise-exact float semantics: no -ffast-math, -ffp-contract=off (no FMA fusing
// of a*b+c, which -march=native would otherwise allow), and -fno-builtin (libm
// calls stay real glibc calls, the same ones the interpreter makes, instead of
// being constant-folded by the compiler with correctly-rounded MPFR results glibc
// does not match).
#ifndef SRC_CODEGEN_NATIVE_H_
#define SRC_CODEGEN_NATIVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/codegen/codegen.h"
#include "src/interp/interp.h"
#include "src/lower/lower.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace codegen {

// Host side of the emitted parallel-launch ABI (`tn_launcher` in Preamble()). An
// outlined kParallel loop body calls launch(self, body, env, begin, end), and the
// host runs body(env, b, e) over the chunks of [begin, end) that vm::ParallelFor
// picks for *exec: on its pool and thread count, bitwise equal to the VM.
struct ParallelLauncher {
  void (*launch)(const ParallelLauncher* self, void (*body)(void*, int64_t, int64_t),
                 void* env, int64_t begin, int64_t end);
  const vm::ExecOptions* exec;
};

// ABI of every emitted kernel: positional data pointers in the widened storage
// layout, plus the launcher for its parallel loops (nullptr runs them serially).
using KernelFn = void (*)(void** bufs, const ParallelLauncher* par);

// A dlopen'd shared object. Closed (dlclose) when the last reference dies.
class NativeModule {
 public:
  NativeModule(void* handle, std::string path);
  ~NativeModule();
  NativeModule(const NativeModule&) = delete;
  NativeModule& operator=(const NativeModule&) = delete;

  // Resolves an emitted kernel symbol; nullptr when absent.
  KernelFn Get(const std::string& symbol) const;
  const std::string& path() const { return path_; }

 private:
  void* handle_;
  std::string path_;
};

// Compiles every ok source into one cached module. Returns nullptr when there is
// nothing to compile or the system compiler rejects the unit (counted, logged).
std::shared_ptr<NativeModule> CompileNativeModule(const std::vector<CSource>& srcs);

// One callable kernel pinned by the module that owns its code.
struct NativeKernel {
  std::shared_ptr<NativeModule> module;
  KernelFn fn = nullptr;
  explicit operator bool() const { return fn != nullptr; }
};

// Emits + compiles a batch of functions as one module (one compiler invocation).
// Entry i corresponds to funcs[i]; fn == nullptr where emission failed.
std::vector<NativeKernel> CompileNativeKernels(const std::vector<const LoweredFunc*>& funcs);

// Single-function convenience over CompileNativeKernels.
NativeKernel CompileNativeKernel(const LoweredFunc& func);

// Invokes a compiled kernel on positionally-bound buffers (fail-point "native.run").
// Its outlined parallel loops run on `exec`'s pool and thread count, like vm::Run.
void RunNativeKernel(const NativeKernel& kernel, const std::vector<BufferBinding>& args,
                     const vm::ExecOptions& exec = {});

// Counters for tests and benches. emits/emit_failures: EmitC outcomes observed by
// kernel compilation; compiles: real compiler invocations; mem_hits/disk_hits:
// module-cache hits by level; compile_failures: compiler or dlopen failures.
struct NativeStats {
  int64_t emits = 0;
  int64_t emit_failures = 0;
  int64_t compiles = 0;
  int64_t mem_hits = 0;
  int64_t disk_hits = 0;
  int64_t compile_failures = 0;
};
NativeStats GetNativeStats();
void ResetNativeStats();

// Drops the in-process module registry (modules stay alive while kernels hold
// them) so tests can exercise the disk-cache path in one process.
void ClearNativeModuleRegistryForTesting();

}  // namespace codegen
}  // namespace tvmcpp

#endif  // SRC_CODEGEN_NATIVE_H_
