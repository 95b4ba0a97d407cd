// Tier-2 AOT backend, part 1: TIR -> C pretty-printer.
//
// EmitC lowers a LoweredFunc body through the VM's preprocessing pipeline minus loop
// specialization (PrepareHostBody, then Simplify; the unrolling and
// hoisting SpecializeLoops does for the VM, `cc -O2` does here, with a
// `#pragma GCC unroll` on each constant-extent kUnrolled loop) and pretty-prints
// the result as a self-contained C function over the interpreter's widened buffer
// layout (float16 stored as float, int8 as int8_t, ...):
//
//   void <symbol>(void** bufs, const tn_launcher* par);  // bufs[i] = args[i].data
//
// The emitted code mirrors the reference interpreter's value model statement by
// statement — every float value an f32 (C `float` arithmetic, unary libm calls in
// double rounded back), ints as int64_t, floor div/mod,
// float16 rounded through the shared RNE grid on cast/store, Select/if_then_else
// lazy, predicated lanes skipped, vector stores per lane in predicate -> index ->
// value order — so a compiled kernel is bitwise-identical to the interpreter (and
// therefore to the VM) on every non-trapping program. Constructs outside the
// supported set (unknown intrinsics, Reduce, ...) mark the source not-ok and the
// caller falls back down-tier, exactly like vm::CompileToProgram returning null.
//
// An outermost kParallel loop that passes the shared hazard rule (ParallelHazard,
// src/lower/lower.h) and has at least 2^16 static work is outlined into a static
// body function over a captured-environment struct; `par` runs it over the VM's
// deterministic chunks of its range on the caller's pool (native.h). All other
// loops are emitted inline and run serially.
//
// Part 2 (native.h) compiles emitted sources with the system compiler and dlopens
// the result.
#ifndef SRC_CODEGEN_CODEGEN_H_
#define SRC_CODEGEN_CODEGEN_H_

#include <string>

#include "src/lower/lower.h"

namespace tvmcpp {
namespace codegen {

// One emitted kernel: a C function definition (no includes; pairs with Preamble()).
struct CSource {
  // C function name: tn_<hash of the emitted text>. Variables are named
  // positionally, so kernels that differ only in their graph nodes' names share it.
  std::string symbol;
  std::string code;    // outlined parallel bodies, then the kernel function
  bool ok = false;
  std::string error;   // first unsupported construct when !ok
};

// Shared helper block (types, floor div/mod, float16 RNE helpers, math wrappers)
// that must precede any emitted function in a translation unit.
const std::string& Preamble();

// Emits `func` (with its outlined parallel bodies) as C.
CSource EmitC(const LoweredFunc& func);

}  // namespace codegen
}  // namespace tvmcpp

#endif  // SRC_CODEGEN_CODEGEN_H_
