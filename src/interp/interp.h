// Reference interpreter for lowered loop programs.
//
// Executes a LoweredFunc directly over flat host buffers. All loop kinds run serially
// (which preserves semantics: parallel/vectorized/thread-bound loops in this IR are
// data-parallel by construction), so the interpreter serves as the functional oracle
// against which schedule transformations are verified. Hardware performance is modeled
// separately (src/sim, src/vdla). Engine choice and the down-tier ladder that ends
// here live above it, in src/graph/executor.h; this layer includes nothing from the
// tiers it checks (src/vm, src/codegen, src/graph), which tools/docs_check.sh enforces.
#ifndef SRC_INTERP_INTERP_H_
#define SRC_INTERP_INTERP_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/lower/lower.h"

namespace tvmcpp {

// A host buffer bound to a function argument. Sub-32-bit types are stored widened:
// float16 as float, int8/int4/int2/int1 as int8.
struct BufferBinding {
  void* data = nullptr;
  DataType dtype;
  int64_t num_elements = 0;
};

// Executes `func` with `args` bound positionally to func.args on the tree-walking
// reference interpreter.
void RunLoweredInterp(const LoweredFunc& func, const std::vector<BufferBinding>& args);

// Storage bytes per element as the interpreter lays data out (see BufferBinding).
int InterpElementBytes(DataType t);

}  // namespace tvmcpp

#endif  // SRC_INTERP_INTERP_H_
