#include "src/autotune/feature.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/ir/simplify.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace autotune {

namespace {

double Log2p1(double x) { return std::log2(1.0 + std::max(0.0, x)); }

}  // namespace

std::vector<double> ExtractFeatures(const ProgramStats& stats) {
  std::vector<double> f;
  f.reserve(kFeatureDim);
  // Arithmetic.
  f.push_back(Log2p1(stats.flops));
  f.push_back(Log2p1(stats.int_ops));
  f.push_back(Log2p1(stats.special_ops));
  f.push_back(Log2p1(static_cast<double>(stats.total_loads)));
  f.push_back(Log2p1(static_cast<double>(stats.total_stores)));
  f.push_back(Log2p1(static_cast<double>(stats.loop_iterations)));
  f.push_back(Log2p1(static_cast<double>(stats.sync_count)));
  f.push_back(Log2p1(static_cast<double>(stats.branch_count)));
  // Thread structure.
  f.push_back(Log2p1(static_cast<double>(stats.grid_threads)));
  f.push_back(Log2p1(static_cast<double>(stats.block_threads)));
  f.push_back(Log2p1(static_cast<double>(stats.virtual_threads)));
  // Annotation one-hots.
  f.push_back(stats.has_vectorized ? 1.0 : 0.0);
  f.push_back(stats.has_parallel ? 1.0 : 0.0);
  f.push_back(stats.has_unrolled ? 1.0 : 0.0);
  f.push_back(Log2p1(static_cast<double>(stats.vector_extent)));
  f.push_back(Log2p1(static_cast<double>(stats.parallel_extent)));
  // Allocation bytes by scope.
  double shared = 0, local = 0, global_alloc = 0;
  for (const auto& [scope, bytes] : stats.alloc_bytes_by_scope) {
    if (scope == "shared") {
      shared += static_cast<double>(bytes);
    } else if (scope == "local") {
      local += static_cast<double>(bytes);
    } else {
      global_alloc += static_cast<double>(bytes);
    }
  }
  f.push_back(Log2p1(shared));
  f.push_back(Log2p1(local));
  f.push_back(Log2p1(global_alloc));
  // Per-buffer touch statistics (top 4 buffers by access volume): access count, unique
  // bytes, reuse ratio, innermost stride class, thread stride class.
  std::vector<const BufferStats*> bufs;
  for (const BufferStats& b : stats.buffers) {
    bufs.push_back(&b);
  }
  std::sort(bufs.begin(), bufs.end(), [](const BufferStats* a, const BufferStats* b) {
    return a->loads + a->stores > b->loads + b->stores;
  });
  for (int i = 0; i < 4; ++i) {
    if (i < static_cast<int>(bufs.size())) {
      const BufferStats* b = bufs[static_cast<size_t>(i)];
      double accesses = static_cast<double>(b->loads + b->stores);
      double unique = static_cast<double>(std::max<int64_t>(b->unique_elements, 1));
      f.push_back(Log2p1(accesses));
      f.push_back(Log2p1(unique));
      f.push_back(Log2p1(accesses / unique));  // reuse ratio
      f.push_back(b->innermost_stride == 0   ? 0.0
                  : b->innermost_stride == 1 ? 1.0
                                             : 2.0);
      f.push_back(b->thread_stride == 0 ? 0.0 : b->thread_stride == 1 ? 1.0 : 2.0);
    } else {
      for (int j = 0; j < 5; ++j) {
        f.push_back(0.0);
      }
    }
  }
  // Loop-level touched-bytes profile (first 9 loops, innermost last): extent + total
  // touched elements per iteration (the Figure 13 table, flattened).
  size_t emitted = 0;
  for (size_t i = 0; i < stats.loops.size() && emitted < 9; ++i, ++emitted) {
    const LoopStats& ls = stats.loops[i];
    double touched = 0;
    for (const LoopBufferTouch& t : ls.touches) {
      touched += static_cast<double>(t.elements_per_iteration);
    }
    f.push_back(Log2p1(static_cast<double>(ls.extent)) + Log2p1(touched) * 0.1);
  }
  while (f.size() < kFeatureDim) {
    f.push_back(0.0);
  }
  f.resize(kFeatureDim);
  return f;
}

std::vector<double> ExtractFeaturesVm(const LoweredFunc& func) {
  // Mirror the vm::CompileToProgram lowering pipeline so the classic block
  // describes the loop nest that actually executes, not the pre-VM one.
  Stmt body = Simplify(SpecializeLoops(PrepareHostBody(func.body), {}));
  LoweredFunc specialized{func.name, func.args, body};
  std::vector<double> f = ExtractFeatures(AnalyzeProgram(specialized));
  f.resize(static_cast<size_t>(kFullFeatureDim), 0.0);

  std::shared_ptr<const vm::Program> program = vm::CompileToProgram(func);
  if (program == nullptr) {
    return f;  // VM block zeroed; feature [kFeatureDim] doubles as the flag
  }
  vm::ProgramStats ps = vm::GetProgramStats(*program);
  size_t i = static_cast<size_t>(kFeatureDim);
  f[i++] = 1.0;  // compiled-to-bytecode flag
  f[i++] = Log2p1(static_cast<double>(ps.num_instructions));
  f[i++] = Log2p1(static_cast<double>(ps.num_registers));
  f[i++] = Log2p1(static_cast<double>(ps.jumps));
  f[i++] = Log2p1(static_cast<double>(ps.int_muls));
  f[i++] = Log2p1(static_cast<double>(ps.movs));
  f[i++] = Log2p1(static_cast<double>(ps.loads));
  f[i++] = Log2p1(static_cast<double>(ps.stores));
  f[i++] = Log2p1(static_cast<double>(ps.unrolled_loops));
  f[i++] = Log2p1(static_cast<double>(ps.hoisted_lets));
  f[i++] = Log2p1(static_cast<double>(ps.csed_muls));
  f[i++] = Log2p1(static_cast<double>(ps.strength_reduced));
  f[i++] = Log2p1(static_cast<double>(ps.peephole_removed));
  f[i++] = vm::ProgramHasParallel(*program) ? 1.0 : 0.0;
  f[i++] = vm::ProgramHasVector(*program) ? 1.0 : 0.0;
  // Branch density: straight-line (unrolled) code scores near zero.
  f[i++] = static_cast<double>(ps.jumps) /
           static_cast<double>(std::max(ps.num_instructions, 1));
  return f;
}

}  // namespace autotune
}  // namespace tvmcpp
