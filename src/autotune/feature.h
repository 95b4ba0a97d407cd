// Loop-program feature extraction for the ML cost model (Figure 13).
//
// Two feature families share one fixed-length vector:
//   * the classic block (kFeatureDim): memory access counts and touched sizes of
//     each buffer at each loop level, reuse ratios, arithmetic counts, and
//     one-hot loop annotations — the feature families the paper describes for
//     the XGBoost-style model;
//   * the VM block (kVmFeatureDim): extracted from the *post*-specialization,
//     *post*-vectorization TIR plus vm::GetProgramStats opcode counts of the
//     compiled bytecode, so unroll / hoist / strength-reduction decisions shape
//     the cost landscape the model learns (ExtractFeaturesVm, at the VM's
//     default LoopSpecializeOptions, which tuning measures). Sim-mode tasks
//     leave the VM block zeroed (the machine model analyzes pre-VM TIR).
#ifndef SRC_AUTOTUNE_FEATURE_H_
#define SRC_AUTOTUNE_FEATURE_H_

#include <vector>

#include "src/lower/lower.h"
#include "src/sim/analysis.h"

namespace tvmcpp {
namespace autotune {

inline constexpr int kFeatureDim = 48;     // classic analysis block
inline constexpr int kVmFeatureDim = 16;   // bytecode-program block
inline constexpr int kFullFeatureDim = kFeatureDim + kVmFeatureDim;

// Extracts the classic kFeatureDim block from analyzed program stats.
std::vector<double> ExtractFeatures(const ProgramStats& stats);

// VM-era extraction, kFullFeatureDim wide: mirrors the vm::CompileToProgram
// pipeline at its default LoopSpecializeOptions (PrepareHostBody,
// SpecializeLoops, Simplify), analyzes the *specialized* loop nest for the
// classic block, then compiles the bytecode program and appends its opcode
// statistics. When the VM cannot compile the function the VM block stays zeroed
// (flag feature 0) — the classic block still describes the specialized nest the
// interpreter would run.
std::vector<double> ExtractFeaturesVm(const LoweredFunc& func);

}  // namespace autotune
}  // namespace tvmcpp

#endif  // SRC_AUTOTUNE_FEATURE_H_
