// Rule-based arithmetic simplification and constant-integer bound analysis.
//
// The Analyzer tracks integer ranges of bound variables (loop vars, thread indices) and
// provides:
//   * ConstBound(e)  — conservative [min, max] of an integer expression
//   * CanProve(cond) — returns true only when `cond` is provably true
//   * Simplify(e)    — constant folding + affine rewrites (used after substitution during
//                      lowering, e.g. collapsing (yo*8 + yi) / 8 -> yo)
#ifndef SRC_IR_SIMPLIFY_H_
#define SRC_IR_SIMPLIFY_H_

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "src/ir/expr.h"
#include "src/ir/stmt.h"

namespace tvmcpp {

// A conservative closed integer interval.
struct ConstBound {
  int64_t min = std::numeric_limits<int64_t>::min();
  int64_t max = std::numeric_limits<int64_t>::max();
  bool IsSingle() const { return min == max; }
  bool IsBounded() const {
    return min != std::numeric_limits<int64_t>::min() &&
           max != std::numeric_limits<int64_t>::max();
  }
  static ConstBound Single(int64_t v) { return {v, v}; }
  static ConstBound Everything() { return {}; }
};

// Arithmetic context with variable range bindings.
class Analyzer {
 public:
  // Binds var to the integer interval [min, max].
  void Bind(const VarNode* v, int64_t min_value, int64_t max_value);
  // Binds var to range [r.min, r.min + r.extent - 1]; both must be const-foldable.
  void Bind(const VarNode* v, const Range& r);
  void Unbind(const VarNode* v);

  ConstBound GetConstBound(const Expr& e) const;
  // Proves a boolean expression true (returns false when unknown).
  bool CanProve(const Expr& cond) const;
  bool CanProveGE(const Expr& a, int64_t b) const;
  bool CanProveLT(const Expr& a, int64_t b) const;

  Expr Simplify(const Expr& e) const;
  Stmt Simplify(const Stmt& s) const;

 private:
  std::unordered_map<const VarNode*, ConstBound> bounds_;
};

// Convenience: simplification with an empty context.
Expr Simplify(const Expr& e);
Stmt Simplify(const Stmt& s);

// Floor division / modulo helpers shared by the simplifier and the interpreter.
int64_t FloorDiv(int64_t a, int64_t b);
int64_t FloorMod(int64_t a, int64_t b);

// The narrowing-cast rule for an int target of `bits` < 64 bits, shared by the
// simplifier, the interpreter and the VM: i mod 2^bits, re-signed when `is_signed`.
inline int64_t WrapInt(int64_t i, int bits, bool is_signed) {
  int64_t mod = int64_t{1} << bits;
  i = ((i % mod) + mod) % mod;
  if (is_signed && i >= (mod >> 1)) {
    i -= mod;
  }
  return i;
}

}  // namespace tvmcpp

#endif  // SRC_IR_SIMPLIFY_H_
