// Human-readable text printer for the IR, used in tests, debugging and docs.
#ifndef SRC_IR_PRINTER_H_
#define SRC_IR_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/ir/expr.h"
#include "src/ir/stmt.h"

namespace tvmcpp {

std::string ToString(const Expr& e);
std::string ToString(const Stmt& s);
// Prints `s` with `params` named v0, v1, ... in order and every other variable named
// by its first appearance after them, and float immediates at full precision. Two
// functions print the same exactly when they differ at most in the names of their
// variables and bind each parameter position to the same role.
std::string ToPositionalString(const std::vector<Var>& params, const Stmt& s);

std::ostream& operator<<(std::ostream& os, const Expr& e);
std::ostream& operator<<(std::ostream& os, const Stmt& s);

}  // namespace tvmcpp

#endif  // SRC_IR_PRINTER_H_
