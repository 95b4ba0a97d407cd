#include "src/ir/printer.h"

#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>

namespace tvmcpp {

namespace {

const char* BinOpSymbol(ExprKind k) {
  switch (k) {
    case ExprKind::kAdd:
      return " + ";
    case ExprKind::kSub:
      return " - ";
    case ExprKind::kMul:
      return "*";
    case ExprKind::kDiv:
      return "/";
    case ExprKind::kMod:
      return " % ";
    case ExprKind::kEQ:
      return " == ";
    case ExprKind::kNE:
      return " != ";
    case ExprKind::kLT:
      return " < ";
    case ExprKind::kLE:
      return " <= ";
    case ExprKind::kGT:
      return " > ";
    case ExprKind::kGE:
      return " >= ";
    case ExprKind::kAnd:
      return " && ";
    case ExprKind::kOr:
      return " || ";
    default:
      return "?";
  }
}

class Printer {
 public:
  explicit Printer(std::ostream& os, bool positional = false)
      : os_(os), positional_(positional) {
    if (positional_) {
      os_ << std::setprecision(std::numeric_limits<double>::max_digits10);
    }
  }

  void PrintExpr(const Expr& e) {
    if (e == nullptr) {
      os_ << "<null>";
      return;
    }
    switch (e->kind) {
      case ExprKind::kIntImm:
        os_ << static_cast<const IntImmNode*>(e.get())->value;
        break;
      case ExprKind::kFloatImm:
        os_ << static_cast<const FloatImmNode*>(e.get())->value << "f";
        break;
      case ExprKind::kStringImm:
        os_ << '"' << static_cast<const StringImmNode*>(e.get())->value << '"';
        break;
      case ExprKind::kVar:
        os_ << Name(static_cast<const VarNode*>(e.get()));
        break;
      case ExprKind::kCast: {
        const auto* n = static_cast<const CastNode*>(e.get());
        os_ << n->dtype << "(";
        PrintExpr(n->value);
        os_ << ")";
        break;
      }
      case ExprKind::kMin:
      case ExprKind::kMax: {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        os_ << (e->kind == ExprKind::kMin ? "min(" : "max(");
        PrintExpr(n->a);
        os_ << ", ";
        PrintExpr(n->b);
        os_ << ")";
        break;
      }
      case ExprKind::kNot: {
        os_ << "!(";
        PrintExpr(static_cast<const NotNode*>(e.get())->a);
        os_ << ")";
        break;
      }
      case ExprKind::kSelect: {
        const auto* n = static_cast<const SelectNode*>(e.get());
        os_ << "select(";
        PrintExpr(n->condition);
        os_ << ", ";
        PrintExpr(n->true_value);
        os_ << ", ";
        PrintExpr(n->false_value);
        os_ << ")";
        break;
      }
      case ExprKind::kLoad: {
        const auto* n = static_cast<const LoadNode*>(e.get());
        os_ << Name(n->buffer_var.get()) << "[";
        PrintExpr(n->index);
        os_ << "]";
        break;
      }
      case ExprKind::kRamp: {
        const auto* n = static_cast<const RampNode*>(e.get());
        os_ << "ramp(";
        PrintExpr(n->base);
        os_ << ", ";
        PrintExpr(n->stride);
        os_ << ", " << n->lanes << ")";
        break;
      }
      case ExprKind::kBroadcast: {
        const auto* n = static_cast<const BroadcastNode*>(e.get());
        os_ << "x" << n->lanes << "(";
        PrintExpr(n->value);
        os_ << ")";
        break;
      }
      case ExprKind::kCall: {
        const auto* n = static_cast<const CallNode*>(e.get());
        os_ << n->name << "(";
        for (size_t i = 0; i < n->args.size(); ++i) {
          if (i > 0) {
            os_ << ", ";
          }
          PrintExpr(n->args[i]);
        }
        os_ << ")";
        break;
      }
      case ExprKind::kLet: {
        const auto* n = static_cast<const LetNode*>(e.get());
        os_ << "(let " << Name(n->var.get()) << " = ";
        PrintExpr(n->value);
        os_ << " in ";
        PrintExpr(n->body);
        os_ << ")";
        break;
      }
      case ExprKind::kTensorRead: {
        const auto* n = static_cast<const TensorReadNode*>(e.get());
        os_ << n->name << "(";
        for (size_t i = 0; i < n->indices.size(); ++i) {
          if (i > 0) {
            os_ << ", ";
          }
          PrintExpr(n->indices[i]);
        }
        os_ << ")";
        break;
      }
      case ExprKind::kReduce: {
        const auto* n = static_cast<const ReduceNode*>(e.get());
        os_ << "reduce." << n->op << "(";
        PrintExpr(n->source);
        os_ << ", axis=[";
        for (size_t i = 0; i < n->axis.size(); ++i) {
          if (i > 0) {
            os_ << ", ";
          }
          os_ << Name(n->axis[i]->var.get());
        }
        os_ << "]";
        if (n->condition != nullptr) {
          os_ << ", where=";
          PrintExpr(n->condition);
        }
        os_ << ")";
        break;
      }
      default: {
        const auto* n = static_cast<const BinaryNode*>(e.get());
        os_ << "(";
        PrintExpr(n->a);
        os_ << BinOpSymbol(e->kind);
        PrintExpr(n->b);
        os_ << ")";
        break;
      }
    }
  }

  void PrintStmt(const Stmt& s, int indent) {
    if (s == nullptr) {
      return;
    }
    std::string pad(static_cast<size_t>(indent) * 2, ' ');
    switch (s->kind) {
      case StmtKind::kLetStmt: {
        const auto* n = static_cast<const LetStmtNode*>(s.get());
        os_ << pad << "let " << Name(n->var.get()) << " = ";
        PrintExpr(n->value);
        os_ << "\n";
        PrintStmt(n->body, indent);
        break;
      }
      case StmtKind::kAttrStmt: {
        const auto* n = static_cast<const AttrStmtNode*>(s.get());
        os_ << pad << "// attr " << n->key << " = ";
        PrintExpr(n->value);
        os_ << "\n";
        PrintStmt(n->body, indent);
        break;
      }
      case StmtKind::kAssert: {
        const auto* n = static_cast<const AssertStmtNode*>(s.get());
        os_ << pad << "assert(";
        PrintExpr(n->condition);
        os_ << ", \"" << n->message << "\")\n";
        PrintStmt(n->body, indent);
        break;
      }
      case StmtKind::kStore: {
        const auto* n = static_cast<const StoreNode*>(s.get());
        os_ << pad << Name(n->buffer_var.get()) << "[";
        PrintExpr(n->index);
        os_ << "] = ";
        PrintExpr(n->value);
        if (n->predicate) {
          os_ << " if ";
          PrintExpr(n->predicate);
        }
        os_ << "\n";
        break;
      }
      case StmtKind::kAllocate: {
        const auto* n = static_cast<const AllocateNode*>(s.get());
        os_ << pad << "allocate " << Name(n->buffer_var.get()) << "[" << n->dtype;
        for (const Expr& e : n->extents) {
          os_ << " * ";
          PrintExpr(e);
        }
        os_ << "] scope=" << n->scope << " {\n";
        PrintStmt(n->body, indent + 1);
        os_ << pad << "}\n";
        break;
      }
      case StmtKind::kFor: {
        const auto* n = static_cast<const ForNode*>(s.get());
        const char* kind = "for";
        switch (n->for_type) {
          case ForType::kParallel:
            kind = "parallel";
            break;
          case ForType::kVectorized:
            kind = "vectorized";
            break;
          case ForType::kUnrolled:
            kind = "unrolled";
            break;
          case ForType::kVThread:
            kind = "vthread";
            break;
          case ForType::kThreadBinding:
            kind = "launch_thread";
            break;
          default:
            break;
        }
        os_ << pad << kind << " (" << Name(n->loop_var.get());
        if (!n->thread_tag.empty()) {
          os_ << ":" << n->thread_tag;
        }
        os_ << ", ";
        PrintExpr(n->min);
        os_ << ", ";
        PrintExpr(n->extent);
        os_ << ") {\n";
        PrintStmt(n->body, indent + 1);
        os_ << pad << "}\n";
        break;
      }
      case StmtKind::kIfThenElse: {
        const auto* n = static_cast<const IfThenElseNode*>(s.get());
        os_ << pad << "if (";
        PrintExpr(n->condition);
        os_ << ") {\n";
        PrintStmt(n->then_case, indent + 1);
        if (n->else_case) {
          os_ << pad << "} else {\n";
          PrintStmt(n->else_case, indent + 1);
        }
        os_ << pad << "}\n";
        break;
      }
      case StmtKind::kSeq: {
        const auto* n = static_cast<const SeqStmtNode*>(s.get());
        for (const Stmt& st : n->seq) {
          PrintStmt(st, indent);
        }
        break;
      }
      case StmtKind::kEvaluate: {
        const auto* n = static_cast<const EvaluateNode*>(s.get());
        os_ << pad;
        PrintExpr(n->value);
        os_ << "\n";
        break;
      }
    }
  }

  // Gives `v` the next positional name before the body is printed.
  void Bind(const VarNode* v) { Name(v); }

 private:
  // A variable's own name, or its position of first appearance ("v0", "v1", ...).
  std::string Name(const VarNode* v) {
    if (!positional_) {
      return v->name;
    }
    auto it = names_.emplace(v, "v" + std::to_string(names_.size())).first;
    return it->second;
  }

  std::ostream& os_;
  const bool positional_;
  std::unordered_map<const VarNode*, std::string> names_;
};

}  // namespace

std::string ToString(const Expr& e) {
  std::ostringstream os;
  Printer(os).PrintExpr(e);
  return os.str();
}

std::string ToString(const Stmt& s) {
  std::ostringstream os;
  Printer(os).PrintStmt(s, 0);
  return os.str();
}

std::string ToPositionalString(const std::vector<Var>& params, const Stmt& s) {
  std::ostringstream os;
  Printer printer(os, /*positional=*/true);
  for (const Var& p : params) {
    printer.Bind(p.get());
  }
  printer.PrintStmt(s, 0);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Expr& e) {
  Printer(os).PrintExpr(e);
  return os;
}

std::ostream& operator<<(std::ostream& os, const Stmt& s) {
  Printer(os).PrintStmt(s, 0);
  return os;
}

}  // namespace tvmcpp
