#include "src/js/printer.h"

#include <cmath>
#include <cstdio>

namespace robodet {
namespace {

std::string QuoteString(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\'':
        out += "\\'";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out.push_back(c);
        break;
    }
  }
  out += "'";
  return out;
}

std::string NumberToSource(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintStatements(const std::vector<JsStmtPtr>& body, std::string& out);

}  // namespace

std::string PrintJsExpression(const JsExpr& expr) {
  switch (expr.kind) {
    case JsExprKind::kNumber:
      return NumberToSource(expr.number_value);
    case JsExprKind::kString:
      return QuoteString(expr.string_value);
    case JsExprKind::kBool:
      return expr.bool_value ? "true" : "false";
    case JsExprKind::kNull:
      return "null";
    case JsExprKind::kUndefined:
      return "undefined";
    case JsExprKind::kIdentifier:
      return expr.name;
    case JsExprKind::kUnary:
      if (expr.op == "typeof") {
        return "(typeof " + PrintJsExpression(*expr.children[0]) + ")";
      }
      return "(" + expr.op + PrintJsExpression(*expr.children[0]) + ")";
    case JsExprKind::kBinary:
    case JsExprKind::kLogical:
      return std::string("(")
          .append(PrintJsExpression(*expr.children[0]))
          .append(" ")
          .append(expr.op)
          .append(" ")
          .append(PrintJsExpression(*expr.children[1]))
          .append(")");
    case JsExprKind::kAssign:
      return PrintJsExpression(*expr.children[0]) + " " + expr.op + " " +
             PrintJsExpression(*expr.children[1]);
    case JsExprKind::kConditional:
      return std::string("(")
          .append(PrintJsExpression(*expr.children[0]))
          .append(" ? ")
          .append(PrintJsExpression(*expr.children[1]))
          .append(" : ")
          .append(PrintJsExpression(*expr.children[2]))
          .append(")");
    case JsExprKind::kCall: {
      std::string out = PrintJsExpression(*expr.children[0]) + "(";
      for (size_t i = 1; i < expr.children.size(); ++i) {
        if (i > 1) {
          out += ", ";
        }
        out += PrintJsExpression(*expr.children[i]);
      }
      return out + ")";
    }
    case JsExprKind::kMember:
      return PrintJsExpression(*expr.children[0]) + "." + expr.name;
    case JsExprKind::kNew: {
      std::string out = "new " + expr.name + "(";
      for (size_t i = 0; i < expr.children.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += PrintJsExpression(*expr.children[i]);
      }
      return out + ")";
    }
  }
  return "undefined";
}

std::string PrintJsStatement(const JsStmt& stmt) {
  switch (stmt.kind) {
    case JsStmtKind::kExpr:
      return stmt.expr != nullptr ? PrintJsExpression(*stmt.expr) + ";" : ";";
    case JsStmtKind::kVar: {
      std::string out = "var " + stmt.name;
      if (stmt.expr != nullptr) {
        out += " = " + PrintJsExpression(*stmt.expr);
      }
      return out + ";";
    }
    case JsStmtKind::kFunction: {
      std::string out = "function " + stmt.name + "(";
      for (size_t i = 0; i < stmt.params.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += stmt.params[i];
      }
      out += ") {\n";
      PrintStatements(stmt.body, out);
      return out + "}";
    }
    case JsStmtKind::kIf: {
      std::string out = "if (" + PrintJsExpression(*stmt.expr) + ") {\n";
      PrintStatements(stmt.body, out);
      out += "}";
      if (!stmt.else_body.empty()) {
        out += " else {\n";
        PrintStatements(stmt.else_body, out);
        out += "}";
      }
      return out;
    }
    case JsStmtKind::kWhile: {
      std::string out = "while (" + PrintJsExpression(*stmt.expr) + ") {\n";
      PrintStatements(stmt.body, out);
      return out + "}";
    }
    case JsStmtKind::kReturn:
      return stmt.expr != nullptr ? "return " + PrintJsExpression(*stmt.expr) + ";"
                                  : "return;";
    case JsStmtKind::kBlock: {
      std::string out = "{\n";
      PrintStatements(stmt.body, out);
      return out + "}";
    }
  }
  return ";";
}

namespace {

void PrintStatements(const std::vector<JsStmtPtr>& body, std::string& out) {
  for (const JsStmtPtr& stmt : body) {
    out += PrintJsStatement(*stmt);
    out += '\n';
  }
}

}  // namespace

std::string PrintJs(const JsProgram& program) {
  std::string out;
  PrintStatements(program.statements, out);
  return out;
}

}  // namespace robodet
