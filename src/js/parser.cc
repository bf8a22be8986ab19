#include "src/js/parser.h"

#include <cstdlib>
#include <utility>

#include "src/js/lexer.h"

namespace robodet {
namespace {

class Parser {
 public:
  // The tokens' text must outlive the parser; the tree copies what it keeps.
  explicit Parser(std::vector<JsToken> tokens) : tokens_(std::move(tokens)) {}

  JsParseResult ParseProgram() {
    JsParseResult result;
    auto program = std::make_shared<JsProgram>();
    while (!AtEof() && ok_) {
      JsStmtPtr stmt = ParseStatement();
      if (!ok_) {
        break;
      }
      program->statements.push_back(std::move(stmt));
    }
    result.ok = ok_;
    result.error = error_;
    if (ok_) {
      result.program = std::move(program);
    }
    return result;
  }

 private:
  const JsToken& Peek() const { return tokens_[pos_]; }
  bool AtEof() const { return Peek().type == JsTokenType::kEof; }

  JsToken Next() {
    JsToken tok = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
    return tok;
  }

  bool CheckPunct(std::string_view p) const {
    return Peek().type == JsTokenType::kPunct && Peek().text == p;
  }
  bool CheckKeyword(std::string_view k) const {
    return Peek().type == JsTokenType::kKeyword && Peek().text == k;
  }

  bool ConsumePunct(std::string_view p) {
    if (CheckPunct(p)) {
      Next();
      return true;
    }
    return false;
  }

  void ExpectPunct(std::string_view p) {
    if (!ConsumePunct(p)) {
      Fail(std::string("expected '") + std::string(p) + "'");
    }
  }

  void Fail(std::string msg) {
    if (ok_) {
      ok_ = false;
      error_ = msg + " at offset " + std::to_string(Peek().offset);
    }
  }

  // --- Statements ---

  JsStmtPtr ParseStatement() {
    auto stmt = std::make_unique<JsStmt>();
    if (CheckKeyword("var")) {
      Next();
      stmt->kind = JsStmtKind::kVar;
      if (Peek().type != JsTokenType::kIdentifier) {
        Fail("expected identifier after 'var'");
        return stmt;
      }
      stmt->name = Next().text;
      if (ConsumePunct("=")) {
        stmt->expr = ParseExpression();
      }
      ConsumePunct(";");
      return stmt;
    }
    if (CheckKeyword("function")) {
      Next();
      stmt->kind = JsStmtKind::kFunction;
      if (Peek().type != JsTokenType::kIdentifier) {
        Fail("expected function name");
        return stmt;
      }
      stmt->name = Next().text;
      ExpectPunct("(");
      while (ok_ && !CheckPunct(")")) {
        if (Peek().type != JsTokenType::kIdentifier) {
          Fail("expected parameter name");
          return stmt;
        }
        stmt->params.emplace_back(Next().text);
        if (!CheckPunct(")")) {
          ExpectPunct(",");
        }
      }
      ExpectPunct(")");
      stmt->body = ParseBlockBody();
      return stmt;
    }
    if (CheckKeyword("if")) {
      Next();
      stmt->kind = JsStmtKind::kIf;
      ExpectPunct("(");
      stmt->expr = ParseExpression();
      ExpectPunct(")");
      stmt->body = ParseStatementOrBlock();
      if (CheckKeyword("else")) {
        Next();
        stmt->else_body = ParseStatementOrBlock();
      }
      return stmt;
    }
    if (CheckKeyword("while")) {
      Next();
      stmt->kind = JsStmtKind::kWhile;
      ExpectPunct("(");
      stmt->expr = ParseExpression();
      ExpectPunct(")");
      stmt->body = ParseStatementOrBlock();
      return stmt;
    }
    if (CheckKeyword("for")) {
      // Desugar: for (init; cond; step) body  ->  { init; while (cond) {
      // body; step; } }. The dialect has no break/continue, so the
      // rewrite is exact.
      Next();
      ExpectPunct("(");
      stmt->kind = JsStmtKind::kBlock;
      if (!CheckPunct(";")) {
        stmt->body.push_back(ParseForClause());
      }
      ExpectPunct(";");
      auto loop = std::make_unique<JsStmt>();
      loop->kind = JsStmtKind::kWhile;
      if (CheckPunct(";")) {
        auto always = std::make_unique<JsExpr>();
        always->kind = JsExprKind::kBool;
        always->bool_value = true;
        loop->expr = std::move(always);
      } else {
        loop->expr = ParseExpression();
      }
      ExpectPunct(";");
      JsExprPtr step;
      if (!CheckPunct(")")) {
        step = ParseExpression();
      }
      ExpectPunct(")");
      loop->body = ParseStatementOrBlock();
      if (step != nullptr) {
        auto step_stmt = std::make_unique<JsStmt>();
        step_stmt->kind = JsStmtKind::kExpr;
        step_stmt->expr = std::move(step);
        loop->body.push_back(std::move(step_stmt));
      }
      stmt->body.push_back(std::move(loop));
      return stmt;
    }
    if (CheckKeyword("return")) {
      Next();
      stmt->kind = JsStmtKind::kReturn;
      if (!CheckPunct(";") && !CheckPunct("}") && !AtEof()) {
        stmt->expr = ParseExpression();
      }
      ConsumePunct(";");
      return stmt;
    }
    if (CheckPunct("{")) {
      stmt->kind = JsStmtKind::kBlock;
      stmt->body = ParseBlockBody();
      return stmt;
    }
    if (ConsumePunct(";")) {
      stmt->kind = JsStmtKind::kBlock;  // Empty statement.
      return stmt;
    }
    stmt->kind = JsStmtKind::kExpr;
    stmt->expr = ParseExpression();
    ConsumePunct(";");
    return stmt;
  }

  // A for-initializer: either a var declaration or an expression.
  JsStmtPtr ParseForClause() {
    auto init = std::make_unique<JsStmt>();
    if (CheckKeyword("var")) {
      Next();
      init->kind = JsStmtKind::kVar;
      if (Peek().type != JsTokenType::kIdentifier) {
        Fail("expected identifier after 'var'");
        return init;
      }
      init->name = Next().text;
      if (ConsumePunct("=")) {
        init->expr = ParseExpression();
      }
      return init;
    }
    init->kind = JsStmtKind::kExpr;
    init->expr = ParseExpression();
    return init;
  }

  std::vector<JsStmtPtr> ParseBlockBody() {
    std::vector<JsStmtPtr> body;
    ExpectPunct("{");
    while (ok_ && !CheckPunct("}") && !AtEof()) {
      body.push_back(ParseStatement());
    }
    ExpectPunct("}");
    return body;
  }

  std::vector<JsStmtPtr> ParseStatementOrBlock() {
    if (CheckPunct("{")) {
      return ParseBlockBody();
    }
    std::vector<JsStmtPtr> body;
    body.push_back(ParseStatement());
    return body;
  }

  // --- Expressions (precedence climbing) ---

  JsExprPtr ParseExpression() { return ParseAssignment(); }

  JsExprPtr ParseAssignment() {
    JsExprPtr lhs = ParseConditional();
    if (Peek().type == JsTokenType::kPunct &&
        (Peek().text == "=" || Peek().text == "+=" || Peek().text == "-=" ||
         Peek().text == "*=" || Peek().text == "/=")) {
      if (lhs->kind != JsExprKind::kIdentifier && lhs->kind != JsExprKind::kMember) {
        Fail("invalid assignment target");
        return lhs;
      }
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kAssign;
      node->op = Next().text;
      node->children.push_back(std::move(lhs));
      node->children.push_back(ParseAssignment());
      return node;
    }
    return lhs;
  }

  JsExprPtr ParseConditional() {
    JsExprPtr cond = ParseLogicalOr();
    if (ConsumePunct("?")) {
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kConditional;
      node->children.push_back(std::move(cond));
      node->children.push_back(ParseAssignment());
      ExpectPunct(":");
      node->children.push_back(ParseAssignment());
      return node;
    }
    return cond;
  }

  JsExprPtr ParseLogicalOr() {
    JsExprPtr lhs = ParseLogicalAnd();
    while (CheckPunct("||")) {
      Next();
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kLogical;
      node->op = "||";
      node->children.push_back(std::move(lhs));
      node->children.push_back(ParseLogicalAnd());
      lhs = std::move(node);
    }
    return lhs;
  }

  JsExprPtr ParseLogicalAnd() {
    JsExprPtr lhs = ParseEquality();
    while (CheckPunct("&&")) {
      Next();
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kLogical;
      node->op = "&&";
      node->children.push_back(std::move(lhs));
      node->children.push_back(ParseEquality());
      lhs = std::move(node);
    }
    return lhs;
  }

  JsExprPtr ParseEquality() {
    JsExprPtr lhs = ParseRelational();
    while (Peek().type == JsTokenType::kPunct &&
           (Peek().text == "==" || Peek().text == "!=" || Peek().text == "===" ||
            Peek().text == "!==")) {
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kBinary;
      node->op = Next().text;
      node->children.push_back(std::move(lhs));
      node->children.push_back(ParseRelational());
      lhs = std::move(node);
    }
    return lhs;
  }

  JsExprPtr ParseRelational() {
    JsExprPtr lhs = ParseAdditive();
    while (Peek().type == JsTokenType::kPunct &&
           (Peek().text == "<" || Peek().text == ">" || Peek().text == "<=" ||
            Peek().text == ">=")) {
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kBinary;
      node->op = Next().text;
      node->children.push_back(std::move(lhs));
      node->children.push_back(ParseAdditive());
      lhs = std::move(node);
    }
    return lhs;
  }

  JsExprPtr ParseAdditive() {
    JsExprPtr lhs = ParseMultiplicative();
    while (Peek().type == JsTokenType::kPunct && (Peek().text == "+" || Peek().text == "-")) {
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kBinary;
      node->op = Next().text;
      node->children.push_back(std::move(lhs));
      node->children.push_back(ParseMultiplicative());
      lhs = std::move(node);
    }
    return lhs;
  }

  JsExprPtr ParseMultiplicative() {
    JsExprPtr lhs = ParseUnary();
    while (Peek().type == JsTokenType::kPunct &&
           (Peek().text == "*" || Peek().text == "/" || Peek().text == "%")) {
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kBinary;
      node->op = Next().text;
      node->children.push_back(std::move(lhs));
      node->children.push_back(ParseUnary());
      lhs = std::move(node);
    }
    return lhs;
  }

  JsExprPtr ParseUnary() {
    if (Peek().type == JsTokenType::kPunct && (Peek().text == "!" || Peek().text == "-")) {
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kUnary;
      node->op = Next().text;
      node->children.push_back(ParseUnary());
      return node;
    }
    if (CheckKeyword("typeof")) {
      Next();
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kUnary;
      node->op = "typeof";
      node->children.push_back(ParseUnary());
      return node;
    }
    if (CheckKeyword("new")) {
      Next();
      auto node = std::make_unique<JsExpr>();
      node->kind = JsExprKind::kNew;
      if (Peek().type != JsTokenType::kIdentifier) {
        Fail("expected constructor name after 'new'");
        return node;
      }
      node->name = Next().text;
      if (ConsumePunct("(")) {
        while (ok_ && !CheckPunct(")")) {
          node->children.push_back(ParseAssignment());
          if (!CheckPunct(")")) {
            ExpectPunct(",");
          }
        }
        ExpectPunct(")");
      }
      return ParsePostfixOps(std::move(node));
    }
    return ParsePostfix();
  }

  JsExprPtr ParsePostfix() { return ParsePostfixOps(ParsePrimary()); }

  JsExprPtr ParsePostfixOps(JsExprPtr expr) {
    for (;;) {
      if (ConsumePunct(".")) {
        if (Peek().type != JsTokenType::kIdentifier && Peek().type != JsTokenType::kKeyword) {
          Fail("expected property name after '.'");
          return expr;
        }
        auto node = std::make_unique<JsExpr>();
        node->kind = JsExprKind::kMember;
        node->name = Next().text;
        node->children.push_back(std::move(expr));
        expr = std::move(node);
        continue;
      }
      if (CheckPunct("(")) {
        Next();
        auto node = std::make_unique<JsExpr>();
        node->kind = JsExprKind::kCall;
        node->children.push_back(std::move(expr));
        while (ok_ && !CheckPunct(")")) {
          node->children.push_back(ParseAssignment());
          if (!CheckPunct(")")) {
            ExpectPunct(",");
          }
        }
        ExpectPunct(")");
        expr = std::move(node);
        continue;
      }
      return expr;
    }
  }

  JsExprPtr ParsePrimary() {
    auto node = std::make_unique<JsExpr>();
    const JsToken& tok = Peek();
    switch (tok.type) {
      case JsTokenType::kNumber:
        node->kind = JsExprKind::kNumber;
        node->number_value = std::strtod(std::string(Next().text).c_str(), nullptr);
        return node;
      case JsTokenType::kString:
        node->kind = JsExprKind::kString;
        node->string_value = Next().text;
        return node;
      case JsTokenType::kIdentifier:
        node->kind = JsExprKind::kIdentifier;
        node->name = Next().text;
        return node;
      case JsTokenType::kKeyword:
        if (tok.text == "true" || tok.text == "false") {
          node->kind = JsExprKind::kBool;
          node->bool_value = Next().text == "true";
          return node;
        }
        if (tok.text == "null") {
          Next();
          node->kind = JsExprKind::kNull;
          return node;
        }
        if (tok.text == "undefined") {
          Next();
          node->kind = JsExprKind::kUndefined;
          return node;
        }
        Fail("unexpected keyword '" + std::string(tok.text) + "'");
        return node;
      case JsTokenType::kPunct:
        if (tok.text == "(") {
          Next();
          JsExprPtr inner = ParseExpression();
          ExpectPunct(")");
          return inner;
        }
        Fail("unexpected token '" + std::string(tok.text) + "'");
        return node;
      case JsTokenType::kEof:
        Fail("unexpected end of input");
        return node;
    }
    Fail("unexpected token");
    return node;
  }

  std::vector<JsToken> tokens_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace

JsParseResult ParseJs(std::string_view source) {
  JsLexResult lexed = LexJs(source);
  if (!lexed.ok) {
    JsParseResult result;
    result.error = "lex error: " + lexed.error;
    return result;
  }
  Parser parser(std::move(lexed.tokens));
  return parser.ParseProgram();
}

}  // namespace robodet
