#include "src/js/interpreter.h"

#include <cmath>
#include <cstdio>

#include "src/js/parser.h"
#include "src/util/strings.h"

namespace robodet {

JsValue JsObject::Get(const std::string& key) const {
  const auto it = props_.find(key);
  return it != props_.end() ? it->second : JsValue(JsUndefined{});
}

void JsObject::Set(const std::string& key, JsValue value) {
  props_[key] = std::move(value);
  if (on_set) {
    on_set(key, props_[key]);
  }
}

std::string JsToString(const JsValue& v) {
  struct Visitor {
    std::string operator()(JsUndefined) const { return "undefined"; }
    std::string operator()(JsNull) const { return "null"; }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(double d) const {
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
        return buf;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", d);
      return buf;
    }
    std::string operator()(const std::string& s) const { return s; }
    std::string operator()(const JsObjectPtr& o) const {
      return "[object " + (o ? o->class_name() : std::string("null")) + "]";
    }
    std::string operator()(const JsFunctionPtr& f) const {
      return "function " + (f ? f->name : std::string()) + "() { ... }";
    }
  };
  return std::visit(Visitor{}, v);
}

bool JsTruthy(const JsValue& v) {
  struct Visitor {
    bool operator()(JsUndefined) const { return false; }
    bool operator()(JsNull) const { return false; }
    bool operator()(bool b) const { return b; }
    bool operator()(double d) const { return d != 0.0 && !std::isnan(d); }
    bool operator()(const std::string& s) const { return !s.empty(); }
    bool operator()(const JsObjectPtr& o) const { return o != nullptr; }
    bool operator()(const JsFunctionPtr& f) const { return f != nullptr; }
  };
  return std::visit(Visitor{}, v);
}

namespace {

// Scope chain node.
class Env : public std::enable_shared_from_this<Env> {
 public:
  explicit Env(std::shared_ptr<Env> parent = nullptr) : parent_(std::move(parent)) {}

  bool TryGet(const std::string& name, JsValue& out) const {
    const auto it = vars_.find(name);
    if (it != vars_.end()) {
      out = it->second;
      return true;
    }
    return parent_ != nullptr && parent_->TryGet(name, out);
  }

  // Assignment walks the chain; undeclared names become globals, as in
  // sloppy-mode JavaScript.
  void Assign(const std::string& name, JsValue value) {
    for (Env* e = this; e != nullptr; e = e->parent_.get()) {
      const auto it = e->vars_.find(name);
      if (it != e->vars_.end()) {
        it->second = std::move(value);
        return;
      }
    }
    Global()->vars_[name] = std::move(value);
  }

  void Declare(const std::string& name, JsValue value) { vars_[name] = std::move(value); }

  Env* Global() {
    Env* e = this;
    while (e->parent_ != nullptr) {
      e = e->parent_.get();
    }
    return e;
  }

 private:
  std::shared_ptr<Env> parent_;
  std::map<std::string, JsValue> vars_;
};

struct ThrownError {
  std::string message;
};

struct ReturnSignal {
  JsValue value;
};

// Execution outcome of a statement list.
enum class Flow { kNormal, kReturn };

bool JsLooseEquals(const JsValue& a, const JsValue& b) {
  if (a.index() == b.index()) {
    if (std::holds_alternative<double>(a)) {
      return std::get<double>(a) == std::get<double>(b);
    }
    if (std::holds_alternative<std::string>(a)) {
      return std::get<std::string>(a) == std::get<std::string>(b);
    }
    if (std::holds_alternative<bool>(a)) {
      return std::get<bool>(a) == std::get<bool>(b);
    }
    if (std::holds_alternative<JsObjectPtr>(a)) {
      return std::get<JsObjectPtr>(a) == std::get<JsObjectPtr>(b);
    }
    if (std::holds_alternative<JsFunctionPtr>(a)) {
      return std::get<JsFunctionPtr>(a) == std::get<JsFunctionPtr>(b);
    }
    return true;  // undefined == undefined, null == null.
  }
  // Cross-type loose coercions we need: null == undefined, bool/number vs
  // number, string vs number.
  if ((std::holds_alternative<JsNull>(a) && std::holds_alternative<JsUndefined>(b)) ||
      (std::holds_alternative<JsUndefined>(a) && std::holds_alternative<JsNull>(b))) {
    return true;
  }
  auto as_number = [](const JsValue& v, double& out) {
    if (std::holds_alternative<double>(v)) {
      out = std::get<double>(v);
      return true;
    }
    if (std::holds_alternative<bool>(v)) {
      out = std::get<bool>(v) ? 1.0 : 0.0;
      return true;
    }
    if (std::holds_alternative<std::string>(v)) {
      const std::string& s = std::get<std::string>(v);
      char* end = nullptr;
      out = std::strtod(s.c_str(), &end);
      return end != nullptr && *end == '\0' && !s.empty();
    }
    return false;
  };
  double da = 0.0;
  double db = 0.0;
  if (as_number(a, da) && as_number(b, db)) {
    return da == db;
  }
  return false;
}

}  // namespace

class JsInterpreter::Impl {
 public:
  explicit Impl(Config config) : config_(std::move(config)) {
    global_ = std::make_shared<Env>();
    InstallHostObjects();
  }

  JsRunResult Run(std::string_view source) {
    JsParseResult parsed = ParseJs(source);
    if (!parsed.ok) {
      JsRunResult r;
      r.error = "parse error: " + parsed.error;
      return r;
    }
    programs_.push_back(parsed.program);  // Keep AST alive for closures.
    return Execute(parsed.program, global_);
  }

  JsRunResult RunHandler(std::string_view code) {
    JsParseResult parsed = ParseJs(code);
    if (!parsed.ok) {
      JsRunResult r;
      r.error = "parse error: " + parsed.error;
      return r;
    }
    programs_.push_back(parsed.program);
    // Handlers run in a child scope so their vars don't leak, but a `return`
    // is legal, as in real event-handler attributes.
    auto scope = std::make_shared<Env>(global_);
    return Execute(parsed.program, scope);
  }

  std::vector<std::string> fetched_urls_;
  std::vector<std::string> document_writes_;

 private:
  JsRunResult Execute(const std::shared_ptr<JsProgram>& program, std::shared_ptr<Env> env) {
    JsRunResult result;
    steps_ = 0;
    try {
      JsValue ret = JsUndefined{};
      Flow flow = RunStatements(program->statements, env, ret);
      result.ok = true;
      result.value = flow == Flow::kReturn ? ret : JsValue(JsUndefined{});
    } catch (const ThrownError& err) {
      result.error = err.message;
    }
    return result;
  }

  void Burn() {
    if (++steps_ > config_.max_steps) {
      throw ThrownError{"execution budget exceeded"};
    }
  }

  Flow RunStatements(const std::vector<JsStmtPtr>& stmts, const std::shared_ptr<Env>& env,
                     JsValue& ret) {
    // Hoist function declarations, as JavaScript does; the generated beacon
    // scripts rely on the handler finding functions declared later.
    for (const JsStmtPtr& s : stmts) {
      if (s->kind == JsStmtKind::kFunction) {
        DeclareFunction(*s, env);
      }
    }
    for (const JsStmtPtr& s : stmts) {
      if (RunStatement(*s, env, ret) == Flow::kReturn) {
        return Flow::kReturn;
      }
    }
    return Flow::kNormal;
  }

  void DeclareFunction(const JsStmt& stmt, const std::shared_ptr<Env>& env) {
    auto fn = std::make_shared<JsFunction>();
    fn->name = stmt.name;
    fn->params = stmt.params;
    fn->body = &stmt.body;
    fn->owner = programs_.empty() ? nullptr : programs_.back();
    env->Declare(stmt.name, fn);
  }

  Flow RunStatement(const JsStmt& stmt, const std::shared_ptr<Env>& env, JsValue& ret) {
    Burn();
    switch (stmt.kind) {
      case JsStmtKind::kExpr:
        if (stmt.expr != nullptr) {
          Eval(*stmt.expr, env);
        }
        return Flow::kNormal;
      case JsStmtKind::kVar: {
        JsValue v = stmt.expr != nullptr ? Eval(*stmt.expr, env) : JsValue(JsUndefined{});
        env->Declare(stmt.name, std::move(v));
        return Flow::kNormal;
      }
      case JsStmtKind::kFunction:
        // Already hoisted by RunStatements.
        return Flow::kNormal;
      case JsStmtKind::kIf: {
        if (JsTruthy(Eval(*stmt.expr, env))) {
          return RunStatements(stmt.body, env, ret);
        }
        return RunStatements(stmt.else_body, env, ret);
      }
      case JsStmtKind::kWhile: {
        while (JsTruthy(Eval(*stmt.expr, env))) {
          Burn();
          if (RunStatements(stmt.body, env, ret) == Flow::kReturn) {
            return Flow::kReturn;
          }
        }
        return Flow::kNormal;
      }
      case JsStmtKind::kReturn:
        ret = stmt.expr != nullptr ? Eval(*stmt.expr, env) : JsValue(JsUndefined{});
        return Flow::kReturn;
      case JsStmtKind::kBlock:
        return RunStatements(stmt.body, env, ret);
    }
    return Flow::kNormal;
  }

  JsValue Eval(const JsExpr& expr, const std::shared_ptr<Env>& env) {
    Burn();
    switch (expr.kind) {
      case JsExprKind::kNumber:
        return expr.number_value;
      case JsExprKind::kString:
        return expr.string_value;
      case JsExprKind::kBool:
        return expr.bool_value;
      case JsExprKind::kNull:
        return JsNull{};
      case JsExprKind::kUndefined:
        return JsUndefined{};
      case JsExprKind::kIdentifier: {
        JsValue v;
        if (!env->TryGet(expr.name, v)) {
          // Matching `typeof x` probes, unknown names read as undefined.
          return JsUndefined{};
        }
        return v;
      }
      case JsExprKind::kUnary: {
        if (expr.op == "typeof") {
          return TypeOf(Eval(*expr.children[0], env));
        }
        JsValue v = Eval(*expr.children[0], env);
        if (expr.op == "!") {
          return !JsTruthy(v);
        }
        if (expr.op == "-") {
          return -ToNumber(v);
        }
        throw ThrownError{"unknown unary operator " + expr.op};
      }
      case JsExprKind::kLogical: {
        JsValue lhs = Eval(*expr.children[0], env);
        if (expr.op == "&&") {
          return JsTruthy(lhs) ? Eval(*expr.children[1], env) : lhs;
        }
        return JsTruthy(lhs) ? lhs : Eval(*expr.children[1], env);
      }
      case JsExprKind::kBinary:
        return EvalBinary(expr, env);
      case JsExprKind::kAssign:
        return EvalAssign(expr, env);
      case JsExprKind::kConditional:
        return JsTruthy(Eval(*expr.children[0], env)) ? Eval(*expr.children[1], env)
                                                      : Eval(*expr.children[2], env);
      case JsExprKind::kCall:
        return EvalCall(expr, env);
      case JsExprKind::kMember: {
        JsValue obj = Eval(*expr.children[0], env);
        return GetMember(obj, expr.name);
      }
      case JsExprKind::kNew:
        return EvalNew(expr, env);
    }
    return JsUndefined{};
  }

  static std::string TypeOf(const JsValue& v) {
    if (std::holds_alternative<JsUndefined>(v)) {
      return "undefined";
    }
    if (std::holds_alternative<JsNull>(v)) {
      return "object";
    }
    if (std::holds_alternative<bool>(v)) {
      return "boolean";
    }
    if (std::holds_alternative<double>(v)) {
      return "number";
    }
    if (std::holds_alternative<std::string>(v)) {
      return "string";
    }
    if (std::holds_alternative<JsFunctionPtr>(v)) {
      return "function";
    }
    return "object";
  }

  static double ToNumber(const JsValue& v) {
    if (std::holds_alternative<double>(v)) {
      return std::get<double>(v);
    }
    if (std::holds_alternative<bool>(v)) {
      return std::get<bool>(v) ? 1.0 : 0.0;
    }
    if (std::holds_alternative<std::string>(v)) {
      const std::string& s = std::get<std::string>(v);
      char* end = nullptr;
      const double d = std::strtod(s.c_str(), &end);
      if (end != nullptr && *end == '\0' && !s.empty()) {
        return d;
      }
      return std::nan("");
    }
    return std::nan("");
  }

  JsValue EvalBinary(const JsExpr& expr, const std::shared_ptr<Env>& env) {
    JsValue lhs = Eval(*expr.children[0], env);
    JsValue rhs = Eval(*expr.children[1], env);
    const std::string& op = expr.op;
    if (op == "==") {
      return JsLooseEquals(lhs, rhs);
    }
    if (op == "!=") {
      return !JsLooseEquals(lhs, rhs);
    }
    if (op == "===") {
      return lhs.index() == rhs.index() && JsLooseEquals(lhs, rhs);
    }
    if (op == "!==") {
      return !(lhs.index() == rhs.index() && JsLooseEquals(lhs, rhs));
    }
    if (op == "+") {
      if (std::holds_alternative<std::string>(lhs) || std::holds_alternative<std::string>(rhs)) {
        return JsToString(lhs) + JsToString(rhs);
      }
      return ToNumber(lhs) + ToNumber(rhs);
    }
    const double a = ToNumber(lhs);
    const double b = ToNumber(rhs);
    if (op == "-") {
      return a - b;
    }
    if (op == "*") {
      return a * b;
    }
    if (op == "/") {
      return a / b;
    }
    if (op == "%") {
      return std::fmod(a, b);
    }
    if (op == "<") {
      return a < b;
    }
    if (op == ">") {
      return a > b;
    }
    if (op == "<=") {
      return a <= b;
    }
    if (op == ">=") {
      return a >= b;
    }
    throw ThrownError{"unknown binary operator " + op};
  }

  JsValue EvalAssign(const JsExpr& expr, const std::shared_ptr<Env>& env) {
    const JsExpr& target = *expr.children[0];
    JsValue value = Eval(*expr.children[1], env);
    if (expr.op != "=") {
      // Compound assignment: read-modify-write.
      JsValue current = Eval(target, env);
      JsExpr synth;
      synth.kind = JsExprKind::kBinary;
      synth.op = expr.op.substr(0, 1);
      if (synth.op == "+") {
        if (std::holds_alternative<std::string>(current) ||
            std::holds_alternative<std::string>(value)) {
          value = JsToString(current) + JsToString(value);
        } else {
          value = ToNumber(current) + ToNumber(value);
        }
      } else {
        const double a = ToNumber(current);
        const double b = ToNumber(value);
        if (synth.op == "-") {
          value = a - b;
        } else if (synth.op == "*") {
          value = a * b;
        } else {
          value = a / b;
        }
      }
    }
    if (target.kind == JsExprKind::kIdentifier) {
      env->Assign(target.name, value);
      return value;
    }
    if (target.kind == JsExprKind::kMember) {
      JsValue obj = Eval(*target.children[0], env);
      if (!std::holds_alternative<JsObjectPtr>(obj) || std::get<JsObjectPtr>(obj) == nullptr) {
        throw ThrownError{"cannot set property '" + target.name + "' of non-object"};
      }
      std::get<JsObjectPtr>(obj)->Set(target.name, value);
      return value;
    }
    throw ThrownError{"invalid assignment target"};
  }

  JsValue GetMember(const JsValue& obj, const std::string& name) {
    if (std::holds_alternative<std::string>(obj)) {
      const std::string& s = std::get<std::string>(obj);
      if (name == "length") {
        return static_cast<double>(s.size());
      }
      // String methods bind lazily at call sites; represented as a native
      // closure over the string value.
      return MakeStringMethod(s, name);
    }
    if (std::holds_alternative<JsObjectPtr>(obj)) {
      const JsObjectPtr& o = std::get<JsObjectPtr>(obj);
      if (o == nullptr) {
        throw ThrownError{"cannot read property '" + name + "' of null"};
      }
      const auto method = o->methods.find(name);
      if (method != o->methods.end()) {
        return MakeBoundNative(obj, method->second);
      }
      return o->Get(name);
    }
    if (std::holds_alternative<JsUndefined>(obj) || std::holds_alternative<JsNull>(obj)) {
      throw ThrownError{"cannot read property '" + name + "' of " + JsToString(obj)};
    }
    return JsUndefined{};
  }

  // Native functions are modeled as JsObjects with a "__call" method so the
  // value variant stays small.
  JsValue MakeBoundNative(JsValue self, NativeFn fn) {
    auto wrapper = std::make_shared<JsObject>("NativeFunction");
    wrapper->methods["__call"] = [self = std::move(self), fn = std::move(fn)](
                                     const JsValue&, const std::vector<JsValue>& args) {
      return fn(self, args);
    };
    return wrapper;
  }

  JsValue MakeStringMethod(const std::string& s, const std::string& name) {
    if (name == "toLowerCase") {
      return MakeBoundNative(s, [](const JsValue& self, const std::vector<JsValue>&) {
        return AsciiLower(std::get<std::string>(self));
      });
    }
    if (name == "toUpperCase") {
      return MakeBoundNative(s, [](const JsValue& self, const std::vector<JsValue>&) {
        std::string out = std::get<std::string>(self);
        for (char& c : out) {
          if (c >= 'a' && c <= 'z') {
            c = static_cast<char>(c - 'a' + 'A');
          }
        }
        return out;
      });
    }
    if (name == "replaceAll" || name == "replace") {
      // Dialect note: replace(s1, s2) replaces every occurrence (the
      // generator never relies on first-only semantics).
      return MakeBoundNative(s, [](const JsValue& self, const std::vector<JsValue>& args) {
        if (args.size() < 2) {
          return std::get<std::string>(self);
        }
        return ReplaceAll(std::get<std::string>(self), JsToString(args[0]),
                          JsToString(args[1]));
      });
    }
    if (name == "charCodeAt") {
      return MakeBoundNative(s, [](const JsValue& self, const std::vector<JsValue>& args) {
        const std::string& str = std::get<std::string>(self);
        const size_t i = args.empty() ? 0 : static_cast<size_t>(ToNumber(args[0]));
        if (i >= str.size()) {
          return JsValue(std::nan(""));
        }
        return JsValue(static_cast<double>(static_cast<unsigned char>(str[i])));
      });
    }
    if (name == "indexOf") {
      return MakeBoundNative(s, [](const JsValue& self, const std::vector<JsValue>& args) {
        const std::string& str = std::get<std::string>(self);
        const std::string needle = args.empty() ? "" : JsToString(args[0]);
        const size_t pos = str.find(needle);
        return JsValue(pos == std::string::npos ? -1.0 : static_cast<double>(pos));
      });
    }
    if (name == "substring") {
      return MakeBoundNative(s, [](const JsValue& self, const std::vector<JsValue>& args) {
        const std::string& str = std::get<std::string>(self);
        size_t from = args.empty() ? 0 : static_cast<size_t>(std::max(0.0, ToNumber(args[0])));
        size_t to = args.size() < 2 ? str.size()
                                    : static_cast<size_t>(std::max(0.0, ToNumber(args[1])));
        from = std::min(from, str.size());
        to = std::min(to, str.size());
        if (from > to) {
          std::swap(from, to);
        }
        return JsValue(str.substr(from, to - from));
      });
    }
    return JsUndefined{};
  }

  JsValue EvalCall(const JsExpr& expr, const std::shared_ptr<Env>& env) {
    JsValue callee = Eval(*expr.children[0], env);
    std::vector<JsValue> args;
    args.reserve(expr.children.size() - 1);
    for (size_t i = 1; i < expr.children.size(); ++i) {
      args.push_back(Eval(*expr.children[i], env));
    }
    // User-defined function.
    if (std::holds_alternative<JsFunctionPtr>(callee)) {
      const JsFunctionPtr& fn = std::get<JsFunctionPtr>(callee);
      if (fn == nullptr || fn->body == nullptr) {
        throw ThrownError{"call of null function"};
      }
      auto scope = std::make_shared<Env>(global_);
      for (size_t i = 0; i < fn->params.size(); ++i) {
        scope->Declare(fn->params[i], i < args.size() ? args[i] : JsValue(JsUndefined{}));
      }
      JsValue ret = JsUndefined{};
      if (RunStatements(*fn->body, scope, ret) == Flow::kReturn) {
        return ret;
      }
      return JsUndefined{};
    }
    // Native (wrapped) function.
    if (std::holds_alternative<JsObjectPtr>(callee)) {
      const JsObjectPtr& o = std::get<JsObjectPtr>(callee);
      if (o != nullptr) {
        const auto it = o->methods.find("__call");
        if (it != o->methods.end()) {
          return it->second(JsUndefined{}, args);
        }
      }
    }
    throw ThrownError{"value is not callable"};
  }

  JsValue EvalNew(const JsExpr& expr, const std::shared_ptr<Env>& env) {
    std::vector<JsValue> args;
    for (const JsExprPtr& child : expr.children) {
      args.push_back(Eval(*child, env));
    }
    if (expr.name == "Image") {
      auto img = std::make_shared<JsObject>("Image");
      img->on_set = [this](const std::string& key, const JsValue& value) {
        if (key == "src") {
          fetched_urls_.push_back(JsToString(value));
        }
      };
      return img;
    }
    if (expr.name == "Object") {
      return std::make_shared<JsObject>("Object");
    }
    throw ThrownError{"unknown constructor " + expr.name};
  }

  void InstallHostObjects() {
    auto navigator = std::make_shared<JsObject>("Navigator");
    navigator->Set("userAgent", config_.user_agent);
    global_->Declare("navigator", JsValue(navigator));

    auto document = std::make_shared<JsObject>("Document");
    document->methods["write"] = [this](const JsValue&, const std::vector<JsValue>& args) {
      for (const JsValue& a : args) {
        document_writes_.push_back(JsToString(a));
      }
      return JsValue(JsUndefined{});
    };
    global_->Declare("document", JsValue(document));

    auto window = std::make_shared<JsObject>("Window");
    global_->Declare("window", JsValue(window));

    auto string_ctor = std::make_shared<JsObject>("String");
    string_ctor->methods["fromCharCode"] = [](const JsValue&,
                                              const std::vector<JsValue>& args) {
      std::string out;
      out.reserve(args.size());
      for (const JsValue& a : args) {
        const double code = ToNumber(a);
        if (code >= 0.0 && code < 256.0) {
          out.push_back(static_cast<char>(static_cast<int>(code)));
        }
      }
      return JsValue(out);
    };
    global_->Declare("String", JsValue(string_ctor));
  }

  Config config_;
  std::shared_ptr<Env> global_;
  std::vector<std::shared_ptr<JsProgram>> programs_;
  size_t steps_ = 0;
};

JsInterpreter::JsInterpreter(Config config) : impl_(std::make_shared<Impl>(std::move(config))) {}

JsRunResult JsInterpreter::Run(std::string_view source) { return impl_->Run(source); }

JsRunResult JsInterpreter::RunHandler(std::string_view code) { return impl_->RunHandler(code); }

const std::vector<std::string>& JsInterpreter::fetched_urls() const {
  return impl_->fetched_urls_;
}

const std::vector<std::string>& JsInterpreter::document_writes() const {
  return impl_->document_writes_;
}

void JsInterpreter::ClearObservations() {
  impl_->fetched_urls_.clear();
  impl_->document_writes_.clear();
}

}  // namespace robodet
