// Tree-walking interpreter for the robodet JavaScript dialect, with a tiny
// browser shim: Image (whose .src assignment triggers a fetch callback),
// navigator.userAgent, and document.write. This is what lets the test rig
// *execute* the beacon scripts the generator emits — both to verify the
// generator and to model JS-capable robots and browsers.
#ifndef ROBODET_SRC_JS_INTERPRETER_H_
#define ROBODET_SRC_JS_INTERPRETER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/js/ast.h"

namespace robodet {

class JsObject;
struct JsFunction;
using JsObjectPtr = std::shared_ptr<JsObject>;
using JsFunctionPtr = std::shared_ptr<JsFunction>;

struct JsUndefined {
  friend bool operator==(JsUndefined, JsUndefined) { return true; }
};
struct JsNull {
  friend bool operator==(JsNull, JsNull) { return true; }
};

using JsValue =
    std::variant<JsUndefined, JsNull, bool, double, std::string, JsObjectPtr, JsFunctionPtr>;

// Host function: receives `this` (may be undefined) and arguments.
using NativeFn = std::function<JsValue(const JsValue& self, const std::vector<JsValue>& args)>;

class JsObject {
 public:
  explicit JsObject(std::string class_name = "Object") : class_name_(std::move(class_name)) {}

  const std::string& class_name() const { return class_name_; }

  JsValue Get(const std::string& key) const;
  void Set(const std::string& key, JsValue value);

  // Invoked after every property store; the Image shim uses this to observe
  // `src` assignments.
  std::function<void(const std::string& key, const JsValue& value)> on_set;

  // Native methods looked up before plain properties.
  std::map<std::string, NativeFn> methods;

 private:
  std::string class_name_;
  std::map<std::string, JsValue> props_;
};

struct JsFunction {
  std::string name;
  std::vector<std::string> params;
  // Body statements are borrowed from the owning program, which the
  // interpreter keeps alive for its own lifetime.
  const std::vector<JsStmtPtr>* body = nullptr;
  std::shared_ptr<JsProgram> owner;
};

struct JsRunResult {
  bool ok = false;
  std::string error;
  JsValue value = JsUndefined{};
};

// Rendering helpers (also used by tests).
std::string JsToString(const JsValue& v);
bool JsTruthy(const JsValue& v);

class JsInterpreter {
 public:
  struct Config {
    // Value of navigator.userAgent inside the scripts.
    std::string user_agent;
    // Execution fuel: one unit per statement or expression node. Guards the
    // server against hostile or runaway scripts (and our tests against
    // obfuscator bugs).
    size_t max_steps = 200000;
  };

  explicit JsInterpreter(Config config);

  // Parses and executes a program in the global scope. Function and var
  // declarations persist, so a subsequent RunHandler can call into it —
  // exactly the browser's <script src> + event-handler split.
  JsRunResult Run(std::string_view source);

  // Executes handler code such as "return f();" in a fresh function scope
  // over the global environment (the browser's event-handler semantics).
  JsRunResult RunHandler(std::string_view code);

  // Every URL assigned to an Image.src so far, in order.
  const std::vector<std::string>& fetched_urls() const;

  // Every string passed to document.write, in order.
  const std::vector<std::string>& document_writes() const;

  void ClearObservations();

 private:
  class Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_JS_INTERPRETER_H_
