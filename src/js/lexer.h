// Lexer for the robodet JavaScript dialect: the subset of JavaScript that
// the beacon generator emits (Figure 1 of the paper) plus enough slack for
// hand-written test scripts. The obfuscator also works on this token
// stream, which is what makes obfuscation semantics-preserving by
// construction.
#ifndef ROBODET_SRC_JS_LEXER_H_
#define ROBODET_SRC_JS_LEXER_H_

#include <cstdint>
#include <forward_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace robodet {

enum class JsTokenType : uint8_t {
  kIdentifier,
  kKeyword,
  kNumber,
  kString,
  kPunct,
  kEof,
};

// A token's text is a view, never a copy: into the lexed source, into the
// lex result's decoded strings, or into storage the obfuscator owns.
struct JsToken {
  // Identifier/keyword/punct text, or the *decoded* value for strings, or
  // the literal spelling for numbers.
  std::string_view text;
  size_t offset = 0;  // Byte offset in the source, for error messages.
  JsTokenType type = JsTokenType::kEof;
  // Quote character for string tokens ('\'' or '"').
  char quote = '\'';
};

struct JsLexResult {
  bool ok = true;
  std::string error;
  std::vector<JsToken> tokens;  // Ends with a kEof token when ok.
  // The decoded values of string literals that hold escapes; their tokens
  // view these. A literal without escapes views the source instead.
  std::forward_list<std::string> decoded;
};

// Keywords of the dialect.
bool IsJsKeyword(std::string_view word);

// Tokenizes `source`. Handles // and /* */ comments, string escapes
// (\\ \' \" \n \t), decimal numbers. Unterminated strings or comments
// produce ok=false with a message. The tokens view `source`, which must
// outlive them.
JsLexResult LexJs(std::string_view source);

// Writes tokens as compact source, a run at a time: single spaces only
// where two tokens would otherwise read as one. The obfuscator feeds it a
// script's tokens as it transforms them, without collecting them first.
class JsEmitter {
 public:
  // `size_hint`: the bytes expected, reserved at once; more grows the
  // buffer.
  explicit JsEmitter(size_t size_hint);

  void Append(std::span<const JsToken> tokens);
  // The source written so far; the emitter is spent.
  std::string Finish() &&;

 private:
  std::string out_;  // Sized to its capacity; size_ bytes are written.
  size_t size_ = 0;
  // The last token's trailing spacing bits (lexer.cc); 0 before the first.
  uint8_t trailing_ = 0;
};

// Re-emits tokens, up to the first kEof, with one JsEmitter run.
// Lex(Emit(tokens)) == tokens, which the obfuscator relies on.
std::string EmitJs(const std::vector<JsToken>& tokens);

}  // namespace robodet

#endif  // ROBODET_SRC_JS_LEXER_H_
