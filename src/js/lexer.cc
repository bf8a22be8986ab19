#include "src/js/lexer.h"

#include <algorithm>
#include <array>

namespace robodet {
namespace {

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == '$';
}

bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// ASCII whitespace, as std::isspace in the C locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

// The length of the punctuator at source[i], longest match first, or 0
// when none starts there. Multi-character punctuators: === !== == != <= >=
// && || += -= *= /=; single ones: + - * / % = < > ! ( ) { } [ ] ; , . ? :
size_t PunctLength(std::string_view source, size_t i) {
  const char c = source[i];
  const char next = i + 1 < source.size() ? source[i + 1] : '\0';
  switch (c) {
    case '=':
    case '!':
      if (next != '=') {
        return 1;
      }
      return i + 2 < source.size() && source[i + 2] == '=' ? 3 : 2;
    case '<':
    case '>':
    case '+':
    case '-':
    case '*':
    case '/':
      return next == '=' ? 2 : 1;
    case '&':
    case '|':
      return next == c ? 2 : 0;
    case '%':
    case '(':
    case ')':
    case '{':
    case '}':
    case '[':
    case ']':
    case ';':
    case ',':
    case '.':
    case '?':
    case ':':
      return 1;
    default:
      return 0;
  }
}

// The letter EmitJs escapes a string byte with after a backslash, or 0
// for a byte written as is (the quote aside).
constexpr std::array<char, 256> kEscapes = [] {
  std::array<char, 256> escapes{};
  escapes['\\'] = '\\';
  escapes['\n'] = 'n';
  escapes['\t'] = 't';
  escapes['\r'] = 'r';
  return escapes;
}();

// Spacing bits: what a token shows its neighbours. JsEmitter puts a space
// between two tokens when the first's trailing bits meet the second's
// leading bits: two words; a number then '.', or '.' then a number, which
// would read as a decimal point ("1" "." -> "1.", "." "5" -> ".5"); or
// punctuators that would glue into a longer one ("=" "=" -> "==").
constexpr uint8_t kWordBit = 1;
constexpr uint8_t kNumberThenDotBit = 2;
constexpr uint8_t kDotThenNumberBit = 4;
constexpr uint8_t kStickyBit = 8;

// Leading and trailing bits by token type; a punctuator adds its own.
constexpr uint8_t kTypeLeading[] = {
    kWordBit,                      // kIdentifier
    kWordBit,                      // kKeyword
    kWordBit | kDotThenNumberBit,  // kNumber
    0,                             // kString
    0,                             // kPunct
    0,                             // kEof
};
constexpr uint8_t kTypeTrailing[] = {
    kWordBit, kWordBit, kWordBit | kNumberThenDotBit, 0, 0, 0,
};

// A punctuator's leading bits by its first character and trailing bits by
// its last. The only punctuator with a '.' is "." itself.
struct PunctBits {
  std::array<uint8_t, 256> leading{};
  std::array<uint8_t, 256> trailing{};
};
constexpr PunctBits kPunctBits = [] {
  PunctBits bits;
  for (char c : std::string_view("=+-<>!&|*/")) {
    bits.leading[static_cast<uint8_t>(c)] = kStickyBit;
    bits.trailing[static_cast<uint8_t>(c)] = kStickyBit;
  }
  bits.leading['.'] = kNumberThenDotBit;
  bits.trailing['.'] = kDotThenNumberBit;
  return bits;
}();

}  // namespace

bool IsJsKeyword(std::string_view word) {
  switch (word.size()) {
    case 2:
      return word == "if";
    case 3:
      return word == "var" || word == "new" || word == "for";
    case 4:
      return word == "else" || word == "true" || word == "null";
    case 5:
      return word == "false" || word == "while";
    case 6:
      return word == "return" || word == "typeof";
    case 8:
      return word == "function";
    case 9:
      return word == "undefined";
    default:
      return false;
  }
}

JsLexResult LexJs(std::string_view source) {
  JsLexResult result;
  size_t i = 0;
  const size_t n = source.size();
  // About one token per four bytes of generated script.
  result.tokens.reserve(n / 4 + 1);

  auto fail = [&result](size_t at, std::string msg) {
    result.ok = false;
    result.error = msg + " at offset " + std::to_string(at);
  };
  auto push = [&result](JsTokenType type, size_t offset, std::string_view text,
                        char quote = '\'') {
    result.tokens.push_back(JsToken{text, offset, type, quote});
  };

  while (i < n) {
    const char c = source[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      const size_t eol = source.find('\n', i);
      i = eol == std::string_view::npos ? n : eol;
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      const size_t end = source.find("*/", i + 2);
      if (end == std::string_view::npos) {
        fail(i, "unterminated block comment");
        return result;
      }
      i = end + 2;
      continue;
    }
    // Strings: a literal without escapes views the source between its
    // quotes; one with escapes is decoded into the result's storage.
    if (c == '\'' || c == '"') {
      // The end of the run from `at`: the closing quote, a backslash, a
      // newline or the end.
      auto run_end = [&](size_t at) {
        while (at < n && source[at] != c && source[at] != '\\' && source[at] != '\n') {
          ++at;
        }
        return at;
      };
      const size_t start = i;
      ++i;
      size_t run = run_end(i);
      std::string_view text = source.substr(i, run - i);
      i = run;
      if (i < n && source[i] == '\\') {
        std::string& value = result.decoded.emplace_front(text);
        while (i < n && source[i] == '\\' && i + 1 < n) {
          const char e = source[i + 1];
          value.push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e);
          i += 2;
          run = run_end(i);
          value.append(source.data() + i, run - i);
          i = run;
        }
        text = value;
      }
      // Anything but the closing quote here (a newline, a trailing
      // backslash, the end) leaves the literal open.
      if (i >= n || source[i] != c) {
        fail(start, "unterminated string literal");
        return result;
      }
      ++i;
      push(JsTokenType::kString, start, text, c);
      continue;
    }
    // Numbers.
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(source[i + 1]))) {
      const size_t start = i;
      bool seen_dot = false;
      while (i < n && (IsDigit(source[i]) || (source[i] == '.' && !seen_dot))) {
        seen_dot = seen_dot || source[i] == '.';
        ++i;
      }
      push(JsTokenType::kNumber, start, source.substr(start, i - start));
      continue;
    }
    // Identifiers and keywords.
    if (IsIdentStart(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(source[i])) {
        ++i;
      }
      const std::string_view word = source.substr(start, i - start);
      push(IsJsKeyword(word) ? JsTokenType::kKeyword : JsTokenType::kIdentifier, start, word);
      continue;
    }
    // Punctuators.
    const size_t len = PunctLength(source, i);
    if (len == 0) {
      fail(i, std::string("unexpected character '") + c + "'");
      return result;
    }
    push(JsTokenType::kPunct, i, source.substr(i, len));
    i += len;
  }
  push(JsTokenType::kEof, n, {});
  return result;
}

JsEmitter::JsEmitter(size_t size_hint) : out_(size_hint, '\0') {}

void JsEmitter::Append(std::span<const JsToken> tokens) {
  // Room for the worst case (a space before every token, every string byte
  // escaped), so the loop below writes through a bare pointer; tokens are
  // copied byte by byte, being too short for a library call to pay.
  size_t worst = 0;
  for (const JsToken& tok : tokens) {
    worst += 1 + (tok.type == JsTokenType::kString ? 2 * tok.text.size() + 2 : tok.text.size());
  }
  if (size_ + worst > out_.size()) {
    out_.resize(std::max(2 * out_.size(), size_ + worst));
  }
  char* p = out_.data() + size_;
  uint8_t trailing = trailing_;
  for (const JsToken& tok : tokens) {
    const auto type = static_cast<size_t>(tok.type);
    const bool punct = tok.type == JsTokenType::kPunct && !tok.text.empty();
    const auto first = static_cast<uint8_t>(punct ? tok.text.front() : 0);
    const auto last = static_cast<uint8_t>(punct ? tok.text.back() : 0);
    const uint8_t leading = kTypeLeading[type] | kPunctBits.leading[first];
    // Written always, kept when needed: no branch to mispredict.
    *p = ' ';
    p += (trailing & leading) != 0 ? 1 : 0;
    if (tok.type == JsTokenType::kString) {
      *p++ = tok.quote;
      for (const char c : tok.text) {
        const char escaped = c == tok.quote ? c : kEscapes[static_cast<uint8_t>(c)];
        if (escaped != '\0') {
          *p++ = '\\';
          *p++ = escaped;
        } else {
          *p++ = c;
        }
      }
      *p++ = tok.quote;
    } else {
      for (const char c : tok.text) {
        *p++ = c;
      }
    }
    trailing = kTypeTrailing[type] | kPunctBits.trailing[last];
  }
  size_ = static_cast<size_t>(p - out_.data());
  trailing_ = trailing;
}

std::string JsEmitter::Finish() && {
  out_.resize(size_);
  return std::move(out_);
}

std::string EmitJs(const std::vector<JsToken>& tokens) {
  const auto eof = std::find_if(tokens.begin(), tokens.end(), [](const JsToken& tok) {
    return tok.type == JsTokenType::kEof;
  });
  JsEmitter emitter(0);
  emitter.Append(std::span(tokens.begin(), eof));
  return std::move(emitter).Finish();
}

}  // namespace robodet
