#include "src/js/lexer.h"

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
  // Appends a token of `type` at `offset`; returns it for its text.
  auto push = [&result](JsTokenType type, size_t offset) -> JsToken& {
    JsToken& tok = result.tokens.emplace_back();
    tok.type = type;
    tok.offset = offset;
    return tok;
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
    // Strings: each run up to the quote, a backslash or a newline is copied
    // whole.
    if (c == '\'' || c == '"') {
      const size_t start = i;
      std::string value;
      bool closed = false;
      ++i;
      while (i < n) {
        size_t run = i;
        while (run < n && source[run] != c && source[run] != '\\' && source[run] != '\n') {
          ++run;
        }
        value.append(source.data() + i, run - i);
        i = run;
        if (i >= n || source[i] == '\n') {
          break;  // Newline in string literal: error out below.
        }
        if (source[i] == c) {
          closed = true;
          ++i;
          break;
        }
        // A backslash escape.
        if (i + 1 >= n) {
          break;
        }
        const char e = source[i + 1];
        value.push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e);
        i += 2;
      }
      if (!closed) {
        fail(start, "unterminated string literal");
        return result;
      }
      JsToken& tok = push(JsTokenType::kString, start);
      tok.quote = c;
      tok.text = std::move(value);
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
      push(JsTokenType::kNumber, start).text.assign(source.data() + start, i - start);
      continue;
    }
    // Identifiers and keywords.
    if (IsIdentStart(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(source[i])) {
        ++i;
      }
      const std::string_view word = source.substr(start, i - start);
      push(IsJsKeyword(word) ? JsTokenType::kKeyword : JsTokenType::kIdentifier, start)
          .text.assign(word);
      continue;
    }
    // Punctuators.
    const size_t len = PunctLength(source, i);
    if (len == 0) {
      fail(i, std::string("unexpected character '") + c + "'");
      return result;
    }
    push(JsTokenType::kPunct, i).text.assign(source.data() + i, len);
    i += len;
  }
  push(JsTokenType::kEof, n);
  return result;
}

std::string EmitJs(const std::vector<JsToken>& tokens) {
  std::string out;
  auto needs_space = [](const JsToken& prev, const JsToken& cur) {
    auto wordy = [](const JsToken& t) {
      return t.type == JsTokenType::kIdentifier || t.type == JsTokenType::kKeyword ||
             t.type == JsTokenType::kNumber;
    };
    if (wordy(prev) && wordy(cur)) {
      return true;
    }
    // A '.' beside a number would be read as its decimal point ("1" "."
    // -> "1.", "." "5" -> ".5").
    auto dot = [](const JsToken& t) { return t.type == JsTokenType::kPunct && t.text == "."; };
    if ((prev.type == JsTokenType::kNumber && dot(cur)) ||
        (dot(prev) && cur.type == JsTokenType::kNumber)) {
      return true;
    }
    // Avoid gluing punctuators into longer ones (e.g. "=" "=" -> "==").
    if (prev.type == JsTokenType::kPunct && cur.type == JsTokenType::kPunct) {
      static const std::string_view kSticky = "=+-<>!&|*/";
      if (!prev.text.empty() && !cur.text.empty() &&
          kSticky.find(prev.text.back()) != std::string_view::npos &&
          kSticky.find(cur.text.front()) != std::string_view::npos) {
        return true;
      }
    }
    return false;
  };

  size_t bytes = 0;
  for (const JsToken& tok : tokens) {
    bytes += tok.text.size() + 3;  // Room for a space and two quotes.
  }
  out.reserve(bytes);

  const JsToken* prev = nullptr;
  for (const JsToken& tok : tokens) {
    if (tok.type == JsTokenType::kEof) {
      break;
    }
    if (prev != nullptr && needs_space(*prev, tok)) {
      out.push_back(' ');
    }
    if (tok.type == JsTokenType::kString) {
      out.push_back(tok.quote);
      for (char c : tok.text) {
        switch (c) {
          case '\\':
            out += "\\\\";
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
            if (c == tok.quote) {
              out.push_back('\\');
            }
            out.push_back(c);
            break;
        }
      }
      out.push_back(tok.quote);
    } else {
      out += tok.text;
    }
    prev = &tok;
  }
  return out;
}

}  // namespace robodet
