#include "src/js/obfuscator.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <set>

#include "src/js/lexer.h"

namespace robodet {
namespace {

// Names with host-defined meaning; renaming any of these would change what
// the script does in a browser (or in our interpreter).
const std::set<std::string>& ProtectedNames() {
  static const std::set<std::string> kNames = {
      "navigator", "document", "window", "Image", "Object", "String", "Math",
  };
  return kNames;
}

std::string RandomIdent(Rng& rng) {
  static const char kFirst[] = "abcdefghijklmnopqrstuvwxyz_";
  static const char kRest[] = "abcdefghijklmnopqrstuvwxyz0123456789_";
  std::string out;
  out.push_back('_');
  out.push_back(kFirst[rng.UniformU64(sizeof(kFirst) - 1)]);
  const size_t len = 4 + rng.UniformU64(5);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kRest[rng.UniformU64(sizeof(kRest) - 1)]);
  }
  return out;
}

JsToken Punct(std::string text) {
  JsToken t;
  t.type = JsTokenType::kPunct;
  t.text = std::move(text);
  return t;
}

JsToken Ident(std::string text) {
  JsToken t;
  t.type = JsTokenType::kIdentifier;
  t.text = std::move(text);
  return t;
}

JsToken Keyword(std::string text) {
  JsToken t;
  t.type = JsTokenType::kKeyword;
  t.text = std::move(text);
  return t;
}

JsToken Number(uint64_t v) {
  JsToken t;
  t.type = JsTokenType::kNumber;
  t.text = std::to_string(v);
  return t;
}

JsToken Str(std::string value) {
  JsToken t;
  t.type = JsTokenType::kString;
  t.text = std::move(value);
  t.quote = '\'';
  return t;
}

// A junk statement: `var <name> = <a> <op> <b>;` — pure arithmetic, no
// observable effect.
std::vector<JsToken> MakeJunkStatement(Rng& rng, std::set<std::string>& used) {
  const std::string name = DrawFreshIdentifier(rng, used);
  static const char* const kOps[] = {"+", "-", "*"};
  std::vector<JsToken> out;
  out.push_back(Keyword("var"));
  out.push_back(Ident(name));
  out.push_back(Punct("="));
  out.push_back(Number(rng.UniformU64(100000)));
  out.push_back(Punct(kOps[rng.UniformU64(3)]));
  out.push_back(Number(rng.UniformU64(100000)));
  out.push_back(Punct(";"));
  return out;
}

// A junk function that is never called; used for size padding.
std::vector<JsToken> MakeJunkFunction(Rng& rng, std::set<std::string>& used) {
  const std::string name = DrawFreshIdentifier(rng, used);
  std::vector<JsToken> out;
  out.push_back(Keyword("function"));
  out.push_back(Ident(name));
  out.push_back(Punct("("));
  const std::string param = RandomIdent(rng);
  out.push_back(Ident(param));
  out.push_back(Punct(")"));
  out.push_back(Punct("{"));
  const int stmts = 1 + static_cast<int>(rng.UniformU64(3));
  for (int i = 0; i < stmts; ++i) {
    for (JsToken& t : MakeJunkStatement(rng, used)) {
      out.push_back(std::move(t));
    }
  }
  out.push_back(Keyword("return"));
  out.push_back(Ident(param));
  out.push_back(Punct("*"));
  out.push_back(Number(rng.UniformU64(1000) + 1));
  out.push_back(Punct(";"));
  out.push_back(Punct("}"));
  return out;
}

}  // namespace

std::string DrawFreshIdentifier(Rng& rng, std::set<std::string>& used) {
  std::string name = RandomIdent(rng);
  while (used.contains(name)) {
    name = RandomIdent(rng);
  }
  used.insert(name);
  return name;
}

std::string ObfuscationResult::RenamedOrSelf(const std::string& name) const {
  for (const auto& [from, to] : renames) {
    if (from == name) {
      return to;
    }
  }
  return name;
}

ObfuscationResult ObfuscateJs(std::string_view source, const ObfuscationOptions& options,
                              Rng& rng) {
  ObfuscationResult result;
  JsLexResult lexed = LexJs(source);
  if (!lexed.ok) {
    result.error = "lex error: " + lexed.error;
    return result;
  }
  std::vector<JsToken> tokens = std::move(lexed.tokens);

  std::set<std::string> used_names;
  for (const JsToken& t : tokens) {
    if (t.type == JsTokenType::kIdentifier) {
      used_names.insert(t.text);
    }
  }

  // Pass 1: consistent identifier renaming. Identifiers immediately after
  // '.' are property names and keep their spelling.
  if (options.rename_identifiers) {
    std::map<std::string, std::string> mapping;
    for (size_t i = 0; i < tokens.size(); ++i) {
      JsToken& t = tokens[i];
      if (t.type != JsTokenType::kIdentifier) {
        continue;
      }
      const bool is_property = i > 0 && tokens[i - 1].type == JsTokenType::kPunct &&
                               tokens[i - 1].text == ".";
      if (is_property || ProtectedNames().contains(t.text)) {
        continue;
      }
      auto it = mapping.find(t.text);
      if (it == mapping.end()) {
        it = mapping.emplace(t.text, DrawFreshIdentifier(rng, used_names)).first;
      }
      t.text = it->second;
    }
    result.renames.assign(mapping.begin(), mapping.end());
  }

  // Pass 2: string splitting. Each literal of length >= 6 becomes a
  // parenthesized concatenation of 2..4 chunks.
  if (options.split_strings) {
    std::vector<JsToken> rewritten;
    rewritten.reserve(tokens.size() * 2);
    for (JsToken& t : tokens) {
      if (t.type != JsTokenType::kString || t.text.size() < 6) {
        rewritten.push_back(std::move(t));
        continue;
      }
      const std::string value = std::move(t.text);
      const size_t pieces = 2 + rng.UniformU64(3);
      std::vector<size_t> cuts;
      for (size_t i = 1; i < pieces; ++i) {
        cuts.push_back(1 + rng.UniformU64(value.size() - 1));
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      rewritten.push_back(Punct("("));
      size_t start = 0;
      for (size_t cut : cuts) {
        rewritten.push_back(Str(value.substr(start, cut - start)));
        rewritten.push_back(Punct("+"));
        start = cut;
      }
      rewritten.push_back(Str(value.substr(start)));
      rewritten.push_back(Punct(")"));
    }
    tokens = std::move(rewritten);
  }

  // Pass 3: junk statements at top-level statement boundaries.
  if (options.junk_statements > 0) {
    // Find top-level boundaries (depth 0, after ';' or '}').
    std::vector<size_t> boundaries;
    int depth = 0;
    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
      const JsToken& t = tokens[i];
      if (t.type == JsTokenType::kPunct) {
        if (t.text == "{" || t.text == "(") {
          ++depth;
        } else if (t.text == "}" || t.text == ")") {
          --depth;
        }
        if (depth == 0 && (t.text == ";" || t.text == "}")) {
          // "} else" is mid-statement: a '}' closing an if-block is only a
          // boundary when no else-clause follows.
          const JsToken& next = tokens[i + 1];
          if (!(next.type == JsTokenType::kKeyword && next.text == "else")) {
            boundaries.push_back(i + 1);
          }
        }
      }
    }
    boundaries.push_back(0);
    // Insert from highest index down so positions stay valid.
    std::sort(boundaries.rbegin(), boundaries.rend());
    int remaining = options.junk_statements;
    for (size_t pos : boundaries) {
      if (remaining <= 0) {
        break;
      }
      std::vector<JsToken> junk = MakeJunkStatement(rng, used_names);
      tokens.insert(tokens.begin() + static_cast<ptrdiff_t>(pos),
                    std::make_move_iterator(junk.begin()), std::make_move_iterator(junk.end()));
      --remaining;
    }
  }

  std::string out = EmitJs(tokens);

  // Pass 4: pad with junk functions.
  if (options.pad_to_bytes > 0) {
    while (out.size() < options.pad_to_bytes) {
      std::vector<JsToken> fn = MakeJunkFunction(rng, used_names);
      out += '\n';
      out += EmitJs(fn);
    }
  }

  result.ok = true;
  result.source = std::move(out);
  return result;
}

}  // namespace robodet
