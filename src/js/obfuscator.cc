#include "src/js/obfuscator.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <unordered_map>

#include "src/js/lexer.h"

namespace robodet {
namespace {

// Names with host-defined meaning; renaming any of these would change what
// the script does in a browser (or in our interpreter).
constexpr std::string_view kProtectedNames[] = {
    "navigator", "document", "window", "Image", "Object", "String", "Math",
};

bool IsProtectedName(std::string_view name) {
  return std::find(std::begin(kProtectedNames), std::end(kProtectedNames), name) !=
         std::end(kProtectedNames);
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
std::vector<JsToken> MakeJunkStatement(Rng& rng, IdentifierSet& used) {
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
std::vector<JsToken> MakeJunkFunction(Rng& rng, IdentifierSet& used) {
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

std::string DrawFreshIdentifier(Rng& rng, IdentifierSet& used) {
  std::string name = RandomIdent(rng);
  while (!used.insert(name).second) {
    name = RandomIdent(rng);
  }
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

  // Every drawn name starts with '_', so only the script's own names that
  // do can collide with one. The tables below are sized so that a beacon
  // script's names (2m + 4 at m decoys) fit without a rehash.
  IdentifierSet used_names;
  used_names.reserve(64);
  for (const JsToken& t : tokens) {
    if (t.type == JsTokenType::kIdentifier && t.text.starts_with('_')) {
      used_names.insert(t.text);
    }
  }

  // Pass 1: consistent identifier renaming. Identifiers immediately after
  // '.' are property names and keep their spelling.
  if (options.rename_identifiers) {
    // Old name -> index in result.renames, which lists renames in order of
    // first appearance.
    std::unordered_map<std::string, size_t> mapping;
    mapping.reserve(64);
    for (size_t i = 0; i < tokens.size(); ++i) {
      JsToken& t = tokens[i];
      if (t.type != JsTokenType::kIdentifier) {
        continue;
      }
      const bool is_property = i > 0 && tokens[i - 1].type == JsTokenType::kPunct &&
                               tokens[i - 1].text == ".";
      if (is_property || IsProtectedName(t.text)) {
        continue;
      }
      const auto [it, first] = mapping.try_emplace(t.text, result.renames.size());
      if (first) {
        result.renames.emplace_back(t.text, DrawFreshIdentifier(rng, used_names));
      }
      t.text = result.renames[it->second].second;
    }
  }

  // Pass 2: string splitting. Each literal of length >= 6 becomes a
  // parenthesized concatenation of 2..4 chunks.
  if (options.split_strings) {
    // Draw every literal's cuts first, in token order, then expand the
    // literals in place from the back, so no token moves twice.
    struct Split {
      size_t token;
      size_t cuts[3];
      size_t num_cuts;
    };
    std::vector<Split> splits;
    size_t added = 0;
    for (size_t i = 0; i < tokens.size(); ++i) {
      const JsToken& t = tokens[i];
      if (t.type != JsTokenType::kString || t.text.size() < 6) {
        continue;
      }
      Split& s = splits.emplace_back();
      s.token = i;
      const size_t pieces = 2 + rng.UniformU64(3);
      for (size_t k = 0; k + 1 < pieces; ++k) {
        s.cuts[k] = 1 + rng.UniformU64(t.text.size() - 1);
      }
      std::sort(s.cuts, s.cuts + pieces - 1);
      s.num_cuts = static_cast<size_t>(std::unique(s.cuts, s.cuts + pieces - 1) - s.cuts);
      added += 2 * s.num_cuts + 2;  // ( a + b ... ) replaces one literal.
    }
    size_t src = tokens.size();
    tokens.resize(tokens.size() + added);
    size_t dst = tokens.size();
    for (auto s = splits.rbegin(); s != splits.rend(); ++s) {
      while (src > s->token + 1) {
        tokens[--dst] = std::move(tokens[--src]);
      }
      const std::string value = std::move(tokens[--src].text);
      tokens[--dst] = Punct(")");
      size_t end = value.size();
      for (size_t k = s->num_cuts; k-- > 0;) {
        tokens[--dst] = Str(value.substr(s->cuts[k], end - s->cuts[k]));
        tokens[--dst] = Punct("+");
        end = s->cuts[k];
      }
      tokens[--dst] = Str(value.substr(0, end));
      tokens[--dst] = Punct("(");
    }
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
