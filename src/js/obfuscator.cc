#include "src/js/obfuscator.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <forward_list>
#include <iterator>

#include "src/js/lexer.h"
#include "src/util/hash.h"

namespace robodet {
namespace {

constexpr char kFirst[] = "abcdefghijklmnopqrstuvwxyz_";
constexpr char kRest[] = "abcdefghijklmnopqrstuvwxyz0123456789_";

// The shortest string literal the splitter cuts, and the most cuts it
// makes in one (2 to 4 chunks).
constexpr size_t kMinSplitLength = 6;
constexpr size_t kMaxCuts = 3;

// The longest name PackName packs; RandomIdent draws no longer one.
constexpr size_t kMaxPackedName = 10;

// The 6-bit value PackName gives each identifier character (a-z 0-25, A-Z
// 26-51, 0-9 52-61, '_' 62, '$' 63), and 0xff to any other byte.
constexpr std::array<uint8_t, 256> kPackValues = [] {
  std::array<uint8_t, 256> values{};
  values.fill(0xff);
  for (int c = 0; c < 26; ++c) {
    values['a' + c] = static_cast<uint8_t>(c);
    values['A' + c] = static_cast<uint8_t>(26 + c);
  }
  for (int c = 0; c < 10; ++c) {
    values['0' + c] = static_cast<uint8_t>(52 + c);
  }
  values['_'] = 62;
  values['$'] = 63;
  return values;
}();

// An identifier of up to kMaxPackedName characters packed into one word:
// its length in the top four bits, then 6 bits a character. Two names pack
// equal only when they are equal. 0 for a longer name or one with any
// other character.
constexpr uint64_t PackName(std::string_view name) {
  if (name.empty() || name.size() > kMaxPackedName) {
    return 0;
  }
  uint64_t code = static_cast<uint64_t>(name.size()) << 60;
  for (size_t i = 0; i < name.size(); ++i) {
    const uint8_t v = kPackValues[static_cast<uint8_t>(name[i])];
    if (v == 0xff) {
      return 0;
    }
    code |= static_cast<uint64_t>(v) << (6 * i);
  }
  return code;
}

// Names with host-defined meaning; renaming any of these would change what
// the script does in a browser (or in our interpreter).
const IdentifierSet& ProtectedNames() {
  static const IdentifierSet kNames = {"navigator", "document", "window", "Image",
                                       "Object",    "String",   "Math"};
  return kNames;
}

std::string RandomIdent(Rng& rng) {
  std::string out;
  out.push_back('_');
  out.push_back(kFirst[rng.UniformU64(sizeof(kFirst) - 1)]);
  const size_t len = 4 + rng.UniformU64(5);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kRest[rng.UniformU64(sizeof(kRest) - 1)]);
  }
  return out;
}

// Old name -> its index in ObfuscationResult::renames. A name that packs
// is found by one probe of a table open-addressed on its packed word; a
// longer one, rare in a generated script, by a scan of the long names.
class RenameTable {
 public:
  static constexpr size_t kAbsent = SIZE_MAX;

  // Room for `max_names` names that pack, kept at most half full.
  explicit RenameTable(size_t max_names) {
    size_t capacity = 16;
    while (capacity < 2 * max_names) {
      capacity *= 2;
    }
    slots_.resize(capacity);
  }

  // The index of `name`, packed as `code`: kAbsent for a new name, which
  // the caller then sets through the reference.
  size_t& Lookup(std::string_view name, uint64_t code) {
    if (code == 0) {
      for (auto& [long_name, index] : long_names_) {
        if (long_name == name) {
          return index;
        }
      }
      return long_names_.emplace_back(name, kAbsent).second;
    }
    const size_t mask = slots_.size() - 1;
    size_t s = Mix64(code) & mask;
    while (slots_[s].code != 0 && slots_[s].code != code) {
      s = (s + 1) & mask;
    }
    Slot& slot = slots_[s];
    if (slot.code == 0) {
      slot = {code, kAbsent};
    }
    return slot.index;
  }

 private:
  struct Slot {
    uint64_t code = 0;  // 0: empty.
    size_t index = 0;
  };
  std::vector<Slot> slots_;
  std::vector<std::pair<std::string_view, size_t>> long_names_;
};

JsToken Token(JsTokenType type, std::string_view text) {
  JsToken t;
  t.type = type;
  t.text = text;
  return t;
}

JsToken Punct(std::string_view text) { return Token(JsTokenType::kPunct, text); }

JsToken Str(std::string_view value) { return Token(JsTokenType::kString, value); }

// The text of tokens the obfuscator makes up (junk names and numbers),
// which their tokens view.
class TextArena {
 public:
  std::string_view Keep(std::string text) { return texts_.emplace_front(std::move(text)); }

 private:
  std::forward_list<std::string> texts_;
};

JsToken Number(uint64_t v, TextArena& arena) {
  return Token(JsTokenType::kNumber, arena.Keep(std::to_string(v)));
}

// A junk statement: `var <name> = <a> <op> <b>;` — pure arithmetic, no
// observable effect.
void AppendJunkStatement(Rng& rng, IdentifierSet& used, TextArena& arena,
                         std::vector<JsToken>& out) {
  const std::string_view name = arena.Keep(DrawFreshIdentifier(rng, used));
  static constexpr std::string_view kOps[] = {"+", "-", "*"};
  out.push_back(Token(JsTokenType::kKeyword, "var"));
  out.push_back(Token(JsTokenType::kIdentifier, name));
  out.push_back(Punct("="));
  out.push_back(Number(rng.UniformU64(100000), arena));
  out.push_back(Punct(kOps[rng.UniformU64(3)]));
  out.push_back(Number(rng.UniformU64(100000), arena));
  out.push_back(Punct(";"));
}

// A junk function that is never called; used for size padding.
std::vector<JsToken> MakeJunkFunction(Rng& rng, IdentifierSet& used, TextArena& arena) {
  const std::string_view name = arena.Keep(DrawFreshIdentifier(rng, used));
  std::vector<JsToken> out;
  out.push_back(Token(JsTokenType::kKeyword, "function"));
  out.push_back(Token(JsTokenType::kIdentifier, name));
  out.push_back(Punct("("));
  const std::string_view param = arena.Keep(RandomIdent(rng));
  out.push_back(Token(JsTokenType::kIdentifier, param));
  out.push_back(Punct(")"));
  out.push_back(Punct("{"));
  const int stmts = 1 + static_cast<int>(rng.UniformU64(3));
  for (int i = 0; i < stmts; ++i) {
    AppendJunkStatement(rng, used, arena, out);
  }
  out.push_back(Token(JsTokenType::kKeyword, "return"));
  out.push_back(Token(JsTokenType::kIdentifier, param));
  out.push_back(Punct("*"));
  out.push_back(Number(rng.UniformU64(1000) + 1, arena));
  out.push_back(Punct(";"));
  out.push_back(Punct("}"));
  return out;
}

}  // namespace

IdentifierSet::IdentifierSet(std::initializer_list<std::string_view> names) : IdentifierSet() {
  for (std::string_view name : names) {
    Insert(name);
  }
}

bool IdentifierSet::Insert(std::string_view name) {
  const uint64_t code = PackName(name);
  if (code == 0) {
    return true;  // No draw can spell it.
  }
  if (std::find(codes_.begin(), codes_.end(), code) != codes_.end()) {
    return false;
  }
  codes_.push_back(code);
  return true;
}

bool IdentifierSet::Contains(std::string_view name) const {
  const uint64_t code = PackName(name);
  return code != 0 && std::find(codes_.begin(), codes_.end(), code) != codes_.end();
}

std::string DrawFreshIdentifier(Rng& rng, IdentifierSet& used) {
  std::string name = RandomIdent(rng);
  while (!used.Insert(name)) {
    name = RandomIdent(rng);
  }
  return name;
}

std::string ObfuscationResult::RenamedOrSelf(std::string_view name) const {
  for (const auto& [from, to] : renames) {
    if (from == name) {
      return to;
    }
  }
  return std::string(name);
}

ObfuscationResult ObfuscateJs(std::string_view source, const ObfuscationOptions& options,
                              Rng& rng) {
  JsLexResult lexed = LexJs(source);
  if (!lexed.ok) {
    ObfuscationResult result;
    result.error = "lex error: " + lexed.error;
    return result;
  }
  // The tokens view `source` and lexed.decoded, both alive until this
  // returns.
  return ObfuscateTokens(std::move(lexed.tokens), options, rng);
}

ObfuscationResult ObfuscateTokens(std::vector<JsToken> tokens, const ObfuscationOptions& options,
                                  Rng& rng) {
  ObfuscationResult result;
  // The tokens also view `drawn` and `arena`, made below.
  TextArena arena;

  // One scan for what the passes below size their tables by. Every drawn
  // name starts with '_', so only the script's own names that do can
  // collide with one.
  IdentifierSet used_names;
  size_t identifiers = 0;
  size_t long_strings = 0;  // Literals the splitter cuts.
  size_t text_bytes = 0;
  for (const JsToken& t : tokens) {
    text_bytes += t.text.size();
    if (t.type == JsTokenType::kIdentifier) {
      ++identifiers;
      if (t.text.starts_with('_')) {
        used_names.Insert(t.text);
      }
    } else if (t.type == JsTokenType::kString && t.text.size() >= kMinSplitLength) {
      ++long_strings;
    }
  }

  // Pass 1: consistent identifier renaming. Identifiers immediately after
  // '.' are property names and keep their spelling. The renamed tokens view
  // `drawn`, which holds each new name in a kMaxPackedName-byte slot; sized
  // for one name per identifier, it never moves.
  std::string drawn;
  if (options.rename_identifiers) {
    drawn.resize(identifiers * kMaxPackedName);
    RenameTable table(identifiers);
    // Scripts name few things; a beacon script 2m + 3 at m decoys.
    result.renames.reserve(std::min<size_t>(identifiers, 32));
    for (size_t i = 0; i < tokens.size(); ++i) {
      JsToken& t = tokens[i];
      if (t.type != JsTokenType::kIdentifier ||
          (i > 0 && tokens[i - 1].type == JsTokenType::kPunct &&
           tokens[i - 1].text.size() == 1 && tokens[i - 1].text[0] == '.') ||
          ProtectedNames().Contains(t.text)) {
        continue;
      }
      // Names are drawn in order of first appearance.
      size_t& k = table.Lookup(t.text, PackName(t.text));
      if (k == RenameTable::kAbsent) {
        k = result.renames.size();
        std::string name = DrawFreshIdentifier(rng, used_names);
        name.copy(drawn.data() + k * kMaxPackedName, name.size());
        result.renames.emplace_back(std::string(t.text), std::move(name));
      }
      t.text = std::string_view(drawn).substr(k * kMaxPackedName, result.renames[k].second.size());
    }
  }

  // Pass 2: string splitting. Each literal of kMinSplitLength or more bytes
  // becomes a parenthesized concatenation of 2..4 chunks, each a view of
  // the literal's text. Every literal's cuts are drawn here, in token order;
  // the emission below writes the chunks.
  struct Split {
    size_t token;
    size_t cuts[kMaxCuts];
    size_t num_cuts;
  };
  std::vector<Split> splits;
  if (options.split_strings) {
    splits.reserve(long_strings);
    for (size_t i = 0; i < tokens.size(); ++i) {
      const JsToken& t = tokens[i];
      if (t.type != JsTokenType::kString || t.text.size() < kMinSplitLength) {
        continue;
      }
      Split& s = splits.emplace_back();
      s.token = i;
      const size_t pieces = 2 + rng.UniformU64(kMaxCuts);
      for (size_t k = 0; k + 1 < pieces; ++k) {
        s.cuts[k] = 1 + rng.UniformU64(t.text.size() - 1);
      }
      std::sort(s.cuts, s.cuts + pieces - 1);
      s.num_cuts = static_cast<size_t>(std::unique(s.cuts, s.cuts + pieces - 1) - s.cuts);
    }
  }

  // Pass 3: junk statements at top-level statement boundaries (depth 0,
  // after ';' or '}'), drawn from the last boundary back; the emission
  // writes each before the token at its boundary. A split literal's
  // parentheses are balanced and hold no ';', so splitting moves no
  // boundary.
  std::vector<std::pair<size_t, std::vector<JsToken>>> junk;  // (Boundary, statement).
  if (options.junk_statements > 0) {
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
    std::sort(boundaries.rbegin(), boundaries.rend());
    boundaries.resize(std::min(boundaries.size(), static_cast<size_t>(options.junk_statements)));
    for (size_t pos : boundaries) {
      std::vector<JsToken>& statement = junk.emplace_back(pos, std::vector<JsToken>()).second;
      AppendJunkStatement(rng, used_names, arena, statement);
    }
    std::reverse(junk.begin(), junk.end());
  }

  // The script's tokens, renamed, with the literals split and the junk
  // statements in place: the runs between those places are written whole.
  // Room for the spaces, quotes and split literals of a typical script.
  JsEmitter emitter(2 * text_bytes + tokens.size());
  auto next_split = splits.begin();
  auto next_junk = junk.begin();
  size_t run = 0;  // The first token not yet written.
  const size_t eof = tokens.size() - 1;
  while (next_split != splits.end() || next_junk != junk.end()) {
    const size_t i = std::min(next_split != splits.end() ? next_split->token : eof,
                              next_junk != junk.end() ? next_junk->first : eof);
    emitter.Append(std::span(tokens).subspan(run, i - run));
    run = i;
    for (; next_junk != junk.end() && next_junk->first == i; ++next_junk) {
      emitter.Append(next_junk->second);
    }
    if (next_split != splits.end() && next_split->token == i) {
      // ( 'a' + 'b' ... ) for the literal.
      const std::string_view value = tokens[i].text;
      JsToken chunks[2 * kMaxCuts + 3];
      size_t n = 0;
      chunks[n++] = Punct("(");
      size_t from = 0;
      for (size_t k = 0; k < next_split->num_cuts; ++k) {
        chunks[n++] = Str(value.substr(from, next_split->cuts[k] - from));
        chunks[n++] = Punct("+");
        from = next_split->cuts[k];
      }
      chunks[n++] = Str(value.substr(from));
      chunks[n++] = Punct(")");
      emitter.Append(std::span(chunks, n));
      run = i + 1;
      ++next_split;
    }
  }
  emitter.Append(std::span(tokens).subspan(run, eof - run));
  std::string out = std::move(emitter).Finish();

  // Pass 4: pad with junk functions.
  if (options.pad_to_bytes > 0) {
    while (out.size() < options.pad_to_bytes) {
      out += '\n';
      out += EmitJs(MakeJunkFunction(rng, used_names, arena));
    }
  }

  result.ok = true;
  result.source = std::move(out);
  return result;
}

}  // namespace robodet
