// Lexical obfuscation (§2.1: "Adding lexical obfuscation can further
// increase the difficulty in deciphering the script"). Token-level
// transforms that provably preserve the semantics our interpreter assigns:
// consistent identifier renaming, string-literal splitting, junk-statement
// insertion. A property test executes scripts before and after obfuscation
// and asserts identical observable behaviour.
#ifndef ROBODET_SRC_JS_OBFUSCATOR_H_
#define ROBODET_SRC_JS_OBFUSCATOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/js/lexer.h"
#include "src/util/rng.h"

namespace robodet {

struct ObfuscationOptions {
  bool rename_identifiers = true;
  bool split_strings = true;
  // How many junk `var x = <arith>;` statements to sprinkle at top level.
  int junk_statements = 0;
  // Append junk functions until the source reaches this size; 0 disables.
  size_t pad_to_bytes = 0;
};

struct ObfuscationResult {
  bool ok = false;
  std::string error;
  std::string source;
  // Renaming map (old -> new), in order of first appearance, for callers
  // that must keep references in sync, e.g. the handler attribute naming
  // the dispatcher function.
  std::string RenamedOrSelf(std::string_view name) const;
  std::vector<std::pair<std::string, std::string>> renames;
};

// A set of identifiers of up to 10 characters, each packed in one word: the
// names a script already uses, as far as a draw could collide with them
// (every drawn name is one), or the names the renamer keeps. A longer name
// is not kept. A flat list, scanned, with room for the 2m + 4 names a
// beacon script draws at m = 6 decoys before it grows.
class IdentifierSet {
 public:
  IdentifierSet() { codes_.reserve(16); }
  IdentifierSet(std::initializer_list<std::string_view> names);

  // Adds `name`; false when it is already in the set.
  bool Insert(std::string_view name);
  // Whether `name` is in the set; false for a name longer than 10
  // characters, which the set does not keep.
  bool Contains(std::string_view name) const;

 private:
  std::vector<uint64_t> codes_;
};

// The renamer's one name draw: random `_xxxx` identifiers from `rng` until
// one is not in `used`, which then records it. Renaming, junk statements
// and padding all name things this way, and the beacon generator replays
// it to learn the dispatcher's name without running the obfuscator.
std::string DrawFreshIdentifier(Rng& rng, IdentifierSet& used);

// Host names and property names are never renamed; identifiers following a
// '.' are property accesses and keep their spelling.
ObfuscationResult ObfuscateJs(std::string_view source, const ObfuscationOptions& options,
                              Rng& rng);
// ObfuscateJs of a script already in tokens, ending with kEof, as LexJs
// reads them; their texts must outlive the call.
ObfuscationResult ObfuscateTokens(std::vector<JsToken> tokens, const ObfuscationOptions& options,
                                  Rng& rng);

}  // namespace robodet

#endif  // ROBODET_SRC_JS_OBFUSCATOR_H_
