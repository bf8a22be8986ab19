// String helpers shared across the HTTP, HTML and JS modules.
#ifndef ROBODET_SRC_UTIL_STRINGS_H_
#define ROBODET_SRC_UTIL_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace robodet {

// ASCII-only lowercase copy (HTTP header/token semantics; no locale).
std::string AsciiLower(std::string_view s);

// Append-style variant: lowercases `s` onto the end of `out` without an
// intermediate temporary. Hot-path building block for the HTML rewriter.
void AppendAsciiLower(std::string& out, std::string_view s);

// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Trims ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

// Parses a non-negative decimal integer; rejects junk and overflow.
std::optional<uint64_t> ParseU64(std::string_view s);

// True if `s` contains `needle` case-insensitively.
bool ContainsIgnoreCase(std::string_view s, std::string_view needle);

// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from, std::string_view to);

// Append-style variant of ReplaceAll; with an empty `from`, appends `s`
// unchanged.
void AppendReplaceAll(std::string& out, std::string_view s, std::string_view from,
                      std::string_view to);

// Escapes `s` for use inside a double-quoted JSON string (quotes,
// backslashes, control characters). Does not add the surrounding quotes.
std::string JsonEscape(std::string_view s);

// Append-style variant of JsonEscape.
void AppendJsonEscape(std::string& out, std::string_view s);

}  // namespace robodet

#endif  // ROBODET_SRC_UTIL_STRINGS_H_
