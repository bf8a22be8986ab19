// The reference HTML rewriter: the original tokenize→inject→serialize
// algorithm, which materializes every token, name and attribute as a
// std::string, edits the token vector and serializes it again.
//
// It is not a serve path. It is the oracle that html_streaming_parity_test
// holds InstrumentHtml (src/html/injector) to byte for byte, and the
// baseline that bench/rewrite_throughput's gate_rewrite_speedup_min divides
// by. Keeping it outside the library keeps that gate as strong as it was:
// the streaming rewriter must stay a multiple faster than this algorithm,
// not merely as fast as a plain token round trip.
#ifndef ROBODET_TESTS_HTML_REFERENCE_REWRITER_H_
#define ROBODET_TESTS_HTML_REFERENCE_REWRITER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/html/injector.h"
#include "src/html/tokenizer.h"

namespace robodet::reference {

struct HtmlToken {
  HtmlTokenType type = HtmlTokenType::kText;
  // Lowercased tag name for start/end tags; raw text for text/comment/
  // doctype tokens (comment text excludes the <!-- --> delimiters).
  std::string name;
  std::string text;
  std::vector<std::pair<std::string, std::string>> attrs;
  bool self_closing = false;

  // Case-insensitive attribute lookup; returns empty string if absent.
  std::string_view Attr(std::string_view attr_name) const;
  bool HasAttr(std::string_view attr_name) const;
  void SetAttr(std::string_view attr_name, std::string_view value);
};

// Tokenizes the whole document into owned tokens, one per HtmlTokenStream
// view, with tag and attribute names lowercased.
std::vector<HtmlToken> TokenizeHtml(std::string_view html);

// Serializes tokens back to HTML. Attribute values are double-quoted with
// '"' escaped; text is emitted verbatim.
std::string SerializeHtml(const std::vector<HtmlToken>& tokens);

// Applies `plan` by the rules InstrumentHtml documents, by editing and
// re-serializing the token vector.
InjectionResult InstrumentHtml(std::string_view html, const InjectionPlan& plan);

}  // namespace robodet::reference

#endif  // ROBODET_TESTS_HTML_REFERENCE_REWRITER_H_
