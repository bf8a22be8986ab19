// A forgiving, zero-copy HTML tokenizer. Real CoDeeN rewrote whatever HTML
// the origin produced, so the tokenizer must survive unquoted attributes,
// unclosed tags and truncated documents; it never throws, it just yields
// its best token stream.
//
// It is the library's one HTML layer. Every view HtmlTokenStream yields
// (tag name, text payload, raw attribute bytes) is a string_view into the
// caller's buffer; nothing is allocated per token, and attributes are only
// parsed when a consumer walks them with HtmlAttrCursor. The rewriter
// (src/html/injector), the served-ref collector and HtmlDocument
// (src/html/document) all read pages through it.
//
// AppendTokenView serializes a view in normalized form: lowercased names,
// double-quoted attributes with '"' escaped, text verbatim. Serializing
// every view of a document yields a fixed point: tokenizing that output
// and serializing it again reproduces it byte for byte.
#ifndef ROBODET_SRC_HTML_TOKENIZER_H_
#define ROBODET_SRC_HTML_TOKENIZER_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace robodet {

enum class HtmlTokenType {
  kText,
  kStartTag,
  kEndTag,
  kComment,
  kDoctype,
};

// One attribute as raw spans of the source buffer. `name` keeps the source
// casing (consumers lowercase on use); `value` is the bytes between the
// quotes (or the unquoted run), without any unescaping, and for a valueless
// attribute the empty span just past its name.
struct HtmlAttrView {
  std::string_view name;
  std::string_view value;
  // When the source bytes are already in normalized form — lowercase name,
  // then exactly `="` and a double-quoted value — `canonical` is true and
  // `raw` spans `name="value"` verbatim, so serializers can emit the
  // attribute with one bulk copy instead of re-normalizing. Empty/false
  // for every other spelling (single quotes, spaces around '=', uppercase).
  std::string_view raw;
  bool canonical = false;
};

// A token as spans of the source buffer. Valid only while that buffer is.
struct HtmlTokenView {
  HtmlTokenType type = HtmlTokenType::kText;
  // Source-cased tag name for start/end tags; empty otherwise.
  std::string_view name;
  // Payload for text/comment/doctype tokens (comment text excludes the
  // <!-- --> delimiters); empty otherwise.
  std::string_view text;
  // Raw bytes of the attribute region of a start/end tag, from one past
  // the tag name through the closing '>' (when present). Walk it with
  // HtmlAttrCursor; it is not parsed up front.
  std::string_view attr_src;
  bool self_closing = false;
};

// Lazily walks the attribute region of a tag: quoted values may contain
// '>', valueless attributes yield an empty value, stray bytes are skipped.
class HtmlAttrCursor {
 public:
  explicit HtmlAttrCursor(std::string_view attr_src) : s_(attr_src) {}

  // Yields the next attribute, or returns false at the end of the tag.
  bool Next(HtmlAttrView& out);

  // After Next() returns false: one past the closing '>' within attr_src
  // (or attr_src.size() on truncation), and whether the tag ended in '/>'.
  size_t end_offset() const { return end_; }
  bool self_closing() const { return self_closing_; }

 private:
  std::string_view s_;
  size_t i_ = 0;
  size_t end_ = 0;
  bool self_closing_ = false;
  bool done_ = false;
};

// Pull-based tokenizer; yields one view per token, without allocating.
// <script>/<style> contents are raw text until the matching close tag, as
// per the HTML spec's raw-text states.
class HtmlTokenStream {
 public:
  explicit HtmlTokenStream(std::string_view html) : html_(html) {}

  // Routing mode, for single-pass rewriters: every ordinary token is
  // serialized (with the usual normalization) straight into `sink` during
  // the scan, and Next() yields only the start and end tags for which
  // `routed(name, end_tag)` is true — the caller serializes those itself,
  // in order, onto the same sink. This removes the per-token hand-off and
  // the second attribute walk for the bulk of a document. The predicate
  // runs on every tag, so it should be constant-time. A routed raw-text
  // start tag (<script>, <style>) is yielded with its body text and its
  // close tag after it, for the caller to serialize too.
  using RoutePredicate = bool (*)(std::string_view name, bool end_tag);
  HtmlTokenStream(std::string_view html, std::string* sink, RoutePredicate routed)
      : html_(html), sink_(sink), routed_(routed) {}

  // Fills `out` with the next token (in routing mode: the next routed
  // tag); returns false at end of input.
  bool Next(HtmlTokenView& out);

  // Once Next() has returned false: the name of the raw-text element
  // (lowercase "script" or "style") whose body ran to the end of the input
  // without a close tag, or "" when the input ended outside one. Bytes
  // appended after such a page are read as that element's text.
  std::string_view unclosed_raw_text() const { return unclosed_raw_text_; }

 private:
  void Produce();
  void Push(const HtmlTokenView& v);
  void PushText(std::string_view text, bool to_sink);

  std::string_view html_;
  std::string* sink_ = nullptr;
  RoutePredicate routed_ = nullptr;
  std::string_view unclosed_raw_text_;
  size_t i_ = 0;
  size_t text_start_ = 0;
  bool scan_done_ = false;
  bool final_emitted_ = false;
  // Tiny fixed queue: one production step yields at most 4 tokens
  // (pending text + start tag + raw-text body + synthesized close tag).
  HtmlTokenView queue_[4];
  size_t queue_size_ = 0;
  size_t queue_head_ = 0;
};

// Serializes one view onto `out` in normalized form.
void AppendTokenView(std::string& out, const HtmlTokenView& v);

}  // namespace robodet

#endif  // ROBODET_SRC_HTML_TOKENIZER_H_
