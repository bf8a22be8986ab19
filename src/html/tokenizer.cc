#include "src/html/tokenizer.h"

#include "src/util/strings.h"

namespace robodet {
namespace {

bool IsTagNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-';
}

// ASCII-only whitespace, byte-equal to std::isspace in the C locale but
// without the locale-table indirection (this sits in the per-attribute
// hot loop of the streaming rewriter).
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

bool IsAsciiAlpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }

}  // namespace

bool HtmlAttrCursor::Next(HtmlAttrView& out) {
  if (done_) {
    return false;
  }
  const std::string_view s = s_;
  while (i_ < s.size()) {
    while (i_ < s.size() && IsSpace(s[i_])) {
      ++i_;
    }
    if (i_ >= s.size()) {
      break;
    }
    if (s[i_] == '>') {
      ++i_;
      end_ = i_;
      done_ = true;
      return false;
    }
    if (s[i_] == '/') {
      ++i_;
      if (i_ < s.size() && s[i_] == '>') {
        self_closing_ = true;
        ++i_;
        end_ = i_;
        done_ = true;
        return false;
      }
      continue;
    }
    // Attribute name.
    const size_t name_start = i_;
    bool lower_name = true;
    while (i_ < s.size() && s[i_] != '=' && s[i_] != '>' && s[i_] != '/' && !IsSpace(s[i_])) {
      lower_name &= !(s[i_] >= 'A' && s[i_] <= 'Z');
      ++i_;
    }
    if (i_ == name_start) {
      ++i_;  // Skip a stray character to guarantee progress.
      continue;
    }
    out.name = s.substr(name_start, i_ - name_start);
    const size_t name_end = i_;
    out.value = s.substr(name_end, 0);  // Valueless: empty, just past the name.
    out.raw = {};
    out.canonical = false;
    while (i_ < s.size() && IsSpace(s[i_])) {
      ++i_;
    }
    if (i_ < s.size() && s[i_] == '=') {
      ++i_;
      while (i_ < s.size() && IsSpace(s[i_])) {
        ++i_;
      }
      if (i_ < s.size() && (s[i_] == '"' || s[i_] == '\'')) {
        const char quote = s[i_++];
        const size_t v_start = i_;
        const size_t close = s.find(quote, v_start);  // memchr, not per-byte.
        i_ = close == std::string_view::npos ? s.size() : close;
        out.value = s.substr(v_start, i_ - v_start);
        if (i_ < s.size()) {
          ++i_;  // Closing quote.
          // A double-quoted value cannot contain '"', so when the name is
          // lowercase and `="` follows it directly the source bytes are
          // already the normalized serialization.
          if (lower_name && quote == '"' && v_start == name_end + 2) {
            out.raw = s.substr(name_start, i_ - name_start);
            out.canonical = true;
          }
        }
      } else {
        const size_t v_start = i_;
        while (i_ < s.size() && s[i_] != '>' && !IsSpace(s[i_])) {
          ++i_;
        }
        out.value = s.substr(v_start, i_ - v_start);
      }
    }
    return true;
  }
  end_ = s.size();
  done_ = true;
  return false;
}

void HtmlTokenStream::Push(const HtmlTokenView& v) { queue_[queue_size_++] = v; }

// Text goes to the sink in routing mode, except the body of a routed
// raw-text element, which must follow its start tag through the queue.
void HtmlTokenStream::PushText(std::string_view text, bool to_sink) {
  if (text.empty()) {
    return;
  }
  if (to_sink) {
    sink_->append(text);
    return;
  }
  HtmlTokenView tok;
  tok.type = HtmlTokenType::kText;
  tok.text = text;
  Push(tok);
}

void HtmlTokenStream::Produce() {
  const std::string_view html = html_;
  const size_t n = html.size();
  while (queue_size_ == 0 && !scan_done_ && i_ < n) {
    if (html[i_] != '<') {
      // Skip the text run in one memchr instead of per-byte stepping.
      const size_t lt = html.find('<', i_);
      i_ = lt == std::string_view::npos ? n : lt;
      continue;
    }
    // Look ahead to decide what kind of markup starts here.
    if (i_ + 1 >= n) {
      scan_done_ = true;  // Trailing '<' falls through to the final text emit.
      break;
    }
    const char next = html[i_ + 1];
    if (next == '!') {
      PushText(html.substr(text_start_, i_ - text_start_), sink_ != nullptr);
      HtmlTokenView tok;
      if (html.compare(i_, 4, "<!--") == 0) {
        tok.type = HtmlTokenType::kComment;
        const size_t end = html.find("-->", i_ + 4);
        if (end == std::string_view::npos) {
          tok.text = html.substr(i_ + 4);
          i_ = n;
        } else {
          tok.text = html.substr(i_ + 4, end - (i_ + 4));
          i_ = end + 3;
        }
      } else {
        tok.type = HtmlTokenType::kDoctype;
        const size_t end = html.find('>', i_);
        if (end == std::string_view::npos) {
          tok.text = html.substr(i_ + 2);
          i_ = n;
        } else {
          tok.text = html.substr(i_ + 2, end - (i_ + 2));
          i_ = end + 1;
        }
      }
      if (sink_ != nullptr) {
        AppendTokenView(*sink_, tok);
      } else {
        Push(tok);
      }
      text_start_ = i_;
      continue;
    }
    const bool is_end = next == '/';
    const size_t name_start = i_ + (is_end ? 2 : 1);
    // Tag names must start with a letter; "<3" and "< b" are literal text.
    const bool starts_tag = name_start < n && IsAsciiAlpha(html[name_start]);
    if (!starts_tag) {
      ++i_;
      continue;
    }
    PushText(html.substr(text_start_, i_ - text_start_), sink_ != nullptr);

    size_t j = name_start;
    while (j < n && IsTagNameChar(html[j])) {
      ++j;
    }
    HtmlTokenView tok;
    tok.type = is_end ? HtmlTokenType::kEndTag : HtmlTokenType::kStartTag;
    tok.name = html.substr(name_start, j - name_start);
    const bool to_sink = sink_ != nullptr && !routed_(tok.name, is_end);
    if (to_sink) {
      // Routing mode, ordinary tag: serialize during the end-finding walk —
      // one pass over the attribute bytes instead of two.
      std::string& out = *sink_;
      HtmlAttrCursor cursor(html.substr(j));
      if (is_end) {
        HtmlAttrView ignored;
        while (cursor.Next(ignored)) {
        }
        out.append("</");
        AppendAsciiLower(out, tok.name);
        out.push_back('>');
      } else {
        out.push_back('<');
        AppendAsciiLower(out, tok.name);
        HtmlAttrView a;
        while (cursor.Next(a)) {
          out.push_back(' ');
          if (a.canonical) {
            out.append(a.raw);  // Already `name="value"` in normalized form.
            continue;
          }
          AppendAsciiLower(out, a.name);
          out.append("=\"");
          AppendReplaceAll(out, a.value, "\"", "&quot;");
          out.push_back('"');
        }
        if (cursor.self_closing()) {
          out.append(" /");
        }
        out.push_back('>');
      }
      tok.self_closing = cursor.self_closing();
      i_ = j + cursor.end_offset();
    } else {
      // Walk (without materializing) the attribute region to find the tag
      // end and the '/>' flag; consumers re-walk it lazily via
      // HtmlAttrCursor.
      HtmlAttrCursor cursor(html.substr(j));
      HtmlAttrView ignored;
      while (cursor.Next(ignored)) {
      }
      tok.attr_src = html.substr(j, cursor.end_offset());
      tok.self_closing = cursor.self_closing();
      i_ = j + cursor.end_offset();
      Push(tok);
    }
    text_start_ = i_;

    // Raw-text elements: consume until the matching close tag, whose name
    // matches in any ASCII case (WHATWG's "appropriate end tag"): find each
    // "</", then compare the name.
    if (tok.type == HtmlTokenType::kStartTag && !tok.self_closing &&
        (EqualsIgnoreCase(tok.name, "script") || EqualsIgnoreCase(tok.name, "style"))) {
      const std::string_view close = EqualsIgnoreCase(tok.name, "script") ? "</script" : "</style";
      const std::string_view name = close.substr(2);  // Static-storage "script"/"style".
      size_t end = i_;
      for (;;) {
        end = html.find("</", end);
        if (end == std::string_view::npos) {
          end = n;
          break;
        }
        const size_t after = end + close.size();
        if (after <= n && EqualsIgnoreCase(html.substr(end + 2, name.size()), name) &&
            (after == n || html[after] == '>' || IsSpace(html[after]))) {
          break;
        }
        ++end;
      }
      PushText(html.substr(i_, end - i_), to_sink);
      if (end < n) {
        // Emit the close tag (attributes on it are dropped).
        const size_t close_end = html.find('>', end);
        HtmlTokenView close_tok;
        close_tok.type = HtmlTokenType::kEndTag;
        close_tok.name = name;
        if (to_sink) {
          sink_->append(close);
          sink_->push_back('>');
        } else {
          Push(close_tok);
        }
        i_ = close_end == std::string_view::npos ? n : close_end + 1;
      } else {
        unclosed_raw_text_ = name;
        i_ = n;
      }
      text_start_ = i_;
    }
  }
  if (queue_size_ == 0 && !final_emitted_ && (scan_done_ || i_ >= n)) {
    final_emitted_ = true;
    PushText(html.substr(text_start_, i_ > text_start_ ? i_ - text_start_ : n - text_start_),
             sink_ != nullptr);
  }
}

bool HtmlTokenStream::Next(HtmlTokenView& out) {
  if (queue_size_ == 0) {
    Produce();
    if (queue_size_ == 0) {
      return false;
    }
  }
  out = queue_[queue_head_++];
  if (--queue_size_ == 0) {
    queue_head_ = 0;
  }
  return true;
}

void AppendTokenView(std::string& out, const HtmlTokenView& v) {
  switch (v.type) {
    case HtmlTokenType::kText:
      out.append(v.text);
      return;
    case HtmlTokenType::kComment:
      out.append("<!--");
      out.append(v.text);
      out.append("-->");
      return;
    case HtmlTokenType::kDoctype:
      out.append("<!");
      out.append(v.text);
      out.push_back('>');
      return;
    case HtmlTokenType::kEndTag:
      out.append("</");
      AppendAsciiLower(out, v.name);
      out.push_back('>');
      return;
    case HtmlTokenType::kStartTag: {
      out.push_back('<');
      AppendAsciiLower(out, v.name);
      HtmlAttrCursor cursor(v.attr_src);
      HtmlAttrView a;
      while (cursor.Next(a)) {
        out.push_back(' ');
        if (a.canonical) {
          out.append(a.raw);  // Already `name="value"` in normalized form.
          continue;
        }
        AppendAsciiLower(out, a.name);
        out.append("=\"");
        AppendReplaceAll(out, a.value, "\"", "&quot;");
        out.push_back('"');
      }
      if (v.self_closing) {
        out.append(" /");
      }
      out.push_back('>');
      return;
    }
  }
}

}  // namespace robodet
