#include "tests/html/reference_rewriter.h"

#include <cstddef>

#include "src/util/strings.h"

namespace robodet::reference {
namespace {

void AppendToken(std::string& out, const HtmlToken& token) {
  switch (token.type) {
    case HtmlTokenType::kText:
      out.append(token.text);
      return;
    case HtmlTokenType::kComment:
      out.append("<!--");
      out.append(token.text);
      out.append("-->");
      return;
    case HtmlTokenType::kDoctype:
      out.append("<!");
      out.append(token.text);
      out.push_back('>');
      return;
    case HtmlTokenType::kEndTag:
      out.append("</");
      out.append(token.name);
      out.push_back('>');
      return;
    case HtmlTokenType::kStartTag: {
      out.push_back('<');
      out.append(token.name);
      for (const auto& [k, v] : token.attrs) {
        out.push_back(' ');
        out.append(k);
        out.append("=\"");
        AppendReplaceAll(out, v, "\"", "&quot;");
        out.push_back('"');
      }
      if (token.self_closing) {
        out.append(" /");
      }
      out.push_back('>');
      return;
    }
  }
}

HtmlToken StartTag(std::string name,
                   std::vector<std::pair<std::string, std::string>> attrs,
                   bool self_closing = false) {
  HtmlToken tok;
  tok.type = HtmlTokenType::kStartTag;
  tok.name = std::move(name);
  tok.attrs = std::move(attrs);
  tok.self_closing = self_closing;
  return tok;
}

HtmlToken EndTag(std::string name) {
  HtmlToken tok;
  tok.type = HtmlTokenType::kEndTag;
  tok.name = std::move(name);
  return tok;
}

HtmlToken Text(std::string text) {
  HtmlToken tok;
  tok.type = HtmlTokenType::kText;
  tok.text = std::move(text);
  return tok;
}

// Index right after the first <head> start tag, else right before the first
// <body> start tag, else 0 (prepend).
size_t HeadInsertionPoint(const std::vector<HtmlToken>& tokens) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].type == HtmlTokenType::kStartTag && tokens[i].name == "head") {
      return i + 1;
    }
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].type == HtmlTokenType::kStartTag && tokens[i].name == "body") {
      return i;
    }
  }
  return 0;
}

// Index right before </body>, else right before </html>, else end.
size_t BodyAppendPoint(const std::vector<HtmlToken>& tokens) {
  for (size_t i = tokens.size(); i > 0; --i) {
    if (tokens[i - 1].type == HtmlTokenType::kEndTag && tokens[i - 1].name == "body") {
      return i - 1;
    }
  }
  for (size_t i = tokens.size(); i > 0; --i) {
    if (tokens[i - 1].type == HtmlTokenType::kEndTag && tokens[i - 1].name == "html") {
      return i - 1;
    }
  }
  return tokens.size();
}

}  // namespace

std::string_view HtmlToken::Attr(std::string_view attr_name) const {
  for (const auto& [k, v] : attrs) {
    if (EqualsIgnoreCase(k, attr_name)) {
      return v;
    }
  }
  return {};
}

bool HtmlToken::HasAttr(std::string_view attr_name) const {
  for (const auto& [k, v] : attrs) {
    if (EqualsIgnoreCase(k, attr_name)) {
      return true;
    }
  }
  return false;
}

void HtmlToken::SetAttr(std::string_view attr_name, std::string_view value) {
  for (auto& [k, v] : attrs) {
    if (EqualsIgnoreCase(k, attr_name)) {
      v = std::string(value);
      return;
    }
  }
  attrs.emplace_back(AsciiLower(attr_name), std::string(value));
}

std::vector<HtmlToken> TokenizeHtml(std::string_view html) {
  std::vector<HtmlToken> tokens;
  HtmlTokenStream stream(html);
  HtmlTokenView v;
  while (stream.Next(v)) {
    HtmlToken tok;
    tok.type = v.type;
    tok.self_closing = v.self_closing;
    switch (v.type) {
      case HtmlTokenType::kText:
      case HtmlTokenType::kComment:
      case HtmlTokenType::kDoctype:
        tok.text.assign(v.text);
        break;
      case HtmlTokenType::kStartTag:
      case HtmlTokenType::kEndTag: {
        tok.name = AsciiLower(v.name);
        HtmlAttrCursor cursor(v.attr_src);
        HtmlAttrView a;
        while (cursor.Next(a)) {
          tok.attrs.emplace_back(AsciiLower(a.name), std::string(a.value));
        }
        break;
      }
    }
    tokens.push_back(std::move(tok));
  }
  return tokens;
}

std::string SerializeHtml(const std::vector<HtmlToken>& tokens) {
  std::string out;
  size_t estimate = 0;
  for (const HtmlToken& tok : tokens) {
    estimate += tok.name.size() + tok.text.size() + 8;
    for (const auto& [k, v] : tok.attrs) {
      estimate += k.size() + v.size() + 4;
    }
  }
  out.reserve(estimate);
  for (const HtmlToken& tok : tokens) {
    AppendToken(out, tok);
  }
  return out;
}

InjectionResult InstrumentHtml(std::string_view html, const InjectionPlan& plan) {
  std::vector<HtmlToken> tokens = TokenizeHtml(html);
  InjectionResult result;

  // Mouse handler on <body> (attribute edit, no insertion).
  if (!plan.mouse_handler_code.empty()) {
    for (HtmlToken& tok : tokens) {
      if (tok.type == HtmlTokenType::kStartTag && tok.name == "body") {
        tok.SetAttr("onmousemove", plan.mouse_handler_code);
        break;
      }
    }
    if (plan.hook_links) {
      for (HtmlToken& tok : tokens) {
        if (tok.type == HtmlTokenType::kStartTag && tok.name == "a" && tok.HasAttr("href") &&
            !tok.HasAttr("onclick")) {
          tok.SetAttr("onclick", plan.mouse_handler_code);
        }
      }
    }
  }

  // Early insertions (reverse-ordered so indices stay valid).
  std::vector<HtmlToken> head_inserts;
  if (!plan.beacon_script_url.empty()) {
    head_inserts.push_back(StartTag(
        "script", {{"language", "javascript"}, {"src", plan.beacon_script_url}}));
    head_inserts.push_back(EndTag("script"));
  }
  if (!plan.css_probe_url.empty()) {
    head_inserts.push_back(StartTag(
        "link",
        {{"rel", "stylesheet"}, {"type", "text/css"}, {"href", plan.css_probe_url}}));
  }
  if (!head_inserts.empty()) {
    const size_t at = HeadInsertionPoint(tokens);
    tokens.insert(tokens.begin() + static_cast<ptrdiff_t>(at), head_inserts.begin(),
                  head_inserts.end());
  }

  // Late insertions inside <body>.
  std::vector<HtmlToken> body_inserts;
  if (!plan.audio_probe_url.empty()) {
    body_inserts.push_back(StartTag("bgsound", {{"src", plan.audio_probe_url}}, true));
  }
  if (!plan.ua_echo_script.empty()) {
    body_inserts.push_back(StartTag("script", {}));
    body_inserts.push_back(Text(plan.ua_echo_script));
    body_inserts.push_back(EndTag("script"));
  }
  if (!plan.hidden_link_url.empty() && !plan.transparent_image_url.empty()) {
    body_inserts.push_back(StartTag("a", {{"href", plan.hidden_link_url}}));
    body_inserts.push_back(StartTag(
        "img",
        {{"src", plan.transparent_image_url}, {"width", "1"}, {"height", "1"}, {"border", "0"}}));
    body_inserts.push_back(EndTag("a"));
  }
  if (!body_inserts.empty()) {
    const size_t at = BodyAppendPoint(tokens);
    tokens.insert(tokens.begin() + static_cast<ptrdiff_t>(at), body_inserts.begin(),
                  body_inserts.end());
  }

  result.html = SerializeHtml(tokens);
  result.added_bytes =
      result.html.size() > html.size() ? result.html.size() - html.size() : 0;
  return result;
}

}  // namespace robodet::reference
