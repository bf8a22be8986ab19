#include "src/html/injector.h"

#include <algorithm>
#include <cstddef>

#include "src/util/strings.h"

namespace robodet {
namespace {

// --------------------------------------------------------------------------
// Shared serialization helpers (legacy-normalized attribute form).
// --------------------------------------------------------------------------

void AppendQuotedAttr(std::string& out, std::string_view name, std::string_view value) {
  out.push_back(' ');
  out.append(name);
  out.append("=\"");
  AppendReplaceAll(out, value, "\"", "&quot;");
  out.push_back('"');
}

// Serialized form of the early (head) insertions.
std::string BuildHeadBlob(const InjectionPlan& plan) {
  std::string blob;
  if (!plan.beacon_script_url.empty()) {
    blob.append("<script");
    AppendQuotedAttr(blob, "language", "javascript");
    AppendQuotedAttr(blob, "src", plan.beacon_script_url);
    blob.append("></script>");
  }
  if (!plan.css_probe_url.empty()) {
    blob.append("<link");
    AppendQuotedAttr(blob, "rel", "stylesheet");
    AppendQuotedAttr(blob, "type", "text/css");
    AppendQuotedAttr(blob, "href", plan.css_probe_url);
    blob.push_back('>');
  }
  return blob;
}

// Serialized form of the late (body) insertions.
std::string BuildBodyBlob(const InjectionPlan& plan) {
  std::string blob;
  if (!plan.audio_probe_url.empty()) {
    // 2006-era silent background sound; modern equivalents would use
    // <audio autoplay muted>.
    blob.append("<bgsound");
    AppendQuotedAttr(blob, "src", plan.audio_probe_url);
    blob.append(" />");
  }
  if (!plan.ua_echo_script.empty()) {
    blob.append("<script>");
    blob.append(plan.ua_echo_script);  // Text token: emitted verbatim.
    blob.append("</script>");
  }
  if (!plan.hidden_link_url.empty() && !plan.transparent_image_url.empty()) {
    blob.append("<a");
    AppendQuotedAttr(blob, "href", plan.hidden_link_url);
    blob.push_back('>');
    blob.append("<img");
    AppendQuotedAttr(blob, "src", plan.transparent_image_url);
    AppendQuotedAttr(blob, "width", "1");
    AppendQuotedAttr(blob, "height", "1");
    AppendQuotedAttr(blob, "border", "0");
    blob.push_back('>');
    blob.append("</a>");
  }
  return blob;
}

// Emits a start tag while applying SetAttr(event, code) semantics: the
// first attribute whose name matches `event` case-insensitively has its
// value replaced; if none matches, `lower(event)="code"` is appended after
// the existing attributes (before any self-closing marker) — exactly what
// HtmlToken::SetAttr + SerializeHtml produce.
void AppendStartTagWithAttr(std::string& out, const HtmlTokenView& v, std::string_view event,
                            std::string_view code) {
  out.push_back('<');
  AppendAsciiLower(out, v.name);
  bool replaced = false;
  HtmlAttrCursor cursor(v.attr_src);
  HtmlAttrView a;
  while (cursor.Next(a)) {
    out.push_back(' ');
    if (!replaced && EqualsIgnoreCase(a.name, event)) {
      AppendAsciiLower(out, a.name);
      out.append("=\"");
      AppendReplaceAll(out, code, "\"", "&quot;");
      out.push_back('"');
      replaced = true;
      continue;
    }
    if (a.canonical) {
      out.append(a.raw);  // Already `name="value"` in normalized form.
      continue;
    }
    AppendAsciiLower(out, a.name);
    out.append("=\"");
    AppendReplaceAll(out, a.value, "\"", "&quot;");
    out.push_back('"');
  }
  if (!replaced) {
    out.push_back(' ');
    AppendAsciiLower(out, event);
    out.append("=\"");
    AppendReplaceAll(out, code, "\"", "&quot;");
    out.push_back('"');
  }
  if (v.self_closing) {
    out.append(" /");
  }
  out.push_back('>');
}

// Serializes an <a> start tag in one attribute walk, appending
// `onclick="code"` when the tag has an href and no onclick of its own
// (matching HasAttr + SetAttr + SerializeHtml). Returns whether the
// handler was added.
bool AppendAnchorHooked(std::string& out, const HtmlTokenView& v, std::string_view code) {
  out.push_back('<');
  AppendAsciiLower(out, v.name);
  bool has_href = false;
  bool has_onclick = false;
  HtmlAttrCursor cursor(v.attr_src);
  HtmlAttrView a;
  while (cursor.Next(a)) {
    has_href = has_href || EqualsIgnoreCase(a.name, "href");
    has_onclick = has_onclick || EqualsIgnoreCase(a.name, "onclick");
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
  const bool hook = has_href && !has_onclick;
  if (hook) {
    out.append(" onclick=\"");
    AppendReplaceAll(out, code, "\"", "&quot;");
    out.push_back('"');
  }
  if (v.self_closing) {
    out.append(" /");
  }
  out.push_back('>');
  return hook;
}

// --------------------------------------------------------------------------
// Legacy (materializing) implementation — parity oracle and bench baseline.
// --------------------------------------------------------------------------

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

InjectionResult InstrumentHtmlLegacy(std::string_view html, const InjectionPlan& plan) {
  std::vector<HtmlToken> tokens = TokenizeHtml(html);
  InjectionResult result;

  // Mouse handler on <body> (attribute edit, no insertion).
  if (!plan.mouse_handler_code.empty()) {
    for (HtmlToken& tok : tokens) {
      if (tok.type == HtmlTokenType::kStartTag && tok.name == "body") {
        tok.SetAttr(plan.mouse_event, plan.mouse_handler_code);
        result.injected_mouse_handler = true;
        break;
      }
    }
    if (plan.hook_links) {
      for (HtmlToken& tok : tokens) {
        if (tok.type == HtmlTokenType::kStartTag && tok.name == "a" && tok.HasAttr("href") &&
            !tok.HasAttr("onclick")) {
          tok.SetAttr("onclick", plan.mouse_handler_code);
          result.injected_mouse_handler = true;
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
    result.injected_beacon_script = true;
  }
  if (!plan.css_probe_url.empty()) {
    head_inserts.push_back(StartTag(
        "link",
        {{"rel", "stylesheet"}, {"type", "text/css"}, {"href", plan.css_probe_url}}));
    result.injected_css_probe = true;
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
    result.injected_audio_probe = true;
  }
  if (!plan.ua_echo_script.empty()) {
    body_inserts.push_back(StartTag("script", {}));
    body_inserts.push_back(Text(plan.ua_echo_script));
    body_inserts.push_back(EndTag("script"));
    result.injected_ua_echo = true;
  }
  if (!plan.hidden_link_url.empty() && !plan.transparent_image_url.empty()) {
    body_inserts.push_back(StartTag("a", {{"href", plan.hidden_link_url}}));
    body_inserts.push_back(StartTag(
        "img",
        {{"src", plan.transparent_image_url}, {"width", "1"}, {"height", "1"}, {"border", "0"}}));
    body_inserts.push_back(EndTag("a"));
    result.injected_hidden_link = true;
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

// --------------------------------------------------------------------------
// Streaming implementation — one pass, one buffer.
// --------------------------------------------------------------------------

InjectionResult InstrumentHtml(std::string_view html, const InjectionPlan& plan) {
  constexpr size_t kNpos = static_cast<size_t>(-1);
  InjectionResult result;

  const std::string head_blob = BuildHeadBlob(plan);
  const std::string body_blob = BuildBodyBlob(plan);
  result.injected_beacon_script = !plan.beacon_script_url.empty();
  result.injected_css_probe = !plan.css_probe_url.empty();
  result.injected_audio_probe = !plan.audio_probe_url.empty();
  result.injected_ua_echo = !plan.ua_echo_script.empty();
  result.injected_hidden_link =
      !plan.hidden_link_url.empty() && !plan.transparent_image_url.empty();

  const bool want_body_handler = !plan.mouse_handler_code.empty();
  const bool want_link_hooks = want_body_handler && plan.hook_links;

  std::string& out = result.html;
  // One reservation covers the normalized document plus all insertions; the
  // handler attribute slack covers the common no-reallocation case.
  out.reserve(html.size() + head_blob.size() + body_blob.size() +
              (want_body_handler ? plan.mouse_handler_code.size() + 24 : 0));

  // Output-buffer offsets of the legacy insertion anchors.
  size_t first_head_off = kNpos;   // right after the first <head> start tag
  size_t first_body_off = kNpos;   // right before the first <body> start tag
  size_t last_body_close_off = kNpos;  // right before the last </body>
  size_t last_html_close_off = kNpos;  // right before the last </html>
  bool body_handler_done = false;

  // Routing mode: the stream serializes every ordinary token straight onto
  // `out` during its scan and only hands us the tags we might rewrite or
  // record an anchor offset for. Anchors are routed only when they can be
  // hooked at all.
  std::string_view routed[4] = {"head", "body", "html"};
  size_t routed_count = 3;
  if (want_link_hooks) {
    routed[routed_count++] = "a";
  }
  HtmlTokenStream stream(html, &out, routed, routed_count);
  HtmlTokenView v;
  while (stream.Next(v)) {
    if (v.type == HtmlTokenType::kStartTag) {
      if (first_head_off == kNpos && EqualsIgnoreCase(v.name, "head")) {
        AppendTokenView(out, v);
        first_head_off = out.size();
        continue;
      }
      if (EqualsIgnoreCase(v.name, "body")) {
        if (first_body_off == kNpos) {
          first_body_off = out.size();
        }
        if (want_body_handler && !body_handler_done) {
          AppendStartTagWithAttr(out, v, plan.mouse_event, plan.mouse_handler_code);
          body_handler_done = true;
          result.injected_mouse_handler = true;
          continue;
        }
      } else if (want_link_hooks && EqualsIgnoreCase(v.name, "a")) {
        if (AppendAnchorHooked(out, v, plan.mouse_handler_code)) {
          result.injected_mouse_handler = true;
        }
        continue;
      }
    } else if (v.type == HtmlTokenType::kEndTag) {
      if (EqualsIgnoreCase(v.name, "body")) {
        last_body_close_off = out.size();
      } else if (EqualsIgnoreCase(v.name, "html")) {
        last_html_close_off = out.size();
      }
    }
    AppendTokenView(out, v);
  }

  // Splice the pre-serialized blobs at the recorded anchors. Inserting the
  // larger offset first keeps the smaller one valid; on a tie the head blob
  // must end up before the body blob (matching the legacy insertion order).
  const size_t body_at = last_body_close_off != kNpos
                             ? last_body_close_off
                             : (last_html_close_off != kNpos ? last_html_close_off : out.size());
  const size_t head_at =
      first_head_off != kNpos ? first_head_off : (first_body_off != kNpos ? first_body_off : 0);
  if (head_at > body_at) {
    if (!head_blob.empty()) {
      out.insert(head_at, head_blob);
    }
    if (!body_blob.empty()) {
      out.insert(body_at, body_blob);
    }
  } else {
    if (!body_blob.empty()) {
      out.insert(body_at, body_blob);
    }
    if (!head_blob.empty()) {
      out.insert(head_at, head_blob);
    }
  }

  result.added_bytes =
      result.html.size() > html.size() ? result.html.size() - html.size() : 0;
  return result;
}

}  // namespace robodet
