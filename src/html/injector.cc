#include "src/html/injector.h"

#include <cstddef>

#include "src/html/tokenizer.h"
#include "src/util/strings.h"

namespace robodet {
namespace {

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

// Emits a <body> start tag with `onmousemove="code"`: the first attribute
// named onmousemove (in any case) has its value replaced; if there is none,
// the handler is appended after the existing attributes (before any
// self-closing marker).
void AppendBodyWithHandler(std::string& out, const HtmlTokenView& v, std::string_view code) {
  out.push_back('<');
  AppendAsciiLower(out, v.name);
  bool replaced = false;
  HtmlAttrCursor cursor(v.attr_src);
  HtmlAttrView a;
  while (cursor.Next(a)) {
    out.push_back(' ');
    if (!replaced && EqualsIgnoreCase(a.name, "onmousemove")) {
      out.append("onmousemove=\"");
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
    out.append(" onmousemove=\"");
    AppendReplaceAll(out, code, "\"", "&quot;");
    out.push_back('"');
  }
  if (v.self_closing) {
    out.append(" /");
  }
  out.push_back('>');
}

// Serializes an <a> start tag in one attribute walk, appending
// `onclick="code"` when the tag has an href and no onclick of its own.
void AppendAnchorHooked(std::string& out, const HtmlTokenView& v, std::string_view code) {
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
  if (has_href && !has_onclick) {
    out.append(" onclick=\"");
    AppendReplaceAll(out, code, "\"", "&quot;");
    out.push_back('"');
  }
  if (v.self_closing) {
    out.append(" /");
  }
  out.push_back('>');
}

}  // namespace

InjectionResult InstrumentHtml(std::string_view html, const InjectionPlan& plan) {
  constexpr size_t kNpos = static_cast<size_t>(-1);
  InjectionResult result;

  const std::string head_blob = BuildHeadBlob(plan);
  const std::string body_blob = BuildBodyBlob(plan);

  const bool want_body_handler = !plan.mouse_handler_code.empty();
  const bool want_link_hooks = want_body_handler && plan.hook_links;

  std::string& out = result.html;
  // One reservation covers the normalized document plus all insertions; the
  // handler attribute slack covers the common no-reallocation case.
  out.reserve(html.size() + head_blob.size() + body_blob.size() +
              (want_body_handler ? plan.mouse_handler_code.size() + 24 : 0));

  // Output-buffer offsets of the insertion anchors.
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
          AppendBodyWithHandler(out, v, plan.mouse_handler_code);
          body_handler_done = true;
          continue;
        }
      } else if (want_link_hooks && EqualsIgnoreCase(v.name, "a")) {
        AppendAnchorHooked(out, v, plan.mouse_handler_code);
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
  // must end up before the body blob.
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
