#include "src/html/injector.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "src/html/tokenizer.h"
#include "src/util/strings.h"

namespace robodet {
namespace {

// Appends ` name="value"`; returns the span of the value in `out`.
HtmlSpan AppendQuotedAttr(std::string& out, std::string_view name, std::string_view value) {
  out.push_back(' ');
  out.append(name);
  out.append("=\"");
  const size_t at = out.size();
  AppendReplaceAll(out, value, "\"", "&quot;");
  const HtmlSpan span{at, out.size() - at};
  out.push_back('"');
  return span;
}

// A pre-serialized insertion and the served refs in it, as spans of `html`.
struct Blob {
  std::string html;
  ServedRefs refs;
};

// Serialized form of the early (head) insertions.
Blob BuildHeadBlob(const InjectionPlan& plan) {
  Blob blob;
  std::string& out = blob.html;
  if (!plan.beacon_script_url.empty()) {
    out.append("<script");
    AppendQuotedAttr(out, "language", "javascript");
    blob.refs.embeds.push_back(AppendQuotedAttr(out, "src", plan.beacon_script_url));
    out.append("></script>");
  }
  if (!plan.css_probe_url.empty()) {
    out.append("<link");
    AppendQuotedAttr(out, "rel", "stylesheet");
    AppendQuotedAttr(out, "type", "text/css");
    blob.refs.embeds.push_back(AppendQuotedAttr(out, "href", plan.css_probe_url));
    out.push_back('>');
  }
  return blob;
}

// Serialized form of the late (body) insertions.
Blob BuildBodyBlob(const InjectionPlan& plan) {
  Blob blob;
  std::string& out = blob.html;
  if (!plan.audio_probe_url.empty()) {
    // 2006-era silent background sound; modern equivalents would use
    // <audio autoplay muted>.
    out.append("<bgsound");
    blob.refs.embeds.push_back(AppendQuotedAttr(out, "src", plan.audio_probe_url));
    out.append(" />");
  }
  if (!plan.ua_echo_script.empty()) {
    out.append("<script>");
    out.append(plan.ua_echo_script);  // Text token: emitted verbatim.
    out.append("</script>");
  }
  if (!plan.hidden_link_url.empty() && !plan.transparent_image_url.empty()) {
    out.append("<a");
    blob.refs.links.push_back(AppendQuotedAttr(out, "href", plan.hidden_link_url));
    out.push_back('>');
    out.append("<img");
    blob.refs.embeds.push_back(AppendQuotedAttr(out, "src", plan.transparent_image_url));
    AppendQuotedAttr(out, "width", "1");
    AppendQuotedAttr(out, "height", "1");
    AppendQuotedAttr(out, "border", "0");
    out.push_back('>');
    out.append("</a>");
  }
  return blob;
}

// Moves `refs` from `at` on past a `blob_size`-byte insertion there and
// puts `blob_refs` (spans of the insertion) between, keeping document order.
void SpliceRefs(std::vector<HtmlSpan>& refs, size_t at, const std::vector<HtmlSpan>& blob_refs,
                size_t blob_size) {
  const auto after = std::lower_bound(refs.begin(), refs.end(), at,
                                      [](const HtmlSpan& s, size_t off) { return s.offset < off; });
  for (auto it = after; it != refs.end(); ++it) {
    it->offset += blob_size;
  }
  const auto inserted = refs.insert(after, blob_refs.begin(), blob_refs.end());
  for (auto it = inserted; it != inserted + static_cast<std::ptrdiff_t>(blob_refs.size()); ++it) {
    it->offset += at;
  }
}

// The tags InstrumentHtml serializes itself: the insertion anchors (<head>,
// <body>, </body>, </html>) and every start tag that can carry a served
// ref. Constant-time, as the stream asks it of every tag.
bool RoutedTag(std::string_view name, bool end_tag) {
  if (name.size() == 4 &&
      (EqualsIgnoreCase(name, "body") || EqualsIgnoreCase(name, end_tag ? "html" : "head"))) {
    return true;
  }
  return !end_tag && RefTagFor(name) != nullptr;
}

// Serializes a start tag of row `ref` in normalized form (as AppendTokenView
// does) in one attribute walk, and records its served ref, if it carries
// one, in `refs`. A non-empty `hook` is appended as `onclick="hook"` to an
// anchor that has an href and no onclick of its own.
void AppendRefTag(std::string& out, const HtmlTokenView& v, const RefTag& ref,
                  std::string_view hook, ServedRefs& refs) {
  out.push_back('<');
  AppendAsciiLower(out, v.name);
  std::optional<HtmlSpan> url;
  std::optional<std::string_view> rel;
  bool has_onclick = false;
  HtmlAttrCursor cursor(v.attr_src);
  HtmlAttrView a;
  while (cursor.Next(a)) {
    out.push_back(' ');
    HtmlSpan value;
    if (a.canonical) {
      value = {out.size() + a.name.size() + 2, a.value.size()};
      out.append(a.raw);  // Already `name="value"` in normalized form.
    } else {
      AppendAsciiLower(out, a.name);
      out.append("=\"");
      value.offset = out.size();
      AppendReplaceAll(out, a.value, "\"", "&quot;");
      value.size = out.size() - value.offset;
      out.push_back('"');
    }
    if (!url && EqualsIgnoreCase(a.name, ref.url_attr)) {
      url = value;
    } else if (!rel && EqualsIgnoreCase(a.name, "rel")) {
      rel = a.value;
    }
    has_onclick = has_onclick || EqualsIgnoreCase(a.name, "onclick");
  }
  const bool link = !ref.embed;
  if (link && !hook.empty() && url && !has_onclick) {
    out.append(" onclick=\"");
    AppendReplaceAll(out, hook, "\"", "&quot;");
    out.push_back('"');
  }
  if (v.self_closing) {
    out.append(" /");
  }
  out.push_back('>');
  if (ref.Carries(url.has_value(), rel)) {
    (link ? refs.links : refs.embeds).push_back(*url);
  }
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

}  // namespace

InjectionResult InstrumentHtml(std::string_view html, const InjectionPlan& plan) {
  constexpr size_t kNpos = static_cast<size_t>(-1);
  InjectionResult result;

  const Blob head_blob = BuildHeadBlob(plan);
  Blob body_blob = BuildBodyBlob(plan);

  const bool want_body_handler = !plan.mouse_handler_code.empty();
  const std::string_view link_hook =
      want_body_handler && plan.hook_links ? std::string_view(plan.mouse_handler_code) : "";

  std::string& out = result.html;
  // One reservation covers the normalized document plus all insertions; the
  // handler attribute slack covers the common no-reallocation case.
  out.reserve(html.size() + head_blob.html.size() + body_blob.html.size() +
              (want_body_handler ? plan.mouse_handler_code.size() + 24 : 0));

  // Output-buffer offsets of the insertion anchors.
  size_t first_head_off = kNpos;   // right after the first <head> start tag
  size_t first_body_off = kNpos;   // right before the first <body> start tag
  size_t last_body_close_off = kNpos;  // right before the last </body>
  size_t last_html_close_off = kNpos;  // right before the last </html>
  bool body_handler_done = false;

  // Routing mode: the stream serializes every ordinary token straight onto
  // `out` during its scan and only hands us the tags RoutedTag names: the
  // ones we rewrite, record an anchor offset for, or read a served ref off.
  HtmlTokenStream stream(html, &out, &RoutedTag);
  HtmlTokenView v;
  while (stream.Next(v)) {
    if (v.type == HtmlTokenType::kStartTag) {
      if (const RefTag* ref = RefTagFor(v.name)) {
        AppendRefTag(out, v, *ref, link_hook, result.refs);
        continue;
      }
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
  if (const std::string_view raw_text = stream.unclosed_raw_text();
      !raw_text.empty() && body_at == out.size()) {
    // The page ended inside a <script> or <style> it never closed, so a
    // reader takes the appended blob as that element's text up to the
    // first close tag in it: its refs are those of the blob read in that
    // element.
    std::string context;
    context.push_back('<');
    context.append(raw_text);
    context.push_back('>');
    const size_t skip = context.size();
    context.append(body_blob.html);
    body_blob.refs = CollectServedRefs(context);
    for (auto* spans : {&body_blob.refs.links, &body_blob.refs.embeds}) {
      for (HtmlSpan& span : *spans) {
        span.offset -= skip;
      }
    }
  }
  auto splice = [&](size_t at, const Blob& blob) {
    if (blob.html.empty()) {
      return;
    }
    out.insert(at, blob.html);
    SpliceRefs(result.refs.links, at, blob.refs.links, blob.html.size());
    SpliceRefs(result.refs.embeds, at, blob.refs.embeds, blob.html.size());
  };
  if (head_at > body_at) {
    splice(head_at, head_blob);
    splice(body_at, body_blob);
  } else {
    splice(body_at, body_blob);
    splice(head_at, head_blob);
  }

  result.added_bytes =
      result.html.size() > html.size() ? result.html.size() - html.size() : 0;
  return result;
}

}  // namespace robodet
