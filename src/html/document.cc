#include "src/html/document.h"

#include <array>
#include <cctype>
#include <cstdint>
#include <optional>

#include "src/html/tokenizer.h"
#include "src/util/strings.h"

namespace robodet {
namespace {

bool IsBlankText(std::string_view s) {
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      return false;
    }
  }
  return true;
}

constexpr RefTag kRefTags[] = {
    {"a", "href", std::nullopt, ""},
    {"link", "href", EmbedRef::Kind::kCss, "stylesheet"},
    {"img", "src", EmbedRef::Kind::kImage, ""},
    {"script", "src", EmbedRef::Kind::kScript, ""},
    {"bgsound", "src", EmbedRef::Kind::kAudio, ""},
    {"audio", "src", EmbedRef::Kind::kAudio, ""},
    {"iframe", "src", EmbedRef::Kind::kFrame, ""},
    {"frame", "src", EmbedRef::Kind::kFrame, ""},
};

// RefTagFor's index: the kRefTags row of each (name length, first letter),
// or -1. No two rows share a slot.
constexpr size_t kMaxRefTagSize = 7;
constexpr size_t RefSlot(size_t size, char first) {
  return size * 32 + (static_cast<unsigned char>(first) & 31);  // Either letter case.
}
constexpr auto kRefTagSlots = [] {
  std::array<int8_t, (kMaxRefTagSize + 1) * 32> slots{};
  slots.fill(-1);
  for (size_t row = 0; row < std::size(kRefTags); ++row) {
    const size_t slot = RefSlot(kRefTags[row].tag.size(), kRefTags[row].tag[0]);
    if (slots[slot] != -1) {
      throw "two kRefTags rows share a slot";
    }
    slots[slot] = static_cast<int8_t>(row);
  }
  return slots;
}();

// The first value of each of `names` among a tag's attributes, found in one
// walk of its attribute bytes. Names match case-insensitively; "" matches
// none.
template <size_t N>
std::array<std::optional<std::string_view>, N> ReadAttrs(
    std::string_view attr_src, const std::array<std::string_view, N>& names) {
  std::array<std::optional<std::string_view>, N> values;
  HtmlAttrCursor cursor(attr_src);
  HtmlAttrView a;
  while (cursor.Next(a)) {
    for (size_t k = 0; k < N; ++k) {
      if (!values[k] && EqualsIgnoreCase(a.name, names[k])) {
        values[k] = a.value;
        break;
      }
    }
  }
  return values;
}

}  // namespace

bool RefTag::Carries(bool has_url, std::optional<std::string_view> rel_value) const {
  return has_url && (rel.empty() || EqualsIgnoreCase(rel_value.value_or(""), rel));
}

const RefTag* RefTagFor(std::string_view name) {
  if (name.empty() || name.size() > kMaxRefTagSize) {
    return nullptr;
  }
  const int row = kRefTagSlots[RefSlot(name.size(), name[0])];
  return row >= 0 && EqualsIgnoreCase(name, kRefTags[row].tag) ? &kRefTags[row] : nullptr;
}

ServedRefs CollectServedRefs(std::string_view html) {
  ServedRefs out;
  HtmlTokenStream stream(html);
  HtmlTokenView tok;
  while (stream.Next(tok)) {
    if (tok.type != HtmlTokenType::kStartTag) {
      continue;
    }
    const RefTag* ref = RefTagFor(tok.name);
    if (ref == nullptr) {
      continue;
    }
    const auto [url, rel] = ReadAttrs<2>(tok.attr_src, {ref->url_attr, "rel"});
    if (ref->Carries(url.has_value(), rel)) {
      (ref->embed ? out.embeds : out.links)
          .push_back({static_cast<size_t>(url->data() - html.data()), url->size()});
    }
  }
  return out;
}

HtmlDocument::HtmlDocument(std::string_view html) {
  // An anchor's content runs to the next </a>, through any anchors opened
  // after it. Each open anchor keeps what the content between it and the
  // next open anchor holds; at </a> (or the end of the page) an anchor's
  // whole content is its own segment plus every later one. It is hidden
  // iff that content has imagery but no visible text and every image is
  // 1x1.
  struct OpenAnchor {
    size_t link;
    bool content = false;
    bool visible = false;
  };
  std::vector<OpenAnchor> open_anchors;
  auto close_anchors = [&] {
    bool content = false;
    bool visible = false;
    for (auto it = open_anchors.rbegin(); it != open_anchors.rend(); ++it) {
      content = content || it->content;
      visible = visible || it->visible;
      links_[it->link].hidden = content && !visible;
    }
    open_anchors.clear();
  };
  bool in_inline_script = false;
  bool body_seen = false;

  HtmlTokenStream stream(html);
  HtmlTokenView tok;
  while (stream.Next(tok)) {
    if (tok.type == HtmlTokenType::kText) {
      if (!open_anchors.empty() && !IsBlankText(tok.text)) {
        open_anchors.back().content = true;
        open_anchors.back().visible = true;
      }
      if (in_inline_script) {
        inline_scripts_.back().append(tok.text);
      }
      continue;
    }
    if (tok.type == HtmlTokenType::kEndTag) {
      if (EqualsIgnoreCase(tok.name, "a")) {
        close_anchors();
      } else if (EqualsIgnoreCase(tok.name, "script")) {
        in_inline_script = false;
      }
      continue;
    }
    if (tok.type != HtmlTokenType::kStartTag) {
      continue;
    }
    if (!body_seen && EqualsIgnoreCase(tok.name, "body")) {
      body_seen = true;
      body_handler_ = ReadAttrs<1>(tok.attr_src, {"onmousemove"})[0].value_or("");
      continue;
    }
    const RefTag* ref = RefTagFor(tok.name);
    if (ref == nullptr) {
      continue;
    }
    const bool anchor = !ref->embed;
    const bool image = ref->embed == EmbedRef::Kind::kImage;
    const auto [url, rel, onclick, width, height] = ReadAttrs<5>(
        tok.attr_src, {ref->url_attr, "rel", anchor ? "onclick" : "", image ? "width" : "",
                       image ? "height" : ""});
    if (image && !open_anchors.empty()) {
      open_anchors.back().content = true;
      open_anchors.back().visible = open_anchors.back().visible || width != "1" || height != "1";
    }
    if (ref->embed == EmbedRef::Kind::kScript && !url && !tok.self_closing) {
      inline_scripts_.emplace_back();
      in_inline_script = true;
    }
    if (!ref->Carries(url.has_value(), rel)) {
      continue;
    }
    if (anchor) {
      open_anchors.push_back({links_.size()});
      links_.push_back({std::string(*url), false, std::string(onclick.value_or(""))});
    } else {
      embeds_.push_back({*ref->embed, std::string(*url)});
    }
  }
  close_anchors();
}

std::vector<LinkRef> HtmlDocument::VisibleLinks() const {
  std::vector<LinkRef> out;
  for (const LinkRef& link : links_) {
    if (!link.hidden) {
      out.push_back(link);
    }
  }
  return out;
}

}  // namespace robodet
