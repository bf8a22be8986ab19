#include "src/html/document.h"

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

bool IsOnePixelImage(const HtmlToken& tok) {
  return tok.type == HtmlTokenType::kStartTag && tok.name == "img" && tok.Attr("width") == "1" &&
         tok.Attr("height") == "1";
}

// The attribute that holds a served ref's URL on a start tag with this
// name, or "" when the tag carries none: <a href> is a link; <img src>,
// <link rel=stylesheet href>, <script src>, <bgsound/audio src> and
// <iframe/frame src> are embeds.
std::string_view RefAttrFor(std::string_view tag) {
  static constexpr std::string_view kRefTags[][2] = {
      {"a", "href"},     {"link", "href"},  {"img", "src"},    {"script", "src"},
      {"bgsound", "src"}, {"audio", "src"}, {"iframe", "src"}, {"frame", "src"},
  };
  for (const auto& [name, attr] : kRefTags) {
    if (EqualsIgnoreCase(tag, name)) {
      return attr;
    }
  }
  return {};
}

}  // namespace

ServedRefs CollectServedRefs(std::string_view html) {
  ServedRefs out;
  HtmlTokenStream stream(html);
  HtmlTokenView tok;
  while (stream.Next(tok)) {
    if (tok.type != HtmlTokenType::kStartTag) {
      continue;
    }
    const std::string_view url_attr = RefAttrFor(tok.name);
    if (url_attr.empty()) {
      continue;
    }
    const bool is_anchor = EqualsIgnoreCase(tok.name, "a");
    const bool is_stylesheet_link = EqualsIgnoreCase(tok.name, "link");
    std::string_view url;
    std::string_view rel;
    bool has_url = false;
    bool has_rel = false;
    HtmlAttrCursor cursor(tok.attr_src);
    HtmlAttrView attr;
    while (cursor.Next(attr)) {
      if (!has_url && EqualsIgnoreCase(attr.name, url_attr)) {
        url = attr.value;
        has_url = true;
      } else if (is_stylesheet_link && !has_rel && EqualsIgnoreCase(attr.name, "rel")) {
        rel = attr.value;
        has_rel = true;
      }
    }
    if (!has_url) {
      continue;
    }
    if (is_anchor) {
      out.links.push_back(url);
    } else if (!is_stylesheet_link || EqualsIgnoreCase(rel, "stylesheet")) {
      out.embeds.push_back(url);
    }
  }
  return out;
}

HtmlDocument::HtmlDocument(std::string_view html) : tokens_(TokenizeHtml(html)) {}

std::vector<LinkRef> HtmlDocument::Links() const {
  std::vector<LinkRef> out;
  for (size_t i = 0; i < tokens_.size(); ++i) {
    const HtmlToken& tok = tokens_[i];
    if (tok.type != HtmlTokenType::kStartTag || tok.name != "a" || !tok.HasAttr("href")) {
      continue;
    }
    LinkRef link;
    link.href = std::string(tok.Attr("href"));
    link.onclick = std::string(tok.Attr("onclick"));
    // Inspect the anchor's content up to </a>: hidden iff there is no
    // visible text and every image is 1x1.
    bool any_visible = false;
    bool any_content = false;
    for (size_t j = i + 1; j < tokens_.size(); ++j) {
      const HtmlToken& inner = tokens_[j];
      if (inner.type == HtmlTokenType::kEndTag && inner.name == "a") {
        break;
      }
      if (inner.type == HtmlTokenType::kText) {
        if (!IsBlankText(inner.text)) {
          any_visible = true;
          any_content = true;
        }
      } else if (inner.type == HtmlTokenType::kStartTag && inner.name == "img") {
        any_content = true;
        if (!IsOnePixelImage(inner)) {
          any_visible = true;
        }
      }
    }
    link.hidden = any_content && !any_visible;
    out.push_back(std::move(link));
  }
  return out;
}

std::vector<LinkRef> HtmlDocument::VisibleLinks() const {
  std::vector<LinkRef> out;
  for (LinkRef& link : Links()) {
    if (!link.hidden) {
      out.push_back(std::move(link));
    }
  }
  return out;
}

std::vector<EmbedRef> HtmlDocument::EmbeddedObjects() const {
  std::vector<EmbedRef> out;
  for (const HtmlToken& tok : tokens_) {
    if (tok.type != HtmlTokenType::kStartTag) {
      continue;
    }
    if (tok.name == "img" && tok.HasAttr("src")) {
      out.push_back({EmbedRef::Kind::kImage, std::string(tok.Attr("src"))});
    } else if (tok.name == "link" && EqualsIgnoreCase(tok.Attr("rel"), "stylesheet") &&
               tok.HasAttr("href")) {
      out.push_back({EmbedRef::Kind::kCss, std::string(tok.Attr("href"))});
    } else if (tok.name == "script" && tok.HasAttr("src")) {
      out.push_back({EmbedRef::Kind::kScript, std::string(tok.Attr("src"))});
    } else if ((tok.name == "bgsound" || tok.name == "audio") && tok.HasAttr("src")) {
      out.push_back({EmbedRef::Kind::kAudio, std::string(tok.Attr("src"))});
    } else if ((tok.name == "iframe" || tok.name == "frame") && tok.HasAttr("src")) {
      out.push_back({EmbedRef::Kind::kFrame, std::string(tok.Attr("src"))});
    }
  }
  return out;
}

std::vector<std::string> HtmlDocument::InlineScripts() const {
  std::vector<std::string> out;
  for (size_t i = 0; i < tokens_.size(); ++i) {
    const HtmlToken& tok = tokens_[i];
    if (tok.type != HtmlTokenType::kStartTag || tok.name != "script" || tok.HasAttr("src") ||
        tok.self_closing) {
      continue;
    }
    std::string code;
    for (size_t j = i + 1; j < tokens_.size(); ++j) {
      const HtmlToken& inner = tokens_[j];
      if (inner.type == HtmlTokenType::kEndTag && inner.name == "script") {
        break;
      }
      if (inner.type == HtmlTokenType::kText) {
        code += inner.text;
      }
    }
    out.push_back(std::move(code));
  }
  return out;
}

std::string HtmlDocument::BodyEventHandler(std::string_view event) const {
  for (const HtmlToken& tok : tokens_) {
    if (tok.type == HtmlTokenType::kStartTag && tok.name == "body") {
      return std::string(tok.Attr(event));
    }
  }
  return "";
}

}  // namespace robodet
