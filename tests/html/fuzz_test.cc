// Failure injection for the HTML path: seeded pseudo-random documents —
// including pathological ones — must tokenize without crashing, reach a
// serialization fixed point, and survive instrumentation. The proxy
// rewrites whatever HTML origins emit, so "forgiving" is a correctness
// requirement, not a nicety.
#include <gtest/gtest.h>

#include <iterator>

#include "src/html/document.h"
#include "src/html/injector.h"
#include "src/html/tokenizer.h"
#include "src/util/rng.h"
#include "tests/html/served_refs_test_util.h"

namespace robodet {
namespace {

// Generates messy-but-plausible HTML: random nesting, unclosed tags,
// stray '<', attribute soup, comments, scripts.
std::string GenerateMessyHtml(Rng& rng, size_t target_size) {
  static const char* const kTags[] = {"div", "p", "a", "img", "span", "table", "td",
                                      "body", "head", "html", "li", "script", "style"};
  static const char* const kFragments[] = {
      "plain text ",       "<",           "<<",          "a < b ",
      "<!-- comment -->",  "<!DOCTYPE html>", "&amp; entity ", "\n\t ",
      "<a href=broken",    "quote\" in text ", "=",          "<3 hearts ",
  };
  std::string out;
  int open_depth = 0;
  while (out.size() < target_size) {
    switch (rng.UniformU64(6)) {
      case 0: {
        const char* tag = kTags[rng.UniformU64(13)];
        out += "<";
        out += tag;
        const size_t attrs = rng.UniformU64(3);
        for (size_t a = 0; a < attrs; ++a) {
          switch (rng.UniformU64(3)) {
            case 0:
              out += " href=\"/x" + std::to_string(rng.UniformU64(100)) + ".html\"";
              break;
            case 1:
              out += " class=c" + std::to_string(rng.UniformU64(10));
              break;
            default:
              out += " data-x='q" + std::to_string(rng.UniformU64(10)) + "'";
              break;
          }
        }
        out += rng.Bernoulli(0.15) ? "/>" : ">";
        ++open_depth;
        break;
      }
      case 1:
        if (open_depth > 0 && rng.Bernoulli(0.7)) {
          out += "</";
          out += kTags[rng.UniformU64(13)];
          out += ">";
          --open_depth;
        }
        break;
      case 2:
        out += kFragments[rng.UniformU64(12)];
        break;
      case 3:
        out += "<script>var x = 'a < b';</script>";
        break;
      case 4:
        out += "word" + std::to_string(rng.UniformU64(1000)) + " ";
        break;
      default:
        out += "<img src=\"/i" + std::to_string(rng.UniformU64(50)) + ".jpg\">";
        break;
    }
  }
  return out;
}

// Tag soup dense in the tags that carry served refs, spelled every way the
// collector must treat like HtmlDocument does: any tag or attribute case,
// duplicate and valueless attributes, single, double or no quotes, rel
// values that are and are not "stylesheet", raw-text elements holding
// markup, and truncation mid-tag.
std::string GenerateRefSoup(Rng& rng, size_t target_size) {
  static const char* const kTags[] = {"a",      "A",     "link",   "LINK",  "Link",
                                      "img",    "IMG",   "script", "SCRIPT", "bgsound",
                                      "audio",  "iframe", "FRAME",  "div",   "style"};
  static const char* const kAttrs[] = {"href", "HREF", "src", "Src", "rel", "REL", "onclick",
                                       "class"};
  static const char* const kValues[] = {"stylesheet", "StyleSheet", "alternate stylesheet",
                                        "/a.html",    "x.css",      "http://o.com/i.jpg",
                                        "",           "a>b",        "say \"hi\""};
  std::string out;
  while (out.size() < target_size) {
    switch (rng.UniformU64(4)) {
      case 0:
      case 1: {
        out += "<";
        out += kTags[rng.UniformU64(std::size(kTags))];
        const size_t attrs = rng.UniformU64(4);
        for (size_t a = 0; a < attrs; ++a) {
          out += " ";
          out += kAttrs[rng.UniformU64(std::size(kAttrs))];
          const std::string value = kValues[rng.UniformU64(std::size(kValues))];
          switch (rng.UniformU64(4)) {
            case 0:
              break;  // Valueless.
            case 1:
              out += "=\"" + value + "\"";
              break;
            case 2:
              out += " = '" + value + "'";
              break;
            default:
              out += "=" + value.substr(0, value.find(' '));
              break;
          }
        }
        out += rng.Bernoulli(0.2) ? "/>" : ">";
        break;
      }
      case 2:
        out += rng.Bernoulli(0.5) ? "</a>" : "</script>";
        break;
      default:
        out += GenerateMessyHtml(rng, 40);
        break;
    }
  }
  if (rng.Bernoulli(0.3)) {
    out += "<link rel=stylesheet href=\"/cut";  // Truncated mid-tag.
  }
  return out;
}

class HtmlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HtmlFuzzTest, TokenizeSerializeFixedPoint) {
  Rng rng(GetParam());
  const std::string html = GenerateMessyHtml(rng, 2000 + rng.UniformU64(6000));
  const auto tokens = TokenizeHtml(html);
  const std::string once = SerializeHtml(tokens);
  const auto tokens2 = TokenizeHtml(once);
  const std::string twice = SerializeHtml(tokens2);
  // Serialization must reach a fixed point after one round.
  EXPECT_EQ(once, twice);
  ASSERT_EQ(tokens.size(), tokens2.size());
}

TEST_P(HtmlFuzzTest, DocumentQueriesNeverCrash) {
  Rng rng(GetParam() ^ 0xabcdef);
  const std::string html = GenerateMessyHtml(rng, 4000);
  HtmlDocument doc(html);
  const auto links = doc.Links();
  const auto visible = doc.VisibleLinks();
  EXPECT_LE(visible.size(), links.size());
  (void)doc.EmbeddedObjects();
  (void)doc.InlineScripts();
  (void)doc.BodyEventHandler("onmousemove");
}

TEST_P(HtmlFuzzTest, InstrumentationSurvivesAndProbesLand) {
  Rng rng(GetParam() ^ 0x123456);
  const std::string html = GenerateMessyHtml(rng, 3000);
  InjectionPlan plan;
  plan.beacon_script_url = "http://e.com/__rd/js_t.js";
  plan.mouse_handler_code = "return d();";
  plan.ua_echo_script = "var a = 1;";
  plan.css_probe_url = "http://e.com/__rd/cp_t.css";
  plan.hidden_link_url = "http://e.com/__rd/hl_t.html";
  plan.transparent_image_url = "http://e.com/__rd/ti.jpg";
  const InjectionResult result = InstrumentHtml(html, plan);
  // Early and late insertions always land, whatever the document shape.
  EXPECT_TRUE(result.injected_beacon_script);
  EXPECT_TRUE(result.injected_css_probe);
  EXPECT_TRUE(result.injected_hidden_link);
  // The instrumented output is still parseable and carries the probes.
  HtmlDocument doc(result.html);
  bool has_probe = false;
  for (const EmbedRef& e : doc.EmbeddedObjects()) {
    has_probe |= e.url == plan.css_probe_url;
  }
  EXPECT_TRUE(has_probe);
}

// The proxy records served links and embeds with the streaming collector;
// on messy pages, raw and instrumented, it must agree with HtmlDocument
// entry for entry and in order.
TEST_P(HtmlFuzzTest, ServedRefsMatchDocument) {
  Rng rng(GetParam() ^ 0x5e77ed);
  InjectionPlan plan;
  plan.beacon_script_url = "http://e.com/__rd/js_t.js";
  plan.mouse_handler_code = "return d();";
  plan.hook_links = true;
  plan.ua_echo_script = "document.write('<link rel=\"stylesheet\" href=\"/u.css\">');";
  plan.css_probe_url = "http://e.com/__rd/cp_t.css";
  plan.audio_probe_url = "http://e.com/__rd/ap_t.wav";
  plan.hidden_link_url = "http://e.com/__rd/hl_t.html";
  plan.transparent_image_url = "http://e.com/__rd/ti.jpg";
  for (int i = 0; i < 8; ++i) {
    const std::string html = i % 2 == 0 ? GenerateMessyHtml(rng, 500 + rng.UniformU64(3000))
                                        : GenerateRefSoup(rng, 500 + rng.UniformU64(3000));
    ExpectServedRefsMatchDocument(html);
    ExpectServedRefsMatchDocument(InstrumentHtml(html, plan).html);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtmlFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                                           13u, 14u, 15u, 16u));

}  // namespace
}  // namespace robodet
