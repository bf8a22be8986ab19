// Golden parity corpus: the streaming single-pass rewriter must produce
// byte-identical output to the legacy tokenize→inject→serialize path on
// every document — well-formed pages, tag soup, truncated markup, quote
// abuse, raw-text edge cases. The streaming path is the serve path; the
// legacy path is the oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/html/injector.h"
#include "src/html/tokenizer.h"
#include "src/util/rng.h"
#include "tests/html/served_refs_test_util.h"

namespace robodet {
namespace {

InjectionPlan FullPlan() {
  InjectionPlan plan;
  plan.beacon_script_url = "/__rd/js_0729395150.js";
  plan.mouse_handler_code = "return rd_mm(event);";
  plan.ua_echo_script = "document.write('<img src=\"/__rd/ua_x.jpg\">');";
  plan.css_probe_url = "/__rd/cp_77.css";
  plan.audio_probe_url = "/__rd/ap_12.wav";
  plan.hidden_link_url = "/__rd/hl_9.html";
  plan.transparent_image_url = "/__rd/ti.jpg";
  return plan;
}

std::vector<InjectionPlan> Plans() {
  std::vector<InjectionPlan> plans;
  plans.push_back(FullPlan());

  InjectionPlan empty;
  plans.push_back(empty);

  InjectionPlan hooks = FullPlan();
  hooks.hook_links = true;
  plans.push_back(hooks);

  InjectionPlan beacon_only;
  beacon_only.beacon_script_url = "/__rd/js_1.js";
  plans.push_back(beacon_only);

  InjectionPlan quote_bomb = FullPlan();
  quote_bomb.mouse_handler_code = "alert(\"hi \\\"there\\\"\");";
  quote_bomb.hook_links = true;
  plans.push_back(quote_bomb);

  InjectionPlan custom_event = FullPlan();
  custom_event.mouse_event = "OnMouseOver";
  plans.push_back(custom_event);

  return plans;
}

// ≥20 documents spanning the tokenizer's grammar and its forgiveness rules.
const char* const kCorpus[] = {
    // 1: canonical well-formed page.
    "<!DOCTYPE html><html><head><title>T</title></head>"
    "<body><p>hello</p><a href=\"/x\">x</a></body></html>",
    // 2: no head.
    "<html><body><p>no head</p></body></html>",
    // 3: no body, no head.
    "<div><span>bare fragment</span></div>",
    // 4: empty document.
    "",
    // 5: text only.
    "just words, no markup at all",
    // 6: comments, including one that never closes.
    "<html><!-- a comment --><body>x</body><!-- unterminated",
    // 7: doctype soup.
    "<!doctype HTML PUBLIC \"-//W3C//DTD HTML 4.01//EN\"><html><body>y</body></html>",
    // 8: script with markup inside (raw text).
    "<head><script>if (a < b) document.write(\"<p>hi</p>\");</script></head><body>z</body>",
    // 9: style with markup inside.
    "<style>a > b { color: red; }</style><body>s</body>",
    // 10: script that never closes.
    "<body><script>var x = 1; // and the tag never ends",
    // 11: uppercase everything.
    "<HTML><HEAD><TITLE>UP</TITLE></HEAD><BODY BGCOLOR=\"#fff\"><A HREF=\"/Y\">Y</A></BODY></HTML>",
    // 12: unquoted and single-quoted attributes.
    "<body text=black><a href=/plain class='c1'>go</a></body>",
    // 13: attribute values containing '>' and quotes.
    "<body><a href=\"/x?a>b\" title='say \"hi\"'>t</a></body>",
    // 14: valueless attributes and stray equals.
    "<body><input disabled readonly = ><a href>bare</a></body>",
    // 15: self-closing tags, with and without space.
    "<body><br/><img src=\"/i.png\" /><hr></body>",
    // 16: stray '<' characters and entities.
    "a < b && c << d <3 <<>> &amp; done",
    // 17: truncated tag at end of input.
    "<body><p>cut <a href=\"/x",
    // 18: truncated mid-attribute-value.
    "<body><img src=\"/half",
    // 19: end tags with attributes and self-closing end tags.
    "<body><p>x</p class=\"odd\"></body/></html>",
    // 20: body before head (pathological ordering).
    "<body>early</body><head><title>late</title></head>",
    // 21: multiple body tags — only the first takes the handler.
    "<body id=\"one\">a</body><body id=\"two\">b</body>",
    // 22: nested links with and without onclick.
    "<body><a href=\"/1\">1</a><a href=\"/2\" onclick=\"x()\">2</a>"
    "<a name=\"no-href\">3</a></body>",
    // 23: duplicate attributes.
    "<body class=\"a\" class=\"b\" onmousemove=\"old()\">dup</body>",
    // 24: mixed-case raw-text close tag (stays open, legacy quirk).
    "<body><script>var s = 1;</SCRIPT><p>after</p>",
    // 25: trailing '<'.
    "tail<",
    // 26: html close but no body close.
    "<html><body><p>unclosed</html>",
    // 27: script close tag with attributes.
    "<body><script>x()</script junk=\"1\"><p>rest</p></body>",
    // 28: comment that looks like a tag.
    "<!--<body>not a real body</body>--><div>real</div>",
};

TEST(StreamingParityTest, CorpusByteIdentical) {
  const std::vector<InjectionPlan> plans = Plans();
  ASSERT_GE(std::size(kCorpus), 20u);
  for (size_t d = 0; d < std::size(kCorpus); ++d) {
    for (size_t p = 0; p < plans.size(); ++p) {
      const InjectionResult legacy = InstrumentHtmlLegacy(kCorpus[d], plans[p]);
      const InjectionResult streaming = InstrumentHtml(kCorpus[d], plans[p]);
      EXPECT_EQ(legacy.html, streaming.html) << "doc " << d + 1 << " plan " << p;
      EXPECT_EQ(legacy.added_bytes, streaming.added_bytes) << "doc " << d + 1 << " plan " << p;
      EXPECT_EQ(legacy.injected_beacon_script, streaming.injected_beacon_script)
          << "doc " << d + 1 << " plan " << p;
      EXPECT_EQ(legacy.injected_mouse_handler, streaming.injected_mouse_handler)
          << "doc " << d + 1 << " plan " << p;
      EXPECT_EQ(legacy.injected_ua_echo, streaming.injected_ua_echo)
          << "doc " << d + 1 << " plan " << p;
      EXPECT_EQ(legacy.injected_css_probe, streaming.injected_css_probe)
          << "doc " << d + 1 << " plan " << p;
      EXPECT_EQ(legacy.injected_audio_probe, streaming.injected_audio_probe)
          << "doc " << d + 1 << " plan " << p;
      EXPECT_EQ(legacy.injected_hidden_link, streaming.injected_hidden_link)
          << "doc " << d + 1 << " plan " << p;
    }
  }
}

// The served-ref collector must agree with HtmlDocument on every corpus
// document, raw and as served under every plan.
TEST(StreamingParityTest, CorpusServedRefsMatchDocument) {
  const std::vector<InjectionPlan> plans = Plans();
  for (const char* doc : kCorpus) {
    ExpectServedRefsMatchDocument(doc);
    for (const InjectionPlan& plan : plans) {
      ExpectServedRefsMatchDocument(InstrumentHtml(doc, plan).html);
    }
  }
}

// The streaming serializer over the token stream must reproduce
// SerializeHtml(TokenizeHtml(doc)) byte-for-byte.
TEST(StreamingParityTest, StreamSerializationMatchesMaterialized) {
  for (const char* doc : kCorpus) {
    std::string streamed;
    HtmlTokenStream stream(doc);
    HtmlTokenView v;
    while (stream.Next(v)) {
      AppendTokenView(streamed, v);
    }
    EXPECT_EQ(SerializeHtml(TokenizeHtml(doc)), streamed) << doc;
  }
}

// The materializing shim must agree with the stream token-by-token.
TEST(StreamingParityTest, ShimTokensMatchStreamTokens) {
  for (const char* doc : kCorpus) {
    const std::vector<HtmlToken> tokens = TokenizeHtml(doc);
    HtmlTokenStream stream(doc);
    HtmlTokenView v;
    size_t i = 0;
    while (stream.Next(v)) {
      ASSERT_LT(i, tokens.size()) << doc;
      EXPECT_EQ(tokens[i].type, v.type) << doc << " token " << i;
      EXPECT_EQ(tokens[i].self_closing, v.self_closing) << doc << " token " << i;
      ++i;
    }
    EXPECT_EQ(i, tokens.size()) << doc;
  }
}

// Randomized tag soup: the corpus above is curated; this sweeps a few
// thousand generated documents through both paths.
std::string MessyHtml(Rng& rng, size_t target_size) {
  static const char* const kTags[] = {"div", "p",    "a",  "img",    "span",  "table", "td",
                                      "body", "head", "html", "li", "script", "style"};
  static const char* const kBits[] = {
      "text ",  "<",     "<<3 ",   "<!-- c -->", "<!DOCTYPE html>", "&amp; ",
      "\n\t ",  "a<b ",  "q\" ",   "=",          "<a href=broken",  "</",
  };
  std::string out;
  while (out.size() < target_size) {
    switch (rng.UniformU64(5)) {
      case 0: {
        out += "<";
        out += kTags[rng.UniformU64(std::size(kTags))];
        if (rng.Bernoulli(0.5)) {
          out += " href='/x" + std::to_string(rng.UniformU64(50)) + "'";
        }
        if (rng.Bernoulli(0.3)) {
          out += " onclick=go";
        }
        out += rng.Bernoulli(0.2) ? "/>" : ">";
        break;
      }
      case 1:
        out += "</";
        out += kTags[rng.UniformU64(std::size(kTags))];
        out += ">";
        break;
      case 2:
        out += kBits[rng.UniformU64(std::size(kBits))];
        break;
      case 3:
        out += "<script>if (x<1) y();</script>";
        break;
      default:
        out += "w" + std::to_string(rng.UniformU64(1000)) + " ";
        break;
    }
  }
  return out;
}

TEST(StreamingParityTest, RandomizedDocumentsByteIdentical) {
  const std::vector<InjectionPlan> plans = Plans();
  Rng rng(20060729);
  for (int iter = 0; iter < 400; ++iter) {
    const std::string doc = MessyHtml(rng, 64 + rng.UniformU64(2048));
    const InjectionPlan& plan = plans[static_cast<size_t>(iter) % plans.size()];
    const InjectionResult legacy = InstrumentHtmlLegacy(doc, plan);
    const InjectionResult streaming = InstrumentHtml(doc, plan);
    ASSERT_EQ(legacy.html, streaming.html) << "iter " << iter << "\ndoc:\n" << doc;
    ASSERT_EQ(legacy.added_bytes, streaming.added_bytes) << "iter " << iter;
    ASSERT_EQ(legacy.injected_mouse_handler, streaming.injected_mouse_handler) << "iter " << iter;
  }
}

}  // namespace
}  // namespace robodet
