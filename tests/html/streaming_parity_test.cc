// Golden parity corpus: the streaming single-pass rewriter must produce
// byte-identical output to the reference tokenize→inject→serialize
// algorithm (tests/html/reference_rewriter) on every document — well-formed
// pages, tag soup, truncated markup, quote abuse, raw-text edge cases. The
// streaming path is the serve path; the reference is the oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/html/injector.h"
#include "src/html/tokenizer.h"
#include "src/site/site_model.h"
#include "src/util/rng.h"
#include "tests/html/html_corpus.h"
#include "tests/html/reference_rewriter.h"
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

  return plans;
}

TEST(StreamingParityTest, CorpusByteIdentical) {
  const std::vector<InjectionPlan> plans = Plans();
  ASSERT_GE(std::size(kCorpus), 20u);
  for (size_t d = 0; d < std::size(kCorpus); ++d) {
    for (size_t p = 0; p < plans.size(); ++p) {
      const InjectionResult expected = reference::InstrumentHtml(kCorpus[d], plans[p]);
      const InjectionResult streaming = InstrumentHtml(kCorpus[d], plans[p]);
      EXPECT_EQ(expected.html, streaming.html) << "doc " << d + 1 << " plan " << p;
      EXPECT_EQ(expected.added_bytes, streaming.added_bytes) << "doc " << d + 1 << " plan " << p;
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

// The refs the rewrite finds in its one walk are the refs a second read of
// its output finds, on every corpus document under every plan.
TEST(StreamingParityTest, CorpusRewriteRefsMatchRescan) {
  for (const char* doc : kCorpus) {
    for (const InjectionPlan& plan : Plans()) {
      ExpectRewriteRefsMatchRescan(doc, plan);
    }
  }
}

// Documents that end where a reader's state matters to the insertions: in
// an unclosed raw-text element (the late blob then lands inside it), an
// uppercase close tag, an unclosed tag, a '"' inside an unquoted value.
TEST(StreamingParityTest, EdgeDocumentRewriteRefsMatchRescan) {
  const char* const kEdgeDocs[] = {
      "<html><head><SCRIPT src=/a.js>var x = 1;</SCRIPT></head><body><a href=/n>n</a></body>",
      "<html><body><a href=/n>n</a><script>var x = 1;",
      "<html><body><a href=/n>n</a><script src=/s.js>if (a</scrip",
      "<html><body><img src=/i.jpg><style>p { color: red }",
      "<body><STYLE>a{}</STYLE><a href=/x>x</a><SCRIPT>y()</SCRIPT x>",
      "<a href=/x\"y>q</a><img src=a\"b\"c><link rel=stylesheet href=s\"t.css>",
      "<a href='/x\"y' onclick=go>q</a><a href=\"/z\" ONCLICK=\"f()\">z</a>",
      "<html><body><a href=\"/open",
      "<html><body><img src=/a.jpg",
      "<html><head><link REL=STYLESHEET HREF=/c.css><link rel=icon href=/f.ico>",
      "<head><script src=/a.js/></head><body><script/><a href>e</a><img src></body>",
      "<frameset><frame src=/f1><iframe src=/f2></iframe><bgsound src=/s><audio src=/au>",
      "text only <",
      "<p>tail</",
      "<a href=/1><a href=/2><img src=/3 width=1 height=1></a>",
      "",
  };
  std::vector<InjectionPlan> plans = Plans();
  InjectionPlan audio;
  audio.audio_probe_url = "/__rd/ap_1.wav";
  plans.push_back(audio);
  for (const char* doc : kEdgeDocs) {
    for (const InjectionPlan& plan : plans) {
      ExpectRewriteRefsMatchRescan(doc, plan);
    }
  }
}

// The streaming serializer over the token stream must reproduce the
// reference's SerializeHtml(TokenizeHtml(doc)) byte-for-byte.
TEST(StreamingParityTest, StreamSerializationMatchesMaterialized) {
  for (const char* doc : kCorpus) {
    std::string streamed;
    HtmlTokenStream stream(doc);
    HtmlTokenView v;
    while (stream.Next(v)) {
      AppendTokenView(streamed, v);
    }
    EXPECT_EQ(reference::SerializeHtml(reference::TokenizeHtml(doc)), streamed) << doc;
  }
}

// The reference's owned tokens must agree with the stream token-by-token.
TEST(StreamingParityTest, ReferenceTokensMatchStreamTokens) {
  for (const char* doc : kCorpus) {
    const std::vector<reference::HtmlToken> tokens = reference::TokenizeHtml(doc);
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
    const InjectionResult expected = reference::InstrumentHtml(doc, plan);
    const InjectionResult streaming = InstrumentHtml(doc, plan);
    ASSERT_EQ(expected.html, streaming.html) << "iter " << iter << "\ndoc:\n" << doc;
    ASSERT_EQ(expected.added_bytes, streaming.added_bytes) << "iter " << iter;
    ExpectRewriteRefsMatchRescan(doc, plan);
  }
}

// The site model's pages, as the proxy serves them.
TEST(StreamingParityTest, SitePagesRewriteRefsMatchRescan) {
  SiteConfig config;
  config.num_pages = 24;
  Rng site_rng(11);
  const SiteModel site = SiteModel::Generate(config, site_rng);
  const std::vector<InjectionPlan> plans = Plans();
  for (size_t page = 0; page < config.num_pages; ++page) {
    const std::string html = site.RenderPage(page);
    for (const InjectionPlan& plan : plans) {
      ExpectRewriteRefsMatchRescan(html, plan);
    }
  }
}

// The reference installs the body handler with SetAttr, which replaces the
// first attribute of that name in any case, or appends it lowercased.
TEST(ReferenceRewriterTest, SetAttrReplacesOrAppends) {
  reference::HtmlToken tok;
  tok.type = HtmlTokenType::kStartTag;
  tok.name = "body";
  tok.SetAttr("onmousemove", "f()");
  EXPECT_EQ(tok.Attr("onmousemove"), "f()");
  tok.SetAttr("OnMouseMove", "g()");
  EXPECT_EQ(tok.Attr("onmousemove"), "g()");
  EXPECT_EQ(tok.attrs.size(), 1u);
}

}  // namespace
}  // namespace robodet
