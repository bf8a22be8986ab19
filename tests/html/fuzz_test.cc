// Failure injection for the HTML path: seeded pseudo-random documents —
// including pathological ones — must tokenize without crashing, reach a
// serialization fixed point, and survive instrumentation. The proxy
// rewrites whatever HTML origins emit, so "forgiving" is a correctness
// requirement, not a nicety.
#include <gtest/gtest.h>

#include "src/html/document.h"
#include "src/html/injector.h"
#include "src/html/tokenizer.h"
#include "src/util/rng.h"
#include "tests/html/html_corpus.h"
#include "tests/html/served_refs_test_util.h"

namespace robodet {
namespace {

class HtmlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// Serializes every view of `html`; returns the token count in *count.
std::string RoundTrip(std::string_view html, size_t* count) {
  std::string out;
  *count = 0;
  HtmlTokenStream stream(html);
  HtmlTokenView v;
  while (stream.Next(v)) {
    AppendTokenView(out, v);
    ++*count;
  }
  return out;
}

TEST_P(HtmlFuzzTest, TokenizeSerializeFixedPoint) {
  Rng rng(GetParam());
  const std::string html = GenerateMessyHtml(rng, 2000 + rng.UniformU64(6000));
  size_t tokens = 0;
  size_t tokens2 = 0;
  const std::string once = RoundTrip(html, &tokens);
  const std::string twice = RoundTrip(once, &tokens2);
  // Serialization must reach a fixed point after one round.
  EXPECT_EQ(once, twice);
  ASSERT_EQ(tokens, tokens2);
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
  (void)doc.BodyEventHandler();
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
  // Early and late insertions always land, whatever the document shape (a
  // late one may land inside an element the page never closed).
  EXPECT_NE(result.html.find(plan.beacon_script_url), std::string::npos);
  EXPECT_NE(result.html.find(plan.hidden_link_url), std::string::npos);
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

// The refs InstrumentHtml finds in its one walk equal a second read of its
// output, on messy pages, under a full plan with link hooks and audio, the
// same without hooks, and a beacon-only plan.
TEST_P(HtmlFuzzTest, RewriteRefsMatchRescan) {
  Rng rng(GetParam() ^ 0x0e3a1c);
  InjectionPlan hooked;
  hooked.beacon_script_url = "http://e.com/__rd/js_t.js";
  hooked.mouse_handler_code = "return d(\"x\");";
  hooked.hook_links = true;
  hooked.ua_echo_script = "document.write('<link rel=\"stylesheet\" href=\"/u.css\">');";
  hooked.css_probe_url = "http://e.com/__rd/cp_t.css";
  hooked.audio_probe_url = "http://e.com/__rd/ap_t.wav";
  hooked.hidden_link_url = "http://e.com/__rd/hl_t.html";
  hooked.transparent_image_url = "http://e.com/__rd/ti.jpg";
  InjectionPlan unhooked = hooked;
  unhooked.hook_links = false;
  InjectionPlan beacon_only;
  beacon_only.beacon_script_url = hooked.beacon_script_url;
  beacon_only.mouse_handler_code = hooked.mouse_handler_code;
  for (int i = 0; i < 8; ++i) {
    const std::string html = i % 2 == 0 ? GenerateMessyHtml(rng, 500 + rng.UniformU64(3000))
                                        : GenerateRefSoup(rng, 500 + rng.UniformU64(3000));
    for (const InjectionPlan* plan : {&hooked, &unhooked, &beacon_only}) {
      ExpectRewriteRefsMatchRescan(html, *plan);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtmlFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                                           13u, 14u, 15u, 16u));

}  // namespace
}  // namespace robodet
