// Pins HtmlDocument's answers on fixed inputs: a digest of every query
// (Links with href, hidden-ness and onclick; EmbeddedObjects with kind and
// url; InlineScripts; the body's onmousemove handler) over the curated
// corpus, the fuzz generators' messy and ref-dense documents, site pages
// raw and instrumented, and a page of unclosed anchors. The simulated
// clients decide what to fetch from these answers, so any change to them
// shows up here before it moves a table or figure.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/html/document.h"
#include "src/html/injector.h"
#include "src/site/site_model.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "tests/html/html_corpus.h"

namespace robodet {
namespace {

uint64_t DigestDocument(std::string_view html, uint64_t h) {
  const HtmlDocument doc(html);
  const auto& links = doc.Links();
  h = HashCombine(h, links.size());
  for (const LinkRef& link : links) {
    h = Fnv1a(link.href, h);
    h = HashCombine(h, link.hidden ? 1 : 0);
    h = Fnv1a(link.onclick, h);
  }
  const auto& embeds = doc.EmbeddedObjects();
  h = HashCombine(h, embeds.size());
  for (const EmbedRef& embed : embeds) {
    h = HashCombine(h, static_cast<uint64_t>(embed.kind));
    h = Fnv1a(embed.url, h);
  }
  const auto& scripts = doc.InlineScripts();
  h = HashCombine(h, scripts.size());
  for (const std::string& code : scripts) {
    h = Fnv1a(code, h);
  }
  return Fnv1a(doc.BodyEventHandler(), HashCombine(h, 0x626f6479));
}

InjectionPlan ProbePlan() {
  InjectionPlan plan;
  plan.beacon_script_url = "http://e.com/__rd/js_t.js";
  plan.mouse_handler_code = "return d();";
  plan.hook_links = true;
  plan.ua_echo_script = "document.write('<link rel=\"stylesheet\" href=\"/u.css\">');";
  plan.css_probe_url = "http://e.com/__rd/cp_t.css";
  plan.audio_probe_url = "http://e.com/__rd/ap_t.wav";
  plan.hidden_link_url = "http://e.com/__rd/hl_t.html";
  plan.transparent_image_url = "http://e.com/__rd/ti.jpg";
  return plan;
}

// Digest of `html` raw and as instrumented by ProbePlan().
uint64_t DigestRawAndInstrumented(std::string_view html, uint64_t h) {
  h = DigestDocument(html, h);
  return DigestDocument(InstrumentHtml(html, ProbePlan()).html, h);
}

TEST(HtmlDocumentDigestTest, Corpus) {
  uint64_t h = kFnvOffset;
  for (const char* doc : kCorpus) {
    h = DigestRawAndInstrumented(doc, h);
  }
  EXPECT_EQ(h, 0x39fd03a073639f56ULL) << std::hex << "0x" << h;
}

// The documents fuzz_test's DocumentQueriesNeverCrash and
// ServedRefsMatchDocument read, seed for seed.
TEST(HtmlDocumentDigestTest, FuzzDocuments) {
  uint64_t h = kFnvOffset;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng messy_rng(seed ^ 0xabcdef);
    h = DigestDocument(GenerateMessyHtml(messy_rng, 4000), h);
    Rng rng(seed ^ 0x5e77ed);
    for (int i = 0; i < 8; ++i) {
      const std::string html = i % 2 == 0 ? GenerateMessyHtml(rng, 500 + rng.UniformU64(3000))
                                          : GenerateRefSoup(rng, 500 + rng.UniformU64(3000));
      h = DigestRawAndInstrumented(html, h);
    }
  }
  EXPECT_EQ(h, 0xaa31c6fc1f80f8ddULL) << std::hex << "0x" << h;
}

TEST(HtmlDocumentDigestTest, SitePages) {
  Rng site_rng(11);
  const SiteModel site = SiteModel::Generate(SiteConfig{}, site_rng);
  uint64_t h = kFnvOffset;
  for (PageId id = 0; id < 50; ++id) {
    h = DigestRawAndInstrumented(site.RenderPage(id), h);
  }
  EXPECT_EQ(h, 0x2a14d68711fc7e88ULL) << std::hex << "0x" << h;
}

// 5,000 anchors, none closed: each anchor's content runs to the end of the
// page, so the first half (followed by text) is visible and the second half
// (followed only by 1x1 images) is hidden.
TEST(HtmlDocumentDigestTest, UnclosedAnchors) {
  std::string html = "<html><body>";
  for (int i = 0; i < 5000; ++i) {
    html += "<a href=\"/u" + std::to_string(i) + ".html\"";
    html += i % 7 == 0 ? " onclick=\"go()\">" : ">";
    html += i < 2500 ? "word " : "<img src=\"/t.gif\" width=\"1\" height=\"1\">";
  }
  html += "</body></html>";
  const HtmlDocument doc(html);
  ASSERT_EQ(doc.Links().size(), 5000u);
  EXPECT_FALSE(doc.Links()[2499].hidden);
  EXPECT_TRUE(doc.Links()[2500].hidden);
  const uint64_t h = DigestDocument(html, kFnvOffset);
  EXPECT_EQ(h, 0x2c63876438bdb590ULL) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace robodet
