// Property test of the string-free URL hashes the proxy keys its session
// URL sets by: for every ref, Url::ResolveHash(ref) must equal the hash of
// the canonical string Resolve builds, and Url::Hash() that of ToString().
// The refs come from the HTML corpus and its seeded generators, from every
// page of a generated site, from hand-picked edge cases and from seeded
// random refs mixing "://", "//", '?', '#', ".." and empty parts.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/html/document.h"
#include "src/http/url.h"
#include "src/site/site_model.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "tests/html/html_corpus.h"

namespace robodet {
namespace {

// Bases of every shape the hashes spell: default and explicit ports, both
// schemes, a query, a fragment, the root and a directory.
std::vector<Url> Bases() {
  std::vector<Url> bases;
  for (const char* raw :
       {"http://www.example.com/dir/page.html", "https://Host.Example.COM:8443/a/b.cgi?x=1#frag",
        "http://e.com/", "http://e.com:8080/deep/er/", "https://e.com/p?", "http://e.com/p#"}) {
    bases.push_back(*Url::Parse(raw));
  }
  bases.push_back(Url::Make("Mixed.Case.Host", "/p/1.html", "a=1"));
  return bases;
}

void ExpectHashesMatch(const Url& base, std::string_view ref) {
  const Url resolved = base.Resolve(ref);
  const uint64_t expected = Fnv1a(resolved.ToString());
  ASSERT_EQ(base.ResolveHash(ref), expected)
      << "base " << base.ToString() << " ref '" << ref << "'";
  ASSERT_EQ(resolved.Hash(), expected) << "resolved " << resolved.ToString();
}

void ExpectServedRefsMatch(std::string_view html) {
  const ServedRefs refs = CollectServedRefs(html);
  for (const Url& base : Bases()) {
    for (const HtmlSpan& span : refs.links) {
      ExpectHashesMatch(base, span.In(html));
    }
    for (const HtmlSpan& span : refs.embeds) {
      ExpectHashesMatch(base, span.In(html));
    }
  }
}

TEST(UrlResolveHashTest, BasesHashTheirCanonicalForm) {
  for (const Url& base : Bases()) {
    EXPECT_EQ(base.Hash(), Fnv1a(base.ToString())) << base.ToString();
  }
  EXPECT_EQ(Url().Hash(), Fnv1a(Url().ToString()));
}

TEST(UrlResolveHashTest, CorpusRefs) {
  for (const char* html : kCorpus) {
    ExpectServedRefsMatch(html);
  }
  Rng rng(2024);
  for (int i = 0; i < 40; ++i) {
    ExpectServedRefsMatch(GenerateMessyHtml(rng, 2048));
    ExpectServedRefsMatch(GenerateRefSoup(rng, 2048));
  }
}

TEST(UrlResolveHashTest, SitePageRefs) {
  Rng rng(7);
  const SiteModel site = SiteModel::Generate(SiteConfig{}, rng);
  size_t refs = 0;
  for (PageId id = 0; id < site.page_count(); ++id) {
    const std::string html = site.RenderPage(id);
    const Url page_url = Url::Make(site.host(), site.page(id).path);
    const ServedRefs served = CollectServedRefs(html);
    for (const HtmlSpan& span : served.links) {
      ExpectHashesMatch(page_url, span.In(html));
    }
    for (const HtmlSpan& span : served.embeds) {
      ExpectHashesMatch(page_url, span.In(html));
    }
    refs += served.links.size() + served.embeds.size();
  }
  EXPECT_GT(refs, site.page_count());
}

TEST(UrlResolveHashTest, EdgeCaseRefs) {
  for (const char* ref :
       {"", "?", "#", "?#", "/", "//", "///", "//h", "//h:", "//h:0", "//h:65536", "//h:80/",
        "//h:8080?q#f", "/go?u=http://other.com/x", "next.html?to=https://a.b/",
        "//cdn.example.com/a.js", "http:", "http:/x", "http://", "http://h", "HTTPS://H:443",
        "ftp://h/x", "mailto:a@b", "javascript:void(0)", "a:b", "1a:b", "a/b:c", "../x",
        "./x", "x/../../y", "..", "?a=b?c=d", "#a#b", "x#y?z", " spaced ", "%41"}) {
    for (const Url& base : Bases()) {
      ExpectHashesMatch(base, ref);
    }
  }
}

TEST(UrlResolveHashTest, SeededRandomRefs) {
  static const char* const kPieces[] = {"://", "//", "/", "?", "#", "..", ".", ":", "http",
                                        "HTTPS", "h.com", ":8080", "a", "Z9", "", "=", "&",
                                        "%2F", "-", "_", "+"};
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    std::string ref;
    for (size_t k = rng.UniformU64(8); k > 0; --k) {
      ref += kPieces[rng.UniformU64(std::size(kPieces))];
    }
    for (const Url& base : Bases()) {
      ExpectHashesMatch(base, ref);
    }
  }
}

}  // namespace
}  // namespace robodet
