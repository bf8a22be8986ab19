// Parity oracles for served refs: on any document, CollectServedRefs must
// return exactly the hrefs of HtmlDocument::Links() and the urls of
// HtmlDocument::EmbeddedObjects(), in the same order; and InstrumentHtml's
// refs must be CollectServedRefs of its output.
#ifndef ROBODET_TESTS_HTML_SERVED_REFS_TEST_UTIL_H_
#define ROBODET_TESTS_HTML_SERVED_REFS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/html/document.h"
#include "src/html/injector.h"

namespace robodet {

// The bytes of each span of `html`, in order.
inline std::vector<std::string> ServedRefTexts(std::string_view html,
                                               const std::vector<HtmlSpan>& spans) {
  std::vector<std::string> texts;
  for (const HtmlSpan& span : spans) {
    texts.emplace_back(span.In(html));
  }
  return texts;
}

inline void ExpectServedRefsMatchDocument(std::string_view html) {
  const ServedRefs refs = CollectServedRefs(html);
  const HtmlDocument doc(html);
  std::vector<std::string> links;
  for (const LinkRef& link : doc.Links()) {
    links.push_back(link.href);
  }
  std::vector<std::string> embeds;
  for (const EmbedRef& embed : doc.EmbeddedObjects()) {
    embeds.push_back(embed.url);
  }
  EXPECT_EQ(ServedRefTexts(html, refs.links), links) << html;
  EXPECT_EQ(ServedRefTexts(html, refs.embeds), embeds) << html;
}

// One-walk parity: the refs InstrumentHtml finds during its rewrite must be
// exactly CollectServedRefs of its output — same spans, same order.
inline void ExpectRewriteRefsMatchRescan(std::string_view html, const InjectionPlan& plan) {
  const InjectionResult result = InstrumentHtml(html, plan);
  const ServedRefs rescanned = CollectServedRefs(result.html);
  EXPECT_EQ(ServedRefTexts(result.html, result.refs.links),
            ServedRefTexts(result.html, rescanned.links))
      << html;
  EXPECT_EQ(ServedRefTexts(result.html, result.refs.embeds),
            ServedRefTexts(result.html, rescanned.embeds))
      << html;
  EXPECT_TRUE(result.refs == rescanned) << html;
}

}  // namespace robodet

#endif  // ROBODET_TESTS_HTML_SERVED_REFS_TEST_UTIL_H_
