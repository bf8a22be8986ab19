// Parity oracle for the streaming served-ref collector: on any document,
// CollectServedRefs must return exactly the hrefs of HtmlDocument::Links()
// and the urls of HtmlDocument::EmbeddedObjects(), in the same order.
#ifndef ROBODET_TESTS_HTML_SERVED_REFS_TEST_UTIL_H_
#define ROBODET_TESTS_HTML_SERVED_REFS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/html/document.h"

namespace robodet {

inline void ExpectServedRefsMatchDocument(std::string_view html) {
  const HtmlDocument doc(html);
  std::vector<std::string> links;
  for (const LinkRef& link : doc.Links()) {
    links.push_back(link.href);
  }
  std::vector<std::string> embeds;
  for (const EmbedRef& embed : doc.EmbeddedObjects()) {
    embeds.push_back(embed.url);
  }
  const ServedRefs refs = CollectServedRefs(html);
  EXPECT_EQ(std::vector<std::string>(refs.links.begin(), refs.links.end()), links) << html;
  EXPECT_EQ(std::vector<std::string>(refs.embeds.begin(), refs.embeds.end()), embeds) << html;
}

}  // namespace robodet

#endif  // ROBODET_TESTS_HTML_SERVED_REFS_TEST_UTIL_H_
