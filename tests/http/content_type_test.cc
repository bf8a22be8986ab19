#include "src/http/content_type.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

struct ClassifyCase {
  const char* url;
  ResourceKind expected;
};

class ClassifyUrlTest : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(ClassifyUrlTest, Classifies) {
  const auto url = Url::Parse(GetParam().url);
  ASSERT_TRUE(url.has_value()) << GetParam().url;
  EXPECT_EQ(ClassifyUrl(*url), GetParam().expected) << GetParam().url;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ClassifyUrlTest,
    ::testing::Values(
        ClassifyCase{"http://e.com/index.html", ResourceKind::kHtml},
        ClassifyCase{"http://e.com/page.HTM", ResourceKind::kHtml},
        ClassifyCase{"http://e.com/bare", ResourceKind::kHtml},
        ClassifyCase{"http://e.com/", ResourceKind::kHtml},
        ClassifyCase{"http://e.com/style.css", ResourceKind::kCss},
        ClassifyCase{"http://e.com/app.js", ResourceKind::kJavaScript},
        ClassifyCase{"http://e.com/pic.jpg", ResourceKind::kImage},
        ClassifyCase{"http://e.com/pic.PNG", ResourceKind::kImage},
        ClassifyCase{"http://e.com/x.gif", ResourceKind::kImage},
        ClassifyCase{"http://e.com/snd.wav", ResourceKind::kAudio},
        ClassifyCase{"http://e.com/favicon.ico", ResourceKind::kFavicon},
        ClassifyCase{"http://e.com/sub/favicon.ico", ResourceKind::kFavicon},
        ClassifyCase{"http://e.com/robots.txt", ResourceKind::kRobotsTxt},
        ClassifyCase{"http://e.com/cgi-bin/app.cgi", ResourceKind::kCgi},
        ClassifyCase{"http://e.com/search.php", ResourceKind::kCgi},
        ClassifyCase{"http://e.com/page.html?q=1", ResourceKind::kCgi},
        ClassifyCase{"http://e.com/x.asp", ResourceKind::kCgi},
        ClassifyCase{"http://e.com/data.bin", ResourceKind::kOther},
        ClassifyCase{"http://e.com/archive.zip", ResourceKind::kOther}));

TEST(ContentTypeTest, MimeTypes) {
  EXPECT_EQ(MimeTypeFor(ResourceKind::kHtml), "text/html");
  EXPECT_EQ(MimeTypeFor(ResourceKind::kCss), "text/css");
  EXPECT_EQ(MimeTypeFor(ResourceKind::kJavaScript), "application/javascript");
  EXPECT_EQ(MimeTypeFor(ResourceKind::kRobotsTxt), "text/plain");
}

}  // namespace
}  // namespace robodet
