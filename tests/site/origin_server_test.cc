#include "src/site/origin_server.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

class OriginServerTest : public ::testing::Test {
 protected:
  OriginServerTest() {
    SiteConfig config;
    config.num_pages = 20;
    Rng rng(5);
    site_ = SiteModel::Generate(config, rng);
    server_ = std::make_unique<OriginServer>(&site_);
  }

  Request MakeRequest(const std::string& path, const std::string& query = "") {
    Request r;
    r.client_ip = IpAddress(1);
    r.url = Url::Make(site_.host(), path, query);
    return r;
  }

  // The number of posts the board page shows (at most the 100 newest).
  size_t PostsShown() {
    const std::string body = server_->Handle(MakeRequest(SiteModel::BoardPath())).body;
    constexpr std::string_view kPost = "<p class=\"post\">";
    size_t count = 0;
    for (size_t at = body.find(kPost); at != std::string::npos; at = body.find(kPost, at + 1)) {
      ++count;
    }
    return count;
  }

  SiteModel site_;
  std::unique_ptr<OriginServer> server_;
};

TEST_F(OriginServerTest, ServesPages) {
  const Response r = server_->Handle(MakeRequest("/p/3.html"));
  EXPECT_EQ(r.status, StatusCode::kOk);
  EXPECT_TRUE(r.IsHtml());
  EXPECT_NE(r.body.find("Page 3"), std::string::npos);
}

TEST_F(OriginServerTest, HeadRequestHasEmptyBody) {
  Request req = MakeRequest("/p/3.html");
  req.method = Method::kHead;
  const Response r = server_->Handle(req);
  EXPECT_EQ(r.status, StatusCode::kOk);
  EXPECT_TRUE(r.body.empty());
}

TEST_F(OriginServerTest, CgiRespondsAndSometimesRedirects) {
  int redirects = 0;
  int oks = 0;
  for (int i = 0; i < 200; ++i) {
    const Response r =
        server_->Handle(MakeRequest(site_.CgiPath(0), "q=" + std::to_string(i)));
    if (Is3xx(r.status)) {
      ++redirects;
    } else {
      EXPECT_EQ(r.status, StatusCode::kOk);
      ++oks;
    }
  }
  EXPECT_GT(redirects, 10);  // ~25% redirect.
  EXPECT_GT(oks, 100);
}

TEST_F(OriginServerTest, CgiIsDeterministicPerUrl) {
  const Response a = server_->Handle(MakeRequest(site_.CgiPath(1), "q=7"));
  const Response b = server_->Handle(MakeRequest(site_.CgiPath(1), "q=7"));
  EXPECT_EQ(StatusValue(a.status), StatusValue(b.status));
}

TEST_F(OriginServerTest, StaticAssets) {
  EXPECT_EQ(server_->Handle(MakeRequest(site_.css_path())).ContentType(), "text/css");
  EXPECT_EQ(server_->Handle(MakeRequest(site_.js_path())).ContentType(),
            "application/javascript");
  EXPECT_EQ(server_->Handle(MakeRequest("/favicon.ico")).ContentType(), "image/x-icon");
  const Response robots = server_->Handle(MakeRequest("/robots.txt"));
  EXPECT_NE(robots.body.find("Disallow"), std::string::npos);
}

TEST_F(OriginServerTest, KnownImagesServed) {
  const Response r = server_->Handle(MakeRequest("/img/i0.jpg"));
  EXPECT_EQ(r.status, StatusCode::kOk);
  EXPECT_EQ(r.ContentType(), "image/jpeg");
  EXPECT_GE(r.body.size(), 2000u);
}

TEST_F(OriginServerTest, UnknownPathIs404) {
  const Response r = server_->Handle(MakeRequest("/no/such/thing.html"));
  EXPECT_EQ(r.status, StatusCode::kNotFound);
}

TEST_F(OriginServerTest, VulnProbesAre404OrCgi) {
  const Response r = server_->Handle(MakeRequest("/phpmyadmin/index.php"));
  // .php paths classify as CGI; the origin has no such app -> it falls to
  // the CGI handler (which answers) or 404 depending on path shape. Either
  // way the server must not crash and must answer something coherent.
  EXPECT_TRUE(Is2xx(r.status) || Is3xx(r.status) || Is4xx(r.status));
}

TEST_F(OriginServerTest, BoardRendersAndAcceptsPosts) {
  // Empty board renders with the form.
  const Response empty = server_->Handle(MakeRequest(SiteModel::BoardPath()));
  EXPECT_EQ(empty.status, StatusCode::kOk);
  EXPECT_NE(empty.body.find("<form"), std::string::npos);

  // POST a message; expect a redirect back to the board.
  Request post = MakeRequest(SiteModel::BoardPostPath());
  post.method = Method::kPost;
  post.body = "msg=hello world";
  const Response posted = server_->Handle(post);
  EXPECT_EQ(posted.status, StatusCode::kFound);
  EXPECT_EQ(PostsShown(), 1u);

  // The message shows up, HTML-escaped.
  Request evil = MakeRequest(SiteModel::BoardPostPath());
  evil.method = Method::kPost;
  evil.body = "<script>alert(1)</script>";
  server_->Handle(evil);
  const Response board = server_->Handle(MakeRequest(SiteModel::BoardPath()));
  EXPECT_NE(board.body.find("msg=hello world"), std::string::npos);
  EXPECT_EQ(board.body.find("<script>alert"), std::string::npos);
  EXPECT_NE(board.body.find("&lt;script&gt;"), std::string::npos);
}

TEST_F(OriginServerTest, BoardRejectsBodylessPost) {
  Request get_post = MakeRequest(SiteModel::BoardPostPath());
  get_post.method = Method::kPost;  // Empty body.
  EXPECT_EQ(server_->Handle(get_post).status, StatusCode::kBadRequest);
  EXPECT_EQ(server_->Handle(MakeRequest(SiteModel::BoardPostPath())).status,
            StatusCode::kBadRequest);  // GET.
  EXPECT_EQ(PostsShown(), 0u);
}

TEST_F(OriginServerTest, BoardCapsStoredPosts) {
  for (int i = 0; i < 150; ++i) {
    Request post = MakeRequest(SiteModel::BoardPostPath());
    post.method = Method::kPost;
    post.body = "msg=" + std::to_string(i);
    server_->Handle(post);
  }
  EXPECT_EQ(PostsShown(), 100u);
  const Response board = server_->Handle(MakeRequest(SiteModel::BoardPath()));
  EXPECT_EQ(board.body.find("msg=5<"), std::string::npos);        // Scrolled off.
  EXPECT_NE(board.body.find("msg=149"), std::string::npos);       // Recent kept.
}

}  // namespace
}  // namespace robodet
