#include "src/proxy/captcha.h"

#include <gtest/gtest.h>

namespace robodet {
namespace {

class CaptchaTest : public ::testing::Test {
 protected:
  CaptchaTest() : rng_(1), minter_(0xabc, &rng_), service_(&minter_) {}

  Rng rng_;
  TokenMinter minter_;
  CaptchaService service_;
};

TEST_F(CaptchaTest, IssueAndVerifyRoundTrip) {
  const std::string token = service_.IssueChallenge(1);
  const std::string answer = service_.ExpectedAnswer(token);
  EXPECT_EQ(answer.size(), 6u);
  EXPECT_TRUE(service_.CheckAnswer(token, answer));
}

TEST_F(CaptchaTest, WrongAnswerFails) {
  const std::string token = service_.IssueChallenge(2);
  EXPECT_FALSE(service_.CheckAnswer(token, "000000x"));
  EXPECT_FALSE(service_.CheckAnswer(token, ""));
}

TEST_F(CaptchaTest, ForgedTokenFails) {
  EXPECT_FALSE(service_.CheckAnswer(std::string(24, 'a'), "123456"));
}

TEST_F(CaptchaTest, AnswerIsDeterministicPerToken) {
  const std::string token = service_.IssueChallenge(3);
  EXPECT_EQ(service_.ExpectedAnswer(token), service_.ExpectedAnswer(token));
  const std::string other = service_.IssueChallenge(4);
  // Overwhelmingly likely to differ.
  EXPECT_NE(service_.ExpectedAnswer(token), service_.ExpectedAnswer(other));
}

TEST_F(CaptchaTest, RenderedChallengeCarriesReadableAnswer) {
  const std::string token = service_.IssueChallenge(5);
  const std::string body = service_.RenderChallenge(token, "http://e.com/__rd/");
  const auto read = CaptchaService::ReadAnswerFromBody(body);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, service_.ExpectedAnswer(token));
  // Submission link present.
  EXPECT_NE(body.find("captcha_" + token + ".cgi?ans="), std::string::npos);
}

TEST_F(CaptchaTest, ReadAnswerFromGarbageBody) {
  EXPECT_FALSE(CaptchaService::ReadAnswerFromBody("<html>no marker</html>").has_value());
  EXPECT_FALSE(CaptchaService::ReadAnswerFromBody("").has_value());
}

}  // namespace
}  // namespace robodet
