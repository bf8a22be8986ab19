#include "src/proxy/captcha.h"

#include <cstdio>

#include "src/js/generator.h"

namespace robodet {

std::string CaptchaService::IssueChallenge(uint64_t entropy) {
  return minter_->MintFor(entropy);
}

std::string CaptchaService::RenderChallenge(std::string_view token,
                                            std::string_view submit_prefix) const {
  std::string html = "<html><head><title>Verification</title></head><body>\n";
  html += "<h1>Please verify you are human</h1>\n";
  html += "<p>Type the characters you see to receive higher bandwidth.</p>\n";
  // Stand-in for the distorted CAPTCHA image.
  html += "<!-- answer:" + ExpectedAnswer(token) + " -->\n";
  html += "<img src=\"" + ProbeUrl(submit_prefix, ProbeKind::kCaptchaImage, token) +
          "\" width=\"200\" height=\"60\">\n";
  html += "<a href=\"" + ProbeUrl(submit_prefix, ProbeKind::kCaptchaSubmit, token) +
          "?ans=\">Submit</a>\n";
  html += "</body></html>\n";
  return html;
}

std::string CaptchaService::ExpectedAnswer(std::string_view token) const {
  const uint64_t seed = minter_->SeedFor(token);
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%06llu", static_cast<unsigned long long>(seed % 1000000));
  return buf;
}

bool CaptchaService::CheckAnswer(std::string_view token, std::string_view answer) const {
  if (!minter_->Validate(token)) {
    return false;
  }
  return ExpectedAnswer(token) == answer;
}

std::optional<std::string> CaptchaService::ReadAnswerFromBody(std::string_view body) {
  constexpr std::string_view kMarker = "<!-- answer:";
  const size_t at = body.find(kMarker);
  if (at == std::string_view::npos) {
    return std::nullopt;
  }
  const size_t start = at + kMarker.size();
  const size_t end = body.find(' ', start);
  if (end == std::string_view::npos) {
    return std::nullopt;
  }
  return std::string(body.substr(start, end - start));
}

}  // namespace robodet
