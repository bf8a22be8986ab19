// Simulated CAPTCHA service. The paper served optional CAPTCHAs (with a
// bandwidth incentive) to obtain ground-truth human labels. Here the
// challenge page carries the answer as a plain marker — standing in for
// the distorted image — and whether a client can *read* it is a modeled
// capability of the client, not of the page.
#ifndef ROBODET_SRC_PROXY_CAPTCHA_H_
#define ROBODET_SRC_PROXY_CAPTCHA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/proxy/token_minter.h"

namespace robodet {

class CaptchaService {
 public:
  explicit CaptchaService(TokenMinter* minter) : minter_(minter) {}

  // Issues a new challenge and returns its token, minted deterministically
  // from per-request entropy (thread-safe, no shared-rng draw); the page
  // body comes from RenderChallenge.
  std::string IssueChallenge(uint64_t entropy);

  // Challenge page HTML. Contains "answer:NNNNNN" (the stand-in for the
  // distorted image) and the submission URL shape.
  std::string RenderChallenge(std::string_view token, std::string_view submit_prefix) const;

  // The expected 6-digit answer for a token (derived, not stored).
  std::string ExpectedAnswer(std::string_view token) const;

  // Validates a submission. Invalid tokens are failures.
  bool CheckAnswer(std::string_view token, std::string_view answer) const;

  // Extracts the answer marker from a challenge body, as a human reading
  // the distorted image would. Robots in the simulation do not call this
  // unless they model OCR capability.
  static std::optional<std::string> ReadAnswerFromBody(std::string_view body);

 private:
  TokenMinter* minter_;  // Not owned.
};

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_CAPTCHA_H_
