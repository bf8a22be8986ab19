// Byte-identity guard for the page path: a fixed-seed proxy serves a fixed
// sequence of site pages, each followed by its beacon-script fetch, and the
// test pins a digest of every response body and of each session's
// served-link and served-embed registrations (hashes in insertion order).
// A second proxy, built with detection off, serves the middle round.
// The expected digests are constants: any change to what the proxy serves,
// or to what it records as served, shows up here.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/proxy/proxy_server.h"
#include "src/site/origin_server.h"
#include "src/util/hash.h"

namespace robodet {
namespace {

struct GuardCase {
  size_t num_decoys;
  bool hook_links;
  bool audio_probe;
  uint64_t body_digest;
  uint64_t refs_digest;
};

uint64_t DigestHashes(std::span<const uint64_t> hashes, uint64_t h) {
  h = HashCombine(h, hashes.size());
  for (uint64_t v : hashes) {
    h = HashCombine(h, v);
  }
  return h;
}

class ServedBytesTest : public ::testing::TestWithParam<GuardCase> {};

TEST_P(ServedBytesTest, BodiesAndServedRefsMatchPinnedDigests) {
  const GuardCase& c = GetParam();
  SiteConfig site_config;
  site_config.num_pages = 24;
  Rng site_rng(11);
  const SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);
  ProxyConfig config;
  config.host = site.host();
  config.num_decoys = c.num_decoys;
  config.hook_links = c.hook_links;
  config.enable_audio_probe = c.audio_probe;
  ProxyConfig plain_config = config;
  plain_config.enable_human_activity = false;
  plain_config.enable_ua_echo = false;
  plain_config.enable_css_probe = false;
  plain_config.enable_hidden_link = false;
  SimClock clock;
  auto serve = [&](const Request& r) { return origin.Handle(r); };
  ProxyServer instrumented(config, &clock, serve, 1234);
  ProxyServer plain(plain_config, &clock, serve, 1234);

  const std::vector<std::string> agents = {
      "Mozilla/5.0 (X11; Linux) Gecko/20060101 Firefox/1.5",
      "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)",
      "Wget/1.10.2",
  };
  uint64_t body_digest = kFnvOffset;
  auto get = [&](ProxyServer& proxy, const std::string& path_or_url, size_t client) {
    Request r;
    r.time = clock.Now();
    r.client_ip = IpAddress(static_cast<uint32_t>(client + 1));
    if (path_or_url.rfind("http", 0) == 0) {
      r.url = *Url::Parse(path_or_url);
    } else {
      r.url = Url::Make(site.host(), path_or_url);
    }
    r.headers.Set("User-Agent", agents[client]);
    clock.Advance(100);
    const ProxyServer::Result result = proxy.Handle(r);
    body_digest = HashCombine(body_digest, StatusValue(result.response.status));
    body_digest = Fnv1a(result.response.body, body_digest);
    return result.response.body;
  };

  for (size_t round = 0; round < 3; ++round) {
    // The middle round serves every page uninstrumented, which takes the
    // pass-through registration branch.
    ProxyServer& proxy = round == 1 ? plain : instrumented;
    for (size_t i = 0; i < site.page_count(); ++i) {
      const size_t client = (i + round) % agents.size();
      const PageId id = static_cast<PageId>((i * 7 + round * 5) % site.page_count());
      const std::string body = get(proxy, site.page(id).path, client);
      const size_t at = body.find("/__rd/js_");
      if (at == std::string::npos) {
        continue;
      }
      const size_t start = body.rfind('"', at) + 1;
      const size_t end = body.find('"', at);
      get(proxy, body.substr(start, end - start), client);
    }
  }

  uint64_t refs_digest = kFnvOffset;
  for (size_t client = 0; client < agents.size(); ++client) {
    for (ProxyServer* proxy : {&instrumented, &plain}) {
      const SessionState* session = proxy->sessions().Touch(
          SessionKey{IpAddress(static_cast<uint32_t>(client + 1)), agents[client]},
          clock.Now());
      refs_digest = DigestHashes(session->served_links().ordered_hashes(), refs_digest);
      refs_digest = DigestHashes(session->served_embeds().ordered_hashes(), refs_digest);
    }
  }

  EXPECT_EQ(body_digest, c.body_digest) << std::hex << "body digest 0x" << body_digest;
  EXPECT_EQ(refs_digest, c.refs_digest) << std::hex << "refs digest 0x" << refs_digest;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ServedBytesTest,
    ::testing::Values(GuardCase{4, false, false, 0x02a77d2d24b1e49fULL, 0x0ff2e756c5b3db68ULL},
                      GuardCase{0, true, false, 0x9c8fabd66eb559ceULL, 0x0ff2e756c5b3db68ULL},
                      GuardCase{8, false, true, 0x6536a42ce1fe7c19ULL, 0x0e4b106e785e2744ULL}));

}  // namespace
}  // namespace robodet
