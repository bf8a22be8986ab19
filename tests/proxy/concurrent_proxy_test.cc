// Multi-worker safety of ProxyServer::Handle in concurrent mode: several
// threads drive client populations through one shared proxy and every
// request must be accounted for. This is the test the CI tsan job runs to
// prove the sharded tables, resilience layer, metrics registry and
// Handle's per-client serialization are race-free under real parallelism.
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/http/origin_result.h"
#include "src/proxy/proxy_server.h"
#include "src/site/site_model.h"

namespace robodet {
namespace {

constexpr size_t kThreads = 4;
constexpr uint32_t kRequestsPerThread = 400;

// A concurrent proxy over a 20-page generated site. The pages are
// pre-rendered and immutable: the origin callback runs on every worker at
// once, so it must not touch shared mutable state.
class ConcurrentProxyTest : public ::testing::Test {
 protected:
  ConcurrentProxyTest() {
    SiteConfig site_config;
    site_config.num_pages = 20;
    Rng site_rng(17);
    site_ = SiteModel::Generate(site_config, site_rng);
    for (size_t i = 0; i < site_config.num_pages; ++i) {
      pages_.push_back(site_.RenderPage(i));
    }
    ProxyConfig config;
    config.host = site_.host();
    config.concurrent = true;
    proxy_ = std::make_unique<ProxyServer>(
        config, &clock_, FallibleOriginHandler([this](const Request& r) {
          return OriginResult::Ok(
              MakeHtmlResponse(pages_[r.url.path().size() % pages_.size()]));
        }),
        37);
  }

  // Runs `worker(thread_index)` on kThreads threads and joins them.
  template <typename Fn>
  static void RunOnThreads(Fn worker) {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back(worker, t);
    }
    for (std::thread& th : pool) {
      th.join();
    }
  }

  SiteModel site_;
  std::vector<std::string> pages_;
  SimClock clock_;
  std::unique_ptr<ProxyServer> proxy_;
};

TEST_F(ConcurrentProxyTest, ParallelHandleAccountsForEveryRequest) {
  const SiteModel& site = site_;
  ProxyServer& proxy = *proxy_;
  auto worker = [&](size_t worker_index) {
    for (uint32_t seq = 1; seq <= kRequestsPerThread; ++seq) {
      Request request;
      request.time = static_cast<TimeMs>(seq);
      request.client_ip = IpAddress(
          static_cast<uint32_t>(worker_index) * 100000 + seq % 16 + 1);
      request.url = Url::Make(site.host(), SiteModel::PagePath(seq % 20));
      request.headers.Set("User-Agent", "Mozilla/5.0 (test)");
      const ProxyServer::Result result = proxy.Handle(request);
      EXPECT_TRUE(!result.response.body.empty() || result.blocked);
    }
  };

  RunOnThreads(worker);

  const RegistrySnapshot snap = proxy.metrics().Scrape();
  EXPECT_EQ(snap.CounterValue("robodet_requests_total"), kThreads * kRequestsPerThread);
  // Pages were fetched and instrumented on every worker.
  EXPECT_GT(snap.CounterValue("robodet_pages_instrumented_total"), 0u);
}

// Over real sockets one client's connections can land on several workers,
// so the same session is handled from several threads at once. Handle
// serializes each client itself: no external lock, and every request lands
// in its session's count.
TEST_F(ConcurrentProxyTest, OneClientFromManyThreadsCountsEveryRequest) {
  constexpr uint32_t kSharedClients = 8;
  constexpr uint32_t kRequests = 200;
  auto worker = [&](size_t worker_index) {
    for (uint32_t seq = 1; seq <= kRequests; ++seq) {
      Request request;
      request.time = static_cast<TimeMs>(seq);
      request.client_ip = IpAddress(static_cast<uint32_t>(seq + worker_index) % kSharedClients + 1);
      // Every fourth request is a probe fetch; the rest are pages.
      const std::string path = seq % 4 == 0 ? "/__rd/cp_unminted.css"
                                            : SiteModel::PagePath(seq % 20);
      request.url = Url::Make(site_.host(), path);
      request.headers.Set("User-Agent", "Mozilla/5.0 (test)");
      proxy_->Handle(request);
    }
  };
  RunOnThreads(worker);

  uint64_t recorded = 0;
  size_t sessions = 0;
  for (size_t shard = 0; shard < proxy_->sessions().num_shards(); ++shard) {
    proxy_->sessions().ForEachSessionInShard(shard, [&](const SessionState& session) {
      recorded += static_cast<uint64_t>(session.request_count());
      ++sessions;
    });
  }
  EXPECT_EQ(sessions, kSharedClients);
  EXPECT_EQ(recorded, kThreads * kRequests);
}

}  // namespace
}  // namespace robodet
