// Heap allocations per page-path stage. This binary replaces the global
// operator new with one that counts calls, so a test can read exactly how
// many allocations a stage makes: a count does not depend on the host, so
// the bounds below are pinned tight. Each one is what the stage made when
// it was pinned; a change that allocates more has to raise the bound on
// purpose.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <utility>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/html/document.h"
#include "src/proxy/persistence/state_store.h"
#include "src/proxy/proxy_server.h"
#include "src/proxy/session.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* block = std::malloc(n == 0 ? 1 : n);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  return block;
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace robodet {
namespace {

// The allocations `fn` makes.
template <typename Fn>
int64_t Allocations(Fn&& fn) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// The most of `count` runs' allocations, over tokens that differ, so a
// draw that happens to allocate less does not hide one that allocates more.
template <typename Fn>
int64_t MostAllocations(int count, Fn&& fn) {
  int64_t most = 0;
  for (int i = 0; i < count; ++i) {
    most = std::max(most, Allocations([&] { fn(i); }));
  }
  return most;
}

class AllocationCountTest : public ::testing::Test {
 protected:
  AllocationCountTest()
      : proxy_(ProxyConfig{}, &clock_, [](const Request&) { return Response{}; }, 5) {
    Rng token_rng(11);
    for (std::string& token : tokens_) {
      token = token_rng.HexKey128().substr(0, 24);
    }
  }

  SimClock clock_;
  const ProxyServer proxy_;
  std::string tokens_[64];
};

TEST(AllocationCounterTest, CountsAllocations) {
  EXPECT_EQ(Allocations([] { delete new int(1); }), 1);
  EXPECT_EQ(Allocations([] {}), 0);
}

// The script the proxy serves: obfuscation level 2, 4 decoys.
TEST_F(AllocationCountTest, BeaconScriptBuild) {
  ASSERT_EQ(proxy_.config().num_decoys, 4u);
  // The first build in a process also lexes the script's shapes, once.
  proxy_.BuildBeaconForToken(tokens_[0], nullptr);
  constexpr int64_t kBound = 24;
  const int64_t most = MostAllocations(64, [&](int i) {
    const GeneratedBeacon beacon = proxy_.BuildBeaconForToken(tokens_[i], nullptr);
    EXPECT_FALSE(beacon.script_source.empty());
  });
  EXPECT_LE(most, kBound);
  std::printf("BuildBeaconForToken: %lld allocations\n", static_cast<long long>(most));
}

// The page's key and handler: the two strings it returns and the drawn
// names' flat set.
TEST_F(AllocationCountTest, PageBeaconDerivation) {
  constexpr int64_t kBound = 3;
  const int64_t most = MostAllocations(64, [&](int i) {
    const ProxyServer::PageBeacon beacon = proxy_.DerivePageBeacon(tokens_[i]);
    EXPECT_FALSE(beacon.handler_code.empty());
  });
  EXPECT_LE(most, kBound);
  std::printf("DerivePageBeacon: %lld allocations\n", static_cast<long long>(most));
}

// A page of `links` links and `embeds` embeds, every one a different URL,
// in the shapes pages use.
std::string PageWithRefs(int links, int embeds) {
  std::string html = "<html><body>";
  for (int i = 0; i < links; ++i) {
    const std::string n = std::to_string(i);
    switch (i % 4) {
      case 0:
        html += "<a href=\"/p/" + n + ".html\">x</a>";
        break;
      case 1:
        html += "<a href=\"rel/" + n + ".html?q=" + n + "\">x</a>";
        break;
      case 2:
        html += "<a href=\"http://Other.Example.COM:8080/" + n + "#f\">x</a>";
        break;
      default:
        html += "<a href=\"//cdn.example.com/" + n + "\">x</a>";
        break;
    }
  }
  for (int i = 0; i < embeds; ++i) {
    html += "<img src=\"/img/" + std::to_string(i) + ".jpg\">";
  }
  return html + "</body></html>";
}

// Registering a page's refs allocates only what the session's two URL sets
// allocate to grow: resolving and hashing a ref builds no Url and no string.
TEST(ServedRefsAllocationTest, OnlyTheSetsGrow) {
  constexpr int kLinks = 40;
  constexpr int kEmbeds = 24;
  const std::string html = PageWithRefs(kLinks, kEmbeds);
  const ServedRefs refs = CollectServedRefs(html);
  ASSERT_EQ(refs.links.size(), static_cast<size_t>(kLinks));
  ASSERT_EQ(refs.embeds.size(), static_cast<size_t>(kEmbeds));
  const Url page_url = *Url::Parse("http://www.example.com/dir/page.html");

  // What the two sets allocate to take this many distinct hashes.
  const int64_t growth = Allocations([&] {
    UrlHashSet links;
    UrlHashSet embeds;
    for (int i = 0; i < kLinks; ++i) {
      links.InsertHash(static_cast<uint64_t>(i) + 1);
    }
    for (int i = 0; i < kEmbeds; ++i) {
      embeds.InsertHash(static_cast<uint64_t>(i) + 1);
    }
  });

  const SharedUserAgent agent("Mozilla/5.0");
  SessionState session(1, IpAddress(7), agent, 0);
  const int64_t first = Allocations(
      [&] { ProxyServer::RegisterServedContent(page_url, html, refs, session); });
  EXPECT_EQ(session.served_links().size(), static_cast<size_t>(kLinks));
  EXPECT_EQ(session.served_embeds().size(), static_cast<size_t>(kEmbeds));
  EXPECT_LE(first, growth);
  // The same page again: every hash is already there, so nothing grows.
  EXPECT_EQ(Allocations(
                [&] { ProxyServer::RegisterServedContent(page_url, html, refs, session); }),
            0);
  std::printf("RegisterServedContent, %d refs: %lld allocations (sets' growth %lld)\n",
              kLinks + kEmbeds, static_cast<long long>(first), static_cast<long long>(growth));
}

// A request URL is hashed once for the event and the session's visited set,
// with no string built.
TEST(ServedRefsAllocationTest, UrlHashesAllocateNothing) {
  const Url page_url = *Url::Parse("https://Www.Example.com:8443/a/b.cgi?x=1#frag");
  uint64_t sum = 0;
  EXPECT_EQ(Allocations([&] {
              sum += page_url.Hash();
              sum += page_url.ResolveHash("../c/d.html?y=2");
              sum += page_url.ResolveHash("//cdn.example.com/e.js");
              sum += page_url.ResolveHash("HTTP://Other.COM:80/f");
            }),
            0);
  EXPECT_NE(sum, 0u);
}

// Journaling a browse-shaped session: 100 requests, every fifth an
// instrumented page that serves ten links and five embeds, each request a
// new visited URL. The store encodes each record into one buffer it
// reuses, so once a session of the same shape has warmed that buffer, a
// session's first update allocates only its marks entry and every later
// update and every key record allocates nothing.
class JournalAllocationTest : public ::testing::Test {
 protected:
  JournalAllocationTest()
      : dir_(std::filesystem::temp_directory_path() /
             ("robodet_journal_alloc_" + std::to_string(::getpid()))),
        store_(PersistenceConfig{.state_dir = dir_.string(), .snapshot_interval_records = 0},
               &keys_, &sessions_) {
    store_.Recover(0);
  }
  ~JournalAllocationTest() override { std::filesystem::remove_all(dir_); }

  // Runs a session of `requests` requests through the journal; returns
  // the allocations of its first update and the most of any later one.
  std::pair<int64_t, int64_t> JournalSession(uint64_t id, int requests) {
    const SharedUserAgent agent("Mozilla/5.0 (Windows NT 10.0; Win64; x64) Gecko/20100101");
    SessionState session(id, IpAddress(static_cast<uint32_t>(id)), agent, 1000);
    session.signals().ua_echo_agent = "mozilla-5.0windowsnt10.0win64x64gecko";
    int64_t first = 0;
    int64_t most = 0;
    for (int i = 0; i < requests; ++i) {
      RequestEvent event;
      event.kind = i % 5 == 0 ? ResourceKind::kHtml : ResourceKind::kImage;
      event.status_class = 2;
      session.RecordRequest(1000 + 500 * i, event);
      session.visited_urls().InsertHash(id * 1000 + static_cast<uint64_t>(i));
      if (i % 5 == 0) {
        session.NoteInstrumentedPage();
        for (uint64_t k = 0; k < 10; ++k) {
          session.served_links().InsertHash(id * 100000 + i * 16 + k);
        }
        for (uint64_t k = 0; k < 5; ++k) {
          session.served_embeds().InsertHash(id * 200000 + i * 16 + k);
        }
      }
      const int64_t n = Allocations([&] { store_.OnSessionUpdated(session); });
      if (i == 0) {
        first = n;
      } else {
        most = std::max(most, n);
      }
    }
    store_.OnSessionClosed(session);
    return {first, most};
  }

  std::filesystem::path dir_;
  KeyTable keys_{KeyTable::Config{}};
  SessionTable sessions_{SessionTable::Config{}};
  StateStore store_;
};

TEST_F(JournalAllocationTest, SessionUpdates) {
  JournalSession(1, 100);  // Warms the encode buffer.
  const auto [first, most] = JournalSession(2, 100);
  std::printf("OnSessionUpdated: first %lld, later at most %lld allocations\n",
              static_cast<long long>(first), static_cast<long long>(most));
  EXPECT_LE(first, 1);
  EXPECT_EQ(most, 0);
}

TEST_F(JournalAllocationTest, KeyRecords) {
  const std::string path = "/catalog/page-0042.html";
  const std::string key = "0123456789abcdef0123456789abcdef";
  store_.OnKeyIssued(IpAddress(7), path, key, 10);  // Warms the encode buffer.
  store_.OnKeyConsumed(IpAddress(7), key);
  const int64_t issued =
      MostAllocations(16, [&](int i) { store_.OnKeyIssued(IpAddress(7), path, key, 20 + i); });
  const int64_t consumed =
      MostAllocations(16, [&](int) { store_.OnKeyConsumed(IpAddress(7), key); });
  std::printf("OnKeyIssued: %lld, OnKeyConsumed: %lld allocations\n",
              static_cast<long long>(issued), static_cast<long long>(consumed));
  EXPECT_EQ(issued, 0);
  EXPECT_EQ(consumed, 0);
}

}  // namespace
}  // namespace robodet
