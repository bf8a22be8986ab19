// Heap allocations per page-path stage. This binary replaces the global
// operator new with one that counts calls, so a test can read exactly how
// many allocations a stage makes: a count does not depend on the host, so
// the bounds below are pinned tight. Each one is what the stage made when
// it was pinned; a change that allocates more has to raise the bound on
// purpose. The same operator new also tracks the bytes live on the heap
// and their peak (by malloc_usable_size), which the state store's memory
// tests read.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <utility>

#include <malloc.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/html/document.h"
#include "src/js/generator.h"
#include "src/http/wire.h"
#include "src/proxy/persistence/state_store.h"
#include "src/proxy/proxy_server.h"
#include "src/proxy/session.h"
#include "src/site/origin_server.h"

namespace {

std::atomic<int64_t> g_allocations{0};
// Bytes of the blocks operator new handed out and operator delete has not
// taken back, and their most since the last ResetPeakBytes.
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void* CountedAlloc(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* block = std::malloc(n == 0 ? 1 : n);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  const int64_t live =
      g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(block)),
                             std::memory_order_relaxed) +
      static_cast<int64_t>(malloc_usable_size(block));
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return block;
}

void CountedFree(void* p) {
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }

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


// A page served to a visitor on an untraced proxy: the session, the
// page's keys and beacon, the rewrite and the response. A fresh address
// per page, so each one also opens its session. 60 before the span notes
// were built for traced requests only and the response reserved its
// headers.
TEST(RequestAllocationTest, ServedPage) {
  SimClock clock(1000);
  const std::string html =
      "<html><head><title>t</title></head><body><p>hello</p>"
      "<a href=\"/a.html\">a</a><a href=\"/b.html\">b</a><img src=\"/i.jpg\"></body></html>";
  ProxyServer proxy(ProxyConfig{}, &clock, [&](const Request&) { return MakeHtmlResponse(html); },
                    5);
  auto page = [&](int i) {
    Request request;
    request.client_ip = IpAddress(0x0a000001u + static_cast<uint32_t>(i));
    request.time = clock.Now();
    request.headers.Set("User-Agent", "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101");
    request.url = Url::Make(proxy.config().host, "/index.html");
    return request;
  };
  for (int i = 0; i < 4; ++i) {
    proxy.Handle(page(1000 + i));  // Warms the proxy's reused buffers.
  }
  constexpr int64_t kBound = 57;
  int64_t most = 0;
  for (int i = 0; i < 32; ++i) {
    const Request request = page(i);
    most = std::max(most, Allocations([&] {
                      const ProxyServer::Result result = proxy.Handle(request);
                      EXPECT_FALSE(result.response.body.empty());
                    }));
  }
  EXPECT_LE(most, kBound);
  std::printf("ServedPage: %lld allocations\n", static_cast<long long>(most));
}

// One probe of the flood workload, a beacon fetch under a key never
// issued, from a fresh address: framed and built from its bytes, handled,
// and serialized onto a connection's send buffer. 23 before the request
// took its URL by move and reserved its headers, the response reserved
// its headers, and the evidence named its detector and signal by view.
TEST(RequestAllocationTest, ProbeRequest) {
  SimClock clock(1000);
  ProxyServer proxy(ProxyConfig{}, &clock, [](const Request&) { return Response{}; }, 5);
  Rng rng(17);
  std::string out;
  out.reserve(4096);
  auto probe = [&](int i) {
    std::string text = "GET " + proxy.config().instr_prefix + "bk_" + rng.HexKey128() +
                       ".jpg HTTP/1.1\r\nHost: " + proxy.config().host +
                       "\r\nUser-Agent: Wget/1.10.2\r\nAccept: */*\r\n\r\n";
    return std::pair(std::move(text), IpAddress(0x0b000001u + static_cast<uint32_t>(i)));
  };
  auto serve = [&](const std::string& text, IpAddress ip) {
    const FramedRequest framed = FrameRequest(text);
    ASSERT_EQ(framed.status, FrameStatus::kComplete);
    auto built = BuildRequest(framed);
    ASSERT_TRUE(built.value.has_value());
    Request request = std::move(*built.value);
    request.client_ip = ip;
    request.time = clock.Now();
    const ProxyServer::Result result = proxy.Handle(request);
    out.clear();
    AppendSerializedResponse(out, result.response);
  };
  for (int i = 0; i < 4; ++i) {
    const auto [text, ip] = probe(1000 + i);
    serve(text, ip);  // Warms the proxy's reused buffers.
  }
  constexpr int64_t kBound = 17;
  int64_t most = 0;
  for (int i = 0; i < 32; ++i) {
    const auto [text, ip] = probe(i);
    most = std::max(most, Allocations([&] { serve(text, ip); }));
  }
  EXPECT_LE(most, kBound);
  std::printf("ProbeRequest: %lld allocations\n", static_cast<long long>(most));
}

int64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

// Restarts the peak from what is live now.
void ResetPeakBytes() { g_peak_bytes.store(LiveBytes(), std::memory_order_relaxed); }

int64_t PeakBytes() { return g_peak_bytes.load(std::memory_order_relaxed); }

// A state directory shaped like the one perfbench's durable_io primes: a
// durable proxy on a 200-page site serves `visitors` browse-like
// visitors, each from its own address, checkpoints once 83% of the way
// through, and stops without another checkpoint. Each visitor views three to
// eight pages with their scripts; every fourth one also fires its beacons
// and fetches the CSS probe.
void WriteDurableDir(const std::string& dir, int visitors) {
  SiteConfig site_config;
  site_config.num_pages = 200;
  Rng site_rng(11);
  const SiteModel site = SiteModel::Generate(site_config, site_rng);
  OriginServer origin(&site);
  SimClock clock(5000);
  ProxyConfig config;
  config.host = site.host();
  config.persistence.state_dir = dir;
  config.persistence.snapshot_interval_records = 0;
  ProxyServer proxy(config, &clock, [&](const Request& r) { return origin.Handle(r); }, 1234);
  const char* const kAgents[] = {
      "Mozilla/5.0 (X11; Linux x86_64; rv:109.0) Gecko/20100101 Firefox/115.0",
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/120.0 Safari/537.36",
      "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 Safari/605.1.15",
      "Wget/1.21.3",
  };
  Rng rng(29);
  for (int v = 0; v < visitors; ++v) {
    if (v == visitors * 83 / 100) {
      ASSERT_TRUE(proxy.state_store()->Checkpoint());
    }
    const IpAddress ip(0xac100001u + static_cast<uint32_t>(v));
    const std::string agent = kAgents[v % 4];
    auto get = [&](const std::string& target) {
      Request r;
      r.time = clock.Now();
      r.client_ip = ip;
      r.url = target.rfind("http", 0) == 0 ? *Url::Parse(target) : Url::Make(site.host(), target);
      r.headers.Set("User-Agent", agent);
      clock.Advance(40);
      return proxy.Handle(r).response.body;
    };
    const int pages = 3 + static_cast<int>(rng.UniformU64(6));
    for (int p = 0; p < pages; ++p) {
      const std::string body =
          get(site.page(static_cast<PageId>(rng.UniformU64(site.page_count()))).path);
      const size_t at = body.find("/__rd/js_");
      if (at == std::string::npos) {
        continue;
      }
      const size_t start = body.rfind('"', at) + 1;
      get(body.substr(start, body.find('"', at) - start));
      if (v % 4 == 0) {
        const size_t token_at = at + 9;
        const std::string token = body.substr(token_at, body.find(".js", token_at) - token_at);
        std::string real_key;
        (void)proxy.BuildBeaconForToken(token, &real_key);
        get(ProbeUrl(config.instr_prefix, ProbeKind::kBeaconImage, real_key));
        const size_t css_at = body.find("/__rd/cp_");
        if (css_at != std::string::npos) {
          const size_t css_start = body.rfind('"', css_at) + 1;
          get(body.substr(css_start, body.find('"', css_at) - css_start));
        }
      }
    }
  }
}

// What a durable daemon's state costs in heap beyond the state itself:
// recovery's peak above what it leaves live, and a checkpoint's peak
// above the heap it starts from, on a durable_io-shaped directory. The
// file streams through one record at a time, so recovery peaks at about
// its replay index and the largest record above the tables, whatever the
// file's length, and a checkpoint at about one key shard's export and the
// marks it rebuilds. When the state was read and written whole, recovery
// peaked 4.43 MB above the 2.34 MB it left live (10.3 MB with four times
// the records) and a checkpoint 1.69 MB above its start.
class StateStoreHeapTest : public ::testing::Test {
 protected:
  StateStoreHeapTest()
      : root_(std::filesystem::temp_directory_path() /
              ("robodet_state_heap_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(root_);
  }
  ~StateStoreHeapTest() override { std::filesystem::remove_all(root_); }

  struct Figures {
    int64_t recover_peak = 0;  // Above what Recover leaves live.
    int64_t live = 0;          // What Recover leaves live.
    int64_t checkpoint_peak = 0;
    size_t sessions = 0;
    size_t keys = 0;
  };

  // Recovers a copy of `source`, then checkpoints it.
  Figures Measure(const std::string& source, const std::string& name) {
    const std::string dir = (root_ / name).string();
    std::filesystem::copy(source, dir);
    Figures f;
    KeyTable keys(KeyTable::Config{});
    SessionTable sessions(SessionTable::Config{});
    StateStore store(PersistenceConfig{.state_dir = dir}, &keys, &sessions);
    keys.set_observer(&store);
    ResetPeakBytes();
    const int64_t before = LiveBytes();
    const RecoveryReport report = store.Recover(1 << 30);
    const int64_t after = LiveBytes();
    f.recover_peak = PeakBytes() - after;
    f.live = after - before;
    f.sessions = report.sessions_restored;
    f.keys = report.key_entries_restored;
    ResetPeakBytes();
    const int64_t start = LiveBytes();
    EXPECT_TRUE(store.Checkpoint());
    f.checkpoint_peak = PeakBytes() - start;
    keys.set_observer(nullptr);
    return f;
  }

  std::filesystem::path root_;
};

TEST_F(StateStoreHeapTest, RecoveryAndCheckpointPeaks) {
  const std::string source = (root_ / "source").string();
  WriteDurableDir(source, 1200);
  const size_t state = std::filesystem::file_size(source + "/state.bin");
  const Figures f = Measure(source, "plain");
  std::printf("directory: state.bin %zu B; %zu sessions, %zu keys\n", state, f.sessions,
              f.keys);
  std::printf("Recover: live %lld B, peak above live %lld B; Checkpoint: peak %lld B\n",
              static_cast<long long>(f.live), static_cast<long long>(f.recover_peak),
              static_cast<long long>(f.checkpoint_peak));
  EXPECT_EQ(f.sessions, 1200u);
  EXPECT_LE(f.recover_peak, f.live / 2);
  EXPECT_LE(f.recover_peak, 256 << 10);
  EXPECT_LE(f.checkpoint_peak, 256 << 10);

  // The same directory with a file four times as long that ends in the
  // same state: each padding record pair issues and consumes a key.
  const std::string longer = (root_ / "longer").string();
  std::filesystem::copy(source, longer);
  {
    std::ofstream out(longer + "/state.bin", std::ios::binary | std::ios::app);
    ByteWriter w;
    Rng rng(31);
    size_t added = 0;
    for (uint32_t i = 0; added < 3 * state; ++i) {
      w.Clear();
      const std::string key = rng.HexKey128();
      const IpAddress ip(0x0c000001u + i % 4096);
      persistence::EncodeKeyIssued({ip.value(), "/pad.html", key, 1000 + i}, &w);
      persistence::EncodeKeyConsumed(ip.value(), key, &w);
      out.write(w.bytes().data(), static_cast<std::streamsize>(w.size()));
      added += w.size();
    }
  }
  const Figures g = Measure(longer, "longer_run");
  std::printf("4x file: live %lld B, peak above live %lld B\n", static_cast<long long>(g.live),
              static_cast<long long>(g.recover_peak));
  EXPECT_EQ(g.sessions, f.sessions);
  EXPECT_EQ(g.keys, f.keys);
  EXPECT_LE(g.recover_peak, f.recover_peak + f.recover_peak / 10);
}

}  // namespace
}  // namespace robodet
