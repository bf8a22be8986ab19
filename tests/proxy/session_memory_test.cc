// Per-session heap budget. This binary replaces the global operator new and
// delete with versions that keep a running count of live heap bytes, so a
// test can read exactly what a session costs. A spoofed-address flood opens
// one session per request, so the bytes of a one-request session bound how
// many such clients the proxy holds in memory (§4.2 of the paper).
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "src/proxy/session.h"
#include "src/proxy/session_table.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};

// Each block carries its requested size in a header, so delete can subtract
// what new added.
constexpr size_t kHeader = alignof(std::max_align_t);

void* CountedAlloc(size_t n) {
  void* block = std::malloc(n + kHeader);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  *static_cast<size_t*>(block) = n;
  g_live_bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}

void CountedFree(void* p) {
  if (p == nullptr) {
    return;
  }
  char* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(static_cast<int64_t>(*reinterpret_cast<size_t*>(block)),
                         std::memory_order_relaxed);
  std::free(block);
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

int64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

TEST(SessionMemoryTest, CounterSeesAllocations) {
  const int64_t before = LiveBytes();
  auto* block = new char[100];
  EXPECT_EQ(LiveBytes() - before, 100);
  delete[] block;
  EXPECT_EQ(LiveBytes() - before, 0);
}

TEST(SessionMemoryTest, EmptyUrlHashSetAllocatesNothing) {
  const int64_t before = LiveBytes();
  UrlHashSet set;
  EXPECT_FALSE(set.Contains("http://h.test/"));
  EXPECT_EQ(LiveBytes() - before, 0);
}

TEST(SessionMemoryTest, FreshSessionAllocatesNothing) {
  const SharedUserAgent agent(std::string(40, 'u'));
  const int64_t before = LiveBytes();
  SessionState session(1, IpAddress(7), agent, 0);
  // The session shares the agent's copy; the three URL sets, the event log
  // and the page indices are empty.
  EXPECT_EQ(LiveBytes() - before, 0);
  EXPECT_EQ(session.key().user_agent.data(), agent.text().data());
}

// Bytes per flood session: Touch, RecordRequest and one visited URL, the
// work the proxy does for a one-request probe from a spoofed address. The
// bytes include the table's own share (bucket array, User-Agent copies).
int64_t ProbeSessionBytes(bool unique_agents) {
  constexpr int kSessions = 16000;
  const std::string agent = "Mozilla/5.0 (compatible; Googlebot/2.1)";
  SessionTable table(SessionTable::Config{});
  const int64_t before = LiveBytes();
  for (int i = 0; i < kSessions; ++i) {
    SessionKey key{IpAddress(0x0A000000u + static_cast<uint32_t>(i)), agent};
    if (unique_agents) {
      // Same length, a different agent per session.
      const std::string n = std::to_string(10000000 + i);
      key.user_agent.replace(agent.size() - n.size(), n.size(), n);
    }
    SessionState* session = table.Touch(key, 1000);
    RequestEvent ev;
    ev.kind = ResourceKind::kImage;
    session->RecordRequest(1000, ev);
    session->visited_urls().Insert("http://h.test/__rd/ti.jpg");
  }
  EXPECT_EQ(table.active_count(), static_cast<size_t>(kSessions));
  return (LiveBytes() - before) / kSessions;
}

TEST(SessionMemoryTest, OneRequestProbeSessionFitsBudget) {
  constexpr int64_t kBudgetBytes = 288;
  const int64_t per_session = ProbeSessionBytes(/*unique_agents=*/false);
  EXPECT_LE(per_session, kBudgetBytes);
  std::printf("one-request probe session: %lld B, sizeof(SessionState) %zu B\n",
              static_cast<long long>(per_session), sizeof(SessionState));
}

// A flood that forges a new agent per request gains nothing from sharing;
// it still costs less than a session with its own agent copy did before
// the copies were shared (412 B).
TEST(SessionMemoryTest, UniqueAgentProbeSessionFitsBudget) {
  constexpr int64_t kBudgetBytes = 345;
  const int64_t per_session = ProbeSessionBytes(/*unique_agents=*/true);
  EXPECT_LE(per_session, kBudgetBytes);
  std::printf("one-request probe session, unique agent: %lld B\n",
              static_cast<long long>(per_session));
}

// A browse session: 100 requests over 15 instrumented pages, each page
// serving 12 links and 4 embeds (pages share some of them), its embeds
// fetched, and 25 probe fetches.
TEST(SessionMemoryTest, BrowseSessionFitsBudget) {
  constexpr int kSessions = 1000;
  constexpr int kPages = 15;
  // 4,698 B before the session went to one block with shared agents.
  constexpr int64_t kBudgetBytes = 4039;
  const std::string agent = "Mozilla/5.0 (X11; Linux) Gecko/20060101 Firefox/1.5";
  const std::string site = "http://h.test";
  auto page_url = [&](int n) { return site + "/page/" + std::to_string(n) + ".html"; };
  auto image_url = [&](int n) { return site + "/img/" + std::to_string(n) + ".jpg"; };
  SessionTable table(SessionTable::Config{});
  const int64_t before = LiveBytes();
  for (int i = 0; i < kSessions; ++i) {
    const SessionKey key{IpAddress(0x0A000000u + static_cast<uint32_t>(i)), agent};
    TimeMs now = 1000;
    int probes = 0;
    for (int p = 0; p < kPages; ++p) {
      SessionState* session = table.Touch(key, now);
      session->NoteInstrumentedPage();
      RequestEvent html;
      html.kind = ResourceKind::kHtml;
      html.has_referrer = p > 0;
      html.is_link_follow = p > 0;
      session->RecordRequest(now, html);
      session->visited_urls().Insert(page_url(p * 13 % 97));
      for (int j = 0; j < 12; ++j) {
        session->served_links().Insert(page_url((p * 13 + j * 7) % 97));
      }
      for (int j = 0; j < 4; ++j) {
        session->served_embeds().Insert(image_url((p * 4 + j) % 24));
      }
      for (int j = 0; j < 4; ++j) {
        RequestEvent embed;
        embed.kind = ResourceKind::kImage;
        embed.has_referrer = true;
        embed.is_embedded = true;
        session->RecordRequest(now += 50, embed);
        session->visited_urls().Insert(image_url((p * 4 + j) % 24));
      }
      for (int j = 0; j < (p < 10 ? 2 : 1); ++j) {
        RequestEvent probe;
        probe.kind = j == 0 ? ResourceKind::kJavaScript : ResourceKind::kCss;
        session->RecordRequest(now += 50, probe);
        session->visited_urls().Insert(site + "/__rd/p" + std::to_string(probes++) + ".js");
      }
      now += 20000;
    }
    ASSERT_EQ(table.Touch(key, now)->request_count(), 100);
  }
  ASSERT_EQ(table.active_count(), static_cast<size_t>(kSessions));
  const int64_t per_session = (LiveBytes() - before) / kSessions;
  EXPECT_LE(per_session, kBudgetBytes);
  std::printf("browse session: %lld B\n", static_cast<long long>(per_session));
}

// Sessions of one shard that carry the same User-Agent hold one copy of
// its text, and that copy leaves with the last of them.
TEST(SessionMemoryTest, SessionsShareOneUserAgentCopy) {
  constexpr int kSessions = 1000;
  const std::string agent(1000, 'a');
  SessionTable table({kHour, 1 << 20, /*num_shards=*/1});
  int closed = 0;
  table.set_on_closed([&closed](std::unique_ptr<SessionState>) { ++closed; });
  const int64_t before = LiveBytes();
  const char* text = nullptr;
  for (int i = 0; i < kSessions; ++i) {
    const SessionState* session =
        table.Touch({IpAddress(static_cast<uint32_t>(i + 1)), agent}, 1000);
    if (text == nullptr) {
      text = session->key().user_agent.data();
    }
    ASSERT_EQ(session->key().user_agent.data(), text) << "session " << i;
  }
  EXPECT_NE(text, agent.data());
  EXPECT_LT((LiveBytes() - before) / kSessions, static_cast<int64_t>(agent.size()));
  table.CloseAll();
  EXPECT_EQ(closed, kSessions);
  EXPECT_EQ(LiveBytes() - before, 0);
}

}  // namespace
}  // namespace robodet
