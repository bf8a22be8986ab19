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

TEST(SessionMemoryTest, FreshSessionAllocatesOnlyItsUserAgent) {
  const SessionKey key{IpAddress(7), std::string(40, 'u')};
  int64_t before = LiveBytes();
  const std::string agent_copy = key.user_agent;
  const int64_t agent_bytes = LiveBytes() - before;
  before = LiveBytes();
  SessionState session(1, key, 0);
  // The key's User-Agent copy is the one heap block; the three URL sets,
  // the event log and the page indices are empty.
  EXPECT_GT(agent_bytes, 0);
  EXPECT_EQ(LiveBytes() - before, agent_bytes);
}

// A flood session: Touch, RecordRequest and one visited URL, the work the
// proxy does for a one-request probe from a spoofed address. The bytes
// include the table's own share (container node, bucket array).
TEST(SessionMemoryTest, OneRequestProbeSessionFitsBudget) {
  constexpr int kSessions = 16000;
  constexpr int64_t kBudgetBytes = 512;
  const std::string agent = "Mozilla/5.0 (compatible; Googlebot/2.1)";
  SessionTable table(SessionTable::Config{});
  const int64_t before = LiveBytes();
  for (int i = 0; i < kSessions; ++i) {
    const SessionKey key{IpAddress(0x0A000000u + static_cast<uint32_t>(i)), agent};
    SessionState* session = table.Touch(key, 1000);
    RequestEvent ev;
    ev.kind = ResourceKind::kImage;
    session->RecordRequest(1000, ev);
    session->visited_urls().Insert("http://h.test/__rd/ti.jpg");
  }
  ASSERT_EQ(table.active_count(), static_cast<size_t>(kSessions));
  const int64_t per_session = (LiveBytes() - before) / kSessions;
  EXPECT_LE(per_session, kBudgetBytes);
  std::printf("one-request probe session: %lld B, sizeof(SessionState) %zu B\n",
              static_cast<long long>(per_session), sizeof(SessionState));
}

}  // namespace
}  // namespace robodet
