#include "src/proxy/session.h"

#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace robodet {
namespace {

SharedUserAgent Agent() { return SharedUserAgent("UA/1.0"); }

std::vector<uint64_t> Hashes(const UrlHashSet& set) {
  const std::span<const uint64_t> hashes = set.ordered_hashes();
  return {hashes.begin(), hashes.end()};
}

TEST(SessionStateTest, RecordRequestIncrementsAndTimestamps) {
  SessionState s(1, IpAddress(42), Agent(), 1000);
  RequestEvent ev;
  EXPECT_EQ(s.RecordRequest(2000, ev), 1);
  EXPECT_EQ(s.RecordRequest(3000, ev), 2);
  EXPECT_EQ(s.request_count(), 2);
  EXPECT_EQ(s.first_request_time(), 1000);
  EXPECT_EQ(s.last_request_time(), 3000);
}

TEST(SessionStateTest, LastRequestNeverMovesBackwards) {
  SessionState s(1, IpAddress(42), Agent(), 1000);
  RequestEvent ev;
  s.RecordRequest(5000, ev);
  s.RecordRequest(2000, ev);
  EXPECT_EQ(s.last_request_time(), 5000);
}

TEST(SessionStateTest, CountersByKind) {
  SessionState s(1, IpAddress(42), Agent(), 0);
  RequestEvent cgi;
  cgi.kind = ResourceKind::kCgi;
  RequestEvent head;
  head.is_head = true;
  RequestEvent err;
  err.status_class = 4;
  s.RecordRequest(1, cgi);
  s.RecordRequest(2, head);
  s.RecordRequest(3, err);
  EXPECT_EQ(s.cgi_requests(), 1);
  EXPECT_EQ(s.get_requests(), 2);  // head excluded.
  EXPECT_EQ(s.error_responses(), 1);
}

TEST(SessionStateTest, EventStorageIsBounded) {
  SessionState s(1, IpAddress(42), Agent(), 0);
  RequestEvent ev;
  for (int i = 0; i < 1000; ++i) {
    s.RecordRequest(i, ev);
  }
  EXPECT_EQ(s.request_count(), 1000);
  EXPECT_EQ(s.events().size(), SessionState::kMaxTrackedEvents);
}

TEST(SessionStateTest, MarkSignalOnlyFirst) {
  int slot = 0;
  SessionState::MarkSignal(slot, 5);
  SessionState::MarkSignal(slot, 9);
  EXPECT_EQ(slot, 5);
}

TEST(SessionStateTest, InstrumentedPageCounter) {
  SessionState s(1, IpAddress(42), Agent(), 0);
  EXPECT_EQ(s.instrumented_pages(), 0);
  s.NoteInstrumentedPage();
  s.NoteInstrumentedPage();
  EXPECT_EQ(s.instrumented_pages(), 2);
}

TEST(UrlHashSetTest, InsertAndContains) {
  UrlHashSet set;
  set.Insert("http://a.com/x");
  EXPECT_TRUE(set.Contains("http://a.com/x"));
  EXPECT_FALSE(set.Contains("http://a.com/y"));
}

TEST(UrlHashSetTest, DuplicatesAreStoredOnce) {
  UrlHashSet set;
  set.Insert("http://a.com/x");
  set.Insert("http://a.com/x");
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(Hashes(set), std::vector<uint64_t>{Fnv1a("http://a.com/x")});
}

TEST(UrlHashSetTest, CapacityBound) {
  UrlHashSet set;
  const size_t n = UrlHashSet::kCapacity + 10;
  for (size_t i = 0; i < n; ++i) {
    set.Insert("url" + std::to_string(i));
  }
  EXPECT_EQ(set.size(), UrlHashSet::kCapacity);
  EXPECT_TRUE(set.Contains("url0"));
  EXPECT_TRUE(set.Contains("url" + std::to_string(UrlHashSet::kCapacity - 1)));
  // Dropped once full.
  EXPECT_FALSE(set.Contains("url" + std::to_string(UrlHashSet::kCapacity)));
  EXPECT_FALSE(set.Contains("url" + std::to_string(n - 1)));
}

// Random hashes, with repeats, checked against std::set at every size from
// empty past the scan limit to the capacity, so both lookup paths and every
// index growth are covered.
TEST(UrlHashSetTest, ExactAgainstOracleAcrossIndexThreshold) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    UrlHashSet set;
    std::set<uint64_t> oracle;
    std::vector<uint64_t> inserted;
    // A small pool forces repeats and hashes that share low bits collide in
    // the index's probe sequences.
    const uint64_t pool = seed % 2 == 0 ? 3 * UrlHashSet::kCapacity : 1ULL << 40;
    for (size_t step = 0; step < UrlHashSet::kCapacity + 200; ++step) {
      const uint64_t h = rng.UniformU64(pool) << (seed == 3 ? 20 : 0);
      const bool fits = oracle.size() < UrlHashSet::kCapacity;
      if (fits && oracle.insert(h).second) {
        inserted.push_back(h);
      }
      set.InsertHash(h);
      ASSERT_EQ(set.size(), oracle.size()) << "seed " << seed << " step " << step;
      const uint64_t probe = rng.Bernoulli(0.5) && !inserted.empty()
                                 ? inserted[rng.UniformU64(inserted.size())]
                                 : rng.NextU64();
      ASSERT_EQ(set.ContainsHash(probe), oracle.contains(probe))
          << "seed " << seed << " step " << step;
    }
    EXPECT_EQ(Hashes(set), inserted);
    for (uint64_t h : inserted) {
      ASSERT_TRUE(set.ContainsHash(h));
    }
  }
}

// Recovery restores a set from its persisted hashes in one call. Restore
// must keep exactly what inserting them one by one would (order, no
// repeats, the capacity bound), so the restored set serializes to the
// same bytes and answers lookups and later inserts the same way. Sizes
// straddle the scan limit and the capacity; small pools force repeats.
TEST(UrlHashSetTest, RestoreKeepsWhatInsertsWould) {
  Rng rng(17);
  for (size_t n : {size_t{0}, size_t{1}, UrlHashSet::kScanLimit, UrlHashSet::kScanLimit + 1,
                   size_t{100}, UrlHashSet::kCapacity, UrlHashSet::kCapacity + 300}) {
    for (uint64_t pool : {uint64_t{8}, uint64_t{2 * UrlHashSet::kScanLimit},
                          uint64_t{UrlHashSet::kCapacity}, uint64_t{1} << 40}) {
      std::vector<uint64_t> hashes(n);
      for (uint64_t& h : hashes) {
        h = rng.UniformU64(pool);
      }
      UrlHashSet inserted;
      for (uint64_t h : hashes) {
        inserted.InsertHash(h);
      }
      UrlHashSet restored;
      restored.Restore(hashes);
      ASSERT_EQ(Hashes(restored), Hashes(inserted))
          << "n " << n << " pool " << pool;
      for (int i = 0; i < 64; ++i) {
        const uint64_t probe = rng.UniformU64(pool);
        ASSERT_EQ(restored.ContainsHash(probe), inserted.ContainsHash(probe));
        restored.InsertHash(probe);
        inserted.InsertHash(probe);
      }
      ASSERT_EQ(Hashes(restored), Hashes(inserted))
          << "n " << n << " pool " << pool;
    }
  }
}

}  // namespace
}  // namespace robodet
