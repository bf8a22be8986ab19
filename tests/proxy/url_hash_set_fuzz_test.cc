// Seeded property test for UrlHashSet's hand-managed block. Random
// sequences of InsertHash, ContainsHash, Restore and moves are checked
// after every step against a reference: a vector in insertion order plus
// an unordered_set. Small hash pools force repeats; long runs cross
// kScanLimit, every growth step and kCapacity. Deterministic, so a failure
// names its seed and step and reproduces under the sanitizer presets.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/proxy/session.h"
#include "src/util/rng.h"

namespace robodet {
namespace {

constexpr size_t kCapacity = UrlHashSet::kCapacity;
constexpr size_t kScanLimit = UrlHashSet::kScanLimit;

struct ReferenceSet {
  std::vector<uint64_t> order;
  std::unordered_set<uint64_t> members;

  void Insert(uint64_t hash) {
    if (order.size() < kCapacity && members.insert(hash).second) {
      order.push_back(hash);
    }
  }
  void Restore(std::span<const uint64_t> hashes) {
    order.clear();
    members.clear();
    for (const uint64_t hash : hashes) {
      Insert(hash);
    }
  }
};

std::vector<uint64_t> Hashes(const UrlHashSet& set) {
  const std::span<const uint64_t> hashes = set.ordered_hashes();
  return {hashes.begin(), hashes.end()};
}

// A Restore input: a prefix of what the set holds (as recovery replays
// it), repeats of its own entries, and fresh draws, in a random order of
// lengths that straddle the scan limit and the capacity.
std::vector<uint64_t> RestoreInput(Rng& rng, const ReferenceSet& ref, uint64_t pool) {
  static constexpr size_t kLengths[] = {0,  1,         kScanLimit - 1, kScanLimit, kScanLimit + 1,
                                        64, kCapacity, kCapacity + 1,  kCapacity + 300};
  const size_t n = kLengths[rng.UniformU64(std::size(kLengths))];
  std::vector<uint64_t> out(ref.order.begin(),
                            ref.order.begin() + static_cast<ptrdiff_t>(std::min(n, ref.order.size())));
  while (out.size() < n) {
    out.push_back(!out.empty() && rng.Bernoulli(0.2) ? out[rng.UniformU64(out.size())]
                                                     : rng.UniformU64(pool));
  }
  return out;
}

TEST(UrlHashSetPropertyTest, MatchesReferenceUnderRandomOperations) {
  constexpr uint64_t kPools[] = {4, kScanLimit, kScanLimit + 1, 3 * kScanLimit, 500,
                                 kCapacity + 500, uint64_t{1} << 40};
  for (uint64_t seed = 1; seed <= 28; ++seed) {
    Rng rng(seed);
    const uint64_t pool = kPools[seed % std::size(kPools)];
    // Large pools need enough inserts to fill the set past kCapacity.
    const int steps = pool > kCapacity ? 12000 : 3000;
    UrlHashSet set;
    ReferenceSet ref;
    for (int step = 0; step < steps; ++step) {
      const uint64_t op = rng.UniformU64(1000);
      if (op < 700) {
        const uint64_t hash = rng.UniformU64(pool);
        set.InsertHash(hash);
        ref.Insert(hash);
      } else if (op < 995) {
        const uint64_t probe = !ref.order.empty() && rng.Bernoulli(0.5)
                                   ? ref.order[rng.UniformU64(ref.order.size())]
                                   : rng.UniformU64(pool);
        ASSERT_EQ(set.ContainsHash(probe), ref.members.contains(probe))
            << "seed " << seed << " step " << step << " probe " << probe;
      } else if (op < 998) {
        const std::vector<uint64_t> input = RestoreInput(rng, ref, pool);
        set.Restore(input);
        ref.Restore(input);
      } else {
        UrlHashSet moved(std::move(set));
        set = std::move(moved);
      }
      ASSERT_EQ(set.size(), ref.order.size()) << "seed " << seed << " step " << step;
      if (step % 97 == 0) {
        ASSERT_EQ(Hashes(set), ref.order) << "seed " << seed << " step " << step;
      }
    }
    ASSERT_EQ(Hashes(set), ref.order) << "seed " << seed;
    for (const uint64_t hash : ref.order) {
      ASSERT_TRUE(set.ContainsHash(hash)) << "seed " << seed;
    }
  }
}

// The edges one by one: the last scanned size, the first indexed one, a
// full set refusing more, and Restore at and past the capacity with
// repeats placed on either side of the boundary.
TEST(UrlHashSetPropertyTest, ScanLimitAndCapacityEdges) {
  for (const size_t n : {kScanLimit, kScanLimit + 1, kCapacity - 1, kCapacity, kCapacity + 1}) {
    UrlHashSet set;
    ReferenceSet ref;
    for (uint64_t i = 0; i < n; ++i) {
      set.InsertHash(i * 0x9E3779B97F4A7C15ULL);
      ref.Insert(i * 0x9E3779B97F4A7C15ULL);
      set.InsertHash(0);  // A repeat of the first entry, every time.
      ref.Insert(0);
    }
    ASSERT_EQ(Hashes(set), ref.order) << "n " << n;
    ASSERT_EQ(set.size(), std::min(n, kCapacity));
    EXPECT_FALSE(set.ContainsHash(~uint64_t{0}));

    // Restore from what the set holds plus repeats, then past capacity.
    std::vector<uint64_t> input = ref.order;
    input.insert(input.begin() + static_cast<ptrdiff_t>(input.size() / 2), input.front());
    input.push_back(input.back());
    input.push_back(uint64_t{1} << 63);
    UrlHashSet restored;
    restored.Restore(input);
    ref.Restore(input);
    ASSERT_EQ(Hashes(restored), ref.order) << "n " << n;
    for (const uint64_t hash : input) {
      ASSERT_EQ(restored.ContainsHash(hash), ref.members.contains(hash)) << "n " << n;
    }
    restored.InsertHash(42);
    ref.Insert(42);
    ASSERT_EQ(Hashes(restored), ref.order) << "n " << n;

    restored.Restore({});
    EXPECT_EQ(restored.size(), 0u);
    EXPECT_FALSE(restored.ContainsHash(0));
  }
}

}  // namespace
}  // namespace robodet
