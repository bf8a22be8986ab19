#include "src/proxy/session.h"

#include <algorithm>
#include <bit>

namespace robodet {

namespace {

// Fibonacci hashing: the top bits of the product mix every input bit.
size_t HomeSlot(uint64_t hash, size_t slots) {
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> (64 - std::countr_zero(slots)));
}

}  // namespace

bool UrlHashSet::ContainsHash(uint64_t hash) const {
  if (index_ == nullptr) {
    return std::find(hashes_.begin(), hashes_.end(), hash) != hashes_.end();
  }
  const size_t slots = IndexSlots();
  for (size_t slot = HomeSlot(hash, slots);; slot = (slot + 1) & (slots - 1)) {
    const uint16_t p = index_[slot];
    if (p == 0) {
      return false;
    }
    if (hashes_[p - 1] == hash) {
      return true;
    }
  }
}

void UrlHashSet::InsertHash(uint64_t hash) {
  if (hashes_.size() >= kCapacity || ContainsHash(hash)) {
    return;
  }
  const size_t slots_before = IndexSlots();
  hashes_.push_back(hash);
  if (hashes_.size() <= kScanLimit) {
    return;
  }
  if (index_ == nullptr || IndexSlots() != slots_before) {
    Reindex();
  } else {
    IndexPosition(hashes_.size() - 1);
  }
}

void UrlHashSet::Restore(std::vector<uint64_t> hashes) {
  hashes_ = std::move(hashes);
  index_.reset();
  size_t kept = 0;
  size_t slots = 0;
  if (hashes_.size() <= kScanLimit) {
    for (const uint64_t hash : hashes_) {
      if (std::find(hashes_.begin(), hashes_.begin() + kept, hash) == hashes_.begin() + kept) {
        hashes_[kept++] = hash;
      }
    }
  } else {
    // Deduplicate through an index sized for the most the set can keep,
    // compacting in place: positions below `kept` hold final values.
    slots = std::bit_ceil(2 * std::min(hashes_.size(), kCapacity));
    index_ = std::make_unique<uint16_t[]>(slots);
    for (size_t i = 0; i < hashes_.size() && kept < kCapacity; ++i) {
      const uint64_t hash = hashes_[i];
      size_t slot = HomeSlot(hash, slots);
      while (index_[slot] != 0 && hashes_[index_[slot] - 1] != hash) {
        slot = (slot + 1) & (slots - 1);
      }
      if (index_[slot] == 0) {
        hashes_[kept++] = hash;
        index_[slot] = static_cast<uint16_t>(kept);
      }
    }
  }
  if (kept != hashes_.size()) {
    hashes_.resize(kept);
    hashes_.shrink_to_fit();
  }
  if (kept <= kScanLimit) {
    index_.reset();
  } else if (IndexSlots() != slots) {
    Reindex();
  }
}

void UrlHashSet::IndexPosition(size_t position) {
  const size_t slots = IndexSlots();
  size_t slot = HomeSlot(hashes_[position], slots);
  while (index_[slot] != 0) {
    slot = (slot + 1) & (slots - 1);
  }
  index_[slot] = static_cast<uint16_t>(position + 1);
}

void UrlHashSet::Reindex() {
  index_ = std::make_unique<uint16_t[]>(IndexSlots());
  for (size_t i = 0; i < hashes_.size(); ++i) {
    IndexPosition(i);
  }
}

int SessionState::RecordRequest(TimeMs now, const RequestEvent& event) {
  ++observation_.request_count;
  if (now > last_request_) {
    last_request_ = now;
  }
  if (events_.size() < kMaxTrackedEvents) {
    events_.push_back(event);
  }
  if (event.kind == ResourceKind::kCgi) {
    ++cgi_requests_;
  }
  if (!event.is_head) {
    ++get_requests_;
  }
  if (event.status_class >= 4) {
    ++error_responses_;
  }
  return observation_.request_count;
}

}  // namespace robodet
