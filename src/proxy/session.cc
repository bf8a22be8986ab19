#include "src/proxy/session.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

namespace robodet {

namespace {

// Fibonacci hashing: the top bits of the product mix every input bit.
size_t HomeSlot(uint64_t hash, size_t slots) {
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> (64 - std::countr_zero(slots)));
}

}  // namespace

SharedUserAgent::SharedUserAgent(std::string_view text, uint64_t hash)
    : block_(static_cast<Block*>(::operator new(sizeof(Block) + text.size()))) {
  new (block_) Block{{1}, static_cast<uint32_t>(text.size()), hash, 0};
  // A request with no User-Agent has an empty agent whose data() may be
  // null, which memcpy must not be given even for no bytes.
  if (!text.empty()) {
    std::memcpy(reinterpret_cast<char*>(block_ + 1), text.data(), text.size());
  }
}

SharedUserAgent::~SharedUserAgent() {
  if (block_ != nullptr && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    block_->~Block();
    ::operator delete(block_);
  }
}

UrlHashSet::~UrlHashSet() { ::operator delete(block_); }

bool UrlHashSet::ContainsHash(uint64_t hash) const {
  if (block_ == nullptr) {
    return false;
  }
  const uint64_t* hashes = Hashes(block_);
  const size_t slots = IndexSlots(block_->capacity);
  if (slots == 0) {
    return std::find(hashes, hashes + block_->size, hash) != hashes + block_->size;
  }
  const uint16_t* index = Index(block_);
  for (size_t slot = HomeSlot(hash, slots);; slot = (slot + 1) & (slots - 1)) {
    const uint16_t p = index[slot];
    if (p == 0) {
      return false;
    }
    if (hashes[p - 1] == hash) {
      return true;
    }
  }
}

void UrlHashSet::InsertHash(uint64_t hash) {
  const size_t n = size();
  if (n >= kCapacity) {
    return;
  }
  if (block_ == nullptr || n == block_->capacity) {
    if (ContainsHash(hash)) {
      return;
    }
    Reallocate(std::min(std::max<size_t>(1, 2 * n), kCapacity));
  }
  Add(hash);
}

void UrlHashSet::Restore(std::span<const uint64_t> hashes) {
  ::operator delete(std::exchange(block_, nullptr));
  if (hashes.empty()) {
    return;
  }
  // Repeats only make the block larger than it needs to be.
  Reallocate(std::min(hashes.size(), kCapacity));
  for (size_t i = 0; i < hashes.size() && block_->size < kCapacity; ++i) {
    Add(hashes[i]);
  }
}

void UrlHashSet::Reallocate(size_t capacity) {
  const size_t slots = IndexSlots(capacity);
  auto* block = static_cast<Header*>(::operator new(
      sizeof(Header) + capacity * sizeof(uint64_t) + slots * sizeof(uint16_t)));
  *block = Header{0, static_cast<uint32_t>(capacity)};
  std::memset(Index(block), 0, slots * sizeof(uint16_t));
  Header* old = std::exchange(block_, block);
  if (old != nullptr) {
    for (uint32_t i = 0; i < old->size; ++i) {
      Add(Hashes(old)[i]);
    }
    ::operator delete(old);
  }
}

void UrlHashSet::Add(uint64_t hash) {
  uint64_t* hashes = Hashes(block_);
  const uint32_t n = block_->size;
  const size_t slots = IndexSlots(block_->capacity);
  if (slots == 0) {
    if (std::find(hashes, hashes + n, hash) != hashes + n) {
      return;
    }
  } else {
    // One probe finds the hash or the empty slot it goes in.
    uint16_t* index = Index(block_);
    size_t slot = HomeSlot(hash, slots);
    for (; index[slot] != 0; slot = (slot + 1) & (slots - 1)) {
      if (hashes[index[slot] - 1] == hash) {
        return;
      }
    }
    index[slot] = static_cast<uint16_t>(n + 1);
  }
  hashes[n] = hash;
  block_->size = n + 1;
}

EventLog::~EventLog() { ::operator delete(block_); }

void EventLog::Append(const RequestEvent& event) {
  const size_t n = size();
  if (block_ == nullptr || n == block_->capacity) {
    Reallocate(std::max<size_t>(1, 2 * n));
  }
  Events()[block_->size++] = event;
}

void EventLog::Append(std::span<const RequestEvent> events) {
  if (events.empty()) {
    return;
  }
  const size_t n = size();
  if (block_ == nullptr || n + events.size() > block_->capacity) {
    Reallocate(std::max(n + events.size(), 2 * n));
  }
  std::copy(events.begin(), events.end(), Events() + n);
  block_->size = static_cast<uint32_t>(n + events.size());
}

void EventLog::Reallocate(size_t capacity) {
  auto* block = static_cast<Header*>(
      ::operator new(sizeof(Header) + capacity * sizeof(RequestEvent)));
  *block = Header{0, static_cast<uint32_t>(capacity)};
  Header* old = std::exchange(block_, block);
  if (old != nullptr) {
    const std::span<const RequestEvent> kept(reinterpret_cast<const RequestEvent*>(old + 1),
                                             old->size);
    std::copy(kept.begin(), kept.end(), Events());
    block_->size = old->size;
    ::operator delete(old);
  }
}

int SessionState::RecordRequest(TimeMs now, const RequestEvent& event) {
  ++observation_.request_count;
  if (now > last_request_) {
    last_request_ = now;
  }
  if (events_.size() < kMaxTrackedEvents) {
    events_.Append(event);
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
