// Per-session state. A session is a stream of requests from one
// <IP, User-Agent> pair with no idle gap longer than the configured
// timeout (one hour in the paper).
#ifndef ROBODET_SRC_PROXY_SESSION_H_
#define ROBODET_SRC_PROXY_SESSION_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/signals.h"
#include "src/http/request.h"
#include "src/util/hash.h"

namespace robodet {

// A session key as views: how a request names its session without copying
// its User-Agent, and how a live session shows its key. The views borrow
// from the request or the session.
struct SessionKeyView {
  IpAddress ip;
  std::string_view user_agent;
};

// An owning session key, for callers that keep keys beyond the request
// that carried them.
struct SessionKey {
  IpAddress ip;
  std::string user_agent;

  operator SessionKeyView() const { return {ip, user_agent}; }
};

// Combines the address with the agent's Fnv1a. A session id is derived
// from this value, so it must not change.
constexpr uint64_t SessionKeyHashOf(IpAddress ip, uint64_t agent_hash) {
  return HashCombine(ip.value(), agent_hash);
}

// One heap copy of a User-Agent string and its Fnv1a, shared by reference
// count and freed with its last holder. A SessionTable gives every session
// of a shard with the same agent the same copy, so a flood that draws on a
// few agents stores each of them once per shard, not once per session.
class SharedUserAgent {
 public:
  explicit SharedUserAgent(std::string_view text) : SharedUserAgent(text, Fnv1a(text)) {}
  SharedUserAgent(const SharedUserAgent& other) noexcept : block_(other.block_) {
    block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  SharedUserAgent(SharedUserAgent&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  SharedUserAgent& operator=(const SharedUserAgent&) = delete;
  ~SharedUserAgent();

  std::string_view text() const {
    return {reinterpret_cast<const char*>(block_ + 1), block_->size};
  }
  // Fnv1a(text()), computed once.
  uint64_t hash() const { return block_->hash; }

 private:
  friend class SessionTable;

  // Followed in the same allocation by the text.
  struct Block {
    std::atomic<uint32_t> refs;
    uint32_t size;
    uint64_t hash;
    // How many sessions in a table hold this copy. Only the table that
    // made the copy counts here, under the lock of its shard.
    uint32_t table_uses;
  };

  SharedUserAgent(std::string_view text, uint64_t hash);

  Block* block_;  // Null once moved from.
};

// Bounded, exact set of URL hashes that remembers insertion order.
// Sessions can be arbitrarily long (crawlers), so the attribution sets must
// not grow without bound; once full, new entries are dropped, which can only
// under-report "seen" — a conservative failure direction for the
// unseen-referrer robot signature. The set is exact (no Bloom filter): a
// false "seen" would flip that signature.
//
// The set is one pointer to one heap block, null while empty: a header,
// then each hash once, in insertion order, then, once the capacity passes
// kScanLimit, an open-addressed index of positions into the hashes. A set
// with room for at most kScanLimit hashes is scanned instead.
class UrlHashSet {
 public:
  static constexpr size_t kCapacity = 4096;
  // Contains scans up to this many hashes before the set builds its index.
  static constexpr size_t kScanLimit = 16;

  UrlHashSet() = default;
  UrlHashSet(UrlHashSet&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  UrlHashSet& operator=(UrlHashSet&& other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~UrlHashSet();

  void Insert(std::string_view url) { InsertHash(Fnv1a(url)); }

  void InsertHash(uint64_t hash);

  // Recovery-only: replaces the contents with what inserting `hashes` one
  // by one into an empty set would keep (the first kCapacity distinct
  // hashes, in order), in a block sized to fit them. Insertion order is
  // kept so two tables restored from the same bytes serialize identically.
  void Restore(std::span<const uint64_t> hashes);

  bool Contains(std::string_view url) const { return ContainsHash(Fnv1a(url)); }
  bool ContainsHash(uint64_t hash) const;
  size_t size() const { return block_ == nullptr ? 0 : block_->size; }

  // Hashes in insertion order (deterministic serialization order).
  std::span<const uint64_t> ordered_hashes() const {
    return block_ == nullptr ? std::span<const uint64_t>() : std::span(Hashes(block_), size());
  }

 private:
  // Followed in the same allocation by `capacity` hashes and then, when
  // capacity > kScanLimit, IndexSlots(capacity) 16-bit index slots.
  struct Header {
    uint32_t size;
    uint32_t capacity;
  };

  static uint64_t* Hashes(Header* block) { return reinterpret_cast<uint64_t*>(block + 1); }
  // The smallest power of two that keeps a full set at most half full; 0
  // while the set is scanned.
  static size_t IndexSlots(size_t capacity) {
    return capacity > kScanLimit ? std::bit_ceil(2 * capacity) : 0;
  }
  // Open-addressed, linear probing: 0 is an empty slot, p is hash p - 1.
  static uint16_t* Index(Header* block) {
    return reinterpret_cast<uint16_t*>(Hashes(block) + block->capacity);
  }
  // Moves the contents into a new block with room for `capacity` hashes.
  void Reallocate(size_t capacity);
  // Appends `hash` unless the set holds it; there must be room.
  void Add(uint64_t hash);

  Header* block_ = nullptr;
  static_assert(kCapacity <= UINT16_MAX, "index positions are 16-bit");
};

// A session's stored request events, oldest first; its owner caps them.
// Like UrlHashSet it is one pointer to one heap block (a count, a
// capacity, the events), null while empty: 8 bytes of the session where a
// vector takes 24.
class EventLog {
 public:
  EventLog() = default;
  EventLog(EventLog&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  EventLog& operator=(EventLog&& other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~EventLog();

  size_t size() const { return block_ == nullptr ? 0 : block_->size; }
  std::span<const RequestEvent> view() const {
    return block_ == nullptr ? std::span<const RequestEvent>()
                             : std::span(reinterpret_cast<const RequestEvent*>(block_ + 1), size());
  }

  void Append(const RequestEvent& event);
  // Appends `events`; an empty log takes them in a block sized to fit.
  void Append(std::span<const RequestEvent> events);

 private:
  // Followed in the same allocation by `capacity` events.
  struct Header {
    uint32_t size;
    uint32_t capacity;
  };
  RequestEvent* Events() { return reinterpret_cast<RequestEvent*>(block_ + 1); }
  void Reallocate(size_t capacity);

  Header* block_ = nullptr;
};

class SessionState {
 public:
  SessionState(uint64_t id, IpAddress ip, SharedUserAgent user_agent, TimeMs start)
      : id_(id),
        user_agent_(std::move(user_agent)),
        first_request_(start),
        last_request_(start),
        ip_(ip) {}
  // A table links sessions by address.
  SessionState(const SessionState&) = delete;
  SessionState& operator=(const SessionState&) = delete;

  uint64_t id() const { return id_; }
  SessionKeyView key() const { return {ip_, user_agent_.text()}; }
  TimeMs first_request_time() const { return first_request_; }
  TimeMs last_request_time() const { return last_request_; }
  int request_count() const { return observation_.request_count; }

  // The detector-visible view; detectors and archived records share it.
  const SessionObservation& observation() const { return observation_; }

  SessionSignals& signals() { return observation_.signals; }
  const SessionSignals& signals() const { return observation_.signals; }

  std::span<const RequestEvent> events() const { return events_.view(); }

  // URL attribution sets.
  UrlHashSet& served_links() { return served_links_; }
  UrlHashSet& served_embeds() { return served_embeds_; }
  UrlHashSet& visited_urls() { return visited_urls_; }
  const UrlHashSet& served_links() const { return served_links_; }
  const UrlHashSet& served_embeds() const { return served_embeds_; }
  const UrlHashSet& visited_urls() const { return visited_urls_; }

  // Registers one request; returns its 1-based index within the session.
  // Events beyond `max_tracked_events` update counters/attribution but are
  // not stored individually.
  int RecordRequest(TimeMs now, const RequestEvent& event);

  // Marks a signal's first firing at the given request index (no-op if the
  // signal already fired earlier).
  static void MarkSignal(int& slot, int request_index) {
    if (slot == 0) {
      slot = request_index;
    }
  }

  // Policy bookkeeping (set by the rate limiter).
  bool blocked() const { return blocked_; }
  void set_blocked(bool b) { blocked_ = b; }

  // Sliding-rate counters used by the policy engine.
  int cgi_requests() const { return cgi_requests_; }
  int get_requests() const { return get_requests_; }
  int error_responses() const { return error_responses_; }

  // How many instrumented HTML pages this session has been served; the
  // browser test needs it to judge "was offered N probes, fetched none".
  int instrumented_pages() const { return observation_.instrumented_pages; }
  void NoteInstrumentedPage() {
    ++observation_.instrumented_pages;
    if (observation_.instrumented_page_indices.size() < kMaxPageIndices) {
      // The page being instrumented is the request currently in flight.
      observation_.instrumented_page_indices.push_back(observation_.request_count + 1);
    }
  }

  static constexpr size_t kMaxTrackedEvents = 256;
  // Instrumented pages whose request index the session keeps.
  static constexpr size_t kMaxPageIndices = 64;

  // --- Recovery-only hooks --------------------------------------------
  // Used by the persistence layer to rebuild a session from decoded
  // records. Not for serving paths: they
  // bypass the signal-marking logic that RecordRequest enforces.
  void RestoreScalars(TimeMs last_request, int request_count, int instrumented_pages,
                      bool blocked, int cgi_requests, int get_requests, int error_responses) {
    last_request_ = last_request;
    observation_.request_count = request_count;
    observation_.instrumented_pages = instrumented_pages;
    blocked_ = blocked;
    cgi_requests_ = cgi_requests;
    get_requests_ = get_requests;
    error_responses_ = error_responses;
  }
  // Appends `events` to the stored ones, keeping at most
  // kMaxTrackedEvents in all.
  void RestoreEvents(std::span<const RequestEvent> events) {
    const size_t room = kMaxTrackedEvents - std::min(events_.size(), kMaxTrackedEvents);
    events_.Append(events.first(std::min(events.size(), room)));
  }
  std::vector<int>& mutable_instrumented_page_indices() {
    return observation_.instrumented_page_indices;
  }

 private:
  friend class SessionTable;

  uint64_t id_;
  SharedUserAgent user_agent_;
  TimeMs first_request_;
  TimeMs last_request_;
  SessionObservation observation_;
  EventLog events_;
  UrlHashSet served_links_;
  UrlHashSet served_embeds_;
  UrlHashSet visited_urls_;
  // The next session in the same bucket of the table that holds this one,
  // so a session and its table slot are one allocation.
  SessionState* chain_next_ = nullptr;
  IpAddress ip_;
  int cgi_requests_ = 0;
  int get_requests_ = 0;
  int error_responses_ = 0;
  bool blocked_ = false;
};

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_SESSION_H_
