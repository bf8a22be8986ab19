// Per-session state. A session is a stream of requests from one
// <IP, User-Agent> pair with no idle gap longer than the configured
// timeout (one hour in the paper).
#ifndef ROBODET_SRC_PROXY_SESSION_H_
#define ROBODET_SRC_PROXY_SESSION_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/signals.h"
#include "src/http/request.h"
#include "src/util/hash.h"

namespace robodet {

struct SessionKey {
  IpAddress ip;
  std::string user_agent;

  friend bool operator==(const SessionKey& a, const SessionKey& b) {
    return a.ip == b.ip && a.user_agent == b.user_agent;
  }
};

struct SessionKeyHash {
  size_t operator()(const SessionKey& k) const {
    return static_cast<size_t>(HashCombine(k.ip.value(), Fnv1a(k.user_agent)));
  }
};

// Bounded, exact set of URL hashes that remembers insertion order.
// Sessions can be arbitrarily long (crawlers), so the attribution sets must
// not grow without bound; once full, new entries are dropped, which can only
// under-report "seen" — a conservative failure direction for the
// unseen-referrer robot signature. The set is exact (no Bloom filter): a
// false "seen" would flip that signature.
//
// Each hash is stored once, in an insertion-ordered vector. A small set is
// scanned; past kScanLimit entries an open-addressed index of positions into
// the vector answers Contains. An empty set allocates nothing.
class UrlHashSet {
 public:
  static constexpr size_t kCapacity = 4096;
  // Contains scans up to this many hashes before the set builds its index.
  static constexpr size_t kScanLimit = 16;

  void Insert(std::string_view url) { InsertHash(Fnv1a(url)); }

  void InsertHash(uint64_t hash);

  // Recovery-only: replaces the contents with what inserting `hashes` one
  // by one into an empty set would keep (the first kCapacity distinct
  // hashes, in order), taking over the vector and building the index
  // once. Insertion order is kept so two tables restored from the same
  // bytes serialize identically.
  void Restore(std::vector<uint64_t> hashes);

  bool Contains(std::string_view url) const { return ContainsHash(Fnv1a(url)); }
  bool ContainsHash(uint64_t hash) const;
  size_t size() const { return hashes_.size(); }

  // Hashes in insertion order (deterministic serialization order).
  const std::vector<uint64_t>& ordered_hashes() const { return hashes_; }

 private:
  // The index's size is a function of the set's: the smallest power of two
  // that keeps it at most half full.
  size_t IndexSlots() const { return std::bit_ceil(2 * hashes_.size()); }
  // Records hashes_[position] in the index.
  void IndexPosition(size_t position);
  void Reindex();

  std::vector<uint64_t> hashes_;
  // Open-addressed, linear probing: 0 is an empty slot, p is hashes_[p - 1].
  // Null until the set outgrows kScanLimit.
  std::unique_ptr<uint16_t[]> index_;
  static_assert(kCapacity <= UINT16_MAX, "index positions are 16-bit");
};

class SessionState {
 public:
  SessionState(uint64_t id, SessionKey key, TimeMs start)
      : id_(id), key_(std::move(key)), first_request_(start), last_request_(start) {}

  uint64_t id() const { return id_; }
  const SessionKey& key() const { return key_; }
  TimeMs first_request_time() const { return first_request_; }
  TimeMs last_request_time() const { return last_request_; }
  int request_count() const { return observation_.request_count; }

  // The detector-visible view; detectors and archived records share it.
  const SessionObservation& observation() const { return observation_; }

  SessionSignals& signals() { return observation_.signals; }
  const SessionSignals& signals() const { return observation_.signals; }

  const std::vector<RequestEvent>& events() const { return events_; }

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
    if (observation_.instrumented_page_indices.size() < 64) {
      // The page being instrumented is the request currently in flight.
      observation_.instrumented_page_indices.push_back(observation_.request_count + 1);
    }
  }

  static constexpr size_t kMaxTrackedEvents = 256;

  // --- Recovery-only hooks --------------------------------------------
  // Used by the persistence layer to rebuild a session from a decoded
  // snapshot/journal image. Not for serving paths: they bypass the
  // signal-marking logic that RecordRequest enforces.
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
  std::vector<RequestEvent>& mutable_events() { return events_; }
  std::vector<int>& mutable_instrumented_page_indices() {
    return observation_.instrumented_page_indices;
  }

 private:
  uint64_t id_;
  SessionKey key_;
  TimeMs first_request_;
  TimeMs last_request_;
  SessionObservation observation_;
  std::vector<RequestEvent> events_;
  UrlHashSet served_links_;
  UrlHashSet served_embeds_;
  UrlHashSet visited_urls_;
  bool blocked_ = false;
  int cgi_requests_ = 0;
  int get_requests_ = 0;
  int error_responses_ = 0;
};

}  // namespace robodet

#endif  // ROBODET_SRC_PROXY_SESSION_H_
