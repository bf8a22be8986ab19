// Test helpers over the persistence codec: a snapshot read whole into
// vectors of images through the streaming SnapshotReader, and a model of
// journal replay on a session image, which the tests compare the live
// tables and the readers against.
#ifndef ROBODET_TESTS_PROXY_PERSISTENCE_TEST_UTIL_H_
#define ROBODET_TESTS_PROXY_PERSISTENCE_TEST_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/proxy/persistence/format.h"

namespace robodet::persistence {

struct SnapshotContents {
  uint64_t epoch = 0;
  TimeMs created_at = 0;
  std::vector<KeyEntryImage> keys;
  std::vector<SessionImage> sessions;
  size_t sections_total = 0;
  size_t sections_dropped = 0;
};

// Every entry of the snapshot in `in`, read by SnapshotReader. False when
// the header is invalid.
inline bool ReadSnapshot(std::istream* in, SnapshotContents* out) {
  *out = SnapshotContents{};
  SnapshotReader reader;
  if (!reader.Open(in)) {
    return false;
  }
  reader.ForEachEntry([out](const KeyEntryImage& k) { out->keys.push_back(k); },
                      [out](const SessionImage& s) { out->sessions.push_back(s); });
  out->epoch = reader.epoch();
  out->created_at = reader.created_at();
  out->sections_total = reader.sections_total();
  out->sections_dropped = reader.sections_dropped();
  return true;
}

inline bool ReadSnapshot(std::string_view bytes, SnapshotContents* out) {
  std::istringstream in{std::string(bytes)};
  return ReadSnapshot(&in, out);
}

template <typename T>
void ApplySuffix(std::vector<T>* dst, const std::vector<T>& suffix, uint32_t before) {
  if (dst->size() == before) {
    dst->insert(dst->end(), suffix.begin(), suffix.end());
  }
}

// Brings `img` up to date with `u` the way recovery replays it: overwrites
// the scalars and appends each suffix whose run is exactly at its mark.
inline void ApplySessionUpdate(const SessionUpdateImage& u, SessionImage* img) {
  const SessionImage& d = u.delta;
  img->id = d.id;
  img->ip = d.ip;
  img->user_agent = d.user_agent;
  img->first_request = d.first_request;
  img->last_request = d.last_request;
  img->signals = d.signals;
  img->request_count = d.request_count;
  img->instrumented_pages = d.instrumented_pages;
  img->blocked = d.blocked;
  img->cgi_requests = d.cgi_requests;
  img->get_requests = d.get_requests;
  img->error_responses = d.error_responses;
  ApplySuffix(&img->instrumented_page_indices, d.instrumented_page_indices,
              u.before.page_indices);
  ApplySuffix(&img->events, d.events, u.before.events);
  ApplySuffix(&img->served_links, d.served_links, u.before.links);
  ApplySuffix(&img->served_embeds, d.served_embeds, u.before.embeds);
  ApplySuffix(&img->visited_urls, d.visited_urls, u.before.visited);
}

}  // namespace robodet::persistence

#endif  // ROBODET_TESTS_PROXY_PERSISTENCE_TEST_UTIL_H_
