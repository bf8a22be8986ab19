// A test model of session-update replay on a session image, which the
// tests compare the live tables and the reader against.
#ifndef ROBODET_TESTS_PROXY_PERSISTENCE_TEST_UTIL_H_
#define ROBODET_TESTS_PROXY_PERSISTENCE_TEST_UTIL_H_

#include <vector>

#include "src/proxy/persistence/format.h"

namespace robodet::persistence {

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
