#include "src/sim/gateway.h"

namespace robodet {

void Gateway::RecordOutcome(const ProxyServer::Result& result, FetchStats* stats) {
  if (stats == nullptr) {
    return;
  }
  ++stats->requests;
  if (result.degraded != DegradationLevel::kFull) {
    ++stats->degraded;
    if (result.degraded == DegradationLevel::kShed) {
      ++stats->shed;
    }
  }
  if (result.blocked) {
    ++stats->blocked;
  } else if (Is3xx(result.response.status)) {
    ++stats->redirects;
  } else if (Is4xx(result.response.status) || Is5xx(result.response.status)) {
    ++stats->errors;
  } else {
    ++stats->ok;
  }
}

Gateway::FetchResult Gateway::Fetch(const ClientIdentity& id, Method method, const Url& url,
                                    std::string_view referrer, FetchStats* stats,
                                    const Headers* extra_headers) {
  Request request;
  request.time = clock_->Now();
  request.client_ip = id.ip;
  request.method = method;
  request.url = url;
  request.headers.Set("Host", url.host());
  request.headers.Set("User-Agent", id.user_agent);
  if (!referrer.empty()) {
    request.headers.Set("Referer", referrer);
  }
  if (extra_headers != nullptr) {
    for (const auto& [name, value] : extra_headers->entries()) {
      request.headers.Set(name, value);
    }
  }

  ProxyServer* target = router_ ? router_(id) : proxy_;
  ProxyServer::Result result = target->Handle(request);
  RecordOutcome(result, stats);
  FetchResult out;
  out.response = std::move(result.response);
  out.blocked = result.blocked;
  return out;
}

Gateway::FetchResult Gateway::Post(const ClientIdentity& id, const Url& url,
                                   std::string body, std::string_view referrer,
                                   FetchStats* stats) {
  Request request;
  request.time = clock_->Now();
  request.client_ip = id.ip;
  request.method = Method::kPost;
  request.url = url;
  request.headers.Set("Host", url.host());
  request.headers.Set("User-Agent", id.user_agent);
  request.headers.Set("Content-Type", "application/x-www-form-urlencoded");
  request.headers.Set("Content-Length", std::to_string(body.size()));
  if (!referrer.empty()) {
    request.headers.Set("Referer", referrer);
  }
  request.body = std::move(body);

  ProxyServer* target = router_ ? router_(id) : proxy_;
  ProxyServer::Result result = target->Handle(request);
  RecordOutcome(result, stats);
  FetchResult out;
  out.response = std::move(result.response);
  out.blocked = result.blocked;
  return out;
}

}  // namespace robodet
