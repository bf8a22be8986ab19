#include "src/net/framer.h"

namespace robodet {

std::string RenderErrorResponse(StatusCode status, std::string_view detail) {
  std::string body(detail);
  if (!body.empty()) {
    body += '\n';
  }
  std::string out = "HTTP/1.1 ";
  out += std::to_string(StatusValue(status));
  out += ' ';
  out += ReasonPhrase(status);
  out += "\r\nContent-Type: text/plain\r\nConnection: close\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\n\r\n";
  out += body;
  return out;
}

}  // namespace robodet
