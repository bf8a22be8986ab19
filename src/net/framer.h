// The connection's answer to a request it rejects before any handler sees
// it: FrameRequest (src/http/wire.h) reports the violation, this renders
// the bytes the client gets before the close.
#ifndef ROBODET_SRC_NET_FRAMER_H_
#define ROBODET_SRC_NET_FRAMER_H_

#include <string>
#include <string_view>

#include "src/http/status.h"

namespace robodet {

// Renders a minimal, framing-correct error response for a rejected
// request ("HTTP/1.1 431 ...\r\nConnection: close\r\n..."), used by the
// connection when there is no parsed Request to answer properly.
std::string RenderErrorResponse(StatusCode status, std::string_view detail);

}  // namespace robodet

#endif  // ROBODET_SRC_NET_FRAMER_H_
