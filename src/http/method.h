// HTTP request methods.
#ifndef ROBODET_SRC_HTTP_METHOD_H_
#define ROBODET_SRC_HTTP_METHOD_H_

#include <optional>
#include <string_view>

namespace robodet {

enum class Method {
  kGet,
  kHead,
  kPost,
  kPut,
  kDelete,
  kOptions,
  kConnect,
  kTrace,
};

// Parses an exact (case-sensitive, per RFC 9110) method token.
std::optional<Method> ParseMethod(std::string_view token);

}  // namespace robodet

#endif  // ROBODET_SRC_HTTP_METHOD_H_
