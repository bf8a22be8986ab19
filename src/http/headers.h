// A case-insensitive, order-preserving HTTP header map.
#ifndef ROBODET_SRC_HTTP_HEADERS_H_
#define ROBODET_SRC_HTTP_HEADERS_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace robodet {

class Headers {
 public:
  // Replaces all existing values of `name` with one value.
  void Set(std::string_view name, std::string_view value);

  // Appends a value, preserving any existing ones (e.g. Set-Cookie).
  void Add(std::string_view name, std::string_view value);

  // First value for `name`, if present (case-insensitive lookup).
  std::optional<std::string_view> Get(std::string_view name) const;

  bool Has(std::string_view name) const { return Get(name).has_value(); }

  // Removes every value of `name`; returns how many were removed.
  size_t Remove(std::string_view name);

  size_t size() const { return entries_.size(); }
  // Makes room for `n` entries in all, so adding up to that many allocates
  // no more slots.
  void Reserve(size_t n) { entries_.reserve(n); }

  const std::vector<std::pair<std::string, std::string>>& entries() const { return entries_; }

  // Total serialized byte size ("Name: value\r\n" per entry); used by the
  // bandwidth-overhead accounting.
  size_t WireSize() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace robodet

#endif  // ROBODET_SRC_HTTP_HEADERS_H_
