#include "src/http/headers.h"

#include "src/util/strings.h"

namespace robodet {

void Headers::Set(std::string_view name, std::string_view value) {
  Remove(name);
  entries_.emplace_back(std::string(name), std::string(value));
}

void Headers::Add(std::string_view name, std::string_view value) {
  entries_.emplace_back(std::string(name), std::string(value));
}

std::optional<std::string_view> Headers::Get(std::string_view name) const {
  for (const auto& [k, v] : entries_) {
    if (EqualsIgnoreCase(k, name)) {
      return std::string_view(v);
    }
  }
  return std::nullopt;
}

size_t Headers::Remove(std::string_view name) {
  size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (EqualsIgnoreCase(it->first, name)) {
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

size_t Headers::WireSize() const {
  size_t total = 0;
  for (const auto& [k, v] : entries_) {
    total += k.size() + 2 + v.size() + 2;  // "k: v\r\n"
  }
  return total;
}

}  // namespace robodet
