// Tiny --key=value flag parser for the robodet command-line tools.
#ifndef ROBODET_TOOLS_FLAGS_H_
#define ROBODET_TOOLS_FLAGS_H_

#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace robodet {

class Flags {
 public:
  // Parses argv of the form --key=value or bare --key (value "1").
  // Non-flag arguments are collected in positional() for tools that take
  // them (robodet_statedump accepts a bare state directory).
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.emplace_back(arg);
        continue;
      }
      arg.remove_prefix(2);
      const size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        values_[std::string(arg)].assign(1, '1');
      } else {
        values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      }
    }
  }

  std::string GetString(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }

  long GetInt(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? std::atol(it->second.c_str()) : fallback;
  }

  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? std::atof(it->second.c_str()) : fallback;
  }

  bool GetBool(const std::string& key) const { return values_.contains(key); }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace robodet

#endif  // ROBODET_TOOLS_FLAGS_H_
