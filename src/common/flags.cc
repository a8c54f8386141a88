#include "common/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>

namespace gcp {

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself a flag; `--key`
    // otherwise (boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "";
    }
  }
  return flags;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::GetInt(const std::string& key, std::int64_t def) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return def;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? v : def;
}

Result<std::uint64_t> Flags::GetCount(const std::string& key,
                                     std::uint64_t def,
                                     std::uint64_t max) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& text = it->second;
  const char* const last = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (end != last || ec == std::errc::invalid_argument) {
    return Status::InvalidArgument("--" + key + "=" + text +
                                   " is not a non-negative integer");
  }
  if (ec == std::errc::result_out_of_range || v > max) {
    return Status::InvalidArgument("--" + key + "=" + text +
                                   " is out of range (max " +
                                   std::to_string(max) + ")");
  }
  return v;
}

double Flags::GetDouble(const std::string& key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return (end != nullptr && *end == '\0') ? v : def;
}

bool Flags::GetBool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  return false;
}

Status Flags::RequireKnown(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  return Status::OK();
}

}  // namespace gcp
