#include "common/cli_args.hpp"

#include <algorithm>

namespace sparsenn {

CliArgs::CliArgs(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    if (i + 1 >= argc) {
      throw UsageError("--" + key + " expects a value");
    }
    values_[key] = argv[i + 1];
  }
}

std::string CliArgs::get(const std::string& key,
                         const std::string& dflt) const {
  const auto it = values_.find(key);
  return it == values_.end() ? dflt : it->second;
}

std::size_t CliArgs::get_size(const std::string& key,
                              std::size_t dflt) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  // std::stoul alone silently wraps negatives to SIZE_MAX and accepts
  // trailing junk; reject both with a usable message.
  std::size_t consumed = 0;
  unsigned long value = 0;
  try {
    value = std::stoul(it->second, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (it->second.empty() || consumed != it->second.size() ||
      it->second.find('-') != std::string::npos) {
    throw UsageError("--" + key + " expects a non-negative integer, got '" +
                     it->second + "'");
  }
  return static_cast<std::size_t>(value);
}

void CliArgs::reject_unknown(std::span<const std::string_view> known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw UsageError("unknown flag --" + key);
  }
}

}  // namespace sparsenn
