#pragma once
// Minimal `--key value` command-line parser shared by the CLI and the
// benches. Parsing is strict where silence used to lose input: a
// trailing flag with no value (e.g. `--samples` at the end of the
// line) is a UsageError instead of silently falling back to the
// default, numeric values reject negatives and trailing junk, and a
// caller that knows its flag set rejects anything else (a typo such as
// `--sampels 8` would otherwise run with the default).

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sparsenn {

/// Malformed command-line input. Callers report it and exit 2, the
/// conventional usage-error status.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class CliArgs {
 public:
  /// Parses `--key value` pairs from argv[first..). A flag without a
  /// following value throws UsageError.
  CliArgs(int argc, const char* const* argv, int first);

  /// The raw value of --key, or `dflt` when absent.
  std::string get(const std::string& key, const std::string& dflt) const;

  /// --key as a non-negative integer; UsageError on empty, negative or
  /// non-numeric values (std::stoul alone would wrap or truncate).
  std::size_t get_size(const std::string& key, std::size_t dflt) const;

  bool has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

  /// Throws UsageError naming the first parsed flag (in key order) that
  /// is not in `known` (flag names without the leading `--`).
  void reject_unknown(std::span<const std::string_view> known) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace sparsenn
