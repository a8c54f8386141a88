// Tiny command-line flag parser for the bench harnesses and examples.
//
// Supports `--key=value`, `--key value` and boolean `--key` forms. Not a
// general-purpose library; just enough to parameterize experiments
// (--graphs, --queries, --seed, ...) the way the paper's harness was.

#ifndef GCP_COMMON_FLAGS_HPP_
#define GCP_COMMON_FLAGS_HPP_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace gcp {

/// \brief Parsed command line: named flags plus positional arguments.
class Flags {
 public:
  /// Parses argv. Unknown flags are kept (validation is the caller's
  /// business via RequireKnown).
  static Flags Parse(int argc, const char* const* argv);

  /// True when the flag was present on the command line.
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// String value or `def` when absent.
  std::string GetString(const std::string& key, const std::string& def) const;
  /// Integer value or `def` when absent/malformed.
  std::int64_t GetInt(const std::string& key, std::int64_t def) const;
  /// Count value (a plain decimal number in [0, max]) or `def` when
  /// absent. InvalidArgument when the value is empty, negative,
  /// non-numeric or above `max` — a count flag never wraps or silently
  /// falls back to its default.
  Result<std::uint64_t> GetCount(
      const std::string& key, std::uint64_t def,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  /// Double value or `def` when absent/malformed.
  double GetDouble(const std::string& key, double def) const;
  /// Bool value ("", "1", "true", "yes" => true) or `def` when absent.
  bool GetBool(const std::string& key, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Returns InvalidArgument when a present flag is not in `known`.
  Status RequireKnown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace gcp

#endif  // GCP_COMMON_FLAGS_HPP_
