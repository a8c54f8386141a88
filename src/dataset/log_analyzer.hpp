// Log Analyzer — Algorithm 1 of the paper.
//
// Categorizes the incremental dataset-change records into three per-graph
// counters: CT (total operations), CA (UA-exclusive count) and CR
// (UR-exclusive count). The Cache Validator (Algorithm 2) consumes the
// counters to decide, per cached query and per touched dataset graph,
// whether the cached relation survives:
//   * UA-only changes preserve positive results (g ⊆ G_i stays true), and
//   * UR-only changes preserve negative results (g ⊄ G_i stays true);
// every other combination invalidates the bit.

#ifndef GCP_DATASET_LOG_ANALYZER_HPP_
#define GCP_DATASET_LOG_ANALYZER_HPP_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dataset/change.hpp"

namespace gcp {

/// \brief The counter container C of Algorithm 1.
struct ChangeCounters {
  /// CT: graph id -> total number of operations of any type.
  std::unordered_map<GraphId, std::uint32_t> total;
  /// CA: graph id -> number of UA (edge addition) operations.
  std::unordered_map<GraphId, std::uint32_t> edge_adds;
  /// CR: graph id -> number of UR (edge removal) operations.
  std::unordered_map<GraphId, std::uint32_t> edge_removes;

  bool empty() const { return total.empty(); }

  /// True iff every operation touching `id` was UA (tc == uac, Alg. 2 l.12).
  bool IsUaExclusive(GraphId id) const;
  /// True iff every operation touching `id` was UR (tc == urc, Alg. 2 l.14).
  bool IsUrExclusive(GraphId id) const;
};

/// \brief Runs Algorithm 1 over the incremental records.
class LogAnalyzer {
 public:
  /// Analyzes `records` (the suffix of the dataset log not yet reflected in
  /// cache) and returns the per-graph operation counters.
  static ChangeCounters Analyze(const std::vector<ChangeRecord>& records);
};

}  // namespace gcp

#endif  // GCP_DATASET_LOG_ANALYZER_HPP_
