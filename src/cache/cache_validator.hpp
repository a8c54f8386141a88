// Cache Validator — Algorithm 2 of the paper.
//
// Refreshes the dataset-graph-validity indicator (CGvalid) of cached
// queries against the operation counters produced by the Log Analyzer
// (Algorithm 1). Per touched dataset graph G_i:
//   * UA-exclusive changes (only edge additions) preserve a valid positive
//     result g ⊆ G_i — adding edges cannot destroy a containment;
//   * UR-exclusive changes (only edge removals) preserve a valid negative
//     result g ⊄ G_i — removing edges cannot create a containment;
//   * everything else (ADD, DEL, mixed UA+UR, or a change conflicting
//     with the cached polarity) turns the validity bit off.
// Newly added dataset graphs appear as indicator extension with bits
// defaulting to false (relation unknown).
//
// The stores' ValidateAll runs RefreshEntry over every resident entry on
// each CON reconcile: a CGvalid indicator spans the whole corpus, so no
// resident can be ruled out of a batch up front.

#ifndef GCP_CACHE_CACHE_VALIDATOR_HPP_
#define GCP_CACHE_CACHE_VALIDATOR_HPP_

#include <cstddef>

#include "cache/cache_entry.hpp"
#include "dataset/log_analyzer.hpp"

namespace gcp {

/// \brief Applies Algorithm 2 to cached queries.
class CacheValidator {
 public:
  /// Refreshes one entry's CGvalid given the counters and the current id
  /// horizon (m + 1 of Algorithm 2). Also aligns the answer snapshot's
  /// size so downstream bitset algebra operates on equal widths.
  static void RefreshEntry(CachedQuery& entry, const ChangeCounters& counters,
                           std::size_t id_horizon);

  /// Lines 4-6 alone: extends the indicator/answer to `id_horizon` with
  /// false bits. Never flips an existing bit.
  static void ExtendEntry(CachedQuery& entry, std::size_t id_horizon);

  /// Folds a freshly computed twin's knowledge into the resident entry:
  /// both are extended to the wider horizon, the offer's answer
  /// overwrites the range it is valid for, and the valid sets union.
  /// Exact only when both sides are reconciled to the same watermark —
  /// they then agree wherever both are valid. Can widen the bitsets, so
  /// the owning store must refresh the resident's byte account afterwards.
  static void MergeKnowledge(CachedQuery& resident, CachedQuery& offer);
};

}  // namespace gcp

#endif  // GCP_CACHE_CACHE_VALIDATOR_HPP_
