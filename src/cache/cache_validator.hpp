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
// The algorithm splits into ExtendEntry (indicator extension, lines 4-6)
// and ApplyCounters (the per-touched-graph loop, lines 7-19) so the
// change-relevance index can extend every resident indicator while
// running the counter loop only over entries the batch can affect.

#ifndef GCP_CACHE_CACHE_VALIDATOR_HPP_
#define GCP_CACHE_CACHE_VALIDATOR_HPP_

#include <cstddef>
#include <functional>

#include "cache/cache_entry.hpp"
#include "cache/statistics.hpp"
#include "dataset/log_analyzer.hpp"

namespace gcp {

/// \brief Applies Algorithm 2 to cached queries.
class CacheValidator {
 public:
  /// Delta re-validation hook, consulted for every (entry, graph) pair
  /// Algorithm 2 is about to invalidate. Returns true when it handled
  /// the pair — kept the bit via a change-delta proof, or rewrote
  /// answer/valid from a fresh containment check; false falls through to
  /// the plain clear (line 17). `stats` is the owning store's counter
  /// sink for delta_revalidations / delta_fallback_full_checks.
  using DeltaRevalidateFn =
      std::function<bool(CachedQuery& entry, GraphId graph_id,
                         StatisticsManager& stats)>;

  /// Refreshes one entry's CGvalid given the counters and the current id
  /// horizon (m + 1 of Algorithm 2). Also aligns the answer snapshot's
  /// size so downstream bitset algebra operates on equal widths.
  static void RefreshEntry(CachedQuery& entry, const ChangeCounters& counters,
                           std::size_t id_horizon,
                           const DeltaRevalidateFn* delta = nullptr,
                           StatisticsManager* stats = nullptr);

  /// Lines 4-6 alone: extends the indicator/answer to `id_horizon` with
  /// false bits. Never flips an existing bit.
  static void ExtendEntry(CachedQuery& entry, std::size_t id_horizon);

  /// Lines 7-19 alone: applies the counters to the touched graphs.
  static void ApplyCounters(CachedQuery& entry, const ChangeCounters& counters,
                            const DeltaRevalidateFn* delta = nullptr,
                            StatisticsManager* stats = nullptr);

  /// Folds a freshly computed twin's knowledge into the resident entry:
  /// both are extended to the wider horizon, the offer's answer
  /// overwrites the range it is valid for, and the valid sets union.
  /// Exact only when both sides are reconciled to the same watermark —
  /// they then agree wherever both are valid. Can SET valid bits, so the
  /// owning store must refresh the resident's relevance footprint and
  /// byte account afterwards.
  static void MergeKnowledge(CachedQuery& resident, CachedQuery& offer);
};

}  // namespace gcp

#endif  // GCP_CACHE_CACHE_VALIDATOR_HPP_
