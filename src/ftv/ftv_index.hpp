// Updatable filter-then-verify (FTV) dataset index.
//
// The paper's §1 observes that FTV methods — the other research thread
// besides SI heuristics — cannot handle dataset changes because "none of
// the proposed FTV algorithms so far has updatable index or similar
// solutions", which is why GC+ is evaluated over SI methods. This module
// implements exactly the missing capability, as a baseline/companion:
// a per-graph monotone-feature summary index that
//   * filters a query's candidate set by feature dominance (sound: never
//     drops a true answer; paper §1's "candidate set"),
//   * and maintains itself *incrementally* from the dataset change log —
//     ADD extracts one summary, DEL drops one, UA/UR re-derive only the
//     touched graph's summary (an O(|G_i|) local update).
//
// GC+ is orthogonal: it prunes whatever candidate set Method M produces,
// so it composes with this index (GraphCachePlusOptions::use_ftv_index).

#ifndef GCP_FTV_FTV_INDEX_HPP_
#define GCP_FTV_FTV_INDEX_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bitset.hpp"
#include "dataset/dataset.hpp"
#include "graph/features.hpp"

namespace gcp {

/// Direction of the candidate-set filter (mirrors core's QueryKind
/// without depending on the runtime layer).
enum class FtvQueryDirection {
  kSubgraph,    ///< Candidates: graphs whose features dominate the query's.
  kSupergraph,  ///< Candidates: graphs whose features the query dominates.
};

/// \brief Incrementally-maintained feature index over a GraphDataset.
///
/// The summary table is copy-on-write: a mutating SyncWithDataset clones
/// it, updates the clone and swaps it in (one clone per FTV-mutating
/// batch — counted by summary_copies() and surfaced as the engine's
/// snapshot_summary_copies statistic).
class FtvIndex {
 public:
  using SummaryVec = std::vector<std::optional<GraphFeatures>>;

  /// Builds summaries for every live graph and records the current log
  /// watermark. The dataset must outlive the index.
  explicit FtvIndex(const GraphDataset& dataset);

  /// Catches up with dataset changes since the last (re)build/sync by
  /// consuming the change log incrementally. Returns the number of
  /// per-graph summary updates performed.
  std::size_t SyncWithDataset();

  /// Candidate set of `query_features` over the live dataset: a bitset
  /// over [0, IdHorizon()) that is a superset of the true answer set
  /// (never a false drop) and a subset of the live mask.
  DynamicBitset CandidateSet(const GraphFeatures& query_features,
                             FtvQueryDirection direction) const;

  /// True when the index reflects every logged change.
  bool InSync() const {
    return watermark_ == dataset_->log().LatestSeq();
  }

  /// Number of indexed (live) graphs.
  std::size_t IndexedCount() const;

  /// Summary accessor (nullptr when `id` is not live / not indexed).
  const GraphFeatures* SummaryOf(GraphId id) const;

  /// The per-graph-id summaries (holes for deleted ids).
  const SummaryVec& summaries() const { return *summaries_; }

  /// Number of copy-on-write clones of the summary vector performed so
  /// far — exactly one per FTV-mutating SyncWithDataset batch. Readable
  /// without the engine lock.
  std::uint64_t summary_copies() const {
    return summary_copies_.load(std::memory_order_relaxed);
  }

 private:
  void IndexGraph(SummaryVec& into, GraphId id) const;

  const GraphDataset* dataset_;
  LogSeq watermark_ = 0;
  /// Per-graph-id feature summaries; holes for deleted ids. Immutable
  /// once installed here; mutations clone (COW) and swap the pointer.
  std::shared_ptr<const SummaryVec> summaries_;
  std::atomic<std::uint64_t> summary_copies_{0};
};

}  // namespace gcp

#endif  // GCP_FTV_FTV_INDEX_HPP_
