// Candidate Set Pruner — formulas (1)-(5) and the §6.3 optimal cases.
//
// Subgraph-query logic (supergraph queries: same algebra with the
// positive/pruning roles resolved by the processors):
//   (1) Answer_sub(g)   = ⋃_{g'_i}  CGvalid(g'_i) ∩ Answer(g'_i)
//   (2) CS_GC+sub(g)    = CS_M(g) \ Answer_sub(g)
//   (4) g''.Answer_super(g) = ¬CGvalid(g'') ∪ Answer(g'')
//   (5) CS_GC+super(g)  = CS(g) ∩ ⋂_{g''_j} g''_j.Answer_super(g)
//   (3) Answer(g)       = verified(CS) ∪ Answer_sub(g)
// The runtime applies (2) first and then (5) on its result (§6.3), which
// is what this pruner does in one pass. Of the §6.3 optimal cases only
// the empty-answer proof reaches it; the exact hit is answered by the
// digest-keyed twin lookup before discovery (core/processors.hpp).

#ifndef GCP_CORE_PRUNER_HPP_
#define GCP_CORE_PRUNER_HPP_

#include "common/bitset.hpp"
#include "core/metrics.hpp"
#include "core/processors.hpp"

namespace gcp {

/// Outcome of candidate-set pruning for one query.
struct PruneOutcome {
  /// True when the §6.3 empty-answer proof fully answered the query:
  /// `answer_direct` (empty) is final and `candidates` is empty.
  bool direct = false;

  /// Graphs answered without sub-iso testing: formula (1) contributions.
  DynamicBitset answer_direct;

  /// Candidate set left for Method M verification (formulas (2) + (5)).
  DynamicBitset candidates;

  /// Candidates removed by formula (2) (positive transfers) and by
  /// formula (5) (valid negative results).
  std::uint64_t saved_positive = 0;
  std::uint64_t saved_pruning = 0;
};

/// \brief Applies the pruning algebra to the discovered hits.
class CandidateSetPruner {
 public:
  /// `csm` is Method M's candidate set (the live mask). All resident
  /// entry bitsets must already be aligned to csm.size() (the Cache
  /// Validator maintains this on every dataset sync).
  static PruneOutcome Prune(const DiscoveredHits& hits,
                            const DynamicBitset& csm, QueryMetrics* metrics);
};

}  // namespace gcp

#endif  // GCP_CORE_PRUNER_HPP_
