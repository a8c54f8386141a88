#include "core/pruner.hpp"

#include <cassert>

namespace gcp {

PruneOutcome CandidateSetPruner::Prune(const DiscoveredHits& hits,
                                       const DynamicBitset& csm,
                                       QueryMetrics* metrics) {
  PruneOutcome out;
  const std::size_t horizon = csm.size();

  // §6.3 case 2 — empty-answer proof: the answer is provably empty.
  if (hits.empty_proof.has_value()) {
    out.direct = true;
    out.answer_direct = DynamicBitset(horizon);
    out.candidates = DynamicBitset(horizon);
    out.saved_pruning = csm.Count();
    if (metrics != nullptr) {
      metrics->tests_saved_super += out.saved_pruning;
      metrics->candidates_final = 0;
    }
    return out;
  }

  // Formula (1): union of still-valid positive results.
  DynamicBitset answer_direct(horizon);
  for (const DiscoveredHit& e : hits.positive) {
    assert(e.valid.size() == horizon && e.answer.size() == horizon);
    answer_direct.OrWith(DynamicBitset::And(e.valid, e.answer));
  }

  // Formula (2): remove direct answers from the candidate set. (The
  // theorems guarantee answer_direct ⊆ csm for live graphs — validated by
  // the test suite rather than re-masked here, keeping the algebra
  // faithful to the paper.)
  DynamicBitset candidates = DynamicBitset::AndNot(csm, answer_direct);
  out.saved_positive = csm.Count() - candidates.Count();

  // Formula (5): intersect with each pruning hit's possible-answer set
  // (formula (4): complement of validity ∪ answers).
  for (const DiscoveredHit& e : hits.pruning) {
    assert(e.valid.size() == horizon && e.answer.size() == horizon);
    DynamicBitset possible = DynamicBitset::Not(e.valid);
    possible.OrWith(e.answer);
    candidates.AndWith(possible);
  }
  out.saved_pruning = csm.Count() - out.saved_positive - candidates.Count();

  out.answer_direct = std::move(answer_direct);
  out.candidates = std::move(candidates);
  if (metrics != nullptr) {
    metrics->tests_saved_sub += out.saved_positive;
    metrics->tests_saved_super += out.saved_pruning;
    metrics->candidates_final = out.candidates.Count();
  }
  return out;
}

}  // namespace gcp
