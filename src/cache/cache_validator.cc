#include "cache/cache_validator.hpp"

#include <algorithm>

namespace gcp {

void CacheValidator::ExtendEntry(CachedQuery& entry, std::size_t id_horizon) {
  // Algorithm 2, lines 4-6: extend the indicator for newly added dataset
  // graphs; the relation towards them is unknown, hence invalid (false).
  if (id_horizon > entry.valid.size()) {
    entry.valid.Resize(id_horizon, false);
  }
  if (id_horizon > entry.answer.size()) {
    entry.answer.Resize(id_horizon, false);
  }
}

void CacheValidator::ApplyCounters(CachedQuery& entry,
                                   const ChangeCounters& counters,
                                   const DeltaRevalidateFn* delta,
                                   StatisticsManager* stats) {
  // Lines 7-19: apply the counters to the touched graphs only.
  //
  // The polarity of the UA/UR optimisations depends on the entry's query
  // kind. Algorithm 2 as printed covers subgraph queries (answer bit i
  // means query ⊆ G_i): edge additions cannot break a containment, edge
  // removals cannot create one. For supergraph-query entries (answer bit i
  // means G_i ⊆ query) the rules invert: adding an edge to G_i can break
  // G_i ⊆ query but cannot create it, and removing one can create it but
  // cannot break it. (The paper omits the supergraph mechanism "for space
  // reason" — this is the exact inverse it refers to.)
  const bool super_entry = entry.kind == CachedQueryKind::kSupergraph;
  for (const auto& [graph_id, total_ops] : counters.total) {
    (void)total_ops;
    if (graph_id >= entry.valid.size()) continue;  // beyond horizon: ignore
    const bool was_valid = entry.valid.Test(graph_id);
    if (!was_valid) continue;  // already invalid; nothing can revive it
    const bool in_answer = entry.answer.Test(graph_id);
    // The polarity a UA-exclusive batch preserves (UR preserves the other).
    const bool ua_safe_polarity = super_entry ? !in_answer : in_answer;
    if (counters.IsUaExclusive(graph_id) && ua_safe_polarity) {
      continue;  // line 12-13 (resp. its supergraph inverse)
    }
    if (counters.IsUrExclusive(graph_id) && !ua_safe_polarity) {
      continue;  // line 14-15 (resp. its supergraph inverse)
    }
    if (delta != nullptr && stats != nullptr &&
        (*delta)(entry, graph_id, *stats)) {
      continue;  // delta re-validation kept or rewrote the bit
    }
    entry.valid.Set(graph_id, false);  // line 17
  }
}

void CacheValidator::MergeKnowledge(CachedQuery& resident,
                                    CachedQuery& offer) {
  const std::size_t horizon =
      std::max(resident.valid.size(), offer.valid.size());
  ExtendEntry(resident, horizon);
  ExtendEntry(offer, horizon);
  resident.answer.AndNotWith(offer.valid);
  resident.answer.OrWith(DynamicBitset::And(offer.answer, offer.valid));
  resident.valid.OrWith(offer.valid);
}

void CacheValidator::RefreshEntry(CachedQuery& entry,
                                  const ChangeCounters& counters,
                                  std::size_t id_horizon,
                                  const DeltaRevalidateFn* delta,
                                  StatisticsManager* stats) {
  ExtendEntry(entry, id_horizon);
  ApplyCounters(entry, counters, delta, stats);
}

}  // namespace gcp
