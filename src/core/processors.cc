#include "core/processors.hpp"

#include <algorithm>
#include <memory>

#include "common/stopwatch.hpp"
#include "graph/canonical.hpp"

namespace gcp {

namespace {

CachedQueryKind ToCachedKind(QueryKind kind) {
  return kind == QueryKind::kSubgraph ? CachedQueryKind::kSubgraph
                                      : CachedQueryKind::kSupergraph;
}

// Standalone benefit of a positive hit: live graphs whose answer
// membership transfers without a sub-iso test (|live ∩ valid ∩ answer|).
std::size_t PositiveUtility(const CachedQuery& e, const DynamicBitset& live) {
  if (e.valid.size() != live.size()) return 0;
  return DynamicBitset::And(e.valid, e.answer).CountAnd(live);
}

// Standalone benefit of a pruning hit: live graphs eliminated from the
// candidate set by valid negative results (|live ∩ valid ∩ ¬answer|).
std::size_t PruningUtility(const CachedQuery& e, const DynamicBitset& live) {
  if (e.valid.size() != live.size()) return 0;
  return DynamicBitset::AndNot(e.valid, e.answer).CountAnd(live);
}

// True iff the entry's validity indicator covers every live graph —
// precondition for both §6.3 optimal cases.
bool FullyValid(const CachedQuery& e, const DynamicBitset& live) {
  return e.valid.size() == live.size() && live.IsSubsetOf(e.valid);
}

// True iff the entry's answer is empty over the live dataset.
bool EmptyLiveAnswer(const CachedQuery& e, const DynamicBitset& live) {
  return e.answer.size() == live.size() && !e.answer.Intersects(live);
}

// Moves the bitsets out of the (consumed) candidate — each candidate
// yields at most one hit.
DiscoveredHit TakeHit(HitDiscovery::Candidate& c) {
  DiscoveredHit hit;
  hit.id = c.id;
  hit.digest = c.digest;
  hit.answer = std::move(c.answer);
  hit.valid = std::move(c.valid);
  return hit;
}

}  // namespace

std::vector<const CachedQuery*> HitDiscovery::TwinCandidates(
    const Graph& g, std::uint64_t digest, CachedQueryKind kind,
    const CacheManager& shard) const {
  std::vector<const CachedQuery*> twins;
  if (!options_.enable_exact_shortcut) return twins;
  for (const CachedQuery* e : shard.index().DigestMatches(digest)) {
    if (e->kind == kind && e->query->NumVertices() == g.NumVertices() &&
        e->query->NumEdges() == g.NumEdges()) {
      twins.push_back(e);
    }
  }
  return twins;
}

std::vector<ExactHit> HitDiscovery::CollectExact(
    const Graph& g, std::uint64_t digest, QueryKind kind,
    const CacheManager& shard, const DynamicBitset& csm) const {
  std::vector<ExactHit> out;
  for (const CachedQuery* e :
       TwinCandidates(g, digest, ToCachedKind(kind), shard)) {
    if (!FullyValid(*e, csm)) continue;
    ExactHit hit;
    hit.query = e->query;
    hit.id = e->id;
    hit.digest = e->digest;
    hit.answer = DynamicBitset::And(e->answer, csm);
    out.push_back(std::move(hit));
  }
  return out;
}

std::optional<ExactHit> HitDiscovery::ResolveExact(
    const Graph& g, std::vector<ExactHit> candidates,
    const DynamicBitset& csm, QueryMetrics* metrics) const {
  for (ExactHit& c : candidates) {
    if (!IsTwin(g, *c.query)) continue;
    c.tests_saved = csm.Count();
    if (metrics != nullptr) {
      metrics->exact_hit = true;
      metrics->tests_saved_sub += c.tests_saved;
      metrics->candidates_final = 0;
    }
    return std::move(c);
  }
  return std::nullopt;
}

std::optional<ExactHit> HitDiscovery::FindExact(
    const Graph& g, QueryKind kind, const CacheManager& shard,
    const DynamicBitset& csm, QueryMetrics* metrics) const {
  return ResolveExact(g, CollectExact(g, WlDigest(g), kind, shard, csm), csm,
                      metrics);
}

void HitDiscovery::CollectShard(const GraphFeatures& features,
                                QueryKind kind, const CacheManager& shard,
                                const DynamicBitset& live,
                                std::vector<Candidate>* out,
                                QueryMetrics* metrics) const {
  const CachedQueryKind ckind = ToCachedKind(kind);

  // GC+sub processor shortlist: cached g' with (possibly) g ⊆ g'.
  // GC+super processor shortlist: cached g'' with (possibly) g'' ⊆ g.
  // The shard's inverted feature-signature index supplies the postings.
  std::vector<const CachedQuery*> sub_candidates;
  std::vector<const CachedQuery*> super_candidates;
  {
    std::int64_t unused_ns = 0;
    ScopedTimer discover_timer(metrics != nullptr ? &metrics->t_discover_ns
                                                  : &unused_ns);
    const QueryIndex& index = shard.index();
    sub_candidates = index.SupergraphCandidates(features);
    super_candidates = index.SubgraphCandidates(features);
  }

  // Resolve processor outputs into positive/pruning roles: for subgraph
  // queries GC+sub hits are positive; for supergraph queries the roles
  // flip (§6: "supergraph queries follow the exact inverse logic").
  const bool positive_from_sub = (kind == QueryKind::kSubgraph);

  // Prescreen: drop wrong-kind entries and zero-utility candidates that
  // cannot prove an empty answer; copy the survivors so nothing references
  // the shard after its lock is dropped. An entry may survive in both
  // roles (it is then copied twice, once per role — rare by
  // construction: it must pass both direction shortlists).
  auto keep = [&](const CachedQuery* e, bool positive_role) {
    if (e->kind != ckind) return;
    Candidate c;
    c.positive_role = positive_role;
    if (positive_role) {
      c.utility = PositiveUtility(*e, live);
      if (c.utility == 0) return;
    } else {
      c.utility = PruningUtility(*e, live);
      c.empty_eligible = options_.enable_empty_answer_shortcut &&
                         EmptyLiveAnswer(*e, live) && FullyValid(*e, live);
      if (c.utility == 0 && !c.empty_eligible) return;
    }
    // The graph is immutable after admission: survivors share ownership
    // (a refcount bump under the shard lock) instead of deep-copying it.
    // The bitsets ARE deep-copied — the validator rewrites them in place
    // under the exclusive shard lock, so they cannot be shared.
    c.query = e->query;
    c.answer = e->answer;
    c.valid = e->valid;
    c.id = e->id;
    c.digest = e->digest;
    out->push_back(std::move(c));
  };
  for (const CachedQuery* e : (positive_from_sub ? sub_candidates
                                                 : super_candidates)) {
    keep(e, /*positive_role=*/true);
  }
  for (const CachedQuery* e : (positive_from_sub ? super_candidates
                                                 : sub_candidates)) {
    keep(e, /*positive_role=*/false);
  }
}

DiscoveredHits HitDiscovery::ResolveHits(const Graph& g, QueryKind kind,
                                         std::vector<Candidate> candidates,
                                         QueryMetrics* metrics) const {
  DiscoveredHits hits;
  const bool positive_from_sub = (kind == QueryKind::kSubgraph);

  // One global ordering over the merged pool: descending utility, ties on
  // (WL digest, entry id) so the verification order — and with it which
  // hits the caps select — does not depend on candidate enumeration
  // order, i.e. on how entries are distributed across shards (entry ids
  // are per-shard sequences, so they only disambiguate digest
  // collisions).
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Candidate& ca = candidates[a];
                     const Candidate& cb = candidates[b];
                     if (ca.utility != cb.utility)
                       return ca.utility > cb.utility;
                     if (ca.digest != cb.digest) return ca.digest < cb.digest;
                     return ca.id < cb.id;
                   });

  // In the direction where g itself is the pattern (g ⊆ cached query) its
  // per-pattern match state is shared across every verified candidate.
  // Built lazily: miss-dominated queries (no surviving candidate in that
  // direction) never pay for the context.
  std::unique_ptr<PreparedPattern> prepared_g;
  auto prepared = [&]() -> const PreparedPattern& {
    if (prepared_g == nullptr) prepared_g = matcher_.Prepare(g);
    return *prepared_g;
  };

  const std::size_t positive_cap =
      options_.max_sub_hits == 0 ? candidates.size() : options_.max_sub_hits;
  const std::size_t pruning_cap =
      options_.max_super_hits == 0 ? candidates.size()
                                   : options_.max_super_hits;

  for (const std::size_t i : order) {
    Candidate& c = candidates[i];
    if (!c.positive_role) continue;
    if (hits.positive.size() >= positive_cap) break;
    // Positive direction: subgraph queries verify g ⊆ g'; supergraph
    // queries verify g'' ⊆ g.
    const bool contained =
        positive_from_sub ? matcher_.ContainsPrepared(prepared(), *c.query)
                          : matcher_.Contains(*c.query, g);
    if (contained) hits.positive.push_back(TakeHit(c));
  }

  for (const std::size_t i : order) {
    Candidate& c = candidates[i];
    if (c.positive_role) continue;
    if (hits.pruning.size() >= pruning_cap) break;
    const bool useful_for_empty_proof =
        c.empty_eligible && !hits.empty_proof.has_value();
    if (c.utility == 0 && !useful_for_empty_proof) continue;
    // Pruning direction: subgraph queries verify g'' ⊆ g; supergraph
    // queries verify g ⊆ g'.
    const bool contained =
        positive_from_sub ? matcher_.Contains(*c.query, g)
                          : matcher_.ContainsPrepared(prepared(), *c.query);
    if (!contained) continue;
    if (useful_for_empty_proof) {
      hits.empty_proof = TakeHit(c);
      if (metrics != nullptr) metrics->empty_shortcut = true;
      return hits;
    }
    hits.pruning.push_back(TakeHit(c));
  }

  if (metrics != nullptr) {
    metrics->sub_hits = static_cast<std::uint32_t>(
        positive_from_sub ? hits.positive.size() : hits.pruning.size());
    metrics->super_hits = static_cast<std::uint32_t>(
        positive_from_sub ? hits.pruning.size() : hits.positive.size());
  }
  return hits;
}

DiscoveredHits HitDiscovery::Discover(const Graph& g, QueryKind kind,
                                      std::span<const CacheManager* const>
                                          shards,
                                      const DynamicBitset& live,
                                      QueryMetrics* metrics) const {
  const GraphFeatures features = GraphFeatures::Extract(g);
  std::vector<Candidate> pool;
  for (const CacheManager* shard : shards) {
    CollectShard(features, kind, *shard, live, &pool, metrics);
  }
  return ResolveHits(g, kind, std::move(pool), metrics);
}

}  // namespace gcp
