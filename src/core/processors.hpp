// GC+sub / GC+super processors: cache-hit discovery (paper §4, §6).
//
// For an incoming query g the processors discover, among resident cached
// queries of the same query kind:
//   * GC+sub hits:  cached g' with g ⊆ g'  — for a subgraph query these
//     are the "positive" hits whose valid answers transfer directly into
//     g's answer (formula (1)); for a supergraph query they are the
//     "pruning" hits of the inverse logic.
//   * GC+super hits: cached g'' with g'' ⊆ g — pruning hits for subgraph
//     queries (formula (5)), positive hits for supergraph queries.
// Discovery is filter-then-verify against the cache: the QueryIndex
// shortlists by monotone features, an exact matcher verifies, and only
// *useful* candidates (non-zero standalone benefit) are verified at all.
// The processors also recognize the §6.3 optimal cases: an isomorphic
// cached query (exact hit, through the twin lookup below) and an
// empty-answer proof.
//
// Discovery is shard-local (PR 5): CollectShard runs the per-shard
// prescreen — candidate enumeration, kind filter, utility computation,
// zero-utility drop — under ONE shard's lock. Survivors COPY the
// answer/valid bitsets (the validator mutates those in place under the
// exclusive shard lock, so sharing them would race) but SHARE ownership
// of the immutable query graph — the shared_ptr grabbed under the shard
// lock keeps the graph alive even if the entry is evicted before
// verification runs. No resident-entry pointer ever escapes a shard
// lock. ResolveHits then merges the per-shard survivor lists, applies
// the single global utility ordering (ties on WL digest, then entry id —
// hit selection is shard-layout-independent), and runs containment
// verification and the §6.3 case-2 shortcut with no lock held at all.
// The resulting DiscoveredHits own their data outright.
//
// §6.3 case 1 (exact hit) is not a discovery outcome: the digest-keyed
// twin lookup decides it. Isomorphic queries share a WL digest, and the
// digest picks the home shard, so every isomorphic twin of a query sits
// in one shard under one digest. The read phase asks the lookup first
// (CollectExact under the home shard's lock, ResolveExact with no lock
// held) and skips discovery on a hit; the drain asks it (TwinCandidates +
// IsTwin under the exclusive lock) to dedup or refresh an admission
// offer.

#ifndef GCP_CORE_PROCESSORS_HPP_
#define GCP_CORE_PROCESSORS_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/cache_manager.hpp"
#include "core/metrics.hpp"
#include "core/method_m.hpp"
#include "core/options.hpp"
#include "match/matcher.hpp"

namespace gcp {

/// One exploited cache hit: the slices of the resident entry the pruner
/// and the deferred-credit machinery need, copied out under the entry's
/// home-shard lock (safe to use after every lock is released).
struct DiscoveredHit {
  CacheEntryId id = 0;        ///< For deferred benefit credits.
  std::uint64_t digest = 0;   ///< Routes the credit to the home shard.
  DynamicBitset answer;
  DynamicBitset valid;
};

/// Result of cache-hit discovery for one query. Owns all data.
struct DiscoveredHits {
  /// Same-kind cached queries whose valid answers inject directly into the
  /// new query's answer set (g ⊆ g' for subgraph queries; g'' ⊆ g for
  /// supergraph queries).
  std::vector<DiscoveredHit> positive;

  /// Same-kind cached queries whose valid negative results eliminate
  /// candidates (formula (5) resp. its inverse).
  std::vector<DiscoveredHit> pruning;

  /// §6.3 case 2: a pruning-direction entry with (still fully valid) empty
  /// answer proving the new query's answer is empty.
  std::optional<DiscoveredHit> empty_proof;
};

/// §6.3 case 1: a resident same-kind twin isomorphic to the query and
/// fully valid over CS_M answers it outright with zero sub-iso tests.
/// Owns its data.
struct ExactHit {
  /// Shared ownership of the twin's immutable graph, so the isomorphism
  /// check runs after the shard lock is released.
  std::shared_ptr<const Graph> query;
  CacheEntryId id = 0;            ///< For the deferred exact credit.
  std::uint64_t digest = 0;       ///< Routes the credit to the home shard.
  DynamicBitset answer;           ///< The twin's answer ∧ CS_M: final.
  std::uint64_t tests_saved = 0;  ///< |CS_M|: every test alleviated.
};

/// \brief Implements both processors over the cache index.
class HitDiscovery {
 public:
  /// One prescreen survivor: the entry slices the resolve stage
  /// (verification + shortcuts) consumes lock-free — bitsets owned,
  /// query graph shared with the resident entry.
  struct Candidate {
    /// For containment verification after the merge. Shared ownership of
    /// the resident entry's immutable graph.
    std::shared_ptr<const Graph> query;
    DynamicBitset answer;
    DynamicBitset valid;
    CacheEntryId id = 0;
    std::uint64_t digest = 0;
    std::size_t utility = 0;
    bool positive_role = false;  ///< Positive pool vs pruning pool.
    bool empty_eligible = false; ///< §6.3 case-2 precondition holds.
  };

  /// `internal_matcher` verifies query-vs-cached-query containment; the
  /// options supply hit caps and shortcut switches. Both must outlive the
  /// discovery object.
  HitDiscovery(const SubgraphMatcher& internal_matcher,
               const GraphCachePlusOptions& options)
      : matcher_(internal_matcher), options_(options) {}

  /// Digest-keyed twin lookup, the one place that decides whether a
  /// resident entry is an isomorphic twin of a query: the entries of
  /// `shard` (the digest's home shard) of kind `kind` whose WL digest is
  /// `digest` and whose vertex and edge counts equal g's, in admission
  /// order. IsTwin confirms a candidate. Empty when the exact shortcut is
  /// off. The caller holds the shard's lock (shared suffices) while it
  /// reads the returned entries.
  std::vector<const CachedQuery*> TwinCandidates(const Graph& g,
                                                 std::uint64_t digest,
                                                 CachedQueryKind kind,
                                                 const CacheManager& shard)
      const;

  /// Equal counts (screened by TwinCandidates) plus one-way containment
  /// imply isomorphism: the embedding is a bijection on vertices and on
  /// edges.
  bool IsTwin(const Graph& g, const Graph& twin) const {
    return matcher_.Contains(g, twin);
  }

  /// Read-phase half of the lookup, under the home shard's lock: copies
  /// out the twin candidates that are fully valid over `csm`, each with
  /// its answer already restricted to `csm`.
  std::vector<ExactHit> CollectExact(const Graph& g, std::uint64_t digest,
                                     QueryKind kind, const CacheManager& shard,
                                     const DynamicBitset& csm) const;

  /// Lock-free half: the first collected candidate IsTwin confirms is the
  /// exact hit. Records it in `metrics` (exact_hit, tests_saved_sub +=
  /// |csm|, candidates_final = 0). Consumes `candidates`.
  std::optional<ExactHit> ResolveExact(const Graph& g,
                                       std::vector<ExactHit> candidates,
                                       const DynamicBitset& csm,
                                       QueryMetrics* metrics) const;

  /// Convenience composition for callers that already hold the shard
  /// lock (tests, single-store uses): digest, collect, resolve.
  std::optional<ExactHit> FindExact(const Graph& g, QueryKind kind,
                                    const CacheManager& shard,
                                    const DynamicBitset& csm,
                                    QueryMetrics* metrics) const;

  /// Per-shard prescreen: enumerates `shard`'s index candidates for the
  /// query with `features` in both directions, filters by kind, computes
  /// standalone utilities against `live`, drops zero-utility candidates
  /// that cannot serve the §6.3 empty-answer proof, and appends owned
  /// copies of the survivors to `out`. The caller holds this shard's lock
  /// (shared suffices) for exactly this call. Adds candidate enumeration
  /// time to metrics->t_discover_ns.
  void CollectShard(const GraphFeatures& features, QueryKind kind,
                    const CacheManager& shard, const DynamicBitset& live,
                    std::vector<Candidate>* out, QueryMetrics* metrics) const;

  /// Merge + verify stage, lock-free: globally orders the merged survivor
  /// pool by (utility desc, WL digest, entry id), verifies containment in
  /// that order under the hit caps, and recognizes the §6.3 empty-answer
  /// proof — so hit selection is independent of how entries are sharded,
  /// up to WL digest collisions between distinct resident queries.
  /// Consumes `candidates`.
  DiscoveredHits ResolveHits(const Graph& g, QueryKind kind,
                             std::vector<Candidate> candidates,
                             QueryMetrics* metrics) const;

  /// Convenience composition for callers that already hold every shard
  /// lock (tests, single-store uses): collect across `shards`, then
  /// resolve.
  DiscoveredHits Discover(const Graph& g, QueryKind kind,
                          std::span<const CacheManager* const> shards,
                          const DynamicBitset& live,
                          QueryMetrics* metrics) const;

  /// Single-store convenience overload.
  DiscoveredHits Discover(const Graph& g, QueryKind kind,
                          const CacheManager& cache, const DynamicBitset& live,
                          QueryMetrics* metrics) const {
    const CacheManager* one = &cache;
    return Discover(g, kind, std::span<const CacheManager* const>(&one, 1),
                    live, metrics);
  }

 private:
  const SubgraphMatcher& matcher_;
  const GraphCachePlusOptions& options_;
};

}  // namespace gcp

#endif  // GCP_CORE_PROCESSORS_HPP_
