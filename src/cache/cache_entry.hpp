// CachedQuery — one previously executed query resident in the GC+ cache or
// window, together with the data Algorithm 2 and the candidate-set pruner
// operate on: the answer snapshot and the validity indicator, both keyed by
// dataset graph id (paper §5.2.2).

#ifndef GCP_CACHE_CACHE_ENTRY_HPP_
#define GCP_CACHE_CACHE_ENTRY_HPP_

#include <cstdint>
#include <memory>

#include "common/bitset.hpp"
#include "dataset/change.hpp"
#include "graph/features.hpp"
#include "graph/graph.hpp"

namespace gcp {

/// Unique identity of a cached query within one GC+ instance.
using CacheEntryId = std::uint64_t;

/// Direction of the query a cache entry answered. Mirrors
/// core/method_m.hpp's QueryKind; duplicated here (as a plain tag) to keep
/// the cache layer independent of the runtime layer. 0 = subgraph query
/// (answer = graphs containing the query), 1 = supergraph query (answer =
/// graphs contained in the query). An entry can only serve hits for
/// queries of the same kind — the answer semantics differ.
enum class CachedQueryKind : std::uint8_t {
  kSubgraph = 0,
  kSupergraph = 1,
};

/// \brief A cached query with its answer snapshot and validity indicator.
struct CachedQuery {
  CacheEntryId id = 0;

  /// The query graph as executed — shared and immutable after admission.
  /// Hit-discovery survivors, exported checkpoints and entry copies alias
  /// this one Graph instead of deep-copying it; refcounted lifetime means
  /// an evicted entry's graph stays reachable for any in-flight reader
  /// that grabbed the pointer under the shard lock.
  std::shared_ptr<const Graph> query;

  /// Which kind of query produced this entry.
  CachedQueryKind kind = CachedQueryKind::kSubgraph;

  /// Monotone features of `query` (precomputed for hit discovery).
  GraphFeatures features;

  /// WL digest of `query` (exact-match prefilter / dedup key); for a
  /// fragment, StarDigest of the star's labels (its store key).
  std::uint64_t digest = 0;

  /// Answer(g'): bit i set iff graph i contained `query` when the query
  /// was executed. Never re-evaluated after execution (GC+ snapshots the
  /// relation; consistency is carried by `valid` instead).
  DynamicBitset answer;

  /// CGvalid(g'): bit i set iff the cached relation towards dataset graph
  /// i still holds for the up-to-date dataset. Maintained by the Cache
  /// Validator (Algorithm 2).
  DynamicBitset valid;

  // --- Statistics Manager metadata (replacement policies) ---------------

  /// R: total sub-iso tests this entry has alleviated (PIN score basis).
  std::uint64_t tests_saved = 0;
  /// C: estimated cost (milliseconds) of one sub-iso test against this
  /// entry's query — the heuristic cost component of PINC.
  double est_test_cost_ms = 0.0;
  /// Number of times this entry produced any kind of hit.
  std::uint64_t hits = 0;
  std::uint64_t exact_hits = 0;
  std::uint64_t sub_hits = 0;    ///< Hits where new query ⊆ this query.
  std::uint64_t super_hits = 0;  ///< Hits where this query ⊆ new query.

  /// Workload position when admitted / last useful (LRU/recency ties).
  std::uint64_t admitted_at = 0;
  std::uint64_t last_used_at = 0;

  /// True while the entry still sits in the admission window.
  bool in_window = false;

  /// Cached byte footprint (ApproxEntryBytes) as last accounted by the
  /// owning store. Maintained by the store on admit/validate/restore so
  /// the store's running byte gauge can be adjusted by exact deltas when
  /// bitsets grow; 0 for entries not (yet) owned by a store.
  std::uint64_t approx_bytes = 0;

  /// Answer bits restricted to currently-valid knowledge:
  /// valid ∩ answer — the sub-iso-test-free set of formula (1).
  DynamicBitset ValidAnswer() const {
    return DynamicBitset::And(valid, answer);
  }

  /// valid ∩ ¬answer — graphs known (and still valid) to NOT contain the
  /// query; the supergraph case prunes these from the candidate set.
  DynamicBitset ValidNonAnswer() const {
    return DynamicBitset::AndNot(valid, answer);
  }
};

}  // namespace gcp

#endif  // GCP_CACHE_CACHE_ENTRY_HPP_
