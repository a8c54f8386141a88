// Feature index over cached queries.
//
// To exploit the cache, GC+ must discover — for each incoming query g —
// the cached queries g' with g ⊆ g' (subgraph case) and g'' with g'' ⊆ g
// (supergraph case). Verifying g against every cached query with an exact
// matcher would defeat the purpose, so the index keeps the monotone
// features of every resident query and applies the filter-then-verify
// pattern *to the cache itself* (the role iGQ [25] plays inside
// GraphCache): feature dominance shortlists candidates, the processors
// verify survivors with a matcher on query-sized graphs.
//
// Discovery is served by an inverted feature-signature index: every
// resident entry is posted under a two-dimensional (vertex-count band,
// edge-count band) key together with a 64-bit label-set mask and its
// vertex/edge counts. A containment probe walks only the band buckets
// that can satisfy both count constraints — the edge dimension keeps the
// screen selective for populations where many residents share a vertex
// band (paper-scale residency and beyond) — screens each posting with
// three integer comparisons plus one mask test (a sound superset of the
// dominance candidates), and verifies survivors with the full
// CouldBeSubgraphOf dominance check — cost proportional to the
// candidates, not to the resident population. The equivalence test
// checks both probes against a brute-force O(resident) dominance scan.

#ifndef GCP_CACHE_QUERY_INDEX_HPP_
#define GCP_CACHE_QUERY_INDEX_HPP_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "cache/cache_entry.hpp"

namespace gcp {

/// \brief Index of resident cached queries by monotone features.
class QueryIndex {
 public:
  /// Registers an entry (entry storage is owned by the CacheManager and
  /// must outlive the index registration).
  void Insert(const CachedQuery* entry);

  /// Removes an entry by id; no-op if absent.
  void Erase(CacheEntryId id);

  /// Drops everything (EVI purge).
  void Clear();

  std::size_t size() const { return entries_.size(); }

  /// Cached queries that could CONTAIN `g` (candidates for g ⊆ g').
  /// Sound: never misses a true supergraph of g.
  std::vector<const CachedQuery*> SupergraphCandidates(
      const GraphFeatures& g) const;

  /// Cached queries that could BE CONTAINED in `g` (candidates for
  /// g'' ⊆ g). Sound: never misses a true subgraph of g.
  std::vector<const CachedQuery*> SubgraphCandidates(
      const GraphFeatures& g) const;

  /// Cached queries with WL digest `digest` (exact-match / dedup probes).
  std::vector<const CachedQuery*> DigestMatches(std::uint64_t digest) const;

 private:
  /// One inverted-index posting: the screening features of a resident
  /// entry, flattened so a probe touches one contiguous array per band.
  struct Posting {
    const CachedQuery* entry;
    std::uint64_t label_mask;  ///< Bit l%64 set iff label l occurs.
    std::uint32_t num_vertices;
    std::uint32_t num_edges;
  };

  static std::uint64_t LabelMaskOf(const GraphFeatures& f);
  /// Band of a count: floor(log2(n)) (0 for n == 0) — monotone in n, so a
  /// count constraint translates into a band range.
  static std::uint32_t BandOf(std::uint32_t count);
  /// Composite ordered key: vertex band in the high 32 bits, edge band in
  /// the low 32 — map order is (vertex band, then edge band).
  static std::uint64_t BandKey(std::uint32_t vband, std::uint32_t eband) {
    return (static_cast<std::uint64_t>(vband) << 32) | eband;
  }
  static std::uint32_t VBandOf(std::uint64_t key) {
    return static_cast<std::uint32_t>(key >> 32);
  }
  static std::uint32_t EBandOf(std::uint64_t key) {
    return static_cast<std::uint32_t>(key);
  }

  /// (vertex band, edge band) → postings in insertion order (keeps
  /// candidate order deterministic across runs).
  std::map<std::uint64_t, std::vector<Posting>> bands_;
  std::unordered_map<CacheEntryId, const CachedQuery*> entries_;
  std::unordered_multimap<std::uint64_t, const CachedQuery*> by_digest_;
};

}  // namespace gcp

#endif  // GCP_CACHE_QUERY_INDEX_HPP_
