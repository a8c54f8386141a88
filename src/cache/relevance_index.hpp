// Change-relevance index — the reconciliation sibling of QueryIndex.
//
// CON/EVI reconciliation used to walk every resident entry per change
// batch (CacheManager::ValidateAll), even when the batch touched three
// dataset graphs out of millions. This index routes each change batch to
// only the entries it can affect, the way discrimination networks route
// changes to the patterns they feed:
//
//   * Every resident entry carries a word-granular *footprint* of its
//     CGvalid indicator: bit b of `pos` (resp. `neg`) marks that valid
//     word b — dataset graphs [64b, 64b+64) — holds at least one
//     valid-positive (resp. valid-negative) answer bit.
//   * Inverted postings map each occupied word-block to the entry ids
//     whose footprint covers it, maintained on admit / evict / purge /
//     restore.
//   * A change batch (Algorithm 1's ChangeCounters) projects onto the
//     same word grid, split by op class: `mixed` blocks (graphs with
//     structural or mixed UA+UR ops — these clear any valid bit),
//     `ua` blocks (UA-exclusive graphs — clear only the polarity a
//     UA-exclusive batch does not preserve) and `ur` blocks (the
//     inverse). Intersecting the batch masks against an entry's
//     polarity-matched footprint decides whether Algorithm 2 could
//     mutate the entry at all.
//
// Soundness: Algorithm 2 only resizes indicators (new bits false) and
// *clears* valid bits, so an entry whose polarity-matched footprint does
// not intersect the batch keeps every CGvalid bit untouched by
// construction — skipping it is bit-exact, not approximate. Footprints
// are maintained as supersets (clears never require a footprint update;
// anything that *sets* valid bits — retrospective refresh, a drain's
// twin refresh, restore — must call Refresh). Block granularity and
// staleness only produce false positives, which merely run a no-op
// Algorithm 2 pass over that entry.

#ifndef GCP_CACHE_RELEVANCE_INDEX_HPP_
#define GCP_CACHE_RELEVANCE_INDEX_HPP_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "cache/cache_entry.hpp"
#include "dataset/log_analyzer.hpp"

namespace gcp {

/// \brief Inverted change→entry relevance index over one cache store.
class RelevanceIndex {
 public:
  /// Word-granular footprint of one resident entry's CGvalid indicator
  /// (a superset of the truth; see file comment).
  struct Footprint {
    const CachedQuery* entry = nullptr;
    std::vector<std::uint64_t> pos;  ///< blocks holding valid ∧ answer bits
    std::vector<std::uint64_t> neg;  ///< blocks holding valid ∧ ¬answer bits
  };

  /// One change batch projected onto the word grid, split by the op class
  /// Algorithm 2 dispatches on.
  struct BatchFootprint {
    std::vector<std::uint64_t> mixed;  ///< structural / mixed-op graphs
    std::vector<std::uint64_t> ua;     ///< UA-exclusive graphs
    std::vector<std::uint64_t> ur;     ///< UR-exclusive graphs

    bool empty() const;
  };

  /// Projects Algorithm 1's counters onto the block grid.
  static BatchFootprint FootprintOf(const ChangeCounters& counters);

  /// Registers `entry` with a footprint computed from its current
  /// bitsets. The pointer must stay valid until Erase/Clear.
  void Insert(const CachedQuery* entry);

  /// Drops `id` and its postings (no-op when absent).
  void Erase(CacheEntryId id);

  /// Drops everything (EVI purge / restore preamble).
  void Clear();

  /// Recomputes `entry`'s footprint from its current bitsets. Required
  /// after any mutation that may SET validity bits; also re-tightens a
  /// footprint after Algorithm 2 cleared bits. No-op when `entry` is not
  /// indexed.
  void Refresh(const CachedQuery* entry);

  /// Entries whose polarity-matched footprint intersects the batch — a
  /// superset of the entries Algorithm 2 could mutate — ascending by
  /// entry id (deterministic refresh order).
  std::vector<const CachedQuery*> CollectAffected(
      const BatchFootprint& batch) const;

  std::size_t size() const { return entries_.size(); }

  /// ~Bytes of the index's own state: per-entry polarity masks plus the
  /// inverted postings (the posting_bytes category of ApproxByteFootprint).
  std::uint64_t ApproxBytes() const {
    std::uint64_t bytes = 0;
    for (const auto& [id, fp] : entries_) {
      bytes += sizeof(CacheEntryId) + 8 * (fp.pos.size() + fp.neg.size());
    }
    for (const auto& [block, ids] : postings_) {
      bytes += sizeof(std::uint32_t) + sizeof(CacheEntryId) * ids.size();
    }
    return bytes;
  }

  /// Introspection for tests: footprint of `id` (nullptr when absent) and
  /// the sorted posting list of word-block `block` (nullptr when empty).
  const Footprint* footprint(CacheEntryId id) const;
  const std::vector<CacheEntryId>* postings(std::uint32_t block) const;

 private:
  static void ComputeMasks(const CachedQuery& e, std::vector<std::uint64_t>* pos,
                           std::vector<std::uint64_t>* neg);
  static bool Affected(const Footprint& fp, const BatchFootprint& batch);

  void AddPostings(CacheEntryId id, const Footprint& fp);
  void RemovePostings(CacheEntryId id, const Footprint& fp);

  std::unordered_map<CacheEntryId, Footprint> entries_;
  /// Word-block → sorted resident entry ids whose footprint covers it.
  std::map<std::uint32_t, std::vector<CacheEntryId>> postings_;
};

}  // namespace gcp

#endif  // GCP_CACHE_RELEVANCE_INDEX_HPP_
