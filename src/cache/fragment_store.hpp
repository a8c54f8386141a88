// Fragment store — per-shard cache of one-hop sub-pattern results.
//
// Each resident fragment is a full CachedQuery (kind kSubgraph, query =
// the canonical star from match/fragments, answer = dataset graphs known
// to contain the star, valid = Algorithm 2's indicator), so consistency
// reuses the Cache Validator verbatim: CON reconciles every fragment with
// RefreshEntry (ValidateAll, the store's one reconcile path) and EVI
// purges them.
// Unlike whole-query entries, fragments never produce answers directly —
// their valid-negative sets (valid ∧ ¬answer) only *shrink* Method M
// candidate sets, so a stale or missing fragment is a lost pruning
// opportunity, never a wrong answer.
//
// Identity is the star's label key (StarDigest of its canonical label
// sequence, match/fragments) with a label-sequence comparison behind the
// lookup: a digest owned by a *different* star rejects the offer
// (fragment_digest_collisions) instead of aliasing two fragments. Every
// resident is the canonical star of its labels — admissions build it
// that way and Restore drops anything else — so equal labels mean equal
// stars.
// Offers for an already-resident star merge: valid bits union in and the
// offer's answer knowledge overwrites the covered range — both sides are
// forward-validated to the same watermark before merging, so they agree
// wherever both are valid.
//
// Thread model matches CacheManager: the owner (one CacheManager per
// shard) guarantees const members run under the shard's shared lock and
// mutating members under its exclusive lock.

#ifndef GCP_CACHE_FRAGMENT_STORE_HPP_
#define GCP_CACHE_FRAGMENT_STORE_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "cache/cache_entry.hpp"
#include "cache/statistics.hpp"
#include "common/status.hpp"
#include "dataset/log_analyzer.hpp"

namespace gcp {

/// \brief Digest-keyed store of fragment entries with LRU bounding.
class FragmentStore {
 public:
  /// `byte_budget` is this store's slice of the engine byte budget (0 =
  /// off).
  explicit FragmentStore(std::size_t capacity, std::uint64_t byte_budget = 0)
      : capacity_(capacity), byte_budget_(byte_budget) {}

  /// Resident entry for `digest` whose star has the canonical label
  /// sequence `labels`; nullptr on miss or digest collision. Does not
  /// touch recency — reads run under the shared lock; recency advances
  /// via Credit at drain time.
  const CachedQuery* Probe(std::uint64_t digest,
                           std::span<const Label> labels) const;

  /// Admits a freshly computed fragment entry, or merges it into the
  /// resident twin. The entry must be forward-validated to the store's
  /// watermark by the caller (the same discipline as admission offers).
  /// Evicts least-recently-used entries beyond capacity, then entries
  /// beyond the byte slice (worst utility-per-byte first). Returns
  /// ResourceExhausted when the allocation-fault injector refused a fresh
  /// admission (a merge never allocates entry storage and cannot fail).
  Status AdmitOrMerge(std::unique_ptr<CachedQuery> entry, std::uint64_t now,
                      StatisticsManager& stats);

  /// Drain-time hit credit: `pruned` Method M candidates were removed by
  /// the fragment with `digest`. Bumps recency + benefit so restores can
  /// keep the most useful fragments first. No-op when evicted in between.
  void Credit(std::uint64_t digest, std::uint64_t pruned, std::uint64_t now,
              StatisticsManager& stats);

  /// Drops every fragment (EVI purge / restore preamble).
  void Clear();

  /// CON reconciliation: Algorithm 2 over every fragment, each counted
  /// as touched.
  void ValidateAll(const ChangeCounters& counters, std::size_t id_horizon,
                   StatisticsManager& stats);

  /// EVI reconcile purge: every fragment counts as touched, then Clear().
  void PurgeForReconcile(StatisticsManager& stats);

  /// Copies of every resident fragment (ascending digest — deterministic
  /// snapshot payload; copies alias the shared star graphs).
  std::vector<CachedQuery> Export() const;

  /// Replaces the contents with `entries` (best tests_saved first when
  /// over capacity). Entries whose graph is not the canonical star of its
  /// labels are dropped; keys and features are recomputed from the
  /// restored graphs, so a tampered payload cannot plant a mismatched key.
  void Restore(std::vector<CachedQuery> entries, StatisticsManager& stats);

  /// Graphs + bitsets of everything resident — the fragment_bytes
  /// category of ApproxByteFootprint.
  std::uint64_t ApproxBytes() const;

  std::size_t size() const { return by_digest_.size(); }

  /// Incrementally maintained graph+bitset bytes of resident fragments
  /// (asserted against a recompute in ApproxBytes).
  std::uint64_t approx_entry_bytes() const { return entry_bytes_; }

  /// This store's slice of the byte budget (0 = off).
  std::uint64_t byte_budget() const { return byte_budget_; }

  /// Calls `fn(const CachedQuery&)` for every fragment, ascending digest.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [digest, e] : by_digest_) fn(*e);
  }

 private:
  /// Evicts ascending (last_used_at, digest) until size() <= capacity_,
  /// then — when the byte slice is on and exceeded — worst
  /// tests_saved-per-byte first until the slice fits.
  void EvictOverCapacity(StatisticsManager& stats);

  /// Byte-gauge maintenance (see CacheManager's accounting helpers).
  void AccountAdmit(CachedQuery& e);
  void AccountEvict(const CachedQuery& e);
  void AccountRefresh(CachedQuery& e);

  CachedQuery* FindMutable(std::uint64_t digest);

  std::size_t capacity_;
  std::uint64_t byte_budget_ = 0;
  /// Running graph+bitset bytes of resident fragments.
  std::uint64_t entry_bytes_ = 0;
  /// digest → entry; ordered so iteration (export, eviction scans) is
  /// deterministic across runs and shard counts.
  std::map<std::uint64_t, std::unique_ptr<CachedQuery>> by_digest_;
  /// Own id space, disjoint from the entry store's.
  CacheEntryId next_id_ = 1;
};

}  // namespace gcp

#endif  // GCP_CACHE_FRAGMENT_STORE_HPP_
