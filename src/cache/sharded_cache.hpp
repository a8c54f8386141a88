// ShardedCache — N digest-sharded CacheManager stores behind per-shard
// reader/writer locks.
//
// PR 2/3 serialized every maintenance drain under the engine's single
// shared_mutex: one admission batch stalled every reader. The paper's
// window/cache split does not require that coupling — reconciliation only
// touches the entries affected by a change — so the stores are partitioned
// by WL-digest: an entry lives in shard digest % N for its whole lifetime,
// together with its slice of the QueryIndex inverted postings, the
// statistics counters and the replacement state. Each shard carries its
// own std::shared_mutex, so a maintenance drain on shard k (shard-k
// exclusive) never blocks hit discovery on shard j (shard-j shared).
//
// Lock order: the engine lock (dataset/watermark) is always acquired
// before any shard lock, and shard locks are acquired in ascending index
// order. Stop-the-world operations (dataset mutation, EVI purge, CON
// reconcile, snapshot restore) hold the engine lock exclusively and take
// every shard lock through LockAllExclusive.
//
// The "a drain never touches a foreign shard" invariant is enforced, not
// just documented: DrainScope marks the current thread as draining shard
// k, and every subsequent Lock*(j != k) on that thread bumps an atomic
// violation counter the stress tests assert to be zero.
//
// With num_shards == 1 the router degenerates to exactly the PR 2/3
// engine: one store, one lock, identical admission order and replacement
// decisions — the bit-exact legacy comparison path.

#ifndef GCP_CACHE_SHARDED_CACHE_HPP_
#define GCP_CACHE_SHARDED_CACHE_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "cache/cache_manager.hpp"

namespace gcp {

/// \brief Digest-sharded collection of CacheManager stores.
class ShardedCache {
 public:
  /// Splits `total` capacities across `num_shards` stores (ceil division,
  /// at least 1 each, so total capacity is preserved up to rounding). A
  /// zero shard count is clamped to 1.
  ShardedCache(std::size_t num_shards, const CacheManagerOptions& total);

  /// The per-shard options derived from engine-total options: entry,
  /// window, fragment capacities and the byte budget are all ceil-split so
  /// per-shard sums stay within total + (num_shards - 1). Exposed for the
  /// split-invariant unit tests.
  static CacheManagerOptions SplitOptions(const CacheManagerOptions& total,
                                          std::size_t num_shards);

  std::size_t num_shards() const { return shards_.size(); }

  /// Home shard of an entry: fixed by its digest (the query's WL digest,
  /// a fragment's label key) at admission, recomputable from any
  /// CachedQuery's graph ever after.
  std::size_t ShardOfDigest(std::uint64_t digest) const {
    return shards_.size() == 1
               ? 0
               : static_cast<std::size_t>(digest % shards_.size());
  }

  CacheManager& shard(std::size_t s) { return shards_[s]->store; }
  const CacheManager& shard(std::size_t s) const { return shards_[s]->store; }

  // --- Locking ------------------------------------------------------------
  // All store access goes through these helpers so cross-shard
  // acquisitions inside a DrainScope are detected.

  std::shared_lock<std::shared_mutex> LockShared(std::size_t s) const;
  std::unique_lock<std::shared_mutex> LockExclusive(std::size_t s) const;
  /// Non-blocking exclusive acquisition (owns_lock() == false on failure).
  std::unique_lock<std::shared_mutex> TryLockExclusive(std::size_t s) const;
  /// Every shard lock, shared, in ascending index order (read phase).
  std::vector<std::shared_lock<std::shared_mutex>> LockAllShared() const;
  /// Every shard lock, exclusive, in ascending index order (stop-the-world
  /// barrier: dataset changes, EVI purge, CON reconcile, restore).
  std::vector<std::unique_lock<std::shared_mutex>> LockAllExclusive() const;

  /// RAII marker: the current thread is draining shard `s`. While one is
  /// alive, locking any other shard from the same thread counts as a
  /// violation. Not reentrant (one live scope per thread).
  class DrainScope {
   public:
    explicit DrainScope(std::size_t s);
    ~DrainScope();
    DrainScope(const DrainScope&) = delete;
    DrainScope& operator=(const DrainScope&) = delete;
  };

  /// Number of foreign-shard lock acquisitions observed inside drain
  /// scopes since construction — asserted zero by the stress tests.
  std::uint64_t lock_violations() const {
    return violations_.load(std::memory_order_relaxed);
  }

  // --- Cross-shard aggregation --------------------------------------------
  // Callers hold the appropriate locks (shard locks, or the engine lock
  // exclusively, which excludes every shard writer).

  std::size_t resident() const;
  std::size_t cache_size() const;
  std::size_t window_size() const;

  /// Sums every shard's StatisticsManager counters into one snapshot.
  StatisticsManager AggregateStats() const;

  /// EVI purge across every shard.
  void Clear();

  /// Calls `fn(const CachedQuery&)` for every resident entry, shard 0
  /// first.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& s : shards_) s->store.ForEachEntry(fn);
  }

  /// Copies every resident entry (shard 0 first) — snapshot payload.
  /// Copies alias the shared query graphs (no graph deep copies).
  std::vector<CachedQuery> ExportEntries() const;

  /// Replaces the resident contents with `entries`, each routed to its
  /// digest's home shard (per-shard capacity truncation applies).
  void RestoreEntries(std::vector<CachedQuery> entries);

  /// Copies every resident fragment (shard 0 first) — the fragment
  /// payload of a v2 snapshot.
  std::vector<CachedQuery> ExportFragments() const;

  /// Routes `fragments` to their digests' home shards. Must run after
  /// RestoreEntries: each shard's RestoreEntries clears its fragment
  /// store as part of the wipe.
  void RestoreFragments(std::vector<CachedQuery> fragments);

 private:
  struct Shard {
    explicit Shard(const CacheManagerOptions& options) : store(options) {}
    CacheManager store;
    mutable std::shared_mutex mu;
  };

  /// Records a lock acquisition on shard `s` for violation tracking.
  void NoteLock(std::size_t s) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::uint64_t> violations_{0};
};

}  // namespace gcp

#endif  // GCP_CACHE_SHARDED_CACHE_HPP_
