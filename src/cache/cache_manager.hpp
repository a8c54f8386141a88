// Cache Manager subsystem (paper §4): owns the Cache and Window stores,
// the Statistics Manager, the replacement machinery and the Cache
// Validator hook.
//
// Admission control follows GraphCache: newly executed queries are batched
// into a Window (default 20); when the window fills, window entries and
// cache residents are ranked together by the configured replacement policy
// and the best `cache_capacity` (default 100) survive in the cache.
// Queries in *both* stores serve cache hits (paper §4: "cached
// graphs/queries by default cover those previous queries in both cache and
// window").
//
// Thread model: the CacheManager itself is not synchronized. The engine
// (core/graphcache_plus) guarantees that every const member runs under a
// shared lock and every mutating member under the exclusive lock; const
// members therefore never touch mutable state.

#ifndef GCP_CACHE_CACHE_MANAGER_HPP_
#define GCP_CACHE_CACHE_MANAGER_HPP_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache_entry.hpp"
#include "cache/cache_validator.hpp"
#include "cache/fragment_store.hpp"
#include "cache/query_index.hpp"
#include "cache/replacement.hpp"
#include "cache/statistics.hpp"
#include "common/status.hpp"
#include "dataset/log_analyzer.hpp"

namespace gcp {

/// Configuration of the cache stores.
struct CacheManagerOptions {
  std::size_t cache_capacity = 100;   ///< Paper default.
  std::size_t window_capacity = 20;   ///< Paper default.
  ReplacementPolicy policy = ReplacementPolicy::kHybrid;
  std::uint64_t rng_seed = 7;         ///< For the RANDOM policy only.
  /// Capacity of the embedded one-hop fragment store (0 disables it).
  std::size_t fragment_capacity = 256;
  /// Byte-accounted capacity cap over this store's resident graph+bitset
  /// footprint (0 = off: the entry-count model, bit-exact legacy). When
  /// on, 1/8 of the budget is carved out for the fragment store (when
  /// enabled) and the rest bounds the whole-query stores; evictions the
  /// budget forces rank by utility-per-byte. The entry/window count caps
  /// still apply — the budget only ever evicts *more*, so a budget that
  /// never binds replays the entry-count engine bit-exactly.
  std::size_t byte_budget = 0;
};

/// How a cache entry contributed to a query — determines which per-entry
/// and global hit counters a deferred credit bumps.
enum class HitKind : std::uint8_t {
  kExact,       ///< §6.3 case 1: isomorphic resident query.
  kEmptyProof,  ///< §6.3 case 2: fully-valid empty-answer proof.
  kSub,         ///< Positive transfer (new query ⊆ cached query).
  kSuper,       ///< Pruning transfer (cached query ⊆ new query).
};

/// \brief Cache + Window stores with admission, replacement, validation.
class CacheManager {
 public:
  explicit CacheManager(CacheManagerOptions options);

  /// Admits a freshly executed query into the window. May trigger a
  /// window→cache merge (replacement) when the window becomes full.
  /// Returns the assigned entry id, or ResourceExhausted when the
  /// allocation-fault injector refused the admission (the cache simply
  /// doesn't learn the query; correctness is unaffected).
  Result<CacheEntryId> Admit(Graph query, CachedQueryKind kind,
                             DynamicBitset answer, DynamicBitset valid,
                             std::uint64_t now, double est_test_cost_ms);

  /// Like Admit, but never merges: the concurrent engine batches queued
  /// admissions and runs replacement once per maintenance drain (via
  /// MaybeMergeWindow).
  Result<CacheEntryId> AdmitDeferred(Graph query, CachedQueryKind kind,
                                     DynamicBitset answer, DynamicBitset valid,
                                     std::uint64_t now,
                                     double est_test_cost_ms);

  /// Builds an admission-ready entry (features and WL digest extracted,
  /// snapshots moved in) without touching any store — the part of
  /// admission that can run off the exclusive lock. The shared graph is
  /// handed over exactly once; no copy or re-wrap happens downstream.
  static std::unique_ptr<CachedQuery> PrepareEntry(
      std::shared_ptr<const Graph> query, CachedQueryKind kind,
      DynamicBitset answer, DynamicBitset valid, double est_test_cost_ms);

  /// As above, with the digest and features of `query` already computed
  /// by the caller (the read phase has both from the twin lookup and hit
  /// discovery; fragments pass their label key as the digest).
  static std::unique_ptr<CachedQuery> PrepareEntry(
      std::shared_ptr<const Graph> query, CachedQueryKind kind,
      DynamicBitset answer, DynamicBitset valid, double est_test_cost_ms,
      std::uint64_t digest, GraphFeatures features);

  /// Window-admits an entry from PrepareEntry; only id assignment,
  /// timestamps and index registration happen here. Never merges.
  /// Returns the assigned id, or ResourceExhausted when the
  /// allocation-fault injector fired for this admission (the entry is
  /// dropped; no store state changes).
  Result<CacheEntryId> AdmitPrepared(std::unique_ptr<CachedQuery> entry,
                                     std::uint64_t now);

  /// Refreshes resident entry `id` in place with the knowledge of an
  /// isomorphic offer instead of admitting the offer beside it
  /// (CacheValidator::MergeKnowledge — the offer must be reconciled to
  /// this store's watermark), marks it used at `now`, and re-derives its
  /// byte account. Counts one total_admission_refreshes; no-op for
  /// non-resident ids.
  void RefreshTwin(CacheEntryId id, CachedQuery& offer, std::uint64_t now);

  /// Runs the window→cache merge iff the window reached capacity — the
  /// once-per-drain replacement step paired with AdmitDeferred.
  void MaybeMergeWindow();

  /// EVI purge: drops every resident entry (cache and window).
  void Clear();

  /// EVI *reconcile* purge: Clear() plus reconcile accounting (every
  /// resident entry counts as touched — an EVI purge is indiscriminate
  /// by definition). Restore paths call Clear() directly so snapshot
  /// loading never pollutes the reconciliation counters.
  void PurgeForReconcile();

  /// CON reconciliation (paper §5.2): applies Algorithm 2 to every
  /// resident entry, then to the fragment store. Every resident entry
  /// counts as touched.
  void ValidateAll(const ChangeCounters& counters, std::size_t id_horizon);

  /// Aligns every resident indicator/answer to `id_horizon` without
  /// consuming counters (used when only ADDs happened — subsumed by
  /// ValidateAll, kept for introspection in tests).
  void ExtendAll(std::size_t id_horizon);

  /// Records that entry `id` alleviated `tests_saved` sub-iso tests.
  void RecordBenefit(CacheEntryId id, std::uint64_t tests_saved,
                     std::uint64_t now);

  /// Applies one deferred hit credit: RecordBenefit plus the per-entry and
  /// global counters for `kind`. `zero_test_exact` marks an exact hit that
  /// required no sub-iso test at all. No-op (except the global counters,
  /// which record that the hit happened) when the entry was evicted
  /// between discovery and drain.
  void CreditHit(CacheEntryId id, HitKind kind, std::uint64_t tests_saved,
                 std::uint64_t now, bool zero_test_exact = false);

  /// All hit credits one maintenance drain produced for a single entry,
  /// summed so the exclusive-lock section applies one update per entry
  /// instead of one per hit. Equivalent to the matching CreditHit
  /// sequence: `tests_saved` is the benefit sum, `hit_count` the number of
  /// credits, `last_used` the `now` of the last credit in drain order.
  struct EntryCreditSum {
    CacheEntryId id = 0;
    std::uint64_t tests_saved = 0;
    std::uint64_t hit_count = 0;
    std::uint64_t last_used = 0;
    std::uint32_t exact = 0;
    std::uint32_t empty_proof = 0;
    std::uint32_t sub = 0;
    std::uint32_t super = 0;
    std::uint32_t zero_test_exact = 0;
  };

  /// Applies a batch of per-entry credit sums (one entry lookup and one
  /// counter update per entry per drain).
  void CreditHitsBatched(const std::vector<EntryCreditSum>& credits);

  /// O(1) entry lookup via the id→entry map; nullptr when not resident.
  const CachedQuery* Find(CacheEntryId id) const;

  /// Mutable entry lookup (hit-kind counters); nullptr when not resident.
  CachedQuery* FindMutable(CacheEntryId id);

  /// Ids of all resident entries (cache first, then window), most useful
  /// first within each store (by R) — the order retrospective validation
  /// spends its budget in.
  std::vector<CacheEntryId> ResidentIdsByBenefit() const;

  /// Feature index over all resident entries.
  const QueryIndex& index() const { return index_; }

  /// Embedded one-hop fragment store. Shares this store's lock discipline
  /// and reconcile point; Clear/PurgeForReconcile/ValidateAll cover it
  /// automatically.
  FragmentStore& fragments() { return fragments_; }
  const FragmentStore& fragments() const { return fragments_; }

  /// Copies of every resident fragment — the fragment payload of a v2
  /// cache snapshot.
  std::vector<CachedQuery> ExportFragments() const {
    return fragments_.Export();
  }

  /// Replaces the fragment store's contents (restore path; call after
  /// RestoreEntries, whose Clear() wipes fragments too).
  void RestoreFragments(std::vector<CachedQuery> entries) {
    fragments_.Restore(std::move(entries), stats_);
  }

  /// Approximate resident byte footprint of this store, by category.
  /// In debug builds asserts the from-scratch graph+bitset sum against the
  /// incrementally maintained gauge (drift = an accounting bug).
  ApproxByteFootprint ApproxBytes() const;

  /// Incrementally maintained graph+bitset bytes of the whole-query stores
  /// (cache + window). Always maintained, budget on or off.
  std::uint64_t approx_entry_bytes() const { return entry_bytes_; }

  /// The whole-query slice of the byte budget (0 = budget off). The
  /// fragment slice lives in fragments().byte_budget().
  std::uint64_t entry_byte_budget() const { return entry_byte_budget_; }

  std::size_t cache_size() const { return cache_.size(); }
  std::size_t window_size() const { return window_.size(); }
  std::size_t resident() const { return cache_.size() + window_.size(); }

  const CacheManagerOptions& options() const { return options_; }
  StatisticsManager& stats() { return stats_; }
  const StatisticsManager& stats() const { return stats_; }

  /// Policy the last merge actually applied (HD resolves to PIN or PINC).
  ReplacementPolicy last_effective_policy() const { return last_effective_; }

  /// Calls `fn(const CachedQuery&)` for every resident entry.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& e : cache_) fn(*e);
    for (const auto& e : window_) fn(*e);
  }

  /// Forces the window→cache merge immediately (exposed for tests).
  void MergeWindowIntoCache();

  /// Copies every resident entry (cache store first, then window) — the
  /// payload of a cache snapshot. Entry copies alias the shared query
  /// graphs, so exporting is bitsets + metadata, not graph deep copies.
  std::vector<CachedQuery> ExportEntries() const;

  /// Replaces the resident contents with `entries` (fresh ids are
  /// assigned; at most cache_capacity entries are kept, best R first; all
  /// land in the cache store). Used when restoring a snapshot. The
  /// replacement RNG is re-seeded.
  void RestoreEntries(std::vector<CachedQuery> entries);

 private:
  /// Sets `e.approx_bytes` from ApproxEntryBytes and adds it to the
  /// running gauge.
  void AccountAdmit(CachedQuery& e);
  /// Subtracts `e.approx_bytes` from the gauge (eviction / purge).
  void AccountEvict(const CachedQuery& e);
  /// Re-measures `e` and applies the delta (bitset growth on validate).
  void AccountRefresh(CachedQuery& e);
  /// Byte pass of the capacity model: while the whole-query stores exceed
  /// their budget slice, evicts worst utility-per-byte residents. No-op
  /// when the budget is off or not exceeded — in particular it consumes no
  /// RNG state, so a never-binding budget replays the entry-count engine
  /// bit-exactly even under the RANDOM policy. Callers run it right after
  /// a merge, when the window is empty.
  void EnforceByteBudget();

  CacheManagerOptions options_;
  std::vector<std::unique_ptr<CachedQuery>> cache_;
  std::vector<std::unique_ptr<CachedQuery>> window_;
  /// Id→entry map over both stores, kept in sync by AdmitDeferred /
  /// MergeWindowIntoCache / Clear / RestoreEntries. Backs the O(1)
  /// Find/FindMutable on the per-hit RecordBenefit path.
  std::unordered_map<CacheEntryId, CachedQuery*> by_id_;
  QueryIndex index_;
  FragmentStore fragments_;
  StatisticsManager stats_;
  Rng rng_;
  CacheEntryId next_id_ = 1;
  /// Running graph+bitset bytes of cache_ + window_ (mirror of the sum of
  /// resident approx_bytes; asserted against a recompute in ApproxBytes).
  std::uint64_t entry_bytes_ = 0;
  /// Whole-query slice of options_.byte_budget (budget minus the fragment
  /// carve-out); 0 when the budget is off.
  std::uint64_t entry_byte_budget_ = 0;
  ReplacementPolicy last_effective_ = ReplacementPolicy::kHybrid;
};

}  // namespace gcp

#endif  // GCP_CACHE_CACHE_MANAGER_HPP_
