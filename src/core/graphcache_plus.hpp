// GraphCachePlus — the GC+ system facade (paper §4).
//
// Wires the four subsystems together:
//   Dataset Manager  — the GraphDataset + Log Analyzer (Algorithm 1);
//   Cache Manager    — cache/window stores, statistics, replacement,
//                      Cache Validator (Algorithm 2);
//   Query Processing Runtime — GC+sub/GC+super processors, Candidate Set
//                      Pruner, metrics monitor;
//   Method M         — the external SI verifier being expedited.
//
// Per query g (paper §4): the Dataset Manager first reconciles recent
// dataset changes with the cache (EVI: purge; CON: validate); the
// processors discover hits; the pruner reduces CS_M(g); Method M verifies
// the remaining candidates; the answer is assembled (formula (3)); the
// executed query enters the admission window and replacement may run —
// accounted as maintenance overhead, off the query's critical path.
//
// Concurrency: one read path, the paper's per-query flow under two lock
// levels. The ENGINE lock (mu_) guards the dataset, the change-log
// watermark and the FTV index. A read phase holds it shared; when the
// change log has moved past the watermark (or the FTV index lags) it
// first upgrades to the stop-the-world barrier — engine exclusive plus
// every shard lock — drains queued maintenance and reconciles (EVI:
// purge; CON: Algorithms 1 + 2), then reads. Dataset mutations, flushes
// and snapshot restores take the same barrier.
//
// The cache stores are partitioned into N digest-sharded CacheManager
// stores (cache/sharded_cache.hpp), each behind its own shared_mutex, and
// hit discovery is shard-local: the read phase visits shards one at a
// time (one shared lock each), runs the per-shard utility/cap prescreen
// and COPIES the survivors, then merges, orders and verifies them with no
// shard lock held (hit selection is shard-layout-independent — ties break
// on WL digest then entry id). A maintenance drain takes exactly ONE
// shard lock exclusive, so a drain on shard k never blocks discovery or
// drains on shard j.
//
// Deferred mutations (id-based hit credits, watermark-stamped admission
// offers) are routed by entry digest to per-shard bounded MPSC queues.
// Drains happen (a) opportunistically after a query (per-shard try-lock),
// (b) on the dedicated maintenance thread (options.maintenance_thread)
// woken by queue pressure or a timer, and (c) inline under backpressure
// when a shard queue is full.
// Invariants (per shard):
//   1. Answers are exact: a read phase observes a dataset+cache state
//      that is internally consistent (the recheck loop re-syncs before
//      reading), and cache contents only ever prune or transfer — never
//      alter — the answer (Theorems 3/6).
//   2. Deferred knowledge is never admitted as fresher than it is: an
//      admission offer carries the watermark its answer was computed at;
//      at drain time a stale offer is forward-validated through
//      Algorithms 1+2 (CON) or dropped (EVI).
//   3. Dataset mutations go through ApplyDatasetChanges once queries run
//      concurrently or a maintenance thread drains, making every change
//      atomic w.r.t. read phases and drains.
// Lock order: engine lock before shard locks; shard locks in ascending
// index order; never the reverse.

#ifndef GCP_CORE_GRAPHCACHE_PLUS_HPP_
#define GCP_CORE_GRAPHCACHE_PLUS_HPP_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "cache/cache_manager.hpp"
#include "cache/sharded_cache.hpp"
#include "cache/snapshot.hpp"
#include "common/maintenance_thread.hpp"
#include "common/mpsc_queue.hpp"
#include "common/thread_pool.hpp"
#include "core/method_m.hpp"
#include "core/metrics.hpp"
#include "core/options.hpp"
#include "core/processors.hpp"
#include "dataset/dataset.hpp"
#include "ftv/ftv_index.hpp"

namespace gcp {

/// Answer and accounting of one query execution.
struct QueryResult {
  /// Ids of dataset graphs in the answer set, ascending.
  std::vector<GraphId> answer;
  QueryMetrics metrics;
};

/// \brief The GC+ caching system.
class GraphCachePlus {
 public:
  /// `dataset` must outlive the instance. Changes to the dataset are
  /// picked up through its change log at the start of the next query.
  GraphCachePlus(GraphDataset* dataset, GraphCachePlusOptions options);

  /// Stops the maintenance thread (if any); queued-but-undrained batches
  /// are discarded with the stores. No query may be in flight.
  ~GraphCachePlus();

  /// Executes a subgraph query: all live G with g ⊆ G.
  QueryResult SubgraphQuery(const Graph& g) {
    return Query(g, QueryKind::kSubgraph);
  }

  /// Executes a supergraph query: all live G with G ⊆ g.
  QueryResult SupergraphQuery(const Graph& g) {
    return Query(g, QueryKind::kSupergraph);
  }

  /// Executes a query of the given kind. Thread-safe: any number of
  /// threads may query one instance concurrently, provided dataset
  /// mutations go through ApplyDatasetChanges.
  QueryResult Query(const Graph& g, QueryKind kind);

  /// Runs `fn(dataset)` under the stop-the-world barrier (engine
  /// exclusive + every shard lock), after draining pending maintenance;
  /// the next query reconciles the change with the cache. A caller may
  /// mutate the dataset directly between queries only while no other
  /// thread queries and no maintenance thread runs; otherwise every
  /// mutation must go through here.
  void ApplyDatasetChanges(const std::function<void(GraphDataset&)>& fn);

  /// Drains every queued maintenance batch on every shard, bringing the
  /// cache to a quiescent state (exposed for tests, snapshots, benches).
  void FlushMaintenance();

  /// Cumulative metrics since construction or the last ResetAggregate()
  /// (benches reset after warm-up, mirroring the paper's one-window
  /// warm-up). Safe only when no queries are in flight; use
  /// AggregateSnapshot() concurrently.
  const AggregateMetrics& aggregate() const { return aggregate_; }
  void ResetAggregate();

  /// Thread-safe copy of the aggregate metrics.
  AggregateMetrics AggregateSnapshot() const;

  /// Persists the warm cache (entries + the change-log watermark they are
  /// consistent with) as one crash-safe checkpoint file at `path`
  /// (cache/checkpoint.hpp — the format CheckpointNow writes). A later
  /// process over the same dataset lineage can LoadCache and skip the
  /// cold start. Queued-but-undrained admissions are not part of the
  /// snapshot (call FlushMaintenance first to include them).
  Status SaveCache(const std::string& path) const;

  /// Restores a snapshot saved by SaveCache (entries re-routed to their
  /// digest's home shard). The dataset's change log must still contain
  /// every record after the snapshot's watermark; the incremental suffix
  /// is reconciled through Algorithms 1+2 for CON (purge for EVI) on the
  /// next query, so stale snapshots remain exact. A truncated or
  /// corrupt file is rejected (Corruption) before any state changes.
  Status LoadCache(const std::string& path);

  // --- Durability (crash-safe checkpoints + verified warm restart) --------

  /// Copies the full warm-cache state (entries + the watermark and id
  /// horizon they are consistent with) — the payload SaveCache and
  /// CheckpointNow persist. Dataset changes not yet reconciled stay out
  /// of the copy; the restoring engine's next query replays them.
  /// Thread-safe; queries keep flowing during the copy (the engine and
  /// shard locks are held shared).
  /// ResourceExhausted when the allocation-fault injector refused the
  /// export (nothing is copied; the resident state is untouched).
  Result<CacheSnapshot> ExportSnapshot() const;

  /// Installs `snapshot` as the resident cache state — the LoadCache body
  /// after the file read: lineage-validated (FailedPrecondition when the
  /// watermark or horizon outruns this dataset), entries re-routed to
  /// their digest's home shard; the next query's sync fast-forwards them
  /// from the snapshot's watermark through CON replay / EVI purge.
  /// Thread-safe.
  Status ApplySnapshot(CacheSnapshot snapshot);

  /// Writes one durable checkpoint into options().checkpoint_dir — encode
  /// with per-section CRCs, tmp file, fsync, atomic rename, fsync of the
  /// directory — then prunes committed siblings beyond
  /// options().checkpoint_keep. The export never stalls queries and file
  /// I/O runs with no engine state locked. FailedPrecondition when
  /// checkpoint_dir is empty; on I/O failure the torn tmp file is left
  /// behind exactly as a crash would leave it.
  Status CheckpointNow();

  /// What WarmRestart did.
  struct WarmRestartReport {
    bool warm = false;         ///< A checkpoint was loaded and applied.
    std::string path;          ///< Winning file (empty on cold start).
    std::size_t entries = 0;   ///< Entries the winning checkpoint carried.
    std::size_t rejected = 0;  ///< Siblings rejected before the outcome.
    LogSeq watermark = 0;      ///< Winning checkpoint's watermark.
  };

  /// Verified warm restart with graceful degradation: checkpoints in
  /// options().checkpoint_dir are tried newest-first; a corrupt,
  /// truncated, torn or wrong-lineage file is rejected (counted) and the
  /// next-older sibling is tried; when none survives the engine cold
  /// starts with whatever it already holds. Returns OK for both warm and
  /// cold outcomes — only an unconfigured checkpoint_dir is an error.
  Status WarmRestart(WarmRestartReport* report = nullptr);

  /// Shard 0's store — the full cache when options().num_shards == 1 (the
  /// default), one slice otherwise. Sharded callers use cache_shards() /
  /// CacheStatsSnapshot().
  CacheManager& cache_manager() { return cache_.shard(0); }
  const CacheManager& cache_manager() const { return cache_.shard(0); }

  /// The sharded store router (shard access, lock-violation counter).
  ShardedCache& cache_shards() { return cache_; }
  const ShardedCache& cache_shards() const { return cache_; }

  /// Thread-safe cross-shard sum of the cache statistics counters, with
  /// the engine-level counters (read_phase_engine_lock_acquisitions,
  /// durability, overload) overlaid.
  StatisticsManager CacheStatsSnapshot() const;

  /// The maintenance thread, or nullptr when options().maintenance_thread
  /// is off (introspection for tests/benches).
  const MaintenanceThread* maintenance_thread() const {
    return maintenance_.get();
  }

  /// Engine-lock acquisitions made by query paths since construction.
  std::uint64_t read_phase_engine_lock_acquisitions() const {
    return engine_lock_acquisitions_.load(std::memory_order_relaxed);
  }

  const GraphCachePlusOptions& options() const { return options_; }
  const GraphDataset& dataset() const { return *dataset_; }
  /// The FTV index, or nullptr when options().use_ftv_index is off.
  const FtvIndex* ftv_index() const { return ftv_.get(); }

 private:
  /// One deferred hit credit: entry id + benefit, applied at drain time
  /// by CacheManager::CreditHitsBatched. Id-based on purpose — the entry
  /// may have been evicted by the time the credit lands.
  struct HitCredit {
    CacheEntryId id = 0;
    HitKind kind = HitKind::kSub;
    std::uint64_t tests_saved = 0;
    bool zero_test_exact = false;
  };

  /// A deferred admission: a fully-prepared cache entry (query copy,
  /// features, WL digest, answer and validity snapshots — all computed in
  /// the read phase to keep the exclusive section minimal), stamped with
  /// the watermark the read phase observed so a drain that happens after
  /// further dataset changes can tell how stale the knowledge is.
  struct AdmissionOffer {
    std::unique_ptr<CachedQuery> entry;
    LogSeq observed_watermark = 0;
  };

  /// One deferred fragment hit credit: the read phase applied this
  /// fragment's mask, removing `pruned` Method M candidates. Digest-keyed
  /// (the fragment store has its own id space, and the fragment may be
  /// evicted or merged before the drain lands).
  struct FragmentCredit {
    std::uint64_t digest = 0;
    std::uint64_t pruned = 0;
  };

  /// Everything one query defers to ONE shard: the credits for entries
  /// homed there plus (at most) the admission offer routed there by the
  /// query's digest, plus fragment credits/offers for fragments homed
  /// there (fragment offers follow the admission watermark-staleness
  /// discipline verbatim).
  struct PendingMaintenance {
    std::uint64_t query_id = 0;
    std::vector<HitCredit> credits;
    std::optional<AdmissionOffer> offer;
    std::vector<FragmentCredit> fragment_credits;
    std::vector<AdmissionOffer> fragment_offers;
  };

  /// True when the next read phase must not start yet: the change log
  /// moved past the cache watermark, or the FTV index lags. Requires at
  /// least the engine shared lock.
  bool NeedsSyncLocked() const;

  /// Dataset Manager sync: reconcile unprocessed change-log records with
  /// the cache (Algorithms 1 + 2 for CON; full purge for EVI), then bring
  /// the FTV index up to date. Requires the engine exclusive lock and
  /// every shard lock (stop-the-world).
  void SyncWithDatasetLocked(QueryMetrics* metrics);

  // --- Read phase ---------------------------------------------------------

  using Deferred = std::vector<std::pair<std::size_t, PendingMaintenance>>;

  /// The read phase: engine shared lock + sync recheck loop, then the
  /// twin lookup (an exact hit ends the phase), shard-local discovery
  /// (one shared shard lock at a time), pruning, the fragment tier,
  /// credit extraction, Method M verification and admission-offer
  /// preparation. Bumps engine_lock_acquisitions_ per mu_ acquisition.
  void ReadPhase(const Graph& g, QueryKind kind, QueryMetrics& m,
                 Deferred& deferred, DynamicBitset& answer_bits);

  /// The read phase after the sync: everything from the twin lookup on,
  /// over the Method M candidate set `csm`. Requires the engine shared
  /// lock.
  void ExecuteReadSlice(const Graph& g, QueryKind kind,
                        const DynamicBitset& csm, QueryMetrics& m,
                        Deferred& deferred, DynamicBitset& answer_bits);

  // --- Maintenance --------------------------------------------------------
  //
  // Every drain runs under the engine lock (shared suffices), so the
  // dataset, its change log and watermark_ — the watermark every store is
  // reconciled to — hold still while batches apply.

  /// Pops shard `s`'s queue and applies it — credits summed per entry,
  /// offers deduped/refreshed/admitted, replacement at most once.
  /// Requires the engine lock and shard `s`'s exclusive lock.
  void DrainShardLocked(std::size_t s);

  /// Applies already-popped batches (the tail of DrainShardLocked, also
  /// used by the backpressure path for the caller's own batch).
  void ApplyBatchesLocked(std::size_t s,
                          std::span<PendingMaintenance> batches);

  /// Per-shard drain entry point for the post-query and maintenance-
  /// thread paths: the caller holds the engine lock (shared suffices);
  /// takes shard `s`'s exclusive lock under a DrainScope. With
  /// `try_lock`, gives up (returns false) when the shard lock is
  /// contended. `extra` (nullable) is one additional batch applied after
  /// the queue — the backpressure path's own rejected batch.
  bool DrainShard(std::size_t s, bool try_lock,
                  PendingMaintenance* extra = nullptr);

  /// Drains every shard under the stop-the-world barrier (sync, dataset
  /// change, flush, restore).
  void DrainAllShardsLocked();

  /// Maintenance-thread body: drain every shard with a non-empty queue,
  /// one shard lock at a time, then give background checkpointing its
  /// periodic chance.
  void MaintenanceDrainPass();

  /// Background checkpoint driver (maintenance thread only): attempts a
  /// checkpoint once per checkpoint_interval_us, stretched by a doubling
  /// backoff (cap 64×) while attempts fail so a sick disk can't turn the
  /// drain loop into a retry storm. No-op unless checkpoint_dir and a
  /// nonzero interval are configured.
  void MaybeBackgroundCheckpoint();

  /// Allocates the next checkpoint sequence number, seeding from the
  /// highest committed sibling already in checkpoint_dir (a restarted
  /// process must never reuse — and thereby clobber — a live seq).
  /// Requires checkpoint_mu_.
  std::uint64_t NextCheckpointSeqLocked();

  /// Sums the hit credits of `batches` per entry, in first-credit order.
  static std::vector<CacheManager::EntryCreditSum> SumCredits(
      std::span<const PendingMaintenance> batches);

  /// Applies one batch's fragment credits, fragment offers and admission
  /// offer to shard `s`. The admission offer goes through the
  /// digest-keyed twin lookup: it is dropped when an isomorphic twin fully
  /// valid over the live dataset is resident (dedup), merged into an
  /// isomorphic twin that is not (refresh), and admitted otherwise; stale
  /// offers are forward-validated first (CON) or dropped (EVI). Requires
  /// the engine lock and shard `s`'s exclusive lock.
  void ApplyMaintenanceLocked(std::size_t s, PendingMaintenance& batch);

  /// CON forward validation of an offer computed at `observed`: Algorithms
  /// 1 + 2 over the change records between `observed` and watermark_, so
  /// the offer sits at the store's watermark. Requires the engine lock and
  /// the target shard's exclusive lock.
  void ForwardValidateLocked(CachedQuery& entry, LogSeq observed) const;

  /// §8 future-work extension, one shard's slice: re-verify up to
  /// `*budget` invalidated (entry, live graph) pairs, restoring validity
  /// with fresh knowledge. Requires the stop-the-world barrier.
  void RetrospectiveRefreshShard(std::size_t s, const DynamicBitset& live,
                                 std::size_t* budget);

  GraphDataset* dataset_;
  GraphCachePlusOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<FtvIndex> ftv_;
  MethodM method_m_;
  std::unique_ptr<SubgraphMatcher> internal_matcher_;
  HitDiscovery discovery_;

  /// Engine lock: guards watermark_, synced_horizon_, ftv_ mutation and
  /// the dataset. Read phases and drains hold it shared; sync/dataset
  /// changes exclusive. Always taken before any shard lock.
  mutable std::shared_mutex mu_;
  ShardedCache cache_;
  /// Change-log position every store's validity state is reconciled to.
  LogSeq watermark_ = 0;
  /// The dataset's id horizon at that position: the width of every
  /// resident entry and fragment (a reconcile widens them all to it).
  std::size_t synced_horizon_ = 0;

  std::atomic<std::uint64_t> engine_lock_acquisitions_{0};

  /// Per-shard maintenance queues: read phases enqueue batches routed by
  /// digest; drains pop under that shard's exclusive lock.
  std::vector<std::unique_ptr<BoundedMpscQueue<PendingMaintenance>>> pending_;

  /// Dedicated drain thread (options.maintenance_thread); else null and
  /// drains happen opportunistically post-query.
  std::unique_ptr<MaintenanceThread> maintenance_;

  std::atomic<std::uint64_t> query_counter_{0};

  /// Serializes checkpoint writes and seq allocation — CheckpointNow may
  /// be called from any thread while the maintenance thread runs its own
  /// background attempts. Never held while engine or shard locks are
  /// held (the export completes and releases them first).
  mutable std::mutex checkpoint_mu_;
  std::uint64_t checkpoint_seq_ = 0;  ///< Guarded by checkpoint_mu_; 0 = unseeded.

  // Durability counters (engine-level; overlaid onto CacheStatsSnapshot).
  std::atomic<std::uint64_t> checkpoints_written_{0};
  std::atomic<std::uint64_t> checkpoints_failed_{0};
  std::atomic<std::uint64_t> checkpoints_retried_{0};
  std::atomic<std::uint64_t> checkpoint_bytes_{0};
  std::atomic<std::uint64_t> t_checkpoint_ns_{0};
  std::atomic<std::uint64_t> warm_restarts_{0};
  std::atomic<std::uint64_t> warm_restart_rejected_{0};

  // Overload counter (engine-level; overlaid onto CacheStatsSnapshot).
  std::atomic<std::uint64_t> backpressure_inline_drains_{0};

  /// Background scheduling state — touched only on the maintenance
  /// thread, so plain members suffice.
  std::chrono::steady_clock::time_point last_checkpoint_attempt_{};
  std::uint32_t checkpoint_backoff_ = 1;
  bool checkpoint_clock_armed_ = false;
  bool checkpoint_recovering_ = false;

  /// Guards aggregate_ — per-thread QueryMetrics merge through here.
  mutable std::mutex agg_mu_;
  AggregateMetrics aggregate_;
};

}  // namespace gcp

#endif  // GCP_CORE_GRAPHCACHE_PLUS_HPP_
