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
// Concurrency (PR 5): two read-path admission-control modes share one
// engine.
//
//   LOCK PATH (options.epoch_reads == false — the PR 4 engine, preserved
//   bit-exactly as the equivalence oracle): the ENGINE lock (mu_) guards
//   the dataset, the change-log watermark and the FTV index. Read phases
//   hold it shared; dataset mutations, syncs and snapshot restores hold
//   it exclusive together with every shard lock (stop-the-world).
//
//   EPOCH PATH (options.epoch_reads == true): the engine publishes an
//   immutable EngineSnapshot (core/engine_snapshot.hpp — watermark, live
//   mask, copy-on-write graph table, label histogram, chained change
//   records, FTV summary view) through one atomic pointer. A query read
//   phase pins an epoch (common/epoch.hpp), loads the snapshot and runs
//   entirely against it — engine-lock acquisitions on the read path are
//   ZERO (counted, and asserted zero by the epoch stress suite). A
//   dataset mutation serializes on mutation_mu_, applies the change,
//   publishes the successor snapshot, retires the predecessor to the
//   epoch manager (freed after a grace period), and then reconciles
//   CON/EVI validity shard-by-shard under per-shard exclusive locks — no
//   stop-the-world barrier, readers on the old snapshot keep flowing. A
//   shard whose watermark lags a reader's snapshot is simply skipped by
//   that reader's discovery (fewer hits, never a wrong answer); drains
//   fast-forward a lagging shard before applying batches.
//
// In BOTH modes the cache stores are partitioned into N digest-sharded
// CacheManager stores (cache/sharded_cache.hpp), each behind its own
// shared_mutex, and hit discovery is shard-local: the read phase visits
// shards one at a time (one shared lock each), runs the per-shard
// utility/cap prescreen and COPIES the survivors, then merges, orders and
// verifies them with no lock held (hit selection is shard-layout-
// independent — ties break on WL digest then entry id). A maintenance
// drain takes exactly ONE shard lock exclusive, so a drain on shard k
// never blocks discovery or drains on shard j.
//
// Deferred mutations (id-based hit credits, watermark-stamped admission
// offers) are routed by entry digest to per-shard bounded MPSC queues.
// Drains happen (a) opportunistically after a query (per-shard try-lock),
// (b) on the dedicated maintenance thread (options.maintenance_thread)
// woken by queue pressure or a timer, and (c) inline under backpressure
// when a shard queue is full.
// Invariants (PR 2's, preserved per shard):
//   1. Answers are exact: a read phase observes a dataset+cache state
//      that is internally consistent — on the lock path via the recheck
//      loop that re-syncs before reading; on the epoch path because a
//      snapshot is immutable and only same-watermark shards contribute
//      hits — and cache contents only ever prune or transfer — never
//      alter — the answer (Theorems 3/6).
//   2. Deferred knowledge is never admitted as fresher than it is: an
//      admission offer carries the watermark its answer was computed at;
//      at drain time a stale offer is forward-validated through
//      Algorithms 1+2 (CON) or dropped (EVI), per shard, against that
//      shard's own watermark.
//   3. Dataset mutations go through ApplyDatasetChanges once queries run
//      concurrently, making every change atomic w.r.t. read phases.
// Lock order: engine lock (lock path) / mutation_mu_ (epoch path) before
// shard locks; shard locks in ascending index order; never the reverse.

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
#include "common/epoch.hpp"
#include "common/maintenance_thread.hpp"
#include "common/mpsc_queue.hpp"
#include "common/thread_pool.hpp"
#include "core/engine_snapshot.hpp"
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
  /// `dataset` must outlive the instance. Changes to the dataset between
  /// queries are picked up through its change log.
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
  /// threads may query one instance concurrently, provided concurrent
  /// dataset mutations go through ApplyDatasetChanges.
  QueryResult Query(const Graph& g, QueryKind kind);

  /// Runs `fn(dataset)` atomically w.r.t. concurrent read phases, after
  /// draining pending maintenance. Lock path: the stop-the-world barrier
  /// (engine exclusive + every shard lock). Epoch path: serializes on the
  /// mutation mutex, mutates, publishes the successor snapshot, retires
  /// the predecessor and reconciles shard-by-shard — concurrent readers
  /// keep flowing on the old snapshot throughout. The only safe way to
  /// mutate the dataset while queries are in flight (single-threaded
  /// callers may keep mutating the dataset directly between queries).
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
  /// consistent with). A later process over the same dataset lineage can
  /// LoadCache and skip the cold start. Queued-but-undrained admissions
  /// are not part of the snapshot (call FlushMaintenance first to include
  /// them).
  Status SaveCache(const std::string& path) const;

  /// Restores a snapshot saved by SaveCache (entries re-routed to their
  /// digest's home shard). The dataset's change log must still contain
  /// every record after the snapshot's watermark; the incremental suffix
  /// is reconciled through Algorithms 1+2 for CON (purge for EVI) — on
  /// the next query (lock path) or immediately per shard (epoch path) —
  /// so stale snapshots remain exact.
  Status LoadCache(const std::string& path);

  // --- Durability (crash-safe checkpoints + verified warm restart) --------

  /// Copies the full warm-cache state (entries + the watermark and id
  /// horizon they are consistent with) — the payload SaveCache and
  /// CheckpointNow persist. Thread-safe; queries keep flowing (shard
  /// locks are held shared, plus mutation_mu_ on the epoch path).
  /// ResourceExhausted when the allocation-fault injector refused the
  /// export (nothing is copied; the resident state is untouched).
  Result<CacheSnapshot> ExportSnapshot() const;

  /// Installs `snapshot` as the resident cache state — the LoadCache body
  /// after the file read: lineage-validated (FailedPrecondition when the
  /// watermark or horizon outruns this dataset), entries re-routed to
  /// their digest's home shard, then fast-forwarded from the snapshot's
  /// watermark through CON replay / EVI purge. Thread-safe.
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
  /// the engine-level epoch counters (snapshots_published, epochs_retired,
  /// read_phase_engine_lock_acquisitions) overlaid.
  StatisticsManager CacheStatsSnapshot() const;

  /// The maintenance thread, or nullptr when options().maintenance_thread
  /// is off (introspection for tests/benches).
  const MaintenanceThread* maintenance_thread() const {
    return maintenance_.get();
  }

  /// Engine-lock acquisitions made by query paths since construction —
  /// zero under options().epoch_reads.
  std::uint64_t read_phase_engine_lock_acquisitions() const {
    return engine_lock_acquisitions_.load(std::memory_order_relaxed);
  }
  /// EngineSnapshots published (epoch path; 0 on the lock path).
  std::uint64_t snapshots_published() const {
    return snapshots_published_.load(std::memory_order_relaxed);
  }
  /// The epoch manager (grace-period counters; introspection for tests).
  const EpochManager& epoch_manager() const { return epochs_; }

  /// The overload pressure monitor, or nullptr when options().byte_budget
  /// is 0. Exposed mutable so torture tests can drive deterministic tier
  /// transitions (AddBytes / NoteQueueDepth) around real queries.
  PressureMonitor* pressure_monitor() { return pressure_.get(); }
  const PressureMonitor* pressure_monitor() const { return pressure_.get(); }

  /// Current overall pressure tier (NORMAL when no monitor is armed).
  PressureTier pressure_tier() const {
    return pressure_ == nullptr ? PressureTier::kNormal : pressure_->tier();
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

  /// Context a drain applies batches under. Legacy (lock-path) drains
  /// leave `live`/`snap` null and read the dataset under the engine lock
  /// exactly as PR 4 did; epoch drains carry the snapshot's live mask and
  /// record segments so they never touch the dataset.
  struct DrainEnv {
    /// Staleness reference: the watermark the target store's validity
    /// state is reconciled to (engine watermark on the lock path, shard
    /// watermark == snapshot watermark on the epoch path).
    LogSeq watermark = 0;
    /// Live mask for the twin lookup's full-validity test; nullptr →
    /// recompute from the dataset per offer (the lock path's oracle).
    const DynamicBitset* live = nullptr;
    /// Record source for forward validation; nullptr → the change log.
    const EngineSnapshot* snap = nullptr;
  };

  /// True when the next read phase must not start yet: the change log
  /// moved past the cache watermark, or the FTV index lags. Requires at
  /// least the engine shared lock. Lock path only.
  bool NeedsSyncLocked() const;

  /// Dataset Manager sync: reconcile unprocessed change-log records with
  /// the cache (Algorithms 1 + 2 for CON; full purge for EVI), then bring
  /// the FTV index up to date. Requires the engine exclusive lock; takes
  /// every shard lock (stop-the-world). Lock path only.
  void SyncWithDatasetLocked(QueryMetrics* metrics);

  // --- Read phases --------------------------------------------------------

  using Deferred = std::vector<std::pair<std::size_t, PendingMaintenance>>;

  /// Lock-path read phase: engine shared lock + sync recheck loop, then
  /// the shared read slice. Bumps engine_lock_acquisitions_ per mu_
  /// acquisition.
  void ReadPhaseLocked(const Graph& g, QueryKind kind, QueryMetrics& m,
                       Deferred& deferred, DynamicBitset& answer_bits);

  /// Epoch-path read phase: pin, load snapshot, republish-if-stale (only
  /// out-of-band serial mutations trigger that), then the shared read
  /// slice against the snapshot. Never touches mu_.
  void ReadPhaseEpoch(const Graph& g, QueryKind kind, QueryMetrics& m,
                      Deferred& deferred, DynamicBitset& answer_bits);

  /// The mode-independent read slice: the twin lookup (an exact hit
  /// ends the slice), then shard-local discovery (one shared shard lock
  /// at a time; epoch mode skips shards whose watermark is not
  /// `watermark`), pruning, the fragment tier, credit extraction, Method
  /// M verification, and admission-offer preparation. `snap` null on the
  /// lock path.
  void ExecuteReadSlice(const Graph& g, QueryKind kind,
                        const DynamicBitset& csm, const EngineSnapshot* snap,
                        LogSeq watermark, std::size_t id_horizon,
                        QueryMetrics& m, Deferred& deferred,
                        DynamicBitset& answer_bits);

  // --- Maintenance --------------------------------------------------------

  /// Pops shard `s`'s queue and applies it under `env` — credits summed
  /// per entry, offers deduped/refreshed/admitted, replacement at
  /// most once. Requires shard `s`'s exclusive lock (plus, on the lock
  /// path, the engine lock).
  void DrainShardLocked(std::size_t s, const DrainEnv& env);

  /// Applies already-popped batches (the tail of DrainShardLocked, also
  /// used by the backpressure path for the caller's own batch).
  void ApplyBatchesLocked(std::size_t s,
                          std::span<PendingMaintenance> batches,
                          const DrainEnv& env);

  /// Per-shard drain entry point for the post-query and maintenance-
  /// thread paths. Lock path: engine shared lock held by the caller;
  /// takes shard `s`'s exclusive lock under a DrainScope. Epoch path:
  /// pins an epoch, fast-forwards the shard to the current snapshot's
  /// watermark if it lags, then drains. With `try_lock`, gives up
  /// (returns false) when the shard lock is contended. `extra`
  /// (nullable) is one additional batch applied after the queue — the
  /// backpressure path's own rejected batch.
  bool DrainShard(std::size_t s, bool try_lock,
                  PendingMaintenance* extra = nullptr);

  /// Drains every shard under the engine exclusive lock (lock-path
  /// stop-the-world: sync, dataset change, flush, restore).
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
  /// shard `s`'s exclusive lock.
  void ApplyMaintenanceLocked(std::size_t s, PendingMaintenance& batch,
                              const DrainEnv& env);

  /// CON forward validation of an offer computed at `observed`: Algorithms
  /// 1 + 2 over the change records between `observed` and env.watermark,
  /// so the offer sits at the store's watermark. Requires the target
  /// shard's exclusive lock.
  void ForwardValidateLocked(CachedQuery& entry, LogSeq observed,
                             const DrainEnv& env) const;

  // --- Epoch path ---------------------------------------------------------

  /// Publishes the successor snapshot for the dataset's current state and
  /// reconciles every shard to it (per-shard exclusive locks, one at a
  /// time: drain pending batches at the shard's old watermark, then EVI
  /// purge / CON ValidateAll + optional retrospective refresh, then
  /// advance the shard watermark). No-op when nothing changed. Requires
  /// mutation_mu_. `metrics` (nullable) receives validation/index time.
  void PublishAndReconcile(QueryMetrics* metrics);

  /// Brings shard `s` from its watermark to `snap`'s (EVI: purge; CON:
  /// Algorithms 1+2 over the snapshot's record segments). Requires shard
  /// `s`'s exclusive lock. `retro_budget` (nullable) enables the §8
  /// retrospective refresh — mutator context only (reads the dataset).
  void ReconcileShardLocked(std::size_t s, const EngineSnapshot& snap,
                            std::size_t* retro_budget);

  /// §8 future-work extension, one shard's slice: re-verify up to
  /// `*budget` invalidated (entry, live graph) pairs, restoring validity
  /// with fresh knowledge. Requires shard `s`'s exclusive lock and a
  /// quiescent dataset (mutator context / stop-the-world).
  void RetrospectiveRefreshShard(std::size_t s, const DynamicBitset& live,
                                 std::size_t* budget);

  /// Builds the per-batch delta re-validation hook (CON +
  /// options_.delta_revalidation): for every (entry, graph) pair
  /// Algorithm 2 would invalidate, keep the bit when the batch's
  /// edge-label-pair delta proves the relation unchanged, else re-verify
  /// the pair against the batch-target graph state (FTV-summary
  /// prescreen, then one containment check) and rewrite answer/valid.
  /// `graph_of` resolves ids to the target state (nullptr = dead there);
  /// `summary_of` optionally resolves target-state FTV summaries.
  CacheValidator::DeltaRevalidateFn MakeDeltaRevalidator(
      const std::vector<ChangeRecord>& records,
      std::function<const Graph*(GraphId)> graph_of,
      std::function<const GraphFeatures*(GraphId)> summary_of) const;

  /// CON-validates one shard's store against `counters`: through the
  /// change-relevance index (options_.use_relevance_index) or the
  /// brute-force ValidateAll oracle — bit-exact either way. Requires the
  /// shard's exclusive lock.
  void ValidateShardStore(CacheManager& shard, const ChangeCounters& counters,
                          std::size_t id_horizon,
                          const CacheValidator::DeltaRevalidateFn* delta);

  GraphDataset* dataset_;
  GraphCachePlusOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<FtvIndex> ftv_;
  MethodM method_m_;
  std::unique_ptr<SubgraphMatcher> internal_matcher_;
  HitDiscovery discovery_;

  /// Engine lock (lock path): guards watermark_, ftv_ mutation and the
  /// dataset. Read phases hold it shared; sync/dataset changes exclusive.
  /// Always taken before any shard lock. Unused on the epoch path.
  mutable std::shared_mutex mu_;
  /// Overload pressure monitor — created iff options.byte_budget > 0, fed
  /// by every shard store's byte accounting and the queue hand-off.
  /// Declared before cache_: the shard stores hold the raw pointer.
  std::unique_ptr<PressureMonitor> pressure_;
  ShardedCache cache_;
  LogSeq watermark_ = 0;

  /// Epoch path: current snapshot (null on the lock path), its epoch
  /// manager, and the mutator serialization lock.
  std::atomic<const EngineSnapshot*> snapshot_{nullptr};
  EpochManager epochs_;
  std::mutex mutation_mu_;

  std::atomic<std::uint64_t> snapshots_published_{0};
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

  // Overload counters (engine-level; overlaid onto CacheStatsSnapshot).
  std::atomic<std::uint64_t> admission_offers_shed_{0};
  std::atomic<std::uint64_t> backpressure_inline_drains_{0};
  std::atomic<std::uint64_t> pressure_bypassed_queries_{0};

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
