#include "core/graphcache_plus.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "cache/cache_validator.hpp"
#include "cache/checkpoint.hpp"
#include "cache/snapshot.hpp"
#include "cache/statistics.hpp"
#include "common/alloc_fault.hpp"
#include "common/io.hpp"
#include "common/stopwatch.hpp"
#include "core/pruner.hpp"
#include "dataset/log_analyzer.hpp"
#include "graph/canonical.hpp"
#include "match/fragments.hpp"

namespace gcp {

namespace {

/// Verifies query-vs-cached-query containment and fragment stars; query
/// graphs are small, so VF2+'s static order wins there.
constexpr MatcherKind kInternalMatcher = MatcherKind::kVf2Plus;

/// Cap on star fragments decomposed per query (largest stars first; the
/// decomposition order is permutation-invariant).
constexpr std::size_t kMaxFragmentsPerQuery = 8;

/// Engine-total store options (per-shard splitting happens inside
/// ShardedCache). Named assignment on purpose: a positional brace init
/// here silently misbinds when CacheManagerOptions grows a field.
CacheManagerOptions MakeStoreOptions(const GraphCachePlusOptions& o,
                                     PressureMonitor* pressure) {
  CacheManagerOptions c;
  c.cache_capacity = o.cache_capacity;
  c.window_capacity = o.window_capacity;
  c.policy = o.policy;
  c.rng_seed = o.rng_seed;
  c.fragment_capacity = o.use_fragment_cache ? o.fragment_capacity : 0;
  c.byte_budget = o.byte_budget;
  c.pressure = pressure;
  return c;
}

PressureConfig MakePressureConfig(std::uint64_t byte_budget) {
  PressureConfig cfg;
  cfg.byte_budget = byte_budget;
  return cfg;
}

}  // namespace

std::string_view CacheModelName(CacheModel model) {
  switch (model) {
    case CacheModel::kEvi:
      return "EVI";
    case CacheModel::kCon:
      return "CON";
  }
  return "Unknown";
}

GraphCachePlus::GraphCachePlus(GraphDataset* dataset,
                               GraphCachePlusOptions options)
    : dataset_(dataset),
      options_(options),
      pool_(options.verify_threads > 1
                ? std::make_unique<ThreadPool>(options.verify_threads)
                : nullptr),
      ftv_(options.use_ftv_index ? std::make_unique<FtvIndex>(*dataset)
                                 : nullptr),
      method_m_(options.method_m, *dataset, pool_.get()),
      internal_matcher_(MakeMatcher(kInternalMatcher)),
      discovery_(*internal_matcher_, options_),
      pressure_(options.byte_budget > 0
                    ? std::make_unique<PressureMonitor>(
                          MakePressureConfig(options.byte_budget))
                    : nullptr),
      cache_(options.num_shards,
             MakeStoreOptions(options, pressure_.get())),
      synced_horizon_(dataset->IdHorizon()) {
  pending_.reserve(cache_.num_shards());
  for (std::size_t s = 0; s < cache_.num_shards(); ++s) {
    pending_.push_back(std::make_unique<BoundedMpscQueue<PendingMaintenance>>(
        options.maintenance_queue_capacity));
  }
  if (options.maintenance_thread) {
    maintenance_ = std::make_unique<MaintenanceThread>(
        [this] { MaintenanceDrainPass(); },
        std::chrono::microseconds(options.maintenance_interval_us));
  }
}

GraphCachePlus::~GraphCachePlus() {
  // Join the drain thread before any member it touches is torn down.
  if (maintenance_ != nullptr) maintenance_->Stop();
}

bool GraphCachePlus::NeedsSyncLocked() const {
  return dataset_->log().HasChangesSince(watermark_) ||
         (ftv_ != nullptr && !ftv_->InSync());
}

void GraphCachePlus::SyncWithDatasetLocked(QueryMetrics* metrics) {
  const ChangeLog& log = dataset_->log();
  // FTV first: after its sync the summaries reflect the batch-target
  // state, so the delta re-validation screen below may consult them.
  if (ftv_ != nullptr && !ftv_->InSync()) {
    ScopedTimer timer(&metrics->t_index_ns);
    ftv_->SyncWithDataset();
  }
  if (log.HasChangesSince(watermark_)) {
    ScopedTimer timer(&metrics->t_validate_ns);
    if (options_.model == CacheModel::kEvi) {
      // EVI: the Log Analyzer merely raises the changed flag; the Cache
      // Validator clears the stores indiscriminately (paper §5.1).
      for (std::size_t s = 0; s < cache_.num_shards(); ++s) {
        cache_.shard(s).PurgeForReconcile();
      }
    } else {
      // CON: Algorithm 1 over the incremental records, then Algorithm 2
      // through each shard's relevance screen (paper §5.2).
      const std::vector<ChangeRecord> records = log.ExtractSince(watermark_);
      const ChangeCounters counters = LogAnalyzer::Analyze(records);
      CacheValidator::DeltaRevalidateFn delta_fn;
      const CacheValidator::DeltaRevalidateFn* delta = nullptr;
      if (options_.delta_revalidation) {
        delta_fn = MakeDeltaRevalidator(records);
        delta = &delta_fn;
      }
      const std::size_t horizon = dataset_->IdHorizon();
      for (std::size_t s = 0; s < cache_.num_shards(); ++s) {
        cache_.shard(s).ValidateRelevant(counters, horizon, delta);
      }
      if (options_.retrospective_budget > 0) {
        std::size_t budget = options_.retrospective_budget;
        const DynamicBitset& live = dataset_->LiveMask();
        for (std::size_t s = 0; s < cache_.num_shards() && budget > 0; ++s) {
          RetrospectiveRefreshShard(s, live, &budget);
        }
      }
    }
    watermark_ = log.LatestSeq();
    synced_horizon_ = dataset_->IdHorizon();
  }
}

std::vector<CacheManager::EntryCreditSum> GraphCachePlus::SumCredits(
    std::span<const PendingMaintenance> batches) {
  // One EntryCreditSum per distinct entry, in first-credit order (the
  // order CreditHit calls would have touched them).
  std::vector<CacheManager::EntryCreditSum> sums;
  std::unordered_map<CacheEntryId, std::size_t> slot_of;
  for (const PendingMaintenance& batch : batches) {
    for (const HitCredit& c : batch.credits) {
      const auto [it, inserted] = slot_of.emplace(c.id, sums.size());
      if (inserted) {
        sums.emplace_back();
        sums.back().id = c.id;
      }
      CacheManager::EntryCreditSum& sum = sums[it->second];
      sum.tests_saved += c.tests_saved;
      ++sum.hit_count;
      sum.last_used = batch.query_id;
      switch (c.kind) {
        case HitKind::kExact:
          ++sum.exact;
          if (c.zero_test_exact) ++sum.zero_test_exact;
          break;
        case HitKind::kEmptyProof:
          ++sum.empty_proof;
          break;
        case HitKind::kSub:
          ++sum.sub;
          break;
        case HitKind::kSuper:
          ++sum.super;
          break;
      }
    }
  }
  return sums;
}

void GraphCachePlus::ForwardValidateLocked(CachedQuery& entry,
                                           LogSeq observed) const {
  std::vector<ChangeRecord> records = dataset_->log().ExtractSince(observed);
  records.erase(std::remove_if(records.begin(), records.end(),
                               [this](const ChangeRecord& r) {
                                 return r.seq > watermark_;
                               }),
                records.end());
  const ChangeCounters counters = LogAnalyzer::Analyze(records);
  CacheValidator::RefreshEntry(entry, counters, dataset_->IdHorizon());
}

void GraphCachePlus::ApplyMaintenanceLocked(std::size_t s,
                                            PendingMaintenance& batch) {
  CacheManager& shard = cache_.shard(s);
  // Fragment credits first (credits-before-offers, as for entries):
  // recency + benefit for the masks the read phase applied.
  for (const FragmentCredit& c : batch.fragment_credits) {
    shard.fragments().Credit(c.digest, c.pruned, batch.query_id,
                             shard.stats());
  }
  // Fragment offers follow the admission staleness discipline verbatim:
  // never admitted as fresher than computed, dropped under EVI staleness,
  // forward-validated through Algorithms 1 + 2 under CON — so both sides
  // of an AdmitOrMerge sit at the store's watermark.
  for (AdmissionOffer& fo : batch.fragment_offers) {
    if (fo.observed_watermark > watermark_) continue;
    const bool fo_stale = fo.observed_watermark != watermark_;
    if (fo_stale && options_.model == CacheModel::kEvi) continue;
    if (fo_stale) ForwardValidateLocked(*fo.entry, fo.observed_watermark);
    shard.fragments().AdmitOrMerge(std::move(fo.entry), batch.query_id,
                                   shard.stats());
  }
  if (!batch.offer.has_value()) return;
  AdmissionOffer& offer = *batch.offer;
  if (offer.observed_watermark > watermark_) {
    // Knowledge newer than the store: only possible when ApplySnapshot
    // rewound the watermark to an older file's while this offer was in
    // flight. Knowledge cannot be rewound, so the offer is dropped.
    return;
  }
  const bool stale = offer.observed_watermark != watermark_;
  if (stale && options_.model == CacheModel::kEvi) {
    // EVI keeps no pre-change knowledge: an offer computed before the
    // change the cache already purged for is dropped, exactly as a
    // resident entry would have been.
    return;
  }
  const DynamicBitset& live = dataset_->LiveMask();
  // The read phase's twin lookup again, without its validity filter: one
  // entry per isomorphism class, never a second beside the first.
  CachedQuery& entry = *offer.entry;
  const CachedQuery* twin = nullptr;
  for (const CachedQuery* c :
       discovery_.TwinCandidates(*entry.query, entry.digest, entry.kind,
                                 shard)) {
    if (!discovery_.IsTwin(*entry.query, *c->query)) continue;
    if (c->valid.size() == live.size() && live.IsSubsetOf(c->valid)) {
      // A fully valid twin already covers the offer: it landed between
      // this query's read phase and its drain (a concurrent twin), or
      // the shortcut was not taken (a CRITICAL bypass).
      ++shard.stats().total_admission_dedups;
      return;
    }
    if (twin == nullptr) twin = c;
  }
  if (stale) {
    // CON: forward-validate the offer through Algorithms 1 + 2 over
    // exactly the records the store has already reconciled, so it joins
    // the resident set at the store's watermark. Records past it are left
    // for the next reconcile (which refreshes every resident uniformly).
    ForwardValidateLocked(entry, offer.observed_watermark);
  }
  if (twin != nullptr) {
    // Algorithm 2 faded the twin since it was admitted: fold the offer's
    // fresh knowledge into it (both sides now sit at the store's
    // watermark), so the twin keeps its benefit history and serves the
    // next repeat as a zero-test exact hit.
    shard.RefreshTwin(twin->id, entry, batch.query_id);
    return;
  }
  // An injected allocation failure drops the offer; no store state
  // changes.
  (void)shard.AdmitPrepared(std::move(offer.entry), batch.query_id);
}

void GraphCachePlus::ApplyBatchesLocked(
    std::size_t s, std::span<PendingMaintenance> batches) {
  if (batches.empty()) return;
  // Benefit credits are summed per entry across the whole drain and
  // applied as one update per entry; a credit can never reference an
  // entry admitted by an offer in the same drain (the entry had to be
  // resident when the crediting query's read phase discovered it), so
  // applying all credits before all offers preserves the per-batch order.
  cache_.shard(s).CreditHitsBatched(SumCredits(batches));
  for (PendingMaintenance& b : batches) ApplyMaintenanceLocked(s, b);
  // Replacement runs once per drain, however many admissions landed.
  cache_.shard(s).MaybeMergeWindow();
}

void GraphCachePlus::DrainShardLocked(std::size_t s) {
  std::vector<PendingMaintenance> batches = pending_[s]->DrainAll();
  ApplyBatchesLocked(s, batches);
}

bool GraphCachePlus::DrainShard(std::size_t s, bool try_lock,
                                PendingMaintenance* extra) {
  // The caller holds the engine lock (shared suffices).
  ShardedCache::DrainScope scope(s);
  auto lock = try_lock ? cache_.TryLockExclusive(s) : cache_.LockExclusive(s);
  if (!lock.owns_lock()) return false;
  DrainShardLocked(s);
  if (extra != nullptr) {
    ApplyBatchesLocked(s, std::span<PendingMaintenance>(extra, 1));
  }
  return true;
}

void GraphCachePlus::DrainAllShardsLocked() {
  for (std::size_t s = 0; s < pending_.size(); ++s) DrainShardLocked(s);
}

void GraphCachePlus::MaintenanceDrainPass() {
  bool drained = false;
  std::int64_t drain_ns = 0;
  {
    ScopedTimer timer(&drain_ns);
    std::shared_lock<std::shared_mutex> engine_read(mu_);
    for (std::size_t s = 0; s < pending_.size(); ++s) {
      if (!pending_[s]->empty()) {
        drained |= DrainShard(s, /*try_lock=*/false);
      }
    }
  }
  if (drained) {
    // Drains run on the dedicated thread still count as maintenance
    // overhead — deferral moves the cost off the query, not off the books.
    std::lock_guard<std::mutex> agg_lock(agg_mu_);
    aggregate_.t_maintenance_ns += drain_ns;
  }
  // Background durability rides the drain loop; its cost is accounted in
  // t_checkpoint_ns, not maintenance time.
  MaybeBackgroundCheckpoint();
}

CacheValidator::DeltaRevalidateFn GraphCachePlus::MakeDeltaRevalidator(
    const std::vector<ChangeRecord>& records) const {
  // The dataset is quiescent under the barrier, so its current state is
  // the batch-target state of every pair.
  const GraphDataset& ds = *dataset_;
  auto graph_of = [&ds](GraphId id) -> const Graph* {
    return ds.IsLive(id) ? &ds.graph(id) : nullptr;
  };
  // The caller synced the FTV index first: its summaries are target-state.
  const FtvIndex* ftv = ftv_ != nullptr && ftv_->InSync() ? ftv_.get()
                                                          : nullptr;
  // One pass over the batch up front; the per-pair hook is then mask
  // tests plus (rarely) one containment check.
  ChangeBatchFootprint footprint =
      LogAnalyzer::PairFootprint(records, graph_of);
  const SubgraphMatcher& verifier = method_m_.matcher();
  return [footprint = std::move(footprint), graph_of, ftv, &verifier](
             CachedQuery& e, GraphId graph_id,
             StatisticsManager& stats) -> bool {
    const bool super = e.kind == CachedQueryKind::kSupergraph;
    if (!super) {
      // Pair screen (sub entries only): a positive bit (query ⊆ G) can
      // only break when an edge whose label pair the query uses was
      // REMOVED; a negative bit only when such a pair was ADDED. If the
      // batch's per-graph delta is exact, non-structural and disjoint
      // from the query's pair mask, the old bit provably still holds.
      const GraphChangeDelta* d = footprint.Find(graph_id);
      if (d != nullptr && d->pairs_exact && !d->structural) {
        const std::uint64_t breaking = e.answer.Test(graph_id)
                                           ? d->removed_pair_mask
                                           : d->added_pair_mask;
        if ((breaking & EdgeLabelPairMaskOf(e.features)) == 0) {
          ++stats.delta_revalidations;
          return true;  // keep the bit as-is
        }
      }
    }
    // Fallback: re-verify the pair against the batch-target graph state
    // (exact — labels are immutable and ids never reused, so the target
    // state is the state every surviving record left the graph in).
    const Graph* g = graph_of(graph_id);
    if (g == nullptr) return false;  // dead at target — plain clear
    bool contained;
    const GraphFeatures* summary =
        ftv != nullptr ? ftv->SummaryOf(graph_id) : nullptr;
    if (summary != nullptr &&
        (super ? !summary->CouldBeSubgraphOf(e.features)
               : !e.features.CouldBeSubgraphOf(*summary))) {
      contained = false;  // feature prescreen: containment impossible
    } else {
      contained = super ? verifier.Contains(*g, *e.query)
                        : verifier.Contains(*e.query, *g);
    }
    e.answer.Set(graph_id, contained);
    e.valid.Set(graph_id, true);
    ++stats.delta_fallback_full_checks;
    return true;
  };
}

void GraphCachePlus::ApplyDatasetChanges(
    const std::function<void(GraphDataset&)>& fn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Stop-the-world barrier: every shard lock, so no drain or discovery
  // is in flight anywhere while the dataset mutates.
  const auto shard_locks = cache_.LockAllExclusive();
  DrainAllShardsLocked();
  fn(*dataset_);
}

void GraphCachePlus::FlushMaintenance() {
  std::int64_t drain_ns = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    ScopedTimer timer(&drain_ns);
    const auto shard_locks = cache_.LockAllExclusive();
    DrainAllShardsLocked();
  }
  // Attribute the quiescing drain to maintenance overhead so end-of-run
  // flushes (e.g. the runner's) don't make deferral look free.
  std::lock_guard<std::mutex> agg_lock(agg_mu_);
  aggregate_.t_maintenance_ns += drain_ns;
}

void GraphCachePlus::ResetAggregate() {
  std::lock_guard<std::mutex> lock(agg_mu_);
  aggregate_ = AggregateMetrics();
}

AggregateMetrics GraphCachePlus::AggregateSnapshot() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return aggregate_;
}

StatisticsManager GraphCachePlus::CacheStatsSnapshot() const {
  StatisticsManager stats;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto shard_locks = cache_.LockAllShared();
    stats = cache_.AggregateStats();
  }
  stats.read_phase_engine_lock_acquisitions =
      engine_lock_acquisitions_.load(std::memory_order_relaxed);
  stats.snapshot_summary_copies = ftv_ ? ftv_->summary_copies() : 0;
  // Durability counters are engine-level (per-shard stores report 0 for
  // all but restored_entries, which AggregateStats already summed).
  stats.checkpoints_written =
      checkpoints_written_.load(std::memory_order_relaxed);
  stats.checkpoints_failed =
      checkpoints_failed_.load(std::memory_order_relaxed);
  stats.checkpoints_retried =
      checkpoints_retried_.load(std::memory_order_relaxed);
  stats.checkpoint_bytes = checkpoint_bytes_.load(std::memory_order_relaxed);
  stats.t_checkpoint_ns = t_checkpoint_ns_.load(std::memory_order_relaxed);
  stats.warm_restarts = warm_restarts_.load(std::memory_order_relaxed);
  stats.warm_restart_rejected =
      warm_restart_rejected_.load(std::memory_order_relaxed);
  // Overload counters are engine-level too; tier transitions live in the
  // pressure monitor.
  stats.admission_offers_shed =
      admission_offers_shed_.load(std::memory_order_relaxed);
  stats.backpressure_inline_drains =
      backpressure_inline_drains_.load(std::memory_order_relaxed);
  stats.pressure_bypassed_queries =
      pressure_bypassed_queries_.load(std::memory_order_relaxed);
  if (pressure_ != nullptr) {
    stats.pressure_elevated_transitions = pressure_->elevated_transitions();
    stats.pressure_critical_transitions = pressure_->critical_transitions();
  }
  return stats;
}

Result<CacheSnapshot> GraphCachePlus::ExportSnapshot() const {
  // The export allocates copies of every resident entry — the injector
  // consult models that allocation failing before anything is copied.
  if (AllocationFaultFires(AllocSite::kSnapshotExport, 0)) {
    return Status::ResourceExhausted("snapshot export allocation failed");
  }
  // One shared hold and no sync: the stores are copied as of their last
  // reconcile, so the export never waits for the barrier however fast the
  // dataset changes. Changes past watermark_ are replayed by the restoring
  // engine's next query, as for any older checkpoint.
  CacheSnapshot snapshot;
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto shard_locks = cache_.LockAllShared();
  snapshot.watermark = watermark_;
  snapshot.id_horizon = synced_horizon_;
  snapshot.entries = cache_.ExportEntries();
  snapshot.fragments = cache_.ExportFragments();
  return snapshot;
}

Status GraphCachePlus::SaveCache(const std::string& path) const {
  Result<CacheSnapshot> snapshot = ExportSnapshot();
  if (!snapshot.ok()) return snapshot.status();
  return WriteCheckpointFile(path, snapshot.value());
}

Status GraphCachePlus::LoadCache(const std::string& path) {
  Result<CacheSnapshot> snapshot = ReadCheckpointFile(path);
  if (!snapshot.ok()) return snapshot.status();
  return ApplySnapshot(std::move(snapshot).value());
}

Status GraphCachePlus::ApplySnapshot(CacheSnapshot snapshot) {
  CacheSnapshot& s = snapshot;
  // Files carry no keys: derive each one from its graph before routing,
  // so every restored entry and fragment lands in the home shard its
  // lookups probe (the per-shard restores re-derive them again).
  for (CachedQuery& e : s.entries) e.digest = WlDigest(*e.query);
  for (CachedQuery& e : s.fragments) e.digest = StarDigest(e.query->labels());
  auto validate = [this, &s]() -> Status {
    if (s.watermark > dataset_->log().LatestSeq()) {
      return Status::FailedPrecondition(
          "snapshot watermark is ahead of the dataset change log — not the "
          "same dataset lineage");
    }
    if (s.id_horizon > dataset_->IdHorizon()) {
      return Status::FailedPrecondition(
          "snapshot horizon exceeds the dataset's id horizon");
    }
    for (const CachedQuery& e : s.entries) {
      if (e.valid.size() != s.id_horizon || e.answer.size() != s.id_horizon) {
        return Status::Corruption("snapshot entry width != snapshot horizon");
      }
    }
    for (const CachedQuery& e : s.fragments) {
      if (e.valid.size() != s.id_horizon || e.answer.size() != s.id_horizon) {
        return Status::Corruption(
            "snapshot fragment width != snapshot horizon");
      }
    }
    return Status::OK();
  };
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (Status st = validate(); !st.ok()) return st;
  const auto shard_locks = cache_.LockAllExclusive();
  // Settle queued maintenance before the restore wipes the stores it
  // refers to (stale credits would silently no-op; admissions from the
  // pre-restore cache would duplicate restored entries).
  DrainAllShardsLocked();
  cache_.RestoreEntries(std::move(s.entries));
  // After RestoreEntries — each shard's restore clears its fragment
  // store along with everything else.
  cache_.RestoreFragments(std::move(s.fragments));
  // Resume from the snapshot's watermark: the next query's sync replays
  // the incremental suffix, re-establishing consistency.
  watermark_ = s.watermark;
  synced_horizon_ = s.id_horizon;
  return Status::OK();
}

std::uint64_t GraphCachePlus::NextCheckpointSeqLocked() {
  if (checkpoint_seq_ == 0) {
    const std::vector<std::uint64_t> seqs =
        ListCheckpointSeqs(options_.checkpoint_dir);
    if (!seqs.empty()) checkpoint_seq_ = seqs.front();
  }
  return ++checkpoint_seq_;
}

Status GraphCachePlus::CheckpointNow() {
  if (options_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition(
        "checkpointing requires options.checkpoint_dir");
  }
  std::int64_t ns = 0;
  std::uint64_t bytes = 0;
  Status st;
  {
    ScopedTimer timer(&ns);
    // Export first (engine/shard locks, no I/O), then write under
    // checkpoint_mu_ alone (I/O, no engine state locked) — a slow disk
    // never extends any lock hold. A refused export (injected allocation
    // failure) fails the attempt like any I/O error would.
    Result<CacheSnapshot> exported = ExportSnapshot();
    st = exported.status();
    if (st.ok()) {
      const CacheSnapshot snapshot = std::move(exported).value();
      std::lock_guard<std::mutex> lock(checkpoint_mu_);
      st = EnsureDirectory(options_.checkpoint_dir);
      if (st.ok()) {
        const std::string path = options_.checkpoint_dir + "/" +
                                 CheckpointFileName(NextCheckpointSeqLocked());
        st = WriteCheckpointFile(path, snapshot,
                                 options_.checkpoint_fault_injector, &bytes);
      }
      if (st.ok()) {
        // Best-effort prune: an unremovable stale sibling must not fail
        // the checkpoint that just committed.
        PruneCheckpoints(options_.checkpoint_dir,
                         std::max<std::size_t>(1, options_.checkpoint_keep));
      }
    }
  }
  t_checkpoint_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                             std::memory_order_relaxed);
  if (!st.ok()) {
    checkpoints_failed_.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return Status::OK();
}

Status GraphCachePlus::WarmRestart(WarmRestartReport* report) {
  if (options_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition(
        "warm restart requires options.checkpoint_dir");
  }
  WarmRestartReport local;
  // Newest-first degradation ladder. `.tmp` files never appear here —
  // ListCheckpointSeqs only accepts committed names — so a torn tmp from
  // a mid-write crash is invisible by construction.
  for (const std::uint64_t seq : ListCheckpointSeqs(options_.checkpoint_dir)) {
    const std::string path =
        options_.checkpoint_dir + "/" + CheckpointFileName(seq);
    Result<CacheSnapshot> snapshot = ReadCheckpointFile(path);
    Status st = snapshot.status();
    std::size_t file_entries = 0;
    LogSeq file_watermark = 0;
    if (snapshot.ok()) {
      file_entries = snapshot.value().entries.size();
      file_watermark = snapshot.value().watermark;
      st = ApplySnapshot(std::move(snapshot).value());
    }
    if (st.ok()) {
      local.warm = true;
      local.path = path;
      local.entries = file_entries;
      local.watermark = file_watermark;
      warm_restarts_.fetch_add(1, std::memory_order_relaxed);
      if (report != nullptr) *report = std::move(local);
      return Status::OK();
    }
    // Corrupt, truncated, torn, or wrong lineage: reject this sibling and
    // degrade to the next-older one. ApplySnapshot validates before it
    // mutates, so a rejected file leaves the stores untouched.
    ++local.rejected;
    warm_restart_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  // Cold start: no survivor. Not an error — the engine runs with what it
  // has (empty stores at process start).
  if (report != nullptr) *report = std::move(local);
  return Status::OK();
}

void GraphCachePlus::MaybeBackgroundCheckpoint() {
  if (options_.checkpoint_dir.empty() ||
      options_.checkpoint_interval_us == 0) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  if (!checkpoint_clock_armed_) {
    // First pass arms the clock; the first checkpoint lands one full
    // interval later, not at startup when the cache is still cold.
    checkpoint_clock_armed_ = true;
    last_checkpoint_attempt_ = now;
    return;
  }
  const auto due = std::chrono::microseconds(options_.checkpoint_interval_us) *
                   checkpoint_backoff_;
  if (now - last_checkpoint_attempt_ < due) return;
  last_checkpoint_attempt_ = now;
  if (checkpoint_recovering_) {
    checkpoints_retried_.fetch_add(1, std::memory_order_relaxed);
  }
  if (CheckpointNow().ok()) {
    checkpoint_backoff_ = 1;
    checkpoint_recovering_ = false;
  } else {
    checkpoint_recovering_ = true;
    checkpoint_backoff_ = std::min<std::uint32_t>(checkpoint_backoff_ * 2, 64);
  }
}

void GraphCachePlus::RetrospectiveRefreshShard(std::size_t s,
                                               const DynamicBitset& live,
                                               std::size_t* budget) {
  // The paper's §8 future-work optimisation: re-verify invalidated
  // (cached query, live graph) pairs against the current dataset so the
  // relation becomes known (and valid) again. Most-beneficial entries
  // first; cost is bounded by the remaining budget.
  const SubgraphMatcher& verifier = method_m_.matcher();
  CacheManager& shard = cache_.shard(s);
  for (const CacheEntryId id : shard.ResidentIdsByBenefit()) {
    if (*budget == 0) return;
    CachedQuery* e = shard.FindMutable(id);
    if (e == nullptr || e->valid.size() != live.size()) continue;
    // Unknown pairs: live graphs whose validity bit is off.
    DynamicBitset unknown = DynamicBitset::Not(e->valid);
    unknown.AndWith(live);
    bool restored_any = false;
    for (std::size_t i = unknown.FindFirst();
         i != DynamicBitset::npos && *budget > 0;
         i = unknown.FindNext(i + 1)) {
      const Graph& g = dataset_->graph(static_cast<GraphId>(i));
      const bool contained = e->kind == CachedQueryKind::kSubgraph
                                 ? verifier.Contains(*e->query, g)
                                 : verifier.Contains(g, *e->query);
      e->answer.Set(i, contained);
      e->valid.Set(i, true);
      restored_any = true;
      --*budget;
      ++shard.stats().total_retro_refreshes;
    }
    // Bits were SET outside the validator — re-widen the entry's
    // relevance footprint so it stays a superset of the valid words.
    if (restored_any) shard.RefreshRelevanceFootprint(id);
  }
}

void GraphCachePlus::ExecuteReadSlice(const Graph& g, QueryKind kind,
                                      const DynamicBitset& csm,
                                      QueryMetrics& m, Deferred& deferred,
                                      DynamicBitset& answer_bits) {
  auto batch_for = [&](std::size_t s) -> PendingMaintenance& {
    for (auto& [shard, batch] : deferred) {
      if (shard == s) return batch;
    }
    deferred.emplace_back(s, PendingMaintenance{});
    deferred.back().second.query_id = m.query_id;
    return deferred.back().second;
  };

  m.candidates_initial = csm.Count();

  // --- Pressure gate: the tier is sampled ONCE per read slice so one
  // query sees one consistent degradation level. ELEVATED sheds this
  // query's admission offers (whole-query and fragment — counted, never
  // queued); CRITICAL additionally disables the fragment tier and skips
  // hit discovery entirely, serving the miss straight through uncached
  // Method M. Every shed path is pruning/transfer-only, so answers stay
  // bit-exact by construction.
  const PressureTier tier =
      pressure_ == nullptr ? PressureTier::kNormal : pressure_->tier();
  const bool shed_offers = tier != PressureTier::kNormal;
  const bool bypass_cache = tier == PressureTier::kCritical;
  if (bypass_cache) {
    pressure_bypassed_queries_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- §6.3 case 1 first: the digest-keyed twin lookup in the query's
  // home shard. A resident isomorphic twin fully valid over CS_M answers
  // the query outright — no fragments, no discovery, no Method M, no
  // offer. Candidates are copied out under the shared home-shard lock;
  // the isomorphism check runs with no lock held. On a miss the digest
  // keys the admission offer.
  const bool lookup_twin = options_.enable_exact_shortcut && !bypass_cache;
  std::uint64_t digest = 0;
  if (lookup_twin) {
    Stopwatch lookup_watch;
    digest = WlDigest(g);
    const std::size_t home = cache_.ShardOfDigest(digest);
    std::vector<ExactHit> twins;
    {
      const auto shard_lock = cache_.LockShared(home);
      twins = discovery_.CollectExact(g, digest, kind, cache_.shard(home), csm);
    }
    std::optional<ExactHit> exact =
        discovery_.ResolveExact(g, std::move(twins), csm, &m);
    m.t_probe_ns = lookup_watch.ElapsedNanos();
    if (exact.has_value()) {
      // Method M never runs, so the hit is zero-test by construction —
      // recorded explicitly rather than via m.si_tests.
      batch_for(home).credits.push_back({exact->id, HitKind::kExact,
                                         exact->tests_saved,
                                         /*zero_test_exact=*/true});
      answer_bits = std::move(exact->answer);
      m.answer_size = answer_bits.Count();
      return;
    }
  }

  // --- Sub-pattern fragment tier, part 1: decompose the query into its
  // canonical one-hop stars once, as label keys (a star graph is built
  // only on a miss, in part 2). Subgraph queries only — star ⊆ g means
  // g ⊆ G forces star ⊆ G, so a fragment's valid non-answers exclude
  // candidates; supergraph queries have no such transfer. Gated with
  // admission: a pass-through engine must not learn fragments either.
  std::vector<Fragment> fragments;
  if (options_.use_fragment_cache && options_.enable_admission &&
      options_.fragment_capacity > 0 && kind == QueryKind::kSubgraph &&
      !bypass_cache) {
    ScopedTimer timer(&m.t_fragment_ns);
    fragments = DecomposeToFragments(g, kMaxFragmentsPerQuery);
  }
  std::vector<DynamicBitset> fragment_masks(fragments.size());
  std::vector<char> fragment_resident(fragments.size(), 0);

  // --- Shard-local hit discovery: one shared shard lock at a time, held
  // only for that shard's prescreen; survivors are copied out, so the
  // merge, the utility ordering, containment verification, pruning and
  // Method M verification all run with NO shard lock held. A drain
  // (shard-exclusive) therefore overlaps everything but the one-shard
  // prescreen it contends with.
  Stopwatch probe_watch;
  DiscoveredHits hits;
  // Extracted once for discovery and reused by the admission offer (which
  // a bypassed query never makes).
  GraphFeatures features;
  if (!bypass_cache) {
    features = GraphFeatures::Extract(g);
    std::vector<HitDiscovery::Candidate> pool;
    for (std::size_t s = 0; s < cache_.num_shards(); ++s) {
      const auto shard_lock = cache_.LockShared(s);
      discovery_.CollectShard(features, kind, cache_.shard(s), csm, &pool,
                              &m);
      // Fragment probe rides the same shard lock. Masks are copied out;
      // intersection runs later with no lock held.
      for (std::size_t i = 0; i < fragments.size(); ++i) {
        if (cache_.ShardOfDigest(fragments[i].digest) != s) continue;
        const CachedQuery* e = cache_.shard(s).fragments().Probe(
            fragments[i].digest, fragments[i].labels);
        // A fragment not yet extended to this horizon contributes
        // nothing this query (pruning is optional, never required).
        if (e == nullptr || e->valid.size() != csm.size()) continue;
        fragment_masks[i] = e->ValidNonAnswer();
        fragment_resident[i] = 1;
        ++m.fragment_hits;
      }
    }
    hits = discovery_.ResolveHits(g, kind, std::move(pool), &m);
  }
  m.t_probe_ns += probe_watch.ElapsedNanos();

  // --- Candidate-set pruning (formulas (1)-(5), §6.3 case 2). -----------
  Stopwatch prune_watch;
  PruneOutcome pruned = CandidateSetPruner::Prune(hits, csm, &m);
  m.t_prune_ns = prune_watch.ElapsedNanos();

  // --- Sub-pattern fragment tier, part 2: between whole-query pruning
  // and Method M. Each resident fragment's valid non-answer mask AND-NOTs
  // straight out of the candidate set; each missing fragment is computed
  // over CS_M here (it prunes this query too, and becomes an offer for
  // the next). Only `pruned.candidates` is touched — answers, whole-query
  // credits and the admission offer below never see fragment state, so
  // the --fragments=off oracle stays bit-exact on everything but
  // si_tests/candidates_final (the win being measured).
  if (!fragments.empty() && !pruned.direct) {
    Stopwatch fragment_watch;
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      DynamicBitset computed;
      if (!fragment_resident[i]) {
        // Miss: build the star and verify it against every CS_M member.
        // Stars are tiny; the prepared path reuses the vertex order across
        // targets.
        Graph star = fragments[i].Star();
        const auto prepared = internal_matcher_->Prepare(star);
        DynamicBitset star_answer(csm.size());
        for (std::size_t id = csm.FindFirst(); id != DynamicBitset::npos;
             id = csm.FindNext(id + 1)) {
          if (internal_matcher_->ContainsPrepared(
                  *prepared, dataset_->graph(static_cast<GraphId>(id)))) {
            star_answer.Set(id);
          }
        }
        ++m.fragment_computed;
        computed = DynamicBitset::AndNot(csm, star_answer);
        if (shed_offers) {
          // ELEVATED: the freshly computed knowledge still prunes THIS
          // query (below), but is not offered to the store.
          admission_offers_shed_.fetch_add(1, std::memory_order_relaxed);
        } else {
          // The fresh knowledge covers exactly the candidates checked:
          // valid = CS_M, stamped with the watermark it was computed at.
          const double cost = StatisticsManager::StructuralCostEstimateMs(star);
          GraphFeatures star_features = GraphFeatures::Extract(star);
          AdmissionOffer offer;
          offer.entry = CacheManager::PrepareEntry(
              std::make_shared<const Graph>(std::move(star)),
              CachedQueryKind::kSubgraph, std::move(star_answer),
              DynamicBitset(csm), cost, fragments[i].digest,
              std::move(star_features));
          offer.observed_watermark = watermark_;
          batch_for(cache_.ShardOfDigest(fragments[i].digest))
              .fragment_offers.push_back(std::move(offer));
        }
      }
      const DynamicBitset& mask =
          fragment_resident[i] ? fragment_masks[i] : computed;
      if (mask.size() != pruned.candidates.size()) continue;
      const std::uint64_t removed = mask.CountAnd(pruned.candidates);
      pruned.candidates.AndNotWith(mask);
      ++m.fragment_intersections;
      m.fragment_candidates_pruned += removed;
      if (fragment_resident[i]) {
        batch_for(cache_.ShardOfDigest(fragments[i].digest))
            .fragment_credits.push_back({fragments[i].digest, removed});
      }
    }
    // candidates_final reports what Method M actually verifies.
    m.candidates_final = pruned.candidates.Count();
    m.t_fragment_ns += fragment_watch.ElapsedNanos();
  }

  // --- Statistics Manager: defer credits for contributing entries,
  // routed to each entry's home shard. ----------------------------------
  if (hits.empty_proof.has_value()) {
    batch_for(cache_.ShardOfDigest(hits.empty_proof->digest))
        .credits.push_back({hits.empty_proof->id, HitKind::kEmptyProof,
                            pruned.saved_pruning, false});
  }
  for (const DiscoveredHit& hit : hits.positive) {
    const std::uint64_t standalone =
        DynamicBitset::And(hit.valid, hit.answer).CountAnd(csm);
    batch_for(cache_.ShardOfDigest(hit.digest))
        .credits.push_back({hit.id, HitKind::kSub, standalone, false});
  }
  for (const DiscoveredHit& hit : hits.pruning) {
    const std::uint64_t standalone =
        DynamicBitset::AndNot(hit.valid, hit.answer).CountAnd(csm);
    batch_for(cache_.ShardOfDigest(hit.digest))
        .credits.push_back({hit.id, HitKind::kSuper, standalone, false});
  }

  // --- Method M verification on the reduced candidate set. --------------
  Stopwatch verify_watch;
  if (pruned.direct) {
    answer_bits = pruned.answer_direct;
  } else {
    answer_bits =
        method_m_.VerifyCandidates(g, kind, pruned.candidates, &m.si_tests);
    // Formula (3): verified graphs plus direct transfers.
    answer_bits.OrWith(pruned.answer_direct);
  }
  m.t_verify_ns = verify_watch.ElapsedNanos();
  m.answer_size = answer_bits.Count();

  // --- Cache Manager: defer the admission offer, stamped with the
  // watermark the answer snapshot is consistent with and routed to the
  // query digest's home shard. (Exact hits returned above: they carry no
  // new knowledge.) -----------------------------------------------------
  if (options_.enable_admission && shed_offers) {
    // ELEVATED/CRITICAL: the answer was produced normally, but the store
    // is not offered the new entry — no queue traffic, no bytes.
    admission_offers_shed_.fetch_add(1, std::memory_order_relaxed);
  } else if (options_.enable_admission) {
    // Entry preparation is admission work executed early (off any
    // exclusive lock), so it bills to maintenance, not query time.
    ScopedTimer timer(&m.t_maintenance_ns);
    AdmissionOffer offer;
    // C is a *structural* estimate (after [25]), deliberately not a wall
    // time: the paper's Figure 5 premise — "whatever SI method being the
    // Method M, GC+ results exactly the same pruned candidate set" —
    // requires every cache decision (incl. PINC/HD scoring) to be
    // method-independent.
    DynamicBitset valid(dataset_->IdHorizon());
    valid.SetAll();
    // One copy of g into shared storage (the caller keeps the original);
    // from here on the admission path only moves the pointer.
    offer.entry = CacheManager::PrepareEntry(
        std::make_shared<const Graph>(g),
        kind == QueryKind::kSubgraph ? CachedQueryKind::kSubgraph
                                     : CachedQueryKind::kSupergraph,
        answer_bits, std::move(valid),
        StatisticsManager::StructuralCostEstimateMs(g),
        lookup_twin ? digest : WlDigest(g), std::move(features));
    offer.observed_watermark = watermark_;
    const std::size_t home = cache_.ShardOfDigest(offer.entry->digest);
    batch_for(home).offer = std::move(offer);
  }
}

void GraphCachePlus::ReadPhase(const Graph& g, QueryKind kind,
                               QueryMetrics& m, Deferred& deferred,
                               DynamicBitset& answer_bits) {
  // ===== Read phase (engine shared lock) =================================
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  engine_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  // --- Dataset Manager: reconcile dataset changes with the cache. -------
  // Upgrade to the stop-the-world barrier only when the change log moved
  // past the cache watermark (or the FTV index lags); queued maintenance
  // drains first so deferred admissions are validated like residents.
  // The loop re-checks after the downgrade: another thread may have
  // synced for us, or applied a further change.
  while (NeedsSyncLocked()) {
    read_lock.unlock();
    {
      std::unique_lock<std::shared_mutex> write_lock(mu_);
      engine_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
      const auto shard_locks = cache_.LockAllExclusive();
      DrainAllShardsLocked();
      SyncWithDatasetLocked(&m);
    }
    read_lock.lock();
    engine_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Method M candidate generation: whole live dataset, or the FTV
  // filter when Method M is equipped with the updatable index. -----------
  DynamicBitset csm;
  if (ftv_ != nullptr) {
    ScopedTimer timer(&m.t_index_ns);
    csm = ftv_->CandidateSet(
        GraphFeatures::Extract(g),
        kind == QueryKind::kSubgraph ? FtvQueryDirection::kSubgraph
                                     : FtvQueryDirection::kSupergraph);
  } else {
    csm = dataset_->LiveMask();
  }

  ExecuteReadSlice(g, kind, csm, m, deferred, answer_bits);
}  // ===== engine shared lock released =====================================

QueryResult GraphCachePlus::Query(const Graph& g, QueryKind kind) {
  QueryResult result;
  QueryMetrics& m = result.metrics;
  m.query_id = query_counter_.fetch_add(1, std::memory_order_relaxed);

  // Deferred mutations, routed per home shard (most queries touch one or
  // two shards; linear probe beats a map at that size).
  Deferred deferred;

  DynamicBitset answer_bits;
  ReadPhase(g, kind, m, deferred, answer_bits);

  result.answer.reserve(answer_bits.Count());
  answer_bits.ForEachSetBit([&result](std::size_t id) {
    result.answer.push_back(static_cast<GraphId>(id));
  });

  // ===== Maintenance hand-off ============================================
  if (!deferred.empty()) {
    // The engine shared lock spans the hand-off: the drains below read
    // the dataset and the watermark.
    std::shared_lock<std::shared_mutex> read_lock(mu_);
    engine_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    for (auto& [s, batch] : deferred) {
      std::size_t size_after = 0;
      if (pending_[s]->TryPush(std::move(batch), &size_after)) {
        if (pressure_ != nullptr) {
          // Feed the queue channel: depth after a successful push is how
          // far behind the drains are.
          pressure_->NoteQueueDepth(size_after, pending_[s]->capacity());
        }
        if (maintenance_ != nullptr) {
          // Queue-pressure wakeup: don't let a half-full queue wait for
          // the timer. Below the threshold the timer tick picks it up.
          if (size_after * 2 >= pending_[s]->capacity()) {
            maintenance_->Notify();
          }
        } else {
          // Opportunistic per-shard drain: single-threaded callers always
          // win this try_lock, so maintenance lands immediately (serial
          // behavior is unchanged); under contention the batch simply
          // waits for the next drain — the "off the critical path" of
          // paper §4. Only shard s's lock is taken: readers and drains of
          // other shards are never disturbed.
          ScopedTimer timer(&m.t_maintenance_ns);
          DrainShard(s, /*try_lock=*/true);
        }
      } else {
        // Backpressure: shard s's bounded queue is full — drain inline,
        // then apply this query's own rejected batch under the same lock.
        backpressure_inline_drains_.fetch_add(1, std::memory_order_relaxed);
        if (pressure_ != nullptr) {
          // A full queue is the strongest queue-pressure signal.
          pressure_->NoteQueueDepth(pending_[s]->capacity(),
                                    pending_[s]->capacity());
        }
        ScopedTimer timer(&m.t_maintenance_ns);
        DrainShard(s, /*try_lock=*/false, &batch);
        if (pressure_ != nullptr) {
          // The inline drain emptied the queue; let the channel recover.
          pressure_->NoteQueueDepth(0, pending_[s]->capacity());
        }
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(agg_mu_);
    aggregate_.Add(m);
  }
  return result;
}

}  // namespace gcp
