#include "cache/sharded_cache.hpp"

namespace gcp {

namespace {

/// Thread-local shard being drained by this thread; -1 = none.
thread_local int tls_drain_shard = -1;

}  // namespace

CacheManagerOptions ShardedCache::SplitOptions(const CacheManagerOptions& total,
                                               std::size_t num_shards) {
  CacheManagerOptions per = total;
  per.cache_capacity =
      std::max<std::size_t>(1, (total.cache_capacity + num_shards - 1) /
                                   num_shards);
  per.window_capacity =
      std::max<std::size_t>(1, (total.window_capacity + num_shards - 1) /
                                   num_shards);
  if (total.fragment_capacity != 0) {
    per.fragment_capacity =
        std::max<std::size_t>(1, (total.fragment_capacity + num_shards - 1) /
                                     num_shards);
  }
  if (total.byte_budget != 0) {
    // Ceil split mirrors the capacity split: the per-shard budgets sum to
    // at most total + (num_shards - 1) bytes and never starve a shard.
    per.byte_budget = (total.byte_budget + num_shards - 1) / num_shards;
  }
  return per;
}

ShardedCache::ShardedCache(std::size_t num_shards,
                           const CacheManagerOptions& total) {
  const std::size_t n = std::max<std::size_t>(1, num_shards);
  const CacheManagerOptions per = SplitOptions(total, n);
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    // Distinct RNG streams keep the RANDOM policy from making identical
    // eviction picks in every shard.
    CacheManagerOptions opts = per;
    opts.rng_seed = total.rng_seed + s;
    shards_.push_back(std::make_unique<Shard>(opts));
  }
}

void ShardedCache::NoteLock(std::size_t s) const {
  const int draining = tls_drain_shard;
  if (draining >= 0 && static_cast<std::size_t>(draining) != s) {
    violations_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_lock<std::shared_mutex> ShardedCache::LockShared(
    std::size_t s) const {
  NoteLock(s);
  return std::shared_lock<std::shared_mutex>(shards_[s]->mu);
}

std::unique_lock<std::shared_mutex> ShardedCache::LockExclusive(
    std::size_t s) const {
  NoteLock(s);
  return std::unique_lock<std::shared_mutex>(shards_[s]->mu);
}

std::unique_lock<std::shared_mutex> ShardedCache::TryLockExclusive(
    std::size_t s) const {
  NoteLock(s);
  return std::unique_lock<std::shared_mutex>(shards_[s]->mu,
                                             std::try_to_lock);
}

std::vector<std::shared_lock<std::shared_mutex>> ShardedCache::LockAllShared()
    const {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    locks.push_back(LockShared(s));
  }
  return locks;
}

std::vector<std::unique_lock<std::shared_mutex>>
ShardedCache::LockAllExclusive() const {
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    locks.push_back(LockExclusive(s));
  }
  return locks;
}

ShardedCache::DrainScope::DrainScope(std::size_t s) {
  tls_drain_shard = static_cast<int>(s);
}

ShardedCache::DrainScope::~DrainScope() { tls_drain_shard = -1; }

std::size_t ShardedCache::resident() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->store.resident();
  return n;
}

std::size_t ShardedCache::cache_size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->store.cache_size();
  return n;
}

std::size_t ShardedCache::window_size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->store.window_size();
  return n;
}

StatisticsManager ShardedCache::AggregateStats() const {
  StatisticsManager sum;
  for (const auto& s : shards_) {
    const StatisticsManager& st = s->store.stats();
    sum.total_exact_hits += st.total_exact_hits;
    sum.total_exact_hits_zero_test += st.total_exact_hits_zero_test;
    sum.total_sub_hits += st.total_sub_hits;
    sum.total_super_hits += st.total_super_hits;
    sum.total_empty_shortcuts += st.total_empty_shortcuts;
    sum.total_tests_saved += st.total_tests_saved;
    sum.total_admissions += st.total_admissions;
    sum.total_admission_dedups += st.total_admission_dedups;
    sum.total_admission_refreshes += st.total_admission_refreshes;
    sum.total_evictions += st.total_evictions;
    sum.total_cache_clears += st.total_cache_clears;
    sum.total_retro_refreshes += st.total_retro_refreshes;
    sum.snapshots_published += st.snapshots_published;
    sum.epochs_retired += st.epochs_retired;
    sum.read_phase_engine_lock_acquisitions +=
        st.read_phase_engine_lock_acquisitions;
    sum.snapshot_summary_copies += st.snapshot_summary_copies;
    sum.checkpoints_written += st.checkpoints_written;
    sum.checkpoints_failed += st.checkpoints_failed;
    sum.checkpoints_retried += st.checkpoints_retried;
    sum.checkpoint_bytes += st.checkpoint_bytes;
    sum.t_checkpoint_ns += st.t_checkpoint_ns;
    sum.warm_restarts += st.warm_restarts;
    sum.warm_restart_rejected += st.warm_restart_rejected;
    sum.restored_entries += st.restored_entries;
    sum.reconcile_entries_touched += st.reconcile_entries_touched;
    sum.reconcile_entries_skipped += st.reconcile_entries_skipped;
    sum.fragment_admissions += st.fragment_admissions;
    sum.fragment_merges += st.fragment_merges;
    sum.fragment_evictions += st.fragment_evictions;
    sum.fragment_digest_collisions += st.fragment_digest_collisions;
    sum.fragment_hits += st.fragment_hits;
    sum.fragment_candidates_pruned += st.fragment_candidates_pruned;
    sum.fragment_reconcile_touched += st.fragment_reconcile_touched;
    sum.restored_fragments += st.restored_fragments;
    sum.byte_budget_evictions += st.byte_budget_evictions;
    sum.fragment_byte_evictions += st.fragment_byte_evictions;
    sum.alloc_failed_admissions += st.alloc_failed_admissions;
    sum.alloc_failed_fragments += st.alloc_failed_fragments;
    sum.restore_budget_dropped += st.restore_budget_dropped;
    // Byte gauges are recomputed from the live stores, not carried in the
    // per-shard counter state.
    const ApproxByteFootprint bytes = s->store.ApproxBytes();
    sum.approx_graph_bytes += bytes.graph_bytes;
    sum.approx_bitset_bytes += bytes.bitset_bytes;
    sum.approx_fragment_bytes += bytes.fragment_bytes;
  }
  return sum;
}

void ShardedCache::Clear() {
  for (auto& s : shards_) s->store.Clear();
}

std::vector<CachedQuery> ShardedCache::ExportEntries() const {
  std::vector<CachedQuery> out;
  out.reserve(resident());
  for (const auto& s : shards_) {
    std::vector<CachedQuery> part = s->store.ExportEntries();
    for (CachedQuery& e : part) out.push_back(std::move(e));
  }
  return out;
}

void ShardedCache::RestoreEntries(std::vector<CachedQuery> entries) {
  std::vector<std::vector<CachedQuery>> routed(shards_.size());
  for (CachedQuery& e : entries) {
    routed[ShardOfDigest(e.digest)].push_back(std::move(e));
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->store.RestoreEntries(std::move(routed[s]));
  }
}

std::vector<CachedQuery> ShardedCache::ExportFragments() const {
  std::vector<CachedQuery> out;
  for (const auto& s : shards_) {
    std::vector<CachedQuery> part = s->store.ExportFragments();
    for (CachedQuery& e : part) out.push_back(std::move(e));
  }
  return out;
}

void ShardedCache::RestoreFragments(std::vector<CachedQuery> fragments) {
  std::vector<std::vector<CachedQuery>> routed(shards_.size());
  for (CachedQuery& e : fragments) {
    routed[ShardOfDigest(e.digest)].push_back(std::move(e));
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->store.RestoreFragments(std::move(routed[s]));
  }
}

}  // namespace gcp
