#include "cache/cache_manager.hpp"

#include <algorithm>
#include <cassert>

#include "cache/cache_validator.hpp"
#include "common/alloc_fault.hpp"
#include "graph/canonical.hpp"

namespace gcp {

namespace {

/// Fragment-store slice of a shard's byte budget: 1/8 when both the budget
/// and the fragment tier are on, 0 otherwise. The whole-query stores get
/// the remainder.
std::uint64_t FragmentByteSlice(const CacheManagerOptions& o) {
  if (o.byte_budget == 0 || o.fragment_capacity == 0) return 0;
  return static_cast<std::uint64_t>(o.byte_budget) / 8;
}

}  // namespace

CacheManager::CacheManager(CacheManagerOptions options)
    : options_(options),
      fragments_(options.fragment_capacity, FragmentByteSlice(options),
                 options.pressure),
      rng_(options.rng_seed) {
  entry_byte_budget_ =
      options_.byte_budget == 0
          ? 0
          : static_cast<std::uint64_t>(options_.byte_budget) -
                FragmentByteSlice(options_);
}

Result<CacheEntryId> CacheManager::Admit(Graph query, CachedQueryKind kind,
                                         DynamicBitset answer,
                                         DynamicBitset valid,
                                         std::uint64_t now,
                                         double est_test_cost_ms) {
  Result<CacheEntryId> id =
      AdmitDeferred(std::move(query), kind, std::move(answer),
                    std::move(valid), now, est_test_cost_ms);
  if (!id.ok()) return id;
  MaybeMergeWindow();
  return id;
}

std::unique_ptr<CachedQuery> CacheManager::PrepareEntry(
    std::shared_ptr<const Graph> query, CachedQueryKind kind,
    DynamicBitset answer, DynamicBitset valid, double est_test_cost_ms) {
  const std::uint64_t digest = WlDigest(*query);
  GraphFeatures features = GraphFeatures::Extract(*query);
  return PrepareEntry(std::move(query), kind, std::move(answer),
                      std::move(valid), est_test_cost_ms, digest,
                      std::move(features));
}

std::unique_ptr<CachedQuery> CacheManager::PrepareEntry(
    std::shared_ptr<const Graph> query, CachedQueryKind kind,
    DynamicBitset answer, DynamicBitset valid, double est_test_cost_ms,
    std::uint64_t digest, GraphFeatures features) {
  auto entry = std::make_unique<CachedQuery>();
  entry->kind = kind;
  entry->features = std::move(features);
  entry->digest = digest;
  entry->query = std::move(query);  // pointer handoff — the Graph itself
                                    // is neither copied nor moved
  entry->answer = std::move(answer);
  entry->valid = std::move(valid);
  entry->est_test_cost_ms = est_test_cost_ms;
  return entry;
}

Result<CacheEntryId> CacheManager::AdmitDeferred(Graph query,
                                                 CachedQueryKind kind,
                                                 DynamicBitset answer,
                                                 DynamicBitset valid,
                                                 std::uint64_t now,
                                                 double est_test_cost_ms) {
  // The by-value Graph becomes shared storage in this one move; every
  // later stage passes the pointer.
  return AdmitPrepared(
      PrepareEntry(std::make_shared<const Graph>(std::move(query)), kind,
                   std::move(answer), std::move(valid), est_test_cost_ms),
      now);
}

Result<CacheEntryId> CacheManager::AdmitPrepared(
    std::unique_ptr<CachedQuery> entry, std::uint64_t now) {
  if (AllocationFaultFires(AllocSite::kAdmission, ApproxEntryBytes(*entry))) {
    ++stats_.alloc_failed_admissions;
    return Status::ResourceExhausted("cache admission allocation failed");
  }
  entry->id = next_id_++;
  entry->admitted_at = now;
  entry->last_used_at = now;
  entry->in_window = true;
  const CacheEntryId id = entry->id;
  CachedQuery* raw = entry.get();
  index_.Insert(raw);
  relevance_.Insert(raw);
  by_id_.emplace(id, raw);
  window_.push_back(std::move(entry));
  AccountAdmit(*raw);
  ++stats_.total_admissions;
  return id;
}

void CacheManager::RefreshTwin(CacheEntryId id, CachedQuery& offer,
                               std::uint64_t now) {
  CachedQuery* e = FindMutable(id);
  if (e == nullptr) return;
  CacheValidator::MergeKnowledge(*e, offer);
  e->last_used_at = now;
  // The merge SETS valid bits (the footprint must stay a superset) and
  // can widen the bitsets.
  relevance_.Refresh(e);
  AccountRefresh(*e);
  ++stats_.total_admission_refreshes;
}

void CacheManager::MaybeMergeWindow() {
  // The byte condition lets replacement run even on a half-full window —
  // the budget bounds resident bytes per drain, not per window fill.
  if (window_.size() >= options_.window_capacity ||
      (entry_byte_budget_ != 0 && entry_bytes_ > entry_byte_budget_)) {
    MergeWindowIntoCache();
  }
}

void CacheManager::MergeWindowIntoCache() {
  // Candidate pool: current cache residents plus the window batch.
  for (auto& e : window_) {
    e->in_window = false;
    cache_.push_back(std::move(e));
  }
  window_.clear();
  if (cache_.size() > options_.cache_capacity) {
    std::vector<const CachedQuery*> pool;
    pool.reserve(cache_.size());
    for (const auto& e : cache_) pool.push_back(e.get());
    const ReplacementRanker ranker(options_.policy, &rng_);
    const std::vector<std::size_t> order = ranker.RankBestFirst(pool);
    last_effective_ = ranker.effective_policy();

    std::vector<std::unique_ptr<CachedQuery>> kept;
    kept.reserve(options_.cache_capacity);
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      auto& slot = cache_[order[rank]];
      if (rank < options_.cache_capacity) {
        kept.push_back(std::move(slot));
      } else {
        AccountEvict(*slot);
        index_.Erase(slot->id);
        relevance_.Erase(slot->id);
        by_id_.erase(slot->id);
        ++stats_.total_evictions;
      }
    }
    cache_ = std::move(kept);
  }
  EnforceByteBudget();
}

void CacheManager::EnforceByteBudget() {
  if (entry_byte_budget_ == 0 || entry_bytes_ <= entry_byte_budget_) return;
  // Greedy knapsack over the utility-per-byte ranking: keep the best
  // prefix that fits (a too-big entry is skipped, later smaller ones may
  // still fit). Runs with the window empty (callers merge first), so
  // entry_bytes_ covers exactly cache_.
  std::vector<const CachedQuery*> pool;
  pool.reserve(cache_.size());
  for (const auto& e : cache_) pool.push_back(e.get());
  const ReplacementRanker ranker(options_.policy, &rng_);
  const std::vector<std::size_t> order = ranker.RankBestPerByteFirst(pool);
  last_effective_ = ranker.effective_policy();

  std::vector<std::unique_ptr<CachedQuery>> kept;
  kept.reserve(cache_.size());
  std::uint64_t kept_bytes = 0;
  for (const std::size_t i : order) {
    auto& slot = cache_[i];
    if (kept_bytes + slot->approx_bytes <= entry_byte_budget_) {
      kept_bytes += slot->approx_bytes;
      kept.push_back(std::move(slot));
    } else {
      AccountEvict(*slot);
      index_.Erase(slot->id);
      relevance_.Erase(slot->id);
      by_id_.erase(slot->id);
      ++stats_.total_evictions;
      ++stats_.byte_budget_evictions;
    }
  }
  cache_ = std::move(kept);
}

void CacheManager::Clear() {
  if (!cache_.empty() || !window_.empty()) ++stats_.total_cache_clears;
  if (options_.pressure != nullptr && entry_bytes_ != 0) {
    options_.pressure->AddBytes(-static_cast<std::int64_t>(entry_bytes_));
  }
  entry_bytes_ = 0;
  cache_.clear();
  window_.clear();
  by_id_.clear();
  index_.Clear();
  relevance_.Clear();
  fragments_.Clear();
}

void CacheManager::PurgeForReconcile() {
  stats_.reconcile_entries_touched += resident();
  stats_.fragment_reconcile_touched += fragments_.size();
  // An EVI purge touches everything; the post-restore balance holds
  // trivially (skipped == 0).
  restore_balance_check_pending_ = false;
  Clear();
}

void CacheManager::ValidateAll(
    const ChangeCounters& counters, std::size_t id_horizon,
    const CacheValidator::DeltaRevalidateFn* delta) {
  stats_.reconcile_entries_touched += resident();
  // Brute-force validation touches everything; balance holds trivially.
  restore_balance_check_pending_ = false;
  for (auto& e : cache_) {
    CacheValidator::RefreshEntry(*e, counters, id_horizon, delta, &stats_);
    relevance_.Refresh(e.get());
    AccountRefresh(*e);
  }
  for (auto& e : window_) {
    CacheValidator::RefreshEntry(*e, counters, id_horizon, delta, &stats_);
    relevance_.Refresh(e.get());
    AccountRefresh(*e);
  }
  // Fragments reconcile with plain Algorithm 2 — the delta hook re-proves
  // whole-query containments and is never needed for soundness here.
  fragments_.ValidateAll(counters, id_horizon, stats_);
}

void CacheManager::ValidateRelevant(
    const ChangeCounters& counters, std::size_t id_horizon,
    const CacheValidator::DeltaRevalidateFn* delta) {
  // Indicator extension (Algorithm 2 lines 4-6) applies to every resident
  // entry — new ids default to invalid and no existing bit can flip, so
  // extension alone never makes an entry "touched".
  for (auto& e : cache_) {
    CacheValidator::ExtendEntry(*e, id_horizon);
    AccountRefresh(*e);
  }
  for (auto& e : window_) {
    CacheValidator::ExtendEntry(*e, id_horizon);
    AccountRefresh(*e);
  }

  const RelevanceIndex::BatchFootprint batch =
      RelevanceIndex::FootprintOf(counters);
  const std::vector<const CachedQuery*> affected =
      relevance_.CollectAffected(batch);
  std::size_t touched = 0;
  for (const CachedQuery* c : affected) {
    CachedQuery* e = FindMutable(c->id);
    if (e == nullptr) continue;  // defensive; affected ids are resident
    CacheValidator::ApplyCounters(*e, counters, delta, &stats_);
    // Re-tightens after clears and restores the superset invariant after
    // a delta fallback re-set bits.
    relevance_.Refresh(e);
    ++touched;
  }
  if (restore_balance_check_pending_) {
    // First reconcile over a restored population: the relevance screen
    // must partition exactly the entries RestoreEntries re-admitted —
    // every posting resolves to a resident entry and the touched/skipped
    // split balances. A stale posting (entry restored without its
    // footprint) would break both.
    assert(touched == affected.size() &&
           "post-restore reconcile hit a non-resident posting");
    assert(touched + (resident() - touched) == resident());
    restore_balance_check_pending_ = false;
  }
  stats_.reconcile_entries_touched += touched;
  stats_.reconcile_entries_skipped += resident() - touched;
  fragments_.ValidateRelevant(counters, id_horizon, stats_);
}

void CacheManager::RefreshRelevanceFootprint(CacheEntryId id) {
  const CachedQuery* e = Find(id);
  if (e != nullptr) relevance_.Refresh(e);
}

void CacheManager::ExtendAll(std::size_t id_horizon) {
  const ChangeCounters empty;
  for (auto& e : cache_) {
    CacheValidator::RefreshEntry(*e, empty, id_horizon);
    AccountRefresh(*e);
  }
  for (auto& e : window_) {
    CacheValidator::RefreshEntry(*e, empty, id_horizon);
    AccountRefresh(*e);
  }
}

void CacheManager::RecordBenefit(CacheEntryId id, std::uint64_t tests_saved,
                                 std::uint64_t now) {
  CachedQuery* e = FindMutable(id);
  if (e == nullptr) return;
  StatisticsManager::RecordBenefit(*e, tests_saved, now);
  stats_.total_tests_saved += tests_saved;
}

void CacheManager::CreditHit(CacheEntryId id, HitKind kind,
                             std::uint64_t tests_saved, std::uint64_t now,
                             bool zero_test_exact) {
  RecordBenefit(id, tests_saved, now);
  CachedQuery* e = FindMutable(id);
  switch (kind) {
    case HitKind::kExact:
      if (e != nullptr) ++e->exact_hits;
      ++stats_.total_exact_hits;
      if (zero_test_exact) ++stats_.total_exact_hits_zero_test;
      break;
    case HitKind::kEmptyProof:
      if (e != nullptr) ++e->super_hits;
      ++stats_.total_empty_shortcuts;
      break;
    case HitKind::kSub:
      if (e != nullptr) ++e->sub_hits;
      ++stats_.total_sub_hits;
      break;
    case HitKind::kSuper:
      if (e != nullptr) ++e->super_hits;
      ++stats_.total_super_hits;
      break;
  }
}

void CacheManager::CreditHitsBatched(
    const std::vector<EntryCreditSum>& credits) {
  for (const EntryCreditSum& c : credits) {
    CachedQuery* e = FindMutable(c.id);
    if (e != nullptr) {
      StatisticsManager::RecordBenefitSum(*e, c.tests_saved, c.hit_count,
                                          c.last_used);
      e->exact_hits += c.exact;
      e->sub_hits += c.sub;
      // kEmptyProof credits count towards super_hits, as in CreditHit.
      e->super_hits += c.super + c.empty_proof;
      // Benefit totals only accrue for entries still resident — identical
      // to RecordBenefit's no-op on evicted ids.
      stats_.total_tests_saved += c.tests_saved;
    }
    // Per-kind global counters record the hits whether or not the entry
    // survived until the drain — identical to the per-credit path.
    stats_.total_exact_hits += c.exact;
    stats_.total_exact_hits_zero_test += c.zero_test_exact;
    stats_.total_empty_shortcuts += c.empty_proof;
    stats_.total_sub_hits += c.sub;
    stats_.total_super_hits += c.super;
  }
}

std::vector<CachedQuery> CacheManager::ExportEntries() const {
  std::vector<CachedQuery> out;
  out.reserve(resident());
  ForEachEntry([&out](const CachedQuery& e) { out.push_back(e); });
  return out;
}

void CacheManager::RestoreEntries(std::vector<CachedQuery> entries) {
  Clear();
  std::stable_sort(entries.begin(), entries.end(),
                   [](const CachedQuery& a, const CachedQuery& b) {
                     return a.tests_saved > b.tests_saved;
                   });
  if (entries.size() > options_.cache_capacity) {
    entries.resize(options_.cache_capacity);
  }
  // Byte budget: a restored snapshot that exceeds the whole-query slice
  // keeps the best tests_saved-per-byte subset that fits; the rest are
  // dropped and counted. Survivors land in the legacy (tests_saved desc)
  // insertion order.
  std::vector<bool> keep(entries.size(), true);
  if (entry_byte_budget_ > 0) {
    std::vector<std::size_t> order(entries.size());
    std::vector<std::uint64_t> bytes(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      order[i] = i;
      bytes[i] = ApproxEntryBytes(entries[i]);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       const double sa =
                           static_cast<double>(entries[a].tests_saved) /
                           static_cast<double>(std::max<std::uint64_t>(
                               std::uint64_t{1}, bytes[a]));
                       const double sb =
                           static_cast<double>(entries[b].tests_saved) /
                           static_cast<double>(std::max<std::uint64_t>(
                               std::uint64_t{1}, bytes[b]));
                       return sa > sb;
                     });
    std::uint64_t kept_bytes = 0;
    for (const std::size_t i : order) {
      if (kept_bytes + bytes[i] <= entry_byte_budget_) {
        kept_bytes += bytes[i];
      } else {
        keep[i] = false;
        ++stats_.restore_budget_dropped;
      }
    }
  }
  for (std::size_t idx = 0; idx < entries.size(); ++idx) {
    if (!keep[idx]) continue;
    CachedQuery& e = entries[idx];
    auto owned = std::make_unique<CachedQuery>(std::move(e));
    owned->id = next_id_++;
    owned->in_window = false;
    owned->features = GraphFeatures::Extract(*owned->query);
    owned->digest = WlDigest(*owned->query);
    // Re-seed the replacement inputs instead of trusting the file: a
    // snapshot from an older writer may carry no cost estimate, and PINC
    // ranks on it.
    if (owned->est_test_cost_ms <= 0.0) {
      owned->est_test_cost_ms =
          StatisticsManager::StructuralCostEstimateMs(*owned->query);
    }
    index_.Insert(owned.get());
    relevance_.Insert(owned.get());
    by_id_.emplace(owned->id, owned.get());
    AccountAdmit(*owned);
    cache_.push_back(std::move(owned));
    // Footprints are rebuilt from the restored bitsets, never carried
    // over from the file — the relevance screen's superset invariant must
    // hold for whatever validity state actually landed in the store.
    RefreshRelevanceFootprint(cache_.back()->id);
  }
  stats_.restored_entries += cache_.size();
  // RANDOM-policy replacement restarts from the configured seed, so a
  // restore is deterministic regardless of pre-restore RNG consumption.
  rng_ = Rng(options_.rng_seed);
  restore_balance_check_pending_ = true;
}

std::vector<CacheEntryId> CacheManager::ResidentIdsByBenefit() const {
  std::vector<const CachedQuery*> all;
  all.reserve(resident());
  for (const auto& e : cache_) all.push_back(e.get());
  for (const auto& e : window_) all.push_back(e.get());
  std::stable_sort(all.begin(), all.end(),
                   [](const CachedQuery* a, const CachedQuery* b) {
                     return a->tests_saved > b->tests_saved;
                   });
  std::vector<CacheEntryId> ids;
  ids.reserve(all.size());
  for (const auto* e : all) ids.push_back(e->id);
  return ids;
}

ApproxByteFootprint CacheManager::ApproxBytes() const {
  ApproxByteFootprint b;
  ForEachEntry([&b](const CachedQuery& e) {
    b.graph_bytes += ApproxGraphBytes(*e.query);
    b.bitset_bytes += 8 * (e.answer.num_words() + e.valid.num_words());
  });
  assert(b.graph_bytes + b.bitset_bytes == entry_bytes_ &&
         "entry byte gauge drifted from recompute");
  b.posting_bytes = relevance_.ApproxBytes();
  b.fragment_bytes = fragments_.ApproxBytes();
  return b;
}

void CacheManager::AccountAdmit(CachedQuery& e) {
  e.approx_bytes = ApproxEntryBytes(e);
  entry_bytes_ += e.approx_bytes;
  if (options_.pressure != nullptr) {
    options_.pressure->AddBytes(static_cast<std::int64_t>(e.approx_bytes));
  }
}

void CacheManager::AccountEvict(const CachedQuery& e) {
  entry_bytes_ -= e.approx_bytes;
  if (options_.pressure != nullptr) {
    options_.pressure->AddBytes(-static_cast<std::int64_t>(e.approx_bytes));
  }
}

void CacheManager::AccountRefresh(CachedQuery& e) {
  const std::uint64_t fresh = ApproxEntryBytes(e);
  if (fresh == e.approx_bytes) return;
  entry_bytes_ += fresh - e.approx_bytes;  // unsigned wrap-around is exact
  if (options_.pressure != nullptr) {
    options_.pressure->AddBytes(static_cast<std::int64_t>(fresh) -
                                static_cast<std::int64_t>(e.approx_bytes));
  }
  e.approx_bytes = fresh;
}

const CachedQuery* CacheManager::Find(CacheEntryId id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

CachedQuery* CacheManager::FindMutable(CacheEntryId id) {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

}  // namespace gcp
