#include "cache/fragment_store.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "cache/cache_validator.hpp"
#include "common/alloc_fault.hpp"
#include "match/fragments.hpp"

namespace gcp {

const CachedQuery* FragmentStore::Probe(
    std::uint64_t digest, std::span<const Label> labels) const {
  const auto it = by_digest_.find(digest);
  if (it == by_digest_.end() ||
      !std::ranges::equal(it->second->query->labels(), labels)) {
    return nullptr;
  }
  return it->second.get();
}

CachedQuery* FragmentStore::FindMutable(std::uint64_t digest) {
  const auto it = by_digest_.find(digest);
  return it == by_digest_.end() ? nullptr : it->second.get();
}

Status FragmentStore::AdmitOrMerge(std::unique_ptr<CachedQuery> entry,
                                   std::uint64_t now,
                                   StatisticsManager& stats) {
  const auto it = by_digest_.find(entry->digest);
  if (it != by_digest_.end()) {
    CachedQuery& resident = *it->second;
    if (resident.query->labels() != entry->query->labels()) {
      ++stats.fragment_digest_collisions;
      return Status::OK();
    }
    // Both sides are reconciled to the same watermark, so wherever both
    // are valid they agree.
    CacheValidator::MergeKnowledge(resident, *entry);
    resident.last_used_at = now;
    ++stats.fragment_merges;
    // The merge can grow the bitsets past the byte slice.
    AccountRefresh(resident);
    EvictOverCapacity(stats);
    return Status::OK();
  }
  if (AllocationFaultFires(AllocSite::kFragmentAdmission,
                           ApproxEntryBytes(*entry))) {
    ++stats.alloc_failed_fragments;
    return Status::ResourceExhausted("fragment admission allocation failed");
  }
  entry->id = next_id_++;
  entry->admitted_at = now;
  entry->last_used_at = now;
  entry->in_window = false;
  CachedQuery* raw = entry.get();
  by_digest_.emplace(entry->digest, std::move(entry));
  AccountAdmit(*raw);
  ++stats.fragment_admissions;
  EvictOverCapacity(stats);
  return Status::OK();
}

void FragmentStore::Credit(std::uint64_t digest, std::uint64_t pruned,
                           std::uint64_t now, StatisticsManager& stats) {
  CachedQuery* e = FindMutable(digest);
  if (e == nullptr) return;  // Evicted between read phase and drain.
  ++stats.fragment_hits;
  stats.fragment_candidates_pruned += pruned;
  StatisticsManager::RecordBenefit(*e, pruned, now);
}

void FragmentStore::Clear() {
  entry_bytes_ = 0;
  by_digest_.clear();
}

void FragmentStore::ValidateAll(const ChangeCounters& counters,
                                std::size_t id_horizon,
                                StatisticsManager& stats) {
  stats.fragment_reconcile_touched += by_digest_.size();
  for (auto& [digest, e] : by_digest_) {
    CacheValidator::RefreshEntry(*e, counters, id_horizon);
    AccountRefresh(*e);
  }
}

void FragmentStore::PurgeForReconcile(StatisticsManager& stats) {
  stats.fragment_reconcile_touched += by_digest_.size();
  Clear();
}

std::vector<CachedQuery> FragmentStore::Export() const {
  std::vector<CachedQuery> out;
  out.reserve(by_digest_.size());
  for (const auto& [digest, e] : by_digest_) out.push_back(*e);
  return out;
}

void FragmentStore::Restore(std::vector<CachedQuery> entries,
                            StatisticsManager& stats) {
  Clear();
  // A checkpoint is outside input: keep only canonical stars, and recompute
  // their keys from the labels, so it cannot plant an alias a probe by
  // labels would then trust.
  std::erase_if(entries,
                [](const CachedQuery& e) { return !IsCanonicalStar(*e.query); });
  for (CachedQuery& e : entries) {
    e.kind = CachedQueryKind::kSubgraph;
    e.features = GraphFeatures::Extract(*e.query);
    e.digest = StarDigest(e.query->labels());
    if (e.est_test_cost_ms <= 0.0) {
      e.est_test_cost_ms = StatisticsManager::StructuralCostEstimateMs(*e.query);
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const CachedQuery& a, const CachedQuery& b) {
                     if (a.tests_saved != b.tests_saved) {
                       return a.tests_saved > b.tests_saved;
                     }
                     return a.digest < b.digest;
                   });
  if (entries.size() > capacity_) entries.resize(capacity_);
  // Byte slice: keep the best tests_saved-per-byte prefix that fits, drop
  // the rest (counted). Selection is greedy over the per-byte ranking;
  // insertion keeps the legacy tests_saved order among survivors.
  std::vector<bool> keep(entries.size(), true);
  if (byte_budget_ > 0) {
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
      if (kept_bytes + bytes[i] <= byte_budget_) {
        kept_bytes += bytes[i];
      } else {
        keep[i] = false;
        ++stats.restore_budget_dropped;
      }
    }
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!keep[i]) continue;
    CachedQuery& e = entries[i];
    if (by_digest_.count(e.digest) != 0) continue;  // Twin stars: keep best.
    auto owned = std::make_unique<CachedQuery>(std::move(e));
    owned->id = next_id_++;
    owned->in_window = false;
    CachedQuery* raw = owned.get();
    by_digest_.emplace(owned->digest, std::move(owned));
    AccountAdmit(*raw);
    ++stats.restored_fragments;
  }
}

std::uint64_t FragmentStore::ApproxBytes() const {
  std::uint64_t bytes = 0;
  for (const auto& [digest, e] : by_digest_) {
    bytes += ApproxGraphBytes(*e->query) +
             8 * (e->answer.num_words() + e->valid.num_words());
  }
  assert(bytes == entry_bytes_ &&
         "fragment byte gauge drifted from recompute");
  return bytes;
}

void FragmentStore::AccountAdmit(CachedQuery& e) {
  e.approx_bytes = ApproxEntryBytes(e);
  entry_bytes_ += e.approx_bytes;
}

void FragmentStore::AccountEvict(const CachedQuery& e) {
  entry_bytes_ -= e.approx_bytes;
}

void FragmentStore::AccountRefresh(CachedQuery& e) {
  const std::uint64_t fresh = ApproxEntryBytes(e);
  if (fresh == e.approx_bytes) return;
  entry_bytes_ += fresh - e.approx_bytes;  // unsigned wrap-around is exact
  e.approx_bytes = fresh;
}

void FragmentStore::EvictOverCapacity(StatisticsManager& stats) {
  while (by_digest_.size() > capacity_) {
    auto victim = by_digest_.begin();
    for (auto it = std::next(by_digest_.begin()); it != by_digest_.end();
         ++it) {
      if (it->second->last_used_at < victim->second->last_used_at) victim = it;
    }
    AccountEvict(*victim->second);
    by_digest_.erase(victim);
    ++stats.fragment_evictions;
  }
  if (byte_budget_ == 0) return;
  // Byte pass: evict the worst tests_saved-per-byte fragment until the
  // slice fits. Ties break least-recently-used first, then map (digest)
  // order — deterministic across runs and shard counts.
  while (entry_bytes_ > byte_budget_ && !by_digest_.empty()) {
    const auto score = [](const CachedQuery& e) {
      return static_cast<double>(e.tests_saved) /
             static_cast<double>(
                 std::max<std::uint64_t>(std::uint64_t{1}, e.approx_bytes));
    };
    auto victim = by_digest_.begin();
    for (auto it = std::next(by_digest_.begin()); it != by_digest_.end();
         ++it) {
      const double s = score(*it->second);
      const double v = score(*victim->second);
      if (s < v ||
          (s == v && it->second->last_used_at < victim->second->last_used_at)) {
        victim = it;
      }
    }
    AccountEvict(*victim->second);
    by_digest_.erase(victim);
    ++stats.fragment_evictions;
    ++stats.fragment_byte_evictions;
  }
}

}  // namespace gcp
