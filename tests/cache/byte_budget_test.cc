// Byte-accounted capacity model (PR 10): incremental footprint gauges vs
// from-scratch recomputes under churn, the per-shard ceil split, the
// fragment carve-out, utility-per-byte eviction for whole-query entries
// and fragments, budget-aware restore, and the allocation-fault admission
// paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "cache/cache_manager.hpp"
#include "cache/fragment_store.hpp"
#include "cache/sharded_cache.hpp"
#include "common/alloc_fault.hpp"
#include "match/fragments.hpp"

namespace gcp {
namespace {

using testing::MakePath;

CacheManagerOptions BudgetOptions(std::size_t cache, std::size_t window,
                                  std::size_t byte_budget,
                                  std::size_t fragment_capacity = 0) {
  CacheManagerOptions opts;
  opts.cache_capacity = cache;
  opts.window_capacity = window;
  opts.policy = ReplacementPolicy::kPin;
  opts.byte_budget = byte_budget;
  opts.fragment_capacity = fragment_capacity;
  return opts;
}

/// Path query of `len` vertices — footprint grows with `len`, so mixing
/// lengths gives entries with meaningfully different byte costs.
CacheEntryId AdmitSized(CacheManager& cm, Label tag, std::size_t len,
                        std::size_t horizon, std::uint64_t now) {
  std::vector<Label> labels(len);
  for (std::size_t i = 0; i < len; ++i) {
    labels[i] = static_cast<Label>(tag + i);
  }
  DynamicBitset answer(horizon);
  DynamicBitset valid(horizon, true);
  Result<CacheEntryId> id =
      cm.AdmitDeferred(MakePath(std::move(labels)), CachedQueryKind::kSubgraph,
                       std::move(answer), std::move(valid), now, 1.0);
  EXPECT_TRUE(id.ok());
  return id.value_or(0);
}

std::uint64_t RecomputeEntryBytes(const CacheManager& cm) {
  std::uint64_t sum = 0;
  cm.ForEachEntry([&sum](const CachedQuery& e) {
    // The cached per-entry field must itself match a fresh measurement.
    EXPECT_EQ(e.approx_bytes, ApproxEntryBytes(e));
    sum += ApproxEntryBytes(e);
  });
  return sum;
}

TEST(ByteBudgetTest, GaugeTracksAdmitMergeEvictChurn) {
  CacheManager cm(BudgetOptions(/*cache=*/6, /*window=*/3, /*byte_budget=*/0));
  std::uint64_t now = 0;
  for (Label tag = 0; tag < 24; ++tag) {
    AdmitSized(cm, tag, 2 + tag % 5, /*horizon=*/16, now++);
    cm.MaybeMergeWindow();
    EXPECT_EQ(cm.approx_entry_bytes(), RecomputeEntryBytes(cm))
        << "gauge drifted after admission " << tag;
  }
  EXPECT_GT(cm.stats().total_evictions, 0u);
  cm.Clear();
  EXPECT_EQ(cm.approx_entry_bytes(), 0u);
}

TEST(ByteBudgetTest, GaugeFollowsBitsetGrowthOnValidate) {
  CacheManager cm(BudgetOptions(8, 4, 0));
  for (Label tag = 0; tag < 4; ++tag) {
    AdmitSized(cm, tag, 3, /*horizon=*/8, tag);
  }
  const std::uint64_t before = cm.approx_entry_bytes();
  ASSERT_EQ(before, RecomputeEntryBytes(cm));
  // Growing the id horizon reallocates every indicator: 8 → 1000 ids is
  // 1 word → 16 words per bitset, which the gauge must re-measure.
  cm.ExtendAll(/*id_horizon=*/1000);
  EXPECT_GT(cm.approx_entry_bytes(), before);
  EXPECT_EQ(cm.approx_entry_bytes(), RecomputeEntryBytes(cm));
  // ValidateAll on a quiet change set keeps the gauge exact too.
  cm.ValidateAll(ChangeCounters{}, /*id_horizon=*/1200);
  EXPECT_EQ(cm.approx_entry_bytes(), RecomputeEntryBytes(cm));
}

TEST(ByteBudgetTest, ShardSplitMirrorsEntryCapacityCeilSplit) {
  CacheManagerOptions total = BudgetOptions(100, 20, /*byte_budget=*/10'001);
  total.fragment_capacity = 33;
  for (const std::size_t shards : {1u, 3u, 7u, 8u}) {
    const CacheManagerOptions per =
        ShardedCache::SplitOptions(total, shards);
    EXPECT_EQ(per.byte_budget,
              (total.byte_budget + shards - 1) / shards);
    EXPECT_EQ(per.cache_capacity,
              (total.cache_capacity + shards - 1) / shards);
    EXPECT_EQ(per.fragment_capacity,
              (total.fragment_capacity + shards - 1) / shards);
    // Summed per-shard budgets stay within total + (shards - 1) bytes.
    EXPECT_GE(per.byte_budget * shards, total.byte_budget);
    EXPECT_LE(per.byte_budget * shards, total.byte_budget + shards - 1);
  }
  // Budget off splits to off — no shard invents a cap.
  total.byte_budget = 0;
  EXPECT_EQ(ShardedCache::SplitOptions(total, 8).byte_budget, 0u);
}

TEST(ByteBudgetTest, FragmentSliceCarvedOutOnlyWhenFragmentsOn) {
  const CacheManager with_frags(
      BudgetOptions(8, 4, /*byte_budget=*/8000, /*fragment_capacity=*/16));
  EXPECT_EQ(with_frags.fragments().byte_budget(), 1000u);
  EXPECT_EQ(with_frags.entry_byte_budget(), 7000u);

  const CacheManager no_frags(BudgetOptions(8, 4, 8000, 0));
  EXPECT_EQ(no_frags.fragments().byte_budget(), 0u);
  EXPECT_EQ(no_frags.entry_byte_budget(), 8000u);

  const CacheManager off(BudgetOptions(8, 4, 0, 16));
  EXPECT_EQ(off.fragments().byte_budget(), 0u);
  EXPECT_EQ(off.entry_byte_budget(), 0u);
}

TEST(ByteBudgetTest, BudgetEvictsWorstUtilityPerByteFirst) {
  // Entry-count caps never bind (cache 100); only the byte pass evicts.
  CacheManager probe(BudgetOptions(100, 4, 0));
  const CacheEntryId small_id = AdmitSized(probe, 0, 2, 16, 0);
  const std::uint64_t small_bytes =
      ApproxEntryBytes(*probe.Find(small_id));
  // Budget fits the three small high-benefit entries but not the big one.
  const std::size_t budget = static_cast<std::size_t>(small_bytes) * 4;

  CacheManager cm(BudgetOptions(100, 4, budget));
  const CacheEntryId a = AdmitSized(cm, 0, 2, 16, 0);
  const CacheEntryId b = AdmitSized(cm, 10, 2, 16, 1);
  const CacheEntryId c = AdmitSized(cm, 20, 2, 16, 2);
  const CacheEntryId big = AdmitSized(cm, 30, 14, 16, 3);
  ASSERT_GT(ApproxEntryBytes(*cm.Find(big)), small_bytes);
  // The small entries earn benefit; the big one earns none, so its
  // utility-per-byte is the worst on both axes.
  cm.RecordBenefit(a, 50, 4);
  cm.RecordBenefit(b, 50, 5);
  cm.RecordBenefit(c, 50, 6);

  cm.MergeWindowIntoCache();
  EXPECT_EQ(cm.Find(big), nullptr) << "worst utility-per-byte survived";
  EXPECT_NE(cm.Find(a), nullptr);
  EXPECT_NE(cm.Find(b), nullptr);
  EXPECT_NE(cm.Find(c), nullptr);
  EXPECT_LE(cm.approx_entry_bytes(), cm.entry_byte_budget());
  EXPECT_EQ(cm.stats().byte_budget_evictions, 1u);
  EXPECT_EQ(cm.stats().total_evictions, 1u);
  EXPECT_EQ(cm.approx_entry_bytes(), RecomputeEntryBytes(cm));
}

TEST(ByteBudgetTest, NeverBindingBudgetReplaysEntryCountEngineExactly) {
  // RANDOM policy is the sharp oracle: any extra RNG consumption on the
  // budget side would desynchronize eviction picks immediately.
  CacheManagerOptions off_opts = BudgetOptions(4, 2, 0);
  off_opts.policy = ReplacementPolicy::kRandom;
  CacheManagerOptions huge_opts = off_opts;
  huge_opts.byte_budget = std::size_t{1} << 40;
  CacheManager off(off_opts);
  CacheManager huge(huge_opts);

  for (Label tag = 0; tag < 30; ++tag) {
    for (CacheManager* cm : {&off, &huge}) {
      AdmitSized(*cm, tag, 2 + tag % 4, 16, tag);
      cm->MaybeMergeWindow();
    }
  }
  auto digests = [](const CacheManager& cm) {
    std::vector<std::uint64_t> out;
    cm.ForEachEntry([&out](const CachedQuery& e) { out.push_back(e.digest); });
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_GT(off.stats().total_evictions, 0u);
  EXPECT_EQ(digests(off), digests(huge));
  EXPECT_EQ(off.stats().total_evictions, huge.stats().total_evictions);
  EXPECT_EQ(huge.stats().byte_budget_evictions, 0u);
}

TEST(ByteBudgetTest, RestoreUnderBudgetKeepsBestPerByteEntries) {
  // Donor: three small useful entries + one big useless one.
  CacheManager donor(BudgetOptions(100, 8, 0));
  const CacheEntryId a = AdmitSized(donor, 0, 2, 16, 0);
  const CacheEntryId b = AdmitSized(donor, 10, 2, 16, 1);
  const CacheEntryId c = AdmitSized(donor, 20, 2, 16, 2);
  AdmitSized(donor, 30, 14, 16, 3);
  donor.RecordBenefit(a, 40, 4);
  donor.RecordBenefit(b, 40, 5);
  donor.RecordBenefit(c, 40, 6);
  const std::uint64_t small_bytes = ApproxEntryBytes(*donor.Find(a));

  CacheManager restored(
      BudgetOptions(100, 8, static_cast<std::size_t>(small_bytes) * 4));
  restored.RestoreEntries(donor.ExportEntries());
  EXPECT_EQ(restored.resident(), 3u);
  EXPECT_EQ(restored.stats().restore_budget_dropped, 1u);
  EXPECT_LE(restored.approx_entry_bytes(), restored.entry_byte_budget());
  EXPECT_EQ(restored.approx_entry_bytes(), RecomputeEntryBytes(restored));
  // Budget off restores everything, byte-accounted all the same.
  CacheManager plain(BudgetOptions(100, 8, 0));
  plain.RestoreEntries(donor.ExportEntries());
  EXPECT_EQ(plain.resident(), 4u);
  EXPECT_EQ(plain.stats().restore_budget_dropped, 0u);
  EXPECT_EQ(plain.approx_entry_bytes(), RecomputeEntryBytes(plain));
}

std::unique_ptr<CachedQuery> MakeFragment(Label center,
                                          std::vector<Label> leaves,
                                          std::size_t horizon = 64) {
  Graph star = MakeStarGraph(center, std::move(leaves));
  DynamicBitset answer(horizon);
  DynamicBitset valid(horizon, true);
  return CacheManager::PrepareEntry(
      std::make_shared<const Graph>(std::move(star)),
      CachedQueryKind::kSubgraph, std::move(answer), std::move(valid), 1.0);
}

TEST(ByteBudgetTest, FragmentStoreEnforcesByteSlicePerByteRanking) {
  auto probe = MakeFragment(1, {2});
  const std::uint64_t frag_bytes = ApproxEntryBytes(*probe);
  // Room for three small fragments; entry capacity never binds.
  FragmentStore store(/*capacity=*/64,
                      /*byte_budget=*/frag_bytes * 3 + frag_bytes / 2);
  StatisticsManager stats;
  ASSERT_TRUE(store.AdmitOrMerge(MakeFragment(1, {2}), 1, stats).ok());
  ASSERT_TRUE(store.AdmitOrMerge(MakeFragment(3, {4}), 2, stats).ok());
  ASSERT_TRUE(store.AdmitOrMerge(MakeFragment(5, {6}), 3, stats).ok());
  EXPECT_EQ(stats.fragment_byte_evictions, 0u);
  ASSERT_TRUE(store.AdmitOrMerge(MakeFragment(7, {8}), 4, stats).ok());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(stats.fragment_byte_evictions, 1u);
  EXPECT_LE(store.approx_entry_bytes(), store.byte_budget());
}

TEST(ByteBudgetTest, AdmissionOomFaultLeavesStoreUntouched) {
  CacheManager cm(BudgetOptions(8, 4, 0));
  ScriptedAllocationFaultInjector injector;
  ScopedAllocationFaultInjector scope(&injector);
  injector.FailSite(AllocSite::kAdmission, true);
  DynamicBitset answer(8);
  DynamicBitset valid(8, true);
  const Result<CacheEntryId> refused =
      cm.Admit(MakePath({1, 2}), CachedQueryKind::kSubgraph, std::move(answer),
               std::move(valid), 0, 1.0);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cm.resident(), 0u);
  EXPECT_EQ(cm.approx_entry_bytes(), 0u);
  EXPECT_EQ(cm.stats().alloc_failed_admissions, 1u);
  EXPECT_EQ(cm.stats().total_admissions, 0u);
  injector.DisarmScript();
  EXPECT_TRUE(cm.Admit(MakePath({1, 2}), CachedQueryKind::kSubgraph,
                       DynamicBitset(8), DynamicBitset(8, true), 1, 1.0)
                  .ok());
  EXPECT_EQ(cm.resident(), 1u);
}

TEST(ByteBudgetTest, FragmentOomFaultFailsFreshAdmissionButNotMerge) {
  FragmentStore store(8);
  StatisticsManager stats;
  ASSERT_TRUE(store.AdmitOrMerge(MakeFragment(1, {2}), 1, stats).ok());

  ScriptedAllocationFaultInjector injector;
  ScopedAllocationFaultInjector scope(&injector);
  injector.FailSite(AllocSite::kFragmentAdmission, true);
  // Fresh star → the fault refuses the allocation.
  const Status fresh = store.AdmitOrMerge(MakeFragment(3, {4}), 2, stats);
  EXPECT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(stats.alloc_failed_fragments, 1u);
  // Resident twin → merge allocates nothing and cannot fail.
  EXPECT_TRUE(store.AdmitOrMerge(MakeFragment(1, {2}), 3, stats).ok());
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace gcp
