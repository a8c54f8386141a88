#include "cache/cache_manager.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "dataset/change_log.hpp"

namespace gcp {
namespace {

using testing::MakePath;

CacheManagerOptions SmallOptions(std::size_t cache, std::size_t window,
                                 ReplacementPolicy policy =
                                     ReplacementPolicy::kPin) {
  CacheManagerOptions opts;
  opts.cache_capacity = cache;
  opts.window_capacity = window;
  opts.policy = policy;
  return opts;
}

CacheEntryId AdmitQuery(CacheManager& cm, Label tag, std::size_t horizon,
                        std::uint64_t now, double cost = 1.0) {
  DynamicBitset answer(horizon);
  DynamicBitset valid(horizon, true);
  return cm.Admit(MakePath({tag, tag}), CachedQueryKind::kSubgraph,
                  std::move(answer), std::move(valid), now, cost)
      .value();
}

TEST(CacheManagerTest, AdmitEntersWindow) {
  CacheManager cm(SmallOptions(4, 3));
  AdmitQuery(cm, 0, 5, 0);
  EXPECT_EQ(cm.window_size(), 1u);
  EXPECT_EQ(cm.cache_size(), 0u);
  EXPECT_EQ(cm.resident(), 1u);
  EXPECT_EQ(cm.index().size(), 1u);
  EXPECT_EQ(cm.stats().total_admissions, 1u);
}

TEST(CacheManagerTest, WindowFullTriggersMerge) {
  CacheManager cm(SmallOptions(4, 3));
  AdmitQuery(cm, 0, 5, 0);
  AdmitQuery(cm, 1, 5, 1);
  EXPECT_EQ(cm.window_size(), 2u);
  AdmitQuery(cm, 2, 5, 2);  // window reaches capacity 3 → merge
  EXPECT_EQ(cm.window_size(), 0u);
  EXPECT_EQ(cm.cache_size(), 3u);
  EXPECT_EQ(cm.resident(), 3u);
}

TEST(CacheManagerTest, MergeEvictsLowestScores) {
  CacheManager cm(SmallOptions(/*cache=*/2, /*window=*/2));
  const CacheEntryId a = AdmitQuery(cm, 0, 5, 0);
  const CacheEntryId b = AdmitQuery(cm, 1, 5, 1);  // merge #1: both fit
  ASSERT_EQ(cm.cache_size(), 2u);
  // Give entry b a benefit so PIN keeps it.
  cm.RecordBenefit(b, 10, 2);
  const CacheEntryId c = AdmitQuery(cm, 2, 5, 3);
  const CacheEntryId d = AdmitQuery(cm, 3, 5, 4);  // merge #2: 4 → keep 2
  EXPECT_EQ(cm.cache_size(), 2u);
  EXPECT_EQ(cm.stats().total_evictions, 2u);
  // b survives (R=10); among {a, c, d} (all R=0) the freshest wins → d.
  EXPECT_NE(cm.FindMutable(b), nullptr);
  EXPECT_NE(cm.FindMutable(d), nullptr);
  EXPECT_EQ(cm.FindMutable(a), nullptr);
  EXPECT_EQ(cm.FindMutable(c), nullptr);
  EXPECT_EQ(cm.index().size(), 2u);
}

TEST(CacheManagerTest, ClearPurgesEverything) {
  CacheManager cm(SmallOptions(4, 2));
  AdmitQuery(cm, 0, 5, 0);
  AdmitQuery(cm, 1, 5, 1);
  AdmitQuery(cm, 2, 5, 2);
  ASSERT_GT(cm.resident(), 0u);
  cm.Clear();
  EXPECT_EQ(cm.resident(), 0u);
  EXPECT_EQ(cm.index().size(), 0u);
  EXPECT_EQ(cm.stats().total_cache_clears, 1u);
  cm.Clear();  // clearing an empty cache is not counted
  EXPECT_EQ(cm.stats().total_cache_clears, 1u);
}

TEST(CacheManagerTest, ValidateAllTouchesCacheAndWindow) {
  CacheManager cm(SmallOptions(4, 3));
  // Two entries with answer bit 0 set; one merged into cache, one in window.
  DynamicBitset answer(4);
  answer.Set(0);
  cm.Admit(MakePath({0, 0}), CachedQueryKind::kSubgraph, answer,
           DynamicBitset(4, true), 0, 1.0);
  cm.MergeWindowIntoCache();
  cm.Admit(MakePath({1, 1}), CachedQueryKind::kSubgraph, answer,
           DynamicBitset(4, true), 1, 1.0);
  ASSERT_EQ(cm.cache_size(), 1u);
  ASSERT_EQ(cm.window_size(), 1u);

  ChangeLog log;
  log.Append(ChangeType::kEdgeRemove, 0);  // invalidates positive results
  cm.ValidateAll(LogAnalyzer::Analyze(log.ExtractSince(0)), 4);
  cm.ForEachEntry([](const CachedQuery& e) {
    EXPECT_FALSE(e.valid.Test(0));
    for (std::size_t i = 1; i < 4; ++i) EXPECT_TRUE(e.valid.Test(i));
  });
  EXPECT_EQ(cm.stats().reconcile_entries_touched, 2u);

  // A batch that touches no graph still widens every indicator to the new
  // horizon; the new ids are unknown, hence invalid.
  cm.ValidateAll(ChangeCounters{}, 10);
  cm.ForEachEntry([](const CachedQuery& e) {
    EXPECT_EQ(e.valid.size(), 10u);
    EXPECT_EQ(e.answer.size(), 10u);
    EXPECT_FALSE(e.valid.Test(0));
    for (std::size_t i = 1; i < 4; ++i) EXPECT_TRUE(e.valid.Test(i));
    for (std::size_t i = 4; i < 10; ++i) EXPECT_FALSE(e.valid.Test(i));
  });
  EXPECT_EQ(cm.stats().reconcile_entries_touched, 4u);
}

TEST(CacheManagerTest, ExtendAllAlignsHorizon) {
  CacheManager cm(SmallOptions(4, 3));
  AdmitQuery(cm, 0, 3, 0);
  cm.ExtendAll(8);
  cm.ForEachEntry([](const CachedQuery& e) {
    EXPECT_EQ(e.valid.size(), 8u);
    EXPECT_EQ(e.answer.size(), 8u);
    for (std::size_t i = 3; i < 8; ++i) EXPECT_FALSE(e.valid.Test(i));
  });
}

TEST(CacheManagerTest, RecordBenefitAggregates) {
  CacheManager cm(SmallOptions(4, 3));
  const CacheEntryId id = AdmitQuery(cm, 0, 5, 0);
  cm.RecordBenefit(id, 7, 1);
  cm.RecordBenefit(id, 3, 2);
  const CachedQuery* e = cm.FindMutable(id);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->tests_saved, 10u);
  EXPECT_EQ(e->hits, 2u);
  EXPECT_EQ(cm.stats().total_tests_saved, 10u);
  cm.RecordBenefit(9999, 5, 3);  // unknown id: ignored
  EXPECT_EQ(cm.stats().total_tests_saved, 10u);
}

TEST(CacheManagerTest, InWindowFlagFlipsOnMerge) {
  CacheManager cm(SmallOptions(4, 2));
  const CacheEntryId id = AdmitQuery(cm, 0, 5, 0);
  EXPECT_TRUE(cm.FindMutable(id)->in_window);
  AdmitQuery(cm, 1, 5, 1);  // triggers merge
  EXPECT_FALSE(cm.FindMutable(id)->in_window);
}

TEST(CacheManagerTest, IndexCoversWindowAndCache) {
  CacheManager cm(SmallOptions(4, 2));
  AdmitQuery(cm, 0, 5, 0);
  AdmitQuery(cm, 1, 5, 1);  // merge
  AdmitQuery(cm, 2, 5, 2);  // window
  EXPECT_EQ(cm.index().size(), 3u);
  EXPECT_EQ(cm.cache_size(), 2u);
  EXPECT_EQ(cm.window_size(), 1u);
}

TEST(CacheManagerTest, FindResolvesBothStores) {
  CacheManager cm(SmallOptions(4, 3));
  const CacheEntryId a = AdmitQuery(cm, 0, 5, 0);
  const CacheEntryId b = AdmitQuery(cm, 1, 5, 1);
  const CachedQuery* ea = cm.Find(a);
  ASSERT_NE(ea, nullptr);
  EXPECT_EQ(ea->id, a);
  EXPECT_TRUE(ea->in_window);
  EXPECT_EQ(cm.Find(b), cm.FindMutable(b));
  EXPECT_EQ(cm.Find(999), nullptr);
  EXPECT_EQ(cm.FindMutable(999), nullptr);
}

TEST(CacheManagerTest, IdMapSurvivesMergeAndDropsEvicted) {
  CacheManager cm(SmallOptions(/*cache=*/2, /*window=*/2));
  const CacheEntryId a = AdmitQuery(cm, 0, 5, 0);
  const CacheEntryId b = AdmitQuery(cm, 1, 5, 1);  // merge #1: both fit
  cm.RecordBenefit(b, 10, 2);
  const CacheEntryId c = AdmitQuery(cm, 2, 5, 3);
  cm.RecordBenefit(c, 5, 3);
  const CacheEntryId d = AdmitQuery(cm, 3, 5, 4);  // merge #2: evicts a and d
  EXPECT_EQ(cm.Find(a), nullptr);
  EXPECT_EQ(cm.Find(d), nullptr);
  ASSERT_NE(cm.Find(b), nullptr);
  ASSERT_NE(cm.Find(c), nullptr);
  EXPECT_FALSE(cm.Find(b)->in_window);
}

TEST(CacheManagerTest, IdMapClearedByClearAndRebuiltByRestore) {
  CacheManager cm(SmallOptions(4, 3));
  const CacheEntryId a = AdmitQuery(cm, 0, 5, 0);
  const std::vector<CachedQuery> exported = cm.ExportEntries();
  cm.Clear();
  EXPECT_EQ(cm.Find(a), nullptr);
  cm.RestoreEntries(exported);
  ASSERT_EQ(cm.resident(), 1u);
  // Restore assigns fresh ids; the map must resolve the new id, not the
  // old one.
  const std::vector<CacheEntryId> ids = cm.ResidentIdsByBenefit();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_NE(cm.Find(ids[0]), nullptr);
  EXPECT_EQ(cm.Find(a), nullptr);
}

TEST(CacheManagerTest, AdmitDeferredSkipsMergeUntilMaybeMergeWindow) {
  CacheManager cm(SmallOptions(/*cache=*/4, /*window=*/2));
  DynamicBitset answer(5);
  DynamicBitset valid(5, true);
  cm.AdmitDeferred(MakePath({0, 0}), CachedQueryKind::kSubgraph, answer, valid,
                   0, 1.0);
  cm.AdmitDeferred(MakePath({1, 1}), CachedQueryKind::kSubgraph, answer, valid,
                   1, 1.0);
  cm.AdmitDeferred(MakePath({2, 2}), CachedQueryKind::kSubgraph, answer, valid,
                   2, 1.0);
  // Three deferred admissions overshoot the window capacity of 2 without
  // triggering replacement...
  EXPECT_EQ(cm.window_size(), 3u);
  EXPECT_EQ(cm.cache_size(), 0u);
  // ...until the once-per-drain merge runs.
  cm.MaybeMergeWindow();
  EXPECT_EQ(cm.window_size(), 0u);
  EXPECT_EQ(cm.cache_size(), 3u);
  // Below capacity the merge is a no-op.
  cm.MaybeMergeWindow();
  EXPECT_EQ(cm.cache_size(), 3u);
}

TEST(CacheManagerTest, CreditHitBumpsKindCounters) {
  CacheManager cm(SmallOptions(4, 4));
  const CacheEntryId a = AdmitQuery(cm, 0, 5, 0);
  cm.CreditHit(a, HitKind::kExact, 3, 1, /*zero_test_exact=*/true);
  cm.CreditHit(a, HitKind::kSub, 2, 2);
  cm.CreditHit(a, HitKind::kSuper, 1, 3);
  cm.CreditHit(a, HitKind::kEmptyProof, 4, 4);
  const CachedQuery* e = cm.Find(a);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->exact_hits, 1u);
  EXPECT_EQ(e->sub_hits, 1u);
  EXPECT_EQ(e->super_hits, 2u);  // kSuper + kEmptyProof
  EXPECT_EQ(e->tests_saved, 10u);
  EXPECT_EQ(e->hits, 4u);
  EXPECT_EQ(cm.stats().total_exact_hits, 1u);
  EXPECT_EQ(cm.stats().total_exact_hits_zero_test, 1u);
  EXPECT_EQ(cm.stats().total_sub_hits, 1u);
  EXPECT_EQ(cm.stats().total_super_hits, 1u);
  EXPECT_EQ(cm.stats().total_empty_shortcuts, 1u);
  EXPECT_EQ(cm.stats().total_tests_saved, 10u);
  // Credits against an evicted id keep the global counters (the hit did
  // happen) but touch no entry.
  cm.CreditHit(999, HitKind::kSub, 7, 5);
  EXPECT_EQ(cm.stats().total_sub_hits, 2u);
  EXPECT_EQ(cm.stats().total_tests_saved, 10u);
}

TEST(CacheManagerTest, HybridPolicyRecordsEffectiveChoice) {
  CacheManager cm(SmallOptions(1, 2, ReplacementPolicy::kHybrid));
  const CacheEntryId a = AdmitQuery(cm, 0, 5, 0, /*cost=*/1.0);
  cm.RecordBenefit(a, 100, 0);
  AdmitQuery(cm, 1, 5, 1, /*cost=*/1.0);  // merge with eviction
  const auto effective = cm.last_effective_policy();
  EXPECT_TRUE(effective == ReplacementPolicy::kPin ||
              effective == ReplacementPolicy::kPinc);
}

}  // namespace
}  // namespace gcp
