// FragmentStore — admit/merge/collision/credit/evict/validate/export/
// restore behaviour of the per-shard one-hop sub-pattern cache.

#include "cache/fragment_store.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../test_util.hpp"
#include "cache/cache_manager.hpp"
#include "dataset/log_analyzer.hpp"
#include "match/fragments.hpp"

namespace gcp {
namespace {

constexpr std::size_t kHorizon = 8;

std::unique_ptr<CachedQuery> MakeFragEntry(
    Label center, std::vector<Label> leaves,
    std::vector<std::size_t> answer_ids, std::vector<std::size_t> valid_ids,
    std::size_t horizon = kHorizon) {
  Graph star = MakeStarGraph(center, std::move(leaves));
  DynamicBitset answer(horizon);
  DynamicBitset valid(horizon);
  for (const std::size_t i : answer_ids) answer.Set(i);
  for (const std::size_t i : valid_ids) valid.Set(i);
  // Keyed by the star's labels, as the engine's fragment offers are.
  const std::uint64_t digest = StarDigest(star.labels());
  GraphFeatures features = GraphFeatures::Extract(star);
  return CacheManager::PrepareEntry(
      std::make_shared<const Graph>(std::move(star)),
      CachedQueryKind::kSubgraph, std::move(answer), std::move(valid), 1.0,
      digest, std::move(features));
}

TEST(FragmentStoreTest, ProbeFindsAdmittedStarAndRejectsMismatch) {
  FragmentStore store(8);
  StatisticsManager stats;
  auto entry = MakeFragEntry(1, {2, 3}, {0, 2}, {0, 1, 2});
  const std::uint64_t digest = entry->digest;
  const std::vector<Label> labels = entry->query->labels();
  EXPECT_EQ(digest, StarDigest(std::vector<Label>{1, 2, 3}));
  store.AdmitOrMerge(std::move(entry), /*now=*/1, stats);
  EXPECT_EQ(stats.fragment_admissions, 1u);
  EXPECT_EQ(store.size(), 1u);

  const CachedQuery* hit = store.Probe(digest, labels);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->answer.Test(0));
  EXPECT_FALSE(hit->answer.Test(1));
  EXPECT_EQ(store.Probe(digest + 1, labels), nullptr);
  // Same digest, different star: the label comparison refuses the alias.
  EXPECT_EQ(store.Probe(digest, std::vector<Label>{9, 9}), nullptr);
  EXPECT_EQ(store.Probe(digest, std::vector<Label>{1, 3, 2}), nullptr);
}

TEST(FragmentStoreTest, MergeUnionsValidAndOverwritesCoveredAnswers) {
  FragmentStore store(8);
  StatisticsManager stats;
  // Resident: valid {0,1}, answer {0}. Offer: valid {1,2,3}, answer {3}
  // (and claims bit 1 is a non-answer — fresher knowledge of bit 1).
  store.AdmitOrMerge(MakeFragEntry(1, {2}, {0}, {0, 1}), 1, stats);
  auto offer = MakeFragEntry(1, {2}, {3}, {1, 2, 3});
  const std::uint64_t digest = offer->digest;
  const std::vector<Label> labels = offer->query->labels();
  store.AdmitOrMerge(std::move(offer), 2, stats);
  EXPECT_EQ(stats.fragment_admissions, 1u);
  EXPECT_EQ(stats.fragment_merges, 1u);
  EXPECT_EQ(store.size(), 1u);

  const CachedQuery* e = store.Probe(digest, labels);
  ASSERT_NE(e, nullptr);
  for (const std::size_t i : {0, 1, 2, 3}) EXPECT_TRUE(e->valid.Test(i));
  EXPECT_FALSE(e->valid.Test(4));
  EXPECT_TRUE(e->answer.Test(0));    // outside offer.valid: kept
  EXPECT_FALSE(e->answer.Test(1));   // covered by offer: overwritten to 0
  EXPECT_FALSE(e->answer.Test(2));
  EXPECT_TRUE(e->answer.Test(3));    // offer's answer
}

TEST(FragmentStoreTest, TrueDigestCollisionDropsOffer) {
  FragmentStore store(8);
  StatisticsManager stats;
  auto first = MakeFragEntry(1, {2}, {0}, {0});
  const std::uint64_t digest = first->digest;
  const std::vector<Label> labels = first->query->labels();
  store.AdmitOrMerge(std::move(first), 1, stats);
  // Forge a key collision: a different star claiming the same digest.
  auto alias = MakeFragEntry(7, {8, 8}, {1}, {1});
  alias->digest = digest;
  store.AdmitOrMerge(std::move(alias), 2, stats);
  EXPECT_EQ(stats.fragment_digest_collisions, 1u);
  EXPECT_EQ(store.size(), 1u);
  const CachedQuery* e = store.Probe(digest, labels);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->answer.Test(0));  // the resident survived untouched
  EXPECT_FALSE(e->valid.Test(1));
}

TEST(FragmentStoreTest, CreditBumpsRecencyAndEvictionPicksColdest) {
  FragmentStore store(2);
  StatisticsManager stats;
  auto a = MakeFragEntry(1, {2}, {0}, {0});
  auto b = MakeFragEntry(3, {4}, {0}, {0});
  auto c = MakeFragEntry(5, {6}, {0}, {0});
  const std::uint64_t da = a->digest;
  const std::uint64_t db = b->digest;
  const std::vector<Label> la = a->query->labels();
  const std::vector<Label> lb = b->query->labels();
  store.AdmitOrMerge(std::move(a), 1, stats);
  store.AdmitOrMerge(std::move(b), 2, stats);
  // Credit makes `a` the warmer entry despite earlier admission.
  store.Credit(da, /*pruned=*/5, /*now=*/10, stats);
  EXPECT_EQ(stats.fragment_hits, 1u);
  EXPECT_EQ(stats.fragment_candidates_pruned, 5u);
  // Crediting an evicted/unknown digest is a no-op.
  store.Credit(0xdead, 1, 11, stats);
  EXPECT_EQ(stats.fragment_hits, 1u);

  store.AdmitOrMerge(std::move(c), 12, stats);
  EXPECT_EQ(stats.fragment_evictions, 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_NE(store.Probe(da, la), nullptr);  // credited: kept
  EXPECT_EQ(store.Probe(db, lb), nullptr);  // coldest: evicted
}

TEST(FragmentStoreTest, ValidateRelevantMatchesValidateAll) {
  // Same content in two stores; a change batch touching graphs 2 (mixed
  // ops) and 5 (UA-only) must leave identical valid/answer bits whether
  // reconciled brute-force or through the relevance screen.
  FragmentStore all(8);
  FragmentStore relevant(8);
  StatisticsManager stats_all;
  StatisticsManager stats_rel;
  struct Spec {
    Label center;
    std::vector<Label> leaves;
    std::vector<std::size_t> answer;
    std::vector<std::size_t> valid;
  };
  const std::vector<Spec> specs = {
      {1, {2}, {0, 2}, {0, 1, 2, 5}},
      {3, {4, 4}, {5}, {2, 3, 5}},
      {6, {1, 2, 3}, {}, {0, 1, 2, 3, 4, 5, 6, 7}},
  };
  for (const Spec& s : specs) {
    all.AdmitOrMerge(MakeFragEntry(s.center, s.leaves, s.answer, s.valid), 1,
                     stats_all);
    relevant.AdmitOrMerge(MakeFragEntry(s.center, s.leaves, s.answer, s.valid),
                          1, stats_rel);
  }
  ChangeCounters counters;
  counters.total[2] = 2;
  counters.edge_adds[2] = 1;
  counters.edge_removes[2] = 1;
  counters.total[5] = 1;
  counters.edge_adds[5] = 1;
  all.ValidateAll(counters, kHorizon, stats_all);
  relevant.ValidateRelevant(counters, kHorizon, stats_rel);

  std::vector<std::pair<DynamicBitset, DynamicBitset>> got_all;
  std::vector<std::pair<DynamicBitset, DynamicBitset>> got_rel;
  all.ForEach([&got_all](const CachedQuery& e) {
    got_all.emplace_back(e.valid, e.answer);
  });
  relevant.ForEach([&got_rel](const CachedQuery& e) {
    got_rel.emplace_back(e.valid, e.answer);
  });
  ASSERT_EQ(got_all.size(), got_rel.size());
  for (std::size_t i = 0; i < got_all.size(); ++i) {
    EXPECT_TRUE(got_all[i].first == got_rel[i].first);
    EXPECT_TRUE(got_all[i].second == got_rel[i].second);
  }
  // Reconcile accounting: brute force touches everything; the screen's
  // touched + skipped partitions the store.
  EXPECT_EQ(stats_all.fragment_reconcile_touched, specs.size());
  EXPECT_EQ(stats_all.fragment_reconcile_skipped, 0u);
  EXPECT_EQ(stats_rel.fragment_reconcile_touched +
                stats_rel.fragment_reconcile_skipped,
            specs.size());
}

TEST(FragmentStoreTest, PurgeForReconcileCountsAndClears) {
  FragmentStore store(8);
  StatisticsManager stats;
  store.AdmitOrMerge(MakeFragEntry(1, {2}, {0}, {0}), 1, stats);
  store.AdmitOrMerge(MakeFragEntry(3, {4}, {1}, {1}), 2, stats);
  store.PurgeForReconcile(stats);
  EXPECT_EQ(stats.fragment_reconcile_touched, 2u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.ApproxBytes(), 0u);
}

TEST(FragmentStoreTest, ExportRestoreRoundTripsAndRecomputesKeys) {
  FragmentStore store(8);
  StatisticsManager stats;
  store.AdmitOrMerge(MakeFragEntry(1, {2, 3}, {0, 3}, {0, 1, 3}), 1, stats);
  store.AdmitOrMerge(MakeFragEntry(4, {5}, {2}, {2, 6}), 2, stats);
  const std::uint64_t bytes = store.ApproxBytes();
  EXPECT_GT(bytes, 0u);

  std::vector<CachedQuery> exported = store.Export();
  ASSERT_EQ(exported.size(), 2u);
  // Ascending digest — the deterministic snapshot order.
  EXPECT_LT(exported[0].digest, exported[1].digest);
  std::vector<std::pair<DynamicBitset, DynamicBitset>> want;
  for (const CachedQuery& e : exported) want.emplace_back(e.answer, e.valid);
  // Tamper with a stored key: Restore must recompute it from the labels.
  const std::uint64_t true_digest = exported[0].digest;
  EXPECT_EQ(true_digest, StarDigest(exported[0].query->labels()));
  exported[0].digest = 0x1234;

  FragmentStore fresh(8);
  StatisticsManager fresh_stats;
  fresh.Restore(std::move(exported), fresh_stats);
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh_stats.restored_fragments, 2u);
  EXPECT_EQ(fresh.ApproxBytes(), bytes);
  std::size_t idx = 0;
  bool found = false;
  fresh.ForEach([&](const CachedQuery& e) {
    // Tampering did not stick.
    EXPECT_EQ(StarDigest(e.query->labels()), e.digest);
    ASSERT_LT(idx, want.size());
    EXPECT_TRUE(e.answer == want[idx].first);
    EXPECT_TRUE(e.valid == want[idx].second);
    found = found || e.digest == true_digest;
    ++idx;
  });
  EXPECT_TRUE(found);
}

TEST(FragmentStoreTest, RestoreKeepsBestWhenOverCapacity) {
  FragmentStore store(8);
  StatisticsManager stats;
  auto a = MakeFragEntry(1, {2}, {0}, {0});
  auto b = MakeFragEntry(3, {4}, {1}, {1});
  auto c = MakeFragEntry(5, {6}, {2}, {2});
  const std::uint64_t db = b->digest;
  store.AdmitOrMerge(std::move(a), 1, stats);
  store.AdmitOrMerge(std::move(b), 2, stats);
  store.AdmitOrMerge(std::move(c), 3, stats);
  store.Credit(db, /*pruned=*/100, /*now=*/4, stats);

  std::vector<CachedQuery> exported = store.Export();
  FragmentStore small(1);
  StatisticsManager small_stats;
  small.Restore(std::move(exported), small_stats);
  EXPECT_EQ(small.size(), 1u);
  bool kept_best = false;
  small.ForEach([&](const CachedQuery& e) {
    kept_best =
        e.digest == db && e.digest == StarDigest(std::vector<Label>{3, 4});
  });
  EXPECT_TRUE(kept_best);
}

TEST(FragmentStoreTest, RestoreDropsNonCanonicalStar) {
  FragmentStore store(8);
  StatisticsManager stats;
  store.AdmitOrMerge(MakeFragEntry(1, {2}, {0}, {0, 1}), 1, stats);
  std::vector<CachedQuery> exported = store.Export();
  ASSERT_EQ(exported.size(), 1u);
  // A checkpoint carrying a 3-vertex path labelled like the 2-leaf star
  // (2; 0, 1): same label sequence, different graph.
  const std::vector<Label> star_labels = {2, 0, 1};
  CachedQuery path = exported[0];
  path.query = std::make_shared<const Graph>(
      gcp::testing::MakeGraph(star_labels, {{0, 1}, {1, 2}}));
  path.digest = StarDigest(star_labels);
  exported.push_back(std::move(path));

  FragmentStore fresh(8);
  StatisticsManager fresh_stats;
  fresh.Restore(std::move(exported), fresh_stats);
  EXPECT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh_stats.restored_fragments, 1u);
  EXPECT_EQ(fresh.Probe(StarDigest(star_labels), star_labels), nullptr);
  const std::vector<Label> kept = {1, 2};
  EXPECT_NE(fresh.Probe(StarDigest(kept), kept), nullptr);
}

}  // namespace
}  // namespace gcp
