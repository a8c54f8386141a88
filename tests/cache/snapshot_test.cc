#include "cache/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "../test_util.hpp"
#include "core/graphcache_plus.hpp"

namespace gcp {
namespace {

using testing::MakeCycle;
using testing::MakePath;
using testing::MakeSingleton;

CacheSnapshot SampleSnapshot() {
  CacheSnapshot s;
  s.watermark = 7;
  s.id_horizon = 5;
  CachedQuery e;
  e.kind = CachedQueryKind::kSubgraph;
  e.query = std::make_shared<const Graph>(MakePath({0, 1, 2}));
  e.answer = DynamicBitset(5);
  e.answer.Set(1);
  e.answer.Set(3);
  e.valid = DynamicBitset(5, true);
  e.valid.Set(4, false);
  e.tests_saved = 42;
  e.hits = 9;
  e.exact_hits = 2;
  e.sub_hits = 3;
  e.super_hits = 4;
  e.admitted_at = 11;
  e.last_used_at = 13;
  e.est_test_cost_ms = 0.25;
  s.entries.push_back(std::move(e));
  CachedQuery super;
  super.kind = CachedQueryKind::kSupergraph;
  super.query = std::make_shared<const Graph>(MakeCycle({5, 5, 5}));
  super.answer = DynamicBitset(5);
  super.valid = DynamicBitset(5);
  s.entries.push_back(std::move(super));
  return s;
}

TEST(SnapshotTest, StreamRoundTrip) {
  const CacheSnapshot original = SampleSnapshot();
  std::ostringstream os;
  WriteCacheSnapshot(os, original);
  std::istringstream is(os.str());
  auto parsed = ReadCacheSnapshot(is);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const CacheSnapshot& s = parsed.value();
  EXPECT_EQ(s.watermark, 7u);
  EXPECT_EQ(s.id_horizon, 5u);
  ASSERT_EQ(s.entries.size(), 2u);
  const CachedQuery& e = s.entries[0];
  EXPECT_EQ(e.kind, CachedQueryKind::kSubgraph);
  EXPECT_EQ(*e.query, *original.entries[0].query);
  EXPECT_EQ(e.answer, original.entries[0].answer);
  EXPECT_EQ(e.valid, original.entries[0].valid);
  EXPECT_EQ(e.tests_saved, 42u);
  EXPECT_EQ(e.hits, 9u);
  EXPECT_EQ(e.exact_hits, 2u);
  EXPECT_EQ(e.sub_hits, 3u);
  EXPECT_EQ(e.super_hits, 4u);
  EXPECT_EQ(e.admitted_at, 11u);
  EXPECT_EQ(e.last_used_at, 13u);
  EXPECT_DOUBLE_EQ(e.est_test_cost_ms, 0.25);
  EXPECT_EQ(s.entries[1].kind, CachedQueryKind::kSupergraph);
}

TEST(SnapshotTest, RejectsGarbage) {
  {
    std::istringstream is("not a snapshot");
    EXPECT_EQ(ReadCacheSnapshot(is).status().code(), StatusCode::kCorruption);
  }
  {
    std::istringstream is("GCPCACHE v9\nwatermark 0\n");
    EXPECT_FALSE(ReadCacheSnapshot(is).ok());
  }
  {
    // Truncated entry block.
    std::istringstream is(
        "GCPCACHE v1\nwatermark 0\nhorizon 2\nentries 1\n"
        "entry kind=0 admitted=0 last_used=0 hits=0 tests_saved=0 exact=0 "
        "sub=0 super=0 cost=0\nanswer 00\nvalid 00\nt # 0\nv 0 1\n");
    EXPECT_EQ(ReadCacheSnapshot(is).status().code(), StatusCode::kCorruption);
  }
  {
    // answer/valid width mismatch.
    std::istringstream is(
        "GCPCACHE v1\nwatermark 0\nhorizon 2\nentries 1\n"
        "entry kind=0 admitted=0 last_used=0 hits=0 tests_saved=0 exact=0 "
        "sub=0 super=0 cost=0\nanswer 00\nvalid 000\nt # 0\nv 0 1\n"
        "endentry\n");
    EXPECT_EQ(ReadCacheSnapshot(is).status().code(), StatusCode::kCorruption);
  }
}

TEST(SnapshotTest, FragmentSectionRoundTripsAndV1DropsIt) {
  CacheSnapshot original = SampleSnapshot();
  CachedQuery f;
  f.kind = CachedQueryKind::kSubgraph;
  f.query = std::make_shared<const Graph>(MakePath({0, 1}));
  f.answer = DynamicBitset(5);
  f.answer.Set(2);
  f.valid = DynamicBitset(5, true);
  f.tests_saved = 3;
  original.fragments.push_back(std::move(f));
  {
    // v2 carries the fragment section.
    std::ostringstream os;
    WriteCacheSnapshot(os, original);
    std::istringstream is(os.str());
    auto parsed = ReadCacheSnapshot(is);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed.value().fragments.size(), 1u);
    const CachedQuery& g = parsed.value().fragments[0];
    EXPECT_EQ(*g.query, *original.fragments[0].query);
    EXPECT_EQ(g.answer, original.fragments[0].answer);
    EXPECT_EQ(g.valid, original.fragments[0].valid);
    EXPECT_EQ(g.tests_saved, 3u);
  }
  {
    // A v1 stream of the same cache loads with the whole-query entries
    // intact and the fragment store cold — the backward-compat contract.
    std::ostringstream os;
    WriteCacheSnapshot(os, original, /*version=*/1);
    EXPECT_EQ(os.str().find("fragment"), std::string::npos);
    std::istringstream is(os.str());
    auto parsed = ReadCacheSnapshot(is);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value().entries.size(), 2u);
    EXPECT_TRUE(parsed.value().fragments.empty());
  }
}

std::vector<Graph> Molecules() {
  return {MakePath({0, 0, 1}), MakePath({0, 1}), MakeCycle({0, 0, 0}),
          MakePath({2, 0, 1}), MakeSingleton(2)};
}

TEST(SnapshotTest, WarmRestartSkipsColdStart) {
  const std::string path = ::testing::TempDir() + "/gcp_snapshot_warm.txt";
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  {
    GraphDataset ds;
    ds.Bootstrap(Molecules());
    GraphCachePlus gc(&ds, opts);
    gc.SubgraphQuery(MakePath({0, 1}));
    ASSERT_TRUE(gc.SaveCache(path).ok());
  }
  // "Restart": fresh dataset of identical lineage, fresh GC+.
  GraphDataset ds;
  ds.Bootstrap(Molecules());
  GraphCachePlus gc(&ds, opts);
  ASSERT_TRUE(gc.LoadCache(path).ok());
  const QueryResult r = gc.SubgraphQuery(MakePath({0, 1}));
  EXPECT_TRUE(r.metrics.exact_hit);        // warm from the snapshot
  EXPECT_EQ(r.metrics.si_tests, 0u);
  EXPECT_EQ(r.answer, (std::vector<GraphId>{0, 1, 3}));
  std::remove(path.c_str());
}

TEST(SnapshotTest, WarmRestartRestoresFragments) {
  const std::string path = ::testing::TempDir() + "/gcp_snapshot_frag.txt";
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  {
    GraphDataset ds;
    ds.Bootstrap(Molecules());
    GraphCachePlus gc(&ds, opts);
    gc.SubgraphQuery(MakePath({0, 1}));  // miss → learns the 0–1 star
    gc.FlushMaintenance();
    ASSERT_GT(gc.CacheStatsSnapshot().fragment_admissions, 0u);
    ASSERT_TRUE(gc.SaveCache(path).ok());
  }
  GraphDataset ds;
  ds.Bootstrap(Molecules());
  GraphCachePlus gc(&ds, opts);
  ASSERT_TRUE(gc.LoadCache(path).ok());
  const StatisticsManager stats = gc.CacheStatsSnapshot();
  EXPECT_GT(stats.restored_fragments, 0u);
  EXPECT_GT(stats.approx_fragment_bytes, 0u);
  // A fresh pattern sharing the 0–1 one-hop star probes the restored
  // fragment: the warm tier engages without ever recomputing the star.
  const QueryResult r = gc.SubgraphQuery(MakePath({0, 1, 0}));
  EXPECT_GT(r.metrics.fragment_hits, 0u);
  EXPECT_TRUE(r.answer.empty());  // no molecule has a 0–1–0 path
  std::remove(path.c_str());
}

TEST(SnapshotTest, WarmRestartRoutesRestoredKeysToHomeShards) {
  // A file carries no digests; with several shards every restored entry
  // and fragment must still land where its lookups probe.
  const std::vector<Graph> queries = {MakePath({0, 1}), MakePath({0, 0}),
                                      MakePath({2, 0}), MakePath({0, 0, 1}),
                                      MakePath({2, 0, 1})};
  const std::string path = ::testing::TempDir() + "/gcp_snapshot_shards.txt";
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  opts.num_shards = 8;
  {
    GraphDataset ds;
    ds.Bootstrap(Molecules());
    GraphCachePlus gc(&ds, opts);
    for (const Graph& q : queries) gc.SubgraphQuery(q);
    gc.FlushMaintenance();
    ASSERT_TRUE(gc.SaveCache(path).ok());
  }
  GraphDataset ds;
  ds.Bootstrap(Molecules());
  GraphCachePlus gc(&ds, opts);
  ASSERT_TRUE(gc.LoadCache(path).ok());
  for (const Graph& q : queries) {
    const QueryResult r = gc.SubgraphQuery(q);
    EXPECT_TRUE(r.metrics.exact_hit);
    EXPECT_EQ(r.metrics.si_tests, 0u);
  }
  // Both one-hop stars of this new pattern, (0; 1) and (0; 0, 1), were
  // learned before the restart.
  const QueryResult r = gc.SubgraphQuery(MakePath({1, 0, 0, 1}));
  EXPECT_FALSE(r.metrics.exact_hit);
  EXPECT_EQ(r.metrics.fragment_hits, 2u);
  EXPECT_EQ(r.metrics.fragment_computed, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, StaleSnapshotReconciledThroughLog) {
  const std::string path = ::testing::TempDir() + "/gcp_snapshot_stale.txt";
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  GraphDataset ds;
  ds.Bootstrap(Molecules());
  {
    GraphCachePlus gc(&ds, opts);
    gc.SubgraphQuery(MakePath({0, 1}));  // answer {0,1,3}
    ASSERT_TRUE(gc.SaveCache(path).ok());
  }
  // Dataset changes AFTER the snapshot: graph 1 loses its only edge.
  ASSERT_TRUE(ds.RemoveEdge(1, 0, 1).ok());
  GraphCachePlus gc(&ds, opts);
  ASSERT_TRUE(gc.LoadCache(path).ok());
  // The restored entry's validity on graph 1 must be reconciled through
  // the change-log suffix before use — answer must be exact.
  const QueryResult r = gc.SubgraphQuery(MakePath({0, 1}));
  EXPECT_EQ(r.answer, (std::vector<GraphId>{0, 3}));
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveBeforeReconcileKeepsEntryWidth) {
  // A change that grows the id horizon is reconciled by the next query,
  // not by the save: the file must record the width its entries still
  // have, or the restore rejects it as corrupt.
  const std::string path = ::testing::TempDir() + "/gcp_snapshot_unsynced.txt";
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  GraphDataset ds;
  ds.Bootstrap(Molecules());
  {
    GraphCachePlus gc(&ds, opts);
    gc.SubgraphQuery(MakePath({0, 1}));  // answer {0,1,3}
    gc.ApplyDatasetChanges(
        [](GraphDataset& d) { d.AddGraph(MakePath({1, 0})); });  // id 5
    ASSERT_TRUE(gc.SaveCache(path).ok());
  }
  GraphCachePlus gc(&ds, opts);
  ASSERT_TRUE(gc.LoadCache(path).ok());
  EXPECT_GT(gc.CacheStatsSnapshot().restored_entries, 0u);
  // The next query replays the addition into the restored entry.
  const QueryResult r = gc.SubgraphQuery(MakePath({0, 1}));
  EXPECT_EQ(r.answer, (std::vector<GraphId>{0, 1, 3, 5}));
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadRejectsForeignLineage) {
  const std::string path = ::testing::TempDir() + "/gcp_snapshot_foreign.txt";
  GraphCachePlusOptions opts;
  {
    GraphDataset ds;
    ds.Bootstrap(Molecules());
    GraphCachePlus gc(&ds, opts);
    gc.SubgraphQuery(MakePath({0, 1}));
    // Make the saved watermark non-zero.
    ds.AddGraph(MakeSingleton(0));
    gc.SubgraphQuery(MakePath({0, 1}));
    ASSERT_TRUE(gc.SaveCache(path).ok());
  }
  // A fresh dataset whose log is behind the snapshot's watermark.
  GraphDataset ds;
  ds.Bootstrap(Molecules());
  GraphCachePlus gc(&ds, opts);
  EXPECT_EQ(gc.LoadCache(path).code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RestoreEntriesCapsAtCapacity) {
  CacheManager cm(CacheManagerOptions{2, 2, ReplacementPolicy::kPin, 1});
  std::vector<CachedQuery> entries(5);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].query =
        std::make_shared<const Graph>(MakePath({static_cast<Label>(i), 0}));
    entries[i].answer = DynamicBitset(3);
    entries[i].valid = DynamicBitset(3, true);
    entries[i].tests_saved = i;  // entry 4 is most valuable
  }
  cm.RestoreEntries(std::move(entries));
  EXPECT_EQ(cm.cache_size(), 2u);
  EXPECT_EQ(cm.window_size(), 0u);
  // The two highest-R entries survived.
  std::size_t max_r = 0;
  cm.ForEachEntry([&](const CachedQuery& e) {
    max_r = std::max<std::size_t>(max_r, e.tests_saved);
  });
  EXPECT_EQ(max_r, 4u);
}

}  // namespace
}  // namespace gcp
