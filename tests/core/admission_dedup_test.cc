// Drain-time dedup-or-refresh: every admission offer passes the
// digest-keyed twin lookup in its home shard before it may become an
// entry, so the cache holds at most one entry per isomorphism class.
//   * Dedup — the resident twin is fully valid over the live dataset. Two
//     concurrent executions of the same query can both miss the
//     read-phase exact-hit check and offer twins; the second offer is
//     dropped.
//   * Refresh — the resident twin is isomorphic but Algorithm 2 faded
//     some of its validity bits. The offer is forward-validated to the
//     store's watermark and merged into the twin (valid bits union, the
//     offer's answer overwrites its valid range), so the twin keeps its
//     benefit history and serves the next repeat as an exact hit.
//
// The tests make the race deterministic: the maintenance thread is given
// an hour-long timer and queues big enough that no pressure wakeup fires,
// so offers pile up unapplied until FlushMaintenance drains them in
// order.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/graphcache_plus.hpp"
#include "../test_util.hpp"

namespace gcp {
namespace {

GraphCachePlusOptions ParkedMaintenanceOptions(std::size_t shards,
                                               bool epoch_reads) {
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  opts.cache_capacity = 8;
  opts.window_capacity = 4;
  opts.num_shards = shards;
  opts.epoch_reads = epoch_reads;
  opts.maintenance_thread = true;
  // Park the drain thread: no timer tick within the test, and queues far
  // from the pressure threshold — offers stay queued until an explicit
  // flush.
  opts.maintenance_interval_us = 3'600'000'000ULL;
  opts.maintenance_queue_capacity = 64;
  return opts;
}

/// g0, g1 contain the A-B path; g2 (all-C path) does not and has a free
/// non-edge (0,2) to target with a UA later.
struct ParkedEngine {
  ParkedEngine(std::size_t shards, bool epoch_reads) {
    corpus.push_back(testing::MakePath({0, 1, 2}));  // A-B-C
    corpus.push_back(testing::MakeTriangle(0, 1, 2));
    corpus.push_back(testing::MakePath({2, 2, 2}));
    ds.Bootstrap(corpus);
    gc = std::make_unique<GraphCachePlus>(
        &ds, ParkedMaintenanceOptions(shards, epoch_reads));
  }

  std::vector<Graph> corpus;
  GraphDataset ds;
  std::unique_ptr<GraphCachePlus> gc;
  const Graph query = testing::MakePath({0, 1});  // A-B
};

class AdmissionDedupTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  ParkedEngine e_{GetParam(), /*epoch_reads=*/false};
  GraphCachePlus* const gc_ = e_.gc.get();
  const Graph& query_ = e_.query;
};

TEST_P(AdmissionDedupTest, SecondTwinOfferIsDroppedAtDrain) {
  // Two executions of the same query before any drain: both read phases
  // see an empty cache, both defer an admission offer.
  const auto a1 = gc_->SubgraphQuery(query_).answer;
  const auto a2 = gc_->SubgraphQuery(query_).answer;
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(gc_->cache_shards().resident(), 0u)
      << "offers must still be queued";

  gc_->FlushMaintenance();
  EXPECT_EQ(gc_->cache_shards().resident(), 1u)
      << "exactly one of the two isomorphic offers may be admitted";
  const StatisticsManager stats = gc_->CacheStatsSnapshot();
  EXPECT_EQ(stats.total_admissions, 1u);
  EXPECT_EQ(stats.total_admission_dedups, 1u);

  // A third execution now sees the resident twin: exact hit, no offer.
  gc_->SubgraphQuery(query_);
  gc_->FlushMaintenance();
  EXPECT_EQ(gc_->cache_shards().resident(), 1u);
  EXPECT_EQ(gc_->CacheStatsSnapshot().total_exact_hits, 1u);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, AdmissionDedupTest,
                         ::testing::Values(1u, 4u));

class AdmissionDedupRefreshTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {
 protected:
  ParkedEngine e_{std::get<0>(GetParam()), std::get<1>(GetParam())};
  GraphCachePlus* const gc_ = e_.gc.get();
  const Graph& query_ = e_.query;
};

TEST_P(AdmissionDedupRefreshTest, StaleTwinIsRefreshedInPlace) {
  // Admit the query once.
  gc_->SubgraphQuery(query_);
  gc_->FlushMaintenance();
  ASSERT_EQ(gc_->cache_shards().resident(), 1u);

  // UA on g2 — a live graph OUTSIDE the entry's answer — fades the
  // entry's validity bit for g2 at the next sync (edge additions only
  // preserve positive results for subgraph-query entries).
  gc_->ApplyDatasetChanges([](GraphDataset& d) {
    ASSERT_TRUE(d.AddEdge(2, 0, 2).ok());
  });

  // Two more executions: the resident twin is isomorphic but no longer
  // fully valid, so neither read phase takes the exact shortcut and both
  // defer offers.
  const QueryResult faded = gc_->SubgraphQuery(query_);
  EXPECT_FALSE(faded.metrics.exact_hit);
  gc_->SubgraphQuery(query_);
  gc_->FlushMaintenance();

  // The first offer refreshes the faded twin in place; the second finds
  // it fully valid again and is dedup-dropped. No second entry.
  EXPECT_EQ(gc_->cache_shards().resident(), 1u);
  StatisticsManager stats = gc_->CacheStatsSnapshot();
  EXPECT_EQ(stats.total_admissions, 1u);
  EXPECT_EQ(stats.total_admission_refreshes, 1u);
  EXPECT_EQ(stats.total_admission_dedups, 1u);
  EXPECT_EQ(stats.total_exact_hits, 0u);
  gc_->cache_shards().ForEachEntry([&](const CachedQuery& e) {
    EXPECT_TRUE(e.valid.All()) << "the refresh must restore full validity";
  });

  // A third execution is a zero-test exact hit on the refreshed twin,
  // and its answer is uncached Method M's.
  const QueryResult hit = gc_->SubgraphQuery(query_);
  EXPECT_TRUE(hit.metrics.exact_hit);
  EXPECT_EQ(hit.metrics.si_tests, 0u);
  MethodM reference(MatcherKind::kVf2, e_.ds);
  std::vector<GraphId> expected;
  reference.VerifyCandidates(query_, QueryKind::kSubgraph, e_.ds.LiveMask())
      .ForEachSetBit([&expected](std::size_t id) {
        expected.push_back(static_cast<GraphId>(id));
      });
  EXPECT_EQ(hit.answer, expected);
  EXPECT_EQ(faded.answer, expected);

  gc_->FlushMaintenance();
  stats = gc_->CacheStatsSnapshot();
  EXPECT_EQ(stats.total_exact_hits, 1u);
  EXPECT_EQ(stats.total_admissions, 1u);
  EXPECT_EQ(gc_->cache_shards().resident(), 1u);
  EXPECT_EQ(gc_->cache_shards().lock_violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ShardsByEpoch, AdmissionDedupRefreshTest,
                         ::testing::Combine(::testing::Values(1u, 4u),
                                            ::testing::Bool()));

}  // namespace
}  // namespace gcp
