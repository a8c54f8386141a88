#include "core/processors.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "graph/canonical.hpp"

namespace gcp {
namespace {

using testing::MakePath;
using testing::MakeSingleton;

class ProcessorsTest : public ::testing::Test {
 protected:
  ProcessorsTest()
      : matcher_(MakeMatcher(MatcherKind::kVf2Plus)),
        cache_(CacheManagerOptions{100, 100, ReplacementPolicy::kPin, 1}) {}

  HitDiscovery MakeDiscovery() { return HitDiscovery(*matcher_, options_); }

  // Admits an entry with given answer/valid bits over `horizon`.
  CacheEntryId AdmitEntry(Graph q, std::size_t horizon,
                          std::initializer_list<std::size_t> answer,
                          std::initializer_list<std::size_t> valid_off = {},
                          CachedQueryKind kind = CachedQueryKind::kSubgraph) {
    DynamicBitset a(horizon);
    for (const auto i : answer) a.Set(i);
    DynamicBitset v(horizon, true);
    for (const auto i : valid_off) v.Set(i, false);
    return cache_
        .Admit(std::move(q), kind, std::move(a), std::move(v),
               /*now=*/0, /*cost=*/1.0)
        .value();
  }

  std::unique_ptr<SubgraphMatcher> matcher_;
  GraphCachePlusOptions options_;
  CacheManager cache_;
};

TEST_F(ProcessorsTest, EmptyCacheFindsNothing) {
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), &m);
  EXPECT_TRUE(hits.positive.empty());
  EXPECT_TRUE(hits.pruning.empty());
  EXPECT_FALSE(hits.empty_proof.has_value());
  EXPECT_FALSE(d.FindExact(MakePath({0, 1}), QueryKind::kSubgraph, cache_,
                           DynamicBitset(4, true), &m)
                   .has_value());
  EXPECT_EQ(m.sub_hits, 0u);
  EXPECT_EQ(m.super_hits, 0u);
}

TEST_F(ProcessorsTest, FindsPositiveHitForSubgraphQuery) {
  // Cached g' = A-B-C; query g = A-B. g ⊆ g' with non-empty valid answer.
  AdmitEntry(MakePath({0, 1, 2}), 4, {1, 2});
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), &m);
  ASSERT_EQ(hits.positive.size(), 1u);
  EXPECT_EQ(m.sub_hits, 1u);
  EXPECT_TRUE(hits.pruning.empty());
}

TEST_F(ProcessorsTest, FindsPruningHitForSubgraphQuery) {
  // Cached g'' = A; query g = A-B. g'' ⊆ g; g'' knows non-answers.
  AdmitEntry(MakeSingleton(0), 4, {1, 2});  // graphs 0,3 are valid negatives
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), &m);
  ASSERT_EQ(hits.pruning.size(), 1u);
  EXPECT_EQ(m.super_hits, 1u);
}

TEST_F(ProcessorsTest, RolesFlipForSupergraphQuery) {
  // For a supergraph query, a cached SUBGRAPH-kind entry is ignored, and a
  // cached supergraph-kind entry g'' ⊆ g becomes a positive hit.
  AdmitEntry(MakeSingleton(0), 4, {1}, {}, CachedQueryKind::kSupergraph);
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSupergraph, cache_,
                                         DynamicBitset(4, true), &m);
  ASSERT_EQ(hits.positive.size(), 1u);
  EXPECT_TRUE(hits.pruning.empty());
  // Role-corrected metric naming: positive hits of a supergraph query are
  // GC+super-style hits.
  EXPECT_EQ(m.super_hits, 1u);
  EXPECT_EQ(m.sub_hits, 0u);
}

TEST_F(ProcessorsTest, KindMismatchNeverHits) {
  AdmitEntry(MakePath({0, 1, 2}), 4, {1, 2}, {},
             CachedQueryKind::kSupergraph);
  const HitDiscovery d = MakeDiscovery();
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), nullptr);
  EXPECT_TRUE(hits.positive.empty());
  EXPECT_TRUE(hits.pruning.empty());
}

TEST_F(ProcessorsTest, ExactHitRequiresFullValidity) {
  // Same query resident but with one invalid bit ⇒ the twin lookup finds
  // no exact hit; discovery still serves the twin as a plain positive hit.
  AdmitEntry(MakePath({0, 1}), 4, {1, 2}, /*valid_off=*/{3});
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  EXPECT_FALSE(d.FindExact(MakePath({0, 1}), QueryKind::kSubgraph, cache_,
                           DynamicBitset(4, true), &m)
                   .has_value());
  EXPECT_FALSE(m.exact_hit);
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), &m);
  EXPECT_EQ(hits.positive.size(), 1u);
  // Validity only needs to cover CS_M: with graph 3 outside it, the same
  // twin is an exact hit.
  DynamicBitset csm(4, true);
  csm.Set(3, false);
  EXPECT_TRUE(d.FindExact(MakePath({0, 1}), QueryKind::kSubgraph, cache_,
                          csm, &m)
                  .has_value());
}

TEST_F(ProcessorsTest, ExactHitDetectedWithFullValidity) {
  const CacheEntryId twin = AdmitEntry(MakePath({0, 1}), 4, {1, 2});
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  // Query is an isomorphic relabelling of vertex order (same path).
  const std::optional<ExactHit> exact =
      d.FindExact(MakePath({1, 0}), QueryKind::kSubgraph, cache_,
                  DynamicBitset(4, true), &m);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->id, twin);
  EXPECT_TRUE(m.exact_hit);
  DynamicBitset expected(4);
  expected.Set(1);
  expected.Set(2);
  EXPECT_EQ(exact->answer, expected);
  // The drain-side half of the lookup sees the same single twin.
  const Graph q = MakePath({1, 0});
  const auto twins =
      d.TwinCandidates(q, WlDigest(q), CachedQueryKind::kSubgraph, cache_);
  ASSERT_EQ(twins.size(), 1u);
  EXPECT_TRUE(d.IsTwin(q, *twins[0]->query));
}

TEST_F(ProcessorsTest, ExactHitIgnoredWhenDisabled) {
  AdmitEntry(MakePath({0, 1}), 4, {1, 2});
  options_.enable_exact_shortcut = false;
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  EXPECT_FALSE(d.FindExact(MakePath({0, 1}), QueryKind::kSubgraph, cache_,
                           DynamicBitset(4, true), &m)
                   .has_value());
  // The drain-side dedup/refresh is off with it.
  const Graph q = MakePath({0, 1});
  EXPECT_TRUE(
      d.TwinCandidates(q, WlDigest(q), CachedQueryKind::kSubgraph, cache_)
          .empty());
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), &m);
  EXPECT_EQ(hits.positive.size(), 1u);  // falls back to a plain hit
}

TEST_F(ProcessorsTest, ExactHitRequiresSameKind) {
  // An isomorphic SUPERgraph-query entry answers a different question.
  AdmitEntry(MakePath({0, 1}), 4, {1, 2}, {}, CachedQueryKind::kSupergraph);
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  EXPECT_FALSE(d.FindExact(MakePath({0, 1}), QueryKind::kSubgraph, cache_,
                           DynamicBitset(4, true), &m)
                   .has_value());
  EXPECT_TRUE(d.FindExact(MakePath({0, 1}), QueryKind::kSupergraph, cache_,
                          DynamicBitset(4, true), &m)
                  .has_value());
}

TEST_F(ProcessorsTest, EmptyProofDetected) {
  // Cached g'' = A with empty answer, fully valid ⇒ any supergraph of g''
  // provably has an empty answer.
  AdmitEntry(MakeSingleton(0), 4, {});
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), &m);
  ASSERT_TRUE(hits.empty_proof.has_value());
  EXPECT_TRUE(m.empty_shortcut);
}

TEST_F(ProcessorsTest, EmptyProofRequiresFullValidity) {
  AdmitEntry(MakeSingleton(0), 4, {}, /*valid_off=*/{2});
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), &m);
  EXPECT_FALSE(hits.empty_proof.has_value());
  // Not even a pruning hit when nothing can be eliminated… here bits
  // {0,1,3} are valid negatives, so it still prunes.
  EXPECT_EQ(hits.pruning.size(), 1u);
}

TEST_F(ProcessorsTest, EmptyProofIgnoredWhenDisabled) {
  AdmitEntry(MakeSingleton(0), 4, {});
  options_.enable_empty_answer_shortcut = false;
  const HitDiscovery d = MakeDiscovery();
  QueryMetrics m;
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), &m);
  EXPECT_FALSE(hits.empty_proof.has_value());
  EXPECT_EQ(hits.pruning.size(), 1u);  // full pruning is equivalent here
}

TEST_F(ProcessorsTest, HitCapsRespected) {
  // Five distinct supergraphs of the query; cap positive hits at 2.
  AdmitEntry(MakePath({0, 1, 2}), 4, {0});
  AdmitEntry(MakePath({0, 1, 3}), 4, {1});
  AdmitEntry(MakePath({0, 1, 4}), 4, {2});
  AdmitEntry(MakePath({0, 1, 5}), 4, {3});
  const CacheEntryId best = AdmitEntry(MakePath({0, 1, 6}), 4, {0, 1});
  options_.max_sub_hits = 2;
  const HitDiscovery d = MakeDiscovery();
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), nullptr);
  EXPECT_EQ(hits.positive.size(), 2u);
  // Utility ordering: the entry transferring 2 answers is taken first.
  EXPECT_EQ(hits.positive[0].id, best);
}

TEST_F(ProcessorsTest, ZeroUtilityEntriesSkipped) {
  // A supergraph of the query whose valid answers are all turned off
  // cannot help and must not be verified/collected.
  AdmitEntry(MakePath({0, 1, 2}), 4, {1, 2}, /*valid_off=*/{0, 1, 2, 3});
  const HitDiscovery d = MakeDiscovery();
  const DiscoveredHits hits = d.Discover(MakePath({0, 1}),
                                         QueryKind::kSubgraph, cache_,
                                         DynamicBitset(4, true), nullptr);
  EXPECT_TRUE(hits.positive.empty());
}

TEST_F(ProcessorsTest, CollectShardSurvivorsShareResidentGraphs) {
  // Survivors alias the resident entry's immutable graph (a refcount bump
  // under the shard lock); none is a deep copy. Both roles, both kinds.
  for (const CachedQueryKind kind :
       {CachedQueryKind::kSubgraph, CachedQueryKind::kSupergraph}) {
    AdmitEntry(MakePath({0, 1, 2}), 4, {1, 2}, {}, kind);
    AdmitEntry(MakeSingleton(0), 4, {1, 2}, {}, kind);
  }
  const HitDiscovery d = MakeDiscovery();
  const GraphFeatures features = GraphFeatures::Extract(MakePath({0, 1}));
  for (const QueryKind kind : {QueryKind::kSubgraph, QueryKind::kSupergraph}) {
    std::vector<HitDiscovery::Candidate> survivors;
    d.CollectShard(features, kind, cache_, DynamicBitset(4, true), &survivors,
                   nullptr);
    ASSERT_EQ(survivors.size(), 2u);
    EXPECT_NE(survivors[0].positive_role, survivors[1].positive_role);
    for (const HitDiscovery::Candidate& c : survivors) {
      const CachedQuery* e = cache_.Find(c.id);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(c.query.get(), e->query.get()) << "entry " << c.id;
    }
  }
}

}  // namespace
}  // namespace gcp
