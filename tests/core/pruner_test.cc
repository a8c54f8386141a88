// Candidate Set Pruner unit tests, including the paper's Figure 3(a) and
// 3(b) examples verbatim.

#include "core/pruner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "../test_util.hpp"

namespace gcp {
namespace {

using testing::MakePath;

DynamicBitset Bits(std::size_t n, std::initializer_list<std::size_t> set) {
  DynamicBitset b(n);
  for (const auto i : set) b.Set(i);
  return b;
}

DiscoveredHit MakeHitEntry(std::size_t horizon,
                           std::initializer_list<std::size_t> answer,
                           std::initializer_list<std::size_t> valid) {
  DiscoveredHit e;
  e.id = 1;
  e.answer = Bits(horizon, answer);
  e.valid = Bits(horizon, valid);
  return e;
}

TEST(PrunerTest, NoHitsKeepsCandidatesIntact) {
  DiscoveredHits hits;
  const DynamicBitset csm = Bits(5, {1, 2, 3, 4});
  QueryMetrics m;
  const PruneOutcome out = CandidateSetPruner::Prune(hits, csm, &m);
  EXPECT_FALSE(out.direct);
  EXPECT_EQ(out.candidates, csm);
  EXPECT_TRUE(out.answer_direct.None());
  EXPECT_EQ(out.saved_positive, 0u);
  EXPECT_EQ(out.saved_pruning, 0u);
  EXPECT_EQ(m.candidates_final, 4u);
}

TEST(PrunerTest, PaperFigure3aSubgraphCase) {
  // CS_M(g) = {G1, G2, G3, G4}; cached g' with g ⊆ g',
  // Answer(g') = {G2, G3}, CGvalid(g') = {G2}.
  // Expected: Answer_sub = {G2}; CS = {G1, G3, G4}.
  const DynamicBitset csm = Bits(5, {1, 2, 3, 4});
  const DiscoveredHit g_prime = MakeHitEntry(5, /*answer=*/{2, 3},
                                           /*valid=*/{2});
  DiscoveredHits hits;
  hits.positive.push_back(g_prime);
  QueryMetrics m;
  const PruneOutcome out = CandidateSetPruner::Prune(hits, csm, &m);
  EXPECT_FALSE(out.direct);
  EXPECT_EQ(out.answer_direct, Bits(5, {2}));
  EXPECT_EQ(out.candidates, Bits(5, {1, 3, 4}));
  EXPECT_EQ(out.saved_positive, 1u);
  EXPECT_EQ(out.saved_pruning, 0u);
}

TEST(PrunerTest, PaperFigure3bSupergraphCase) {
  // CS_M(g) = {G1, G2, G3, G4}; cached g'' with g'' ⊆ g,
  // Answer(g'') = {G2, G3}, CGvalid(g'') = {G2, G3, G4}.
  // Formula (4): ¬CGvalid ∪ Answer = {G0, G1} ∪ {G2, G3} (over horizon 5).
  // Expected: CS = CS_M ∩ that = {G1, G2, G3} — G4 is sub-iso test free.
  const DynamicBitset csm = Bits(5, {1, 2, 3, 4});
  const DiscoveredHit g_dprime = MakeHitEntry(5, /*answer=*/{2, 3},
                                            /*valid=*/{2, 3, 4});
  DiscoveredHits hits;
  hits.pruning.push_back(g_dprime);
  QueryMetrics m;
  const PruneOutcome out = CandidateSetPruner::Prune(hits, csm, &m);
  EXPECT_FALSE(out.direct);
  EXPECT_TRUE(out.answer_direct.None());
  EXPECT_EQ(out.candidates, Bits(5, {1, 2, 3}));
  EXPECT_EQ(out.saved_positive, 0u);
  EXPECT_EQ(out.saved_pruning, 1u);
}

TEST(PrunerTest, CombinedSubThenSuper) {
  // §6.3 "putting it all together": formula (2) first, then (5).
  const DynamicBitset csm = Bits(6, {0, 1, 2, 3, 4, 5});
  const DiscoveredHit positive = MakeHitEntry(6, {0, 1}, {0, 1, 2, 3, 4, 5});
  const DiscoveredHit pruning = MakeHitEntry(6, {0, 1, 2}, {0, 1, 2, 3, 4});
  // positive: transfers {0,1}; remaining CS = {2,3,4,5};
  // pruning: possible = ¬{0..4} ∪ {0,1,2} = {0,1,2,5}; CS ∩ = {2,5}.
  DiscoveredHits hits;
  hits.positive.push_back(positive);
  hits.pruning.push_back(pruning);
  QueryMetrics m;
  const PruneOutcome out = CandidateSetPruner::Prune(hits, csm, &m);
  EXPECT_EQ(out.answer_direct, Bits(6, {0, 1}));
  EXPECT_EQ(out.candidates, Bits(6, {2, 5}));
  EXPECT_EQ(out.saved_positive, 2u);
  EXPECT_EQ(out.saved_pruning, 2u);
  EXPECT_EQ(m.tests_saved_sub, 2u);
  EXPECT_EQ(m.tests_saved_super, 2u);
}

TEST(PrunerTest, MultiplePositiveHitsUnion) {
  // Formula (1) is a union over all sub-hits.
  const DynamicBitset csm = Bits(4, {0, 1, 2, 3});
  const DiscoveredHit h1 = MakeHitEntry(4, {0, 1}, {0, 3});   // contributes {0}
  const DiscoveredHit h2 = MakeHitEntry(4, {1, 2}, {1, 2});   // contributes {1,2}
  DiscoveredHits hits;
  hits.positive.push_back(h1);
  hits.positive.push_back(h2);
  const PruneOutcome out = CandidateSetPruner::Prune(hits, csm, nullptr);
  EXPECT_EQ(out.answer_direct, Bits(4, {0, 1, 2}));
  EXPECT_EQ(out.candidates, Bits(4, {3}));
}

TEST(PrunerTest, MultiplePruningHitsIntersect) {
  // Formula (5) intersects over all super-hits.
  const DynamicBitset csm = Bits(4, {0, 1, 2, 3});
  const DiscoveredHit h1 = MakeHitEntry(4, {0, 1}, {0, 1, 2, 3});  // possible {0,1}
  const DiscoveredHit h2 = MakeHitEntry(4, {1, 2}, {0, 1, 2, 3});  // possible {1,2}
  DiscoveredHits hits;
  hits.pruning.push_back(h1);
  hits.pruning.push_back(h2);
  const PruneOutcome out = CandidateSetPruner::Prune(hits, csm, nullptr);
  EXPECT_EQ(out.candidates, Bits(4, {1}));
  EXPECT_EQ(out.saved_pruning, 3u);
}

TEST(PrunerTest, InvalidBitsNeutralizePruningHit) {
  // A fully-invalid pruning hit may not eliminate anything: formula (4)
  // complement covers the whole horizon.
  const DynamicBitset csm = Bits(3, {0, 1, 2});
  const DiscoveredHit h = MakeHitEntry(3, {}, {});  // valid = ∅
  DiscoveredHits hits;
  hits.pruning.push_back(h);
  const PruneOutcome out = CandidateSetPruner::Prune(hits, csm, nullptr);
  EXPECT_EQ(out.candidates, csm);
}

TEST(PrunerTest, ExactHitShortCircuits) {
  // §6.3 case 1 never reaches the pruner: the digest-keyed twin lookup
  // answers the query before discovery, with nothing left to verify.
  const DynamicBitset csm = Bits(4, {0, 1, 3});
  CacheManager cache(CacheManagerOptions{});
  ASSERT_TRUE(cache
                  .Admit(MakePath({0, 1}), CachedQueryKind::kSubgraph,
                         Bits(4, {1, 2}), Bits(4, {0, 1, 2, 3}), /*now=*/0,
                         /*est_test_cost_ms=*/1.0)
                  .ok());
  const std::unique_ptr<SubgraphMatcher> matcher =
      MakeMatcher(MatcherKind::kVf2Plus);
  const GraphCachePlusOptions options;
  const HitDiscovery discovery(*matcher, options);
  QueryMetrics m;
  const std::optional<ExactHit> exact = discovery.FindExact(
      MakePath({0, 1}), QueryKind::kSubgraph, cache, csm, &m);
  ASSERT_TRUE(exact.has_value());
  // Answer restricted to live graphs: {1, 2} ∩ {0, 1, 3} = {1}.
  EXPECT_EQ(exact->answer, Bits(4, {1}));
  EXPECT_EQ(exact->tests_saved, 3u);  // all |CS_M| tests alleviated
  EXPECT_TRUE(m.exact_hit);
  EXPECT_EQ(m.tests_saved_sub, 3u);
  EXPECT_EQ(m.candidates_final, 0u);
}

TEST(PrunerTest, EmptyProofShortCircuits) {
  const DynamicBitset csm = Bits(4, {0, 1, 2, 3});
  DiscoveredHit proof = MakeHitEntry(4, {}, {0, 1, 2, 3});
  DiscoveredHits hits;
  hits.empty_proof = proof;
  QueryMetrics m;
  const PruneOutcome out = CandidateSetPruner::Prune(hits, csm, &m);
  EXPECT_TRUE(out.direct);
  EXPECT_TRUE(out.answer_direct.None());
  EXPECT_TRUE(out.candidates.None());
  EXPECT_EQ(out.saved_pruning, 4u);
}

TEST(PrunerTest, EmptyCsmDegenerate) {
  DiscoveredHits hits;
  const DynamicBitset csm(0);
  const PruneOutcome out = CandidateSetPruner::Prune(hits, csm, nullptr);
  EXPECT_TRUE(out.candidates.None());
  EXPECT_TRUE(out.answer_direct.None());
}

}  // namespace
}  // namespace gcp
