// Equivalence of the inverted feature-signature index with a brute-force
// scan of the resident entries (the test-local reference below): across
// randomized insert/erase churn both must return exactly the same
// candidate sets for both containment directions, and the digest map must
// track residency.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/query_index.hpp"
#include "common/rng.hpp"
#include "graph/canonical.hpp"
#include "graph/generators.hpp"
#include "workload/query_gen.hpp"

namespace gcp {
namespace {

std::unique_ptr<CachedQuery> MakeEntry(CacheEntryId id, Graph q) {
  auto e = std::make_unique<CachedQuery>();
  e->id = id;
  e->features = GraphFeatures::Extract(q);
  e->digest = WlDigest(q);
  e->query = std::make_shared<const Graph>(std::move(q));
  return e;
}

std::vector<CacheEntryId> SortedIds(
    const std::vector<const CachedQuery*>& entries) {
  std::vector<CacheEntryId> ids;
  ids.reserve(entries.size());
  for (const CachedQuery* e : entries) ids.push_back(e->id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Reference for SupergraphCandidates (`supergraphs`: entries that could
/// contain `g`) or SubgraphCandidates: the dominance check applied to
/// every resident entry.
std::vector<CacheEntryId> ScanIds(
    const std::vector<std::unique_ptr<CachedQuery>>& owned,
    const std::vector<std::size_t>& resident, const GraphFeatures& g,
    bool supergraphs) {
  std::vector<const CachedQuery*> out;
  for (const std::size_t i : resident) {
    const GraphFeatures& f = owned[i]->features;
    if (supergraphs ? g.CouldBeSubgraphOf(f) : f.CouldBeSubgraphOf(g)) {
      out.push_back(owned[i].get());
    }
  }
  return SortedIds(out);
}

class QueryIndexEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryIndexEquivalenceTest, IndexedEqualsScanUnderChurn) {
  Rng rng(GetParam());
  QueryIndex index;
  std::vector<std::unique_ptr<CachedQuery>> owned;  // insertion order
  std::vector<std::size_t> resident;                // indices into owned
  CacheEntryId next_id = 1;

  auto random_graph = [&rng]() {
    // Sizes straddle the band boundaries (powers of two) on purpose.
    return RandomConnectedGraph(rng, 2 + rng.UniformBelow(30),
                                rng.UniformBelow(8), 3);
  };

  for (int step = 0; step < 300; ++step) {
    // Churn: mostly inserts early, erase pressure grows with residency.
    const bool do_erase =
        !resident.empty() && rng.UniformBelow(100) < 20 + resident.size();
    if (do_erase) {
      const std::size_t pick = rng.UniformBelow(resident.size());
      index.Erase(owned[resident[pick]]->id);
      resident.erase(resident.begin() + static_cast<long>(pick));
    } else {
      owned.push_back(MakeEntry(next_id++, random_graph()));
      resident.push_back(owned.size() - 1);
      index.Insert(owned.back().get());
    }
    ASSERT_EQ(index.size(), resident.size());

    if (step % 10 != 0) continue;
    // Probe with fresh random graphs and with residents' own features
    // (exact-boundary probes).
    std::vector<GraphFeatures> probes;
    for (int i = 0; i < 4; ++i) {
      probes.push_back(GraphFeatures::Extract(random_graph()));
    }
    if (!resident.empty()) {
      probes.push_back(
          owned[resident[rng.UniformBelow(resident.size())]]->features);
    }
    for (const GraphFeatures& probe : probes) {
      EXPECT_EQ(SortedIds(index.SupergraphCandidates(probe)),
                ScanIds(owned, resident, probe, /*supergraphs=*/true));
      EXPECT_EQ(SortedIds(index.SubgraphCandidates(probe)),
                ScanIds(owned, resident, probe, /*supergraphs=*/false));
    }
  }

  // Digest matches reflect exactly the resident population.
  for (const std::size_t i : resident) {
    const auto matches = index.DigestMatches(owned[i]->digest);
    EXPECT_TRUE(std::any_of(
        matches.begin(), matches.end(),
        [&](const CachedQuery* e) { return e->id == owned[i]->id; }));
  }
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  if (!owned.empty()) {
    EXPECT_TRUE(index.DigestMatches(owned.front()->digest).empty());
    EXPECT_TRUE(
        index.SupergraphCandidates(owned.front()->features).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryIndexEquivalenceTest,
                         ::testing::Values(47001, 47002, 47003));

}  // namespace
}  // namespace gcp
