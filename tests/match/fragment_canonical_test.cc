// Fragment canonicalization — the identity the fragment cache hangs off.
//
// The store keys fragments by StarDigest(canonical label sequence) with a
// label-sequence comparison behind the lookup, so correctness needs
// exactly two properties: (a) isomorphic stars canonicalize to identical
// label sequences and bit-identical star graphs (key stability — a hit is
// found no matter how the query was laid out), and (b) non-isomorphic
// small stars never share both key and label sequence (collision sanity —
// checked exhaustively against a brute-force isomorphism oracle on the
// small-star universe).

#include "match/fragments.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "../test_util.hpp"
#include "graph/canonical.hpp"
#include "match/matcher.hpp"

namespace gcp {
namespace {

using gcp::testing::MakeGraph;
using gcp::testing::MakePath;
using gcp::testing::MakeStar;

bool SameGraph(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    if (a.label(v) != b.label(v)) return false;
  }
  return a.Edges() == b.Edges();
}

/// Relabels g's vertices through `perm` (vertex v becomes perm[v]) and
/// shuffles the edge list — an isomorphic copy with a different layout.
Graph Permuted(const Graph& g, const std::vector<VertexId>& perm,
               std::mt19937_64& rng) {
  std::vector<Label> labels(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    labels[perm[v]] = g.label(v);
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (const auto& [u, v] : g.Edges()) {
    edges.emplace_back(perm[u], perm[v]);
  }
  std::shuffle(edges.begin(), edges.end(), rng);
  auto r = Graph::Create(std::move(labels), edges);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(FragmentCanonicalTest, StarGraphIdenticalAcrossLeafOrderings) {
  const Graph a = MakeStarGraph(5, {3, 1, 2, 1});
  const Graph b = MakeStarGraph(5, {1, 2, 1, 3});
  const Graph c = MakeStarGraph(5, {1, 1, 2, 3});
  EXPECT_TRUE(SameGraph(a, b));
  EXPECT_TRUE(SameGraph(a, c));
  EXPECT_EQ(WlDigest(a), WlDigest(b));
  EXPECT_EQ(a.label(0), 5u);  // center is always vertex 0
}

TEST(FragmentCanonicalTest, DigestsStableUnderVertexPermutation) {
  std::mt19937_64 rng(7);
  const Graph graphs[] = {
      MakePath({1, 2, 3, 4, 5}),
      MakeStar({9, 1, 1, 2, 3}),
      MakeGraph({0, 1, 2, 0, 1},
                {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}),
  };
  for (const Graph& g : graphs) {
    const std::vector<Fragment> base = DecomposeToFragments(g, 8);
    ASSERT_FALSE(base.empty());
    std::vector<VertexId> perm(g.NumVertices());
    std::iota(perm.begin(), perm.end(), 0);
    for (int trial = 0; trial < 20; ++trial) {
      std::shuffle(perm.begin(), perm.end(), rng);
      const Graph p = Permuted(g, perm, rng);
      const std::vector<Fragment> got = DecomposeToFragments(p, 8);
      ASSERT_EQ(base.size(), got.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        // Same keys in the same order: the cap's selection and the cache
        // keys cannot depend on input layout.
        EXPECT_EQ(base[i].labels, got[i].labels);
        EXPECT_EQ(base[i].digest, got[i].digest);
      }
    }
  }
}

TEST(FragmentCanonicalTest, ExhaustiveSmallStarsMatchIsomorphismOracle) {
  // Universe: every star with center label in {0,1,2} and 1..3 leaves
  // drawn (with repetition, order-free) from {0,1,2}. Two stars are
  // isomorphic iff their (center, leaf multiset) keys are equal — that is
  // the complete-invariant claim the cache relies on. Cross-check the
  // canonical layer against it, and against an independent matcher-based
  // oracle (mutual containment of equal-size graphs = isomorphism).
  struct Star {
    Label center;
    std::vector<Label> leaves;  // sorted
    Graph canonical;
    std::uint64_t digest;
  };
  std::vector<Star> universe;
  const std::vector<std::vector<Label>> multisets = {
      {0},       {1},       {2},       {0, 0},    {0, 1},    {0, 2},
      {1, 1},    {1, 2},    {2, 2},    {0, 0, 0}, {0, 0, 1}, {0, 0, 2},
      {0, 1, 1}, {0, 1, 2}, {0, 2, 2}, {1, 1, 1}, {1, 1, 2}, {1, 2, 2},
      {2, 2, 2}};
  for (Label center = 0; center < 3; ++center) {
    for (const auto& leaves : multisets) {
      Star s;
      s.center = center;
      s.leaves = leaves;
      // The key invariant holds after the single-edge normalization the
      // canonical layer applies (an unrooted edge has no distinguished
      // center): fold (a, {b}) with b < a onto (b, {a}).
      if (s.leaves.size() == 1 && s.leaves[0] < s.center) {
        std::swap(s.center, s.leaves[0]);
      }
      s.canonical = MakeStarGraph(center, leaves);  // pre-normalized input
      s.digest = StarDigest(s.canonical.labels());
      // The canonical graph's labels are the fragment's label sequence,
      // and it is the one graph restore accepts for them.
      std::vector<Label> sequence = {s.center};
      sequence.insert(sequence.end(), s.leaves.begin(), s.leaves.end());
      EXPECT_EQ(s.canonical.labels(), sequence);
      EXPECT_TRUE(IsCanonicalStar(s.canonical));
      universe.push_back(std::move(s));
    }
  }
  const auto matcher = MakeMatcher(MatcherKind::kVf2);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    for (std::size_t j = 0; j < universe.size(); ++j) {
      const Star& a = universe[i];
      const Star& b = universe[j];
      const bool iso_by_key = a.center == b.center && a.leaves == b.leaves;
      const bool iso_by_matcher =
          a.canonical.NumVertices() == b.canonical.NumVertices() &&
          matcher->Contains(a.canonical, b.canonical) &&
          matcher->Contains(b.canonical, a.canonical);
      ASSERT_EQ(iso_by_key, iso_by_matcher)
          << "key invariant disagrees with the matcher oracle";
      if (iso_by_key) {
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_TRUE(SameGraph(a.canonical, b.canonical));
      } else {
        // Distinct fragments must be distinguishable by the store's
        // lookup: key differs, or (a true key collision) the label
        // sequences differ and the comparison rejects the alias.
        EXPECT_TRUE(a.digest != b.digest ||
                    a.canonical.labels() != b.canonical.labels());
      }
    }
  }
}

TEST(FragmentCanonicalTest, DecompositionDedupsOrdersAndCaps) {
  // Path 1-2-1: both endpoints yield the same star (center 1, leaf {2}),
  // the middle yields (center 2, leaves {1,1}).
  const std::vector<Fragment> frags =
      DecomposeToFragments(MakePath({1, 2, 1}), 8);
  ASSERT_EQ(frags.size(), 2u);
  // Largest star first (2 leaves before 1).
  EXPECT_EQ(frags[0].Star().NumVertices(), 3u);
  EXPECT_EQ(frags[1].Star().NumVertices(), 2u);
  EXPECT_EQ(frags[0].Star().label(0), 2u);
  EXPECT_EQ(frags[1].Star().label(0), 1u);

  // The cap keeps the most selective (largest) stars.
  const Graph g = MakeGraph({0, 1, 2, 3, 4},
                            {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}});
  const std::vector<Fragment> all = DecomposeToFragments(g, 8);
  const std::vector<Fragment> capped = DecomposeToFragments(g, 2);
  ASSERT_GT(all.size(), 2u);
  ASSERT_EQ(capped.size(), 2u);
  for (std::size_t i = 0; i < capped.size(); ++i) {
    EXPECT_EQ(capped[i].digest, all[i].digest);
  }
  EXPECT_EQ(capped[0].Star().NumVertices(), 5u);  // the degree-4 center
}

TEST(FragmentCanonicalTest, EdgelessAndIsolatedVertices) {
  Graph g;
  g.AddVertex(1);
  g.AddVertex(2);
  EXPECT_TRUE(DecomposeToFragments(g, 8).empty());
  EXPECT_TRUE(DecomposeToFragments(Graph(), 8).empty());
  // Isolated vertices contribute no fragment; the one edge contributes
  // exactly one (its two endpoint readings normalize to the same star).
  g.AddVertex(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(DecomposeToFragments(g, 8).size(), 1u);
}

TEST(FragmentCanonicalTest, SingleEdgeStarsNormalizeAcrossEndpoints) {
  const Graph a = MakeStarGraph(0, {1});
  const Graph b = MakeStarGraph(1, {0});
  EXPECT_TRUE(SameGraph(a, b));
  EXPECT_EQ(WlDigest(a), WlDigest(b));
  EXPECT_EQ(a.label(0), 0u);
}

TEST(FragmentCanonicalTest, EveryFragmentEmbedsInItsQuery) {
  // The soundness precondition of fragment pruning: star ⊆ query for
  // every decomposed fragment, under the engine's non-induced injective
  // matcher semantics.
  const auto matcher = MakeMatcher(MatcherKind::kVf2);
  const Graph graphs[] = {
      MakePath({1, 2, 3, 2, 1}),
      MakeStar({5, 1, 2, 3, 4}),
      gcp::testing::MakeClique(4, 7),
      MakeGraph({0, 1, 2, 0, 1},
                {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}),
  };
  for (const Graph& g : graphs) {
    for (const Fragment& f : DecomposeToFragments(g, 16)) {
      EXPECT_TRUE(matcher->Contains(f.Star(), g));
    }
  }
}

TEST(FragmentCanonicalTest, LabelKeyDescribesTheStarItBuilds) {
  // Decomposition builds no graph; the label sequence it keys by must be
  // exactly the star a miss later builds, matches and offers.
  const Graph graphs[] = {
      MakePath({3, 1, 2, 1, 0}),
      MakeStar({4, 2, 0, 2, 1}),
      MakeGraph({0, 1, 2, 0, 1},
                {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}),
  };
  for (const Graph& g : graphs) {
    for (const Fragment& f : DecomposeToFragments(g, 16)) {
      const Graph star = f.Star();
      EXPECT_EQ(star.labels(), f.labels);
      EXPECT_EQ(f.digest, StarDigest(star.labels()));
      EXPECT_TRUE(IsCanonicalStar(star));
    }
  }
}

TEST(FragmentCanonicalTest, IsCanonicalStarRejectsOtherLayouts) {
  EXPECT_TRUE(IsCanonicalStar(MakeStarGraph(2, {0, 1})));
  EXPECT_TRUE(IsCanonicalStar(MakeStarGraph(1, {0})));
  // A 3-vertex path labelled like the 2-leaf star (2; 0, 1).
  EXPECT_FALSE(IsCanonicalStar(MakeGraph({2, 0, 1}, {{0, 1}, {1, 2}})));
  // Leaves out of label order.
  EXPECT_FALSE(IsCanonicalStar(MakeGraph({2, 1, 0}, {{0, 1}, {0, 2}})));
  // A single edge read from its larger endpoint.
  EXPECT_FALSE(IsCanonicalStar(MakeGraph({1, 0}, {{0, 1}})));
  // No leaf, or an extra edge between leaves.
  Graph lone;
  lone.AddVertex(3);
  EXPECT_FALSE(IsCanonicalStar(lone));
  EXPECT_FALSE(
      IsCanonicalStar(MakeGraph({2, 0, 1}, {{0, 1}, {0, 2}, {1, 2}})));
}

}  // namespace
}  // namespace gcp
