// Sub-pattern fragment decomposition — the pattern side of the fragment
// cache (after eBay's one-hop sub-query result caches).
//
// A *fragment* is a canonical one-hop star sub-pattern of a query: one
// center vertex plus the sorted multiset of its neighbours' labels.
// Because our graphs are vertex-labelled only (no edge labels), the pair
// (center label, sorted leaf-label multiset) — with single-edge stars
// normalized to center = min endpoint label, the one shape whose center
// is not structurally distinguished — is a *complete* isomorphism
// invariant for stars: two stars are isomorphic iff their keys are equal.
// A fragment is therefore just its canonical label sequence (center, then
// leaves ascending), and its cache key is StarDigest of that sequence: no
// graph is built and no WL digest computed to decompose a query. The
// store compares label sequences behind the key, so a digest collision
// can never alias two distinct fragments. The canonical star graph
// (vertex 0 = center, vertices 1..k = leaves in label order, edges (0, i))
// is built only when a miss must be matched and offered; its vertex labels
// are exactly the label sequence. A restored checkpoint is outside input,
// so restore keeps only stars that are canonical for their own labels
// (IsCanonicalStar) and re-derives their keys.
//
// Soundness of fragment pruning: the matcher semantics are non-induced,
// label-preserving and injective, so the star of any query vertex embeds
// into the query itself; containment is transitive, hence every dataset
// graph containing the query contains every one of its fragments. A
// fragment's valid-negative set (valid ∧ ¬answer) is therefore a sound
// exclusion set for any query the fragment decomposes from.

#ifndef GCP_MATCH_FRAGMENTS_HPP_
#define GCP_MATCH_FRAGMENTS_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace gcp {

/// One canonical one-hop sub-pattern of a query.
struct Fragment {
  /// Center label, then the leaf labels ascending (single-edge stars:
  /// the smaller endpoint label first) — the vertex labels of Star().
  std::vector<Label> labels;
  std::uint64_t digest = 0;  ///< StarDigest(labels) — the cache key.

  /// The canonical star graph of `labels`.
  Graph Star() const;
};

/// Builds the canonical star graph for (center, leaves): vertex 0 carries
/// `center`, vertices 1..k the leaf labels in ascending order, and every
/// leaf connects to the center. Single-edge stars normalize the center to
/// the smaller endpoint label. Isomorphic stars produce equal graphs.
Graph MakeStarGraph(Label center, std::vector<Label> leaves);

/// Cache key of the fragment with canonical label sequence `labels`.
std::uint64_t StarDigest(std::span<const Label> labels);

/// True iff `g` is the canonical star of its own vertex labels, i.e.
/// MakeStarGraph(labels[0], labels[1..]) == g.
bool IsCanonicalStar(const Graph& g);

/// Decomposes `g` into its distinct one-hop fragments: one candidate star
/// per vertex of degree >= 1, deduplicated by canonical key, ordered most
/// selective first (descending leaf count, then center label, then leaf
/// labels) and capped at `max_fragments`. The order — and therefore the
/// cap's selection — is invariant under vertex/edge input permutation.
/// An edgeless graph has no fragments.
std::vector<Fragment> DecomposeToFragments(const Graph& g,
                                           std::size_t max_fragments);

}  // namespace gcp

#endif  // GCP_MATCH_FRAGMENTS_HPP_
