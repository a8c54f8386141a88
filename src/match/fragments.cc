#include "match/fragments.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace gcp {

Graph MakeStarGraph(Label center, std::vector<Label> leaves) {
  // A single-edge star is the one shape where the center is not
  // structurally distinguished: (a)-(b) read from either endpoint is the
  // same unrooted pattern. Normalize to center = min label so both
  // readings canonicalize to the same graph (and fragment key).
  if (leaves.size() == 1 && leaves[0] < center) {
    std::swap(center, leaves[0]);
  }
  std::sort(leaves.begin(), leaves.end());
  std::vector<Label> labels;
  labels.reserve(leaves.size() + 1);
  labels.push_back(center);
  labels.insert(labels.end(), leaves.begin(), leaves.end());
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    edges.emplace_back(0, static_cast<VertexId>(i + 1));
  }
  Result<Graph> g = Graph::Create(std::move(labels), edges);
  // A star over valid inputs cannot fail construction (no self-loops, no
  // duplicate edges by shape).
  return std::move(g).value();
}

namespace {

/// MakeStarGraph over a label sequence (center first).
Graph StarOf(std::span<const Label> labels) {
  return MakeStarGraph(labels.front(), {labels.begin() + 1, labels.end()});
}

}  // namespace

Graph Fragment::Star() const { return StarOf(labels); }

std::uint64_t StarDigest(std::span<const Label> labels) {
  std::uint64_t digest = 0x7a5f3c1e9b2d4867ULL;
  HashCombine(digest, labels.size());
  for (const Label label : labels) HashCombine(digest, label);
  return digest;
}

bool IsCanonicalStar(const Graph& g) {
  return g.NumVertices() >= 2 && g == StarOf(g.labels());
}

std::vector<Fragment> DecomposeToFragments(const Graph& g,
                                           std::size_t max_fragments) {
  // Canonical label sequence per vertex: center, then sorted leaves.
  std::vector<Fragment> out;
  out.reserve(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.degree(v) == 0) continue;
    Fragment f;
    f.labels.reserve(g.degree(v) + 1);
    f.labels.push_back(g.label(v));
    for (const VertexId u : g.neighbors(v)) f.labels.push_back(g.label(u));
    std::sort(f.labels.begin() + 1, f.labels.end());
    // Mirror MakeStarGraph's single-edge normalization, so the two
    // endpoint readings of one edge dedup to one fragment.
    if (f.labels.size() == 2 && f.labels[1] < f.labels[0]) {
      std::swap(f.labels[0], f.labels[1]);
    }
    out.push_back(std::move(f));
  }
  // Most selective first (more leaves, then center label, then leaf
  // labels); the tie chain makes the cap's selection (and the resulting
  // fragment list) invariant under input permutation.
  std::sort(out.begin(), out.end(), [](const Fragment& a, const Fragment& b) {
    if (a.labels.size() != b.labels.size()) {
      return a.labels.size() > b.labels.size();
    }
    return a.labels < b.labels;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Fragment& a, const Fragment& b) {
                          return a.labels == b.labels;
                        }),
            out.end());
  if (out.size() > max_fragments) out.resize(max_fragments);
  for (Fragment& f : out) f.digest = StarDigest(f.labels);
  return out;
}

}  // namespace gcp
