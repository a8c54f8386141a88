#include "match/match_context.hpp"

#include <algorithm>
#include <tuple>

#include "common/arena.hpp"

namespace gcp {

namespace {

constexpr VertexId kUnplaced = static_cast<VertexId>(-1);

}  // namespace

MatchContext MatchContext::Build(const Graph& pattern,
                                 const LabelHistogram* target_stats) {
  MatchContext ctx;
  ctx.pattern = &pattern;
  const std::size_t n = pattern.NumVertices();
  ctx.order.reserve(n);
  ctx.frontier_offsets.reserve(n + 1);
  ctx.frontier_offsets.push_back(0);

  const LabelHistogram& rarity_hist =
      target_stats != nullptr ? *target_stats : pattern.label_histogram();

  // Greedy static order: most placed neighbours first, then rarest label,
  // then highest degree — the VF2+ ordering with the rarity table fixed up
  // front instead of re-derived per target.
  // Build scratch comes off the thread arena — Prepare runs once per
  // query but for every cached containment probe too, so its temporaries
  // sit on the hot path.
  Arena* const arena = ThreadArena();
  ScratchArray<unsigned char> placed(arena, n, 0);
  ScratchArray<int> placed_neighbors(arena, n, 0);
  for (std::size_t step = 0; step < n; ++step) {
    VertexId best = kUnplaced;
    for (VertexId u = 0; u < n; ++u) {
      if (placed[u]) continue;
      if (best == kUnplaced) {
        best = u;
        continue;
      }
      const auto key = [&](VertexId x) {
        return std::make_tuple(-placed_neighbors[x],
                               HistogramCount(rarity_hist, pattern.label(x)),
                               -static_cast<int>(pattern.degree(x)));
      };
      if (key(u) < key(best)) best = u;
    }
    placed[best] = 1;
    ctx.order.push_back(best);
    for (const VertexId w : pattern.neighbors(best)) ++placed_neighbors[w];
    // The frontier of a later vertex is its placed neighbourhood; collect
    // it when the vertex is ordered (every neighbour placed so far).
  }

  // Second pass: for each depth, the pattern neighbours of order[d] placed
  // earlier — the only vertices whose images anchor candidate generation.
  ScratchArray<std::uint32_t> placed_at(arena, n, 0);
  for (std::size_t d = 0; d < n; ++d) {
    placed_at[ctx.order[d]] = static_cast<std::uint32_t>(d);
  }
  for (std::size_t d = 0; d < n; ++d) {
    const VertexId u = ctx.order[d];
    for (const VertexId w : pattern.neighbors(u)) {
      if (placed_at[w] < d) ctx.frontier.push_back(w);
    }
    ctx.frontier_offsets.push_back(
        static_cast<std::uint32_t>(ctx.frontier.size()));
  }
  return ctx;
}

bool MatchContext::CheapReject(const Graph& target) const {
  const Graph& p = *pattern;
  if (p.NumVertices() > target.NumVertices() ||
      p.NumEdges() > target.NumEdges()) {
    return true;
  }
  // Label-histogram dominance: the pattern cannot need more vertices of a
  // label than the target has.
  if (!HistogramDominates(p.label_histogram(), target.label_histogram())) {
    return true;
  }
  // Degree-sequence dominance: the i-th largest pattern degree must not
  // exceed the i-th largest target degree (counting argument over the
  // injective mapping). Both sequences are sorted descending.
  {
    const auto& pd = p.degree_sequence();
    const auto& td = target.degree_sequence();
    for (std::size_t i = 0; i < pd.size(); ++i) {
      if (pd[i] > td[i]) return true;
    }
  }
  return false;
}

}  // namespace gcp
