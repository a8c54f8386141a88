#include "match/vf2_plus.hpp"

#include <algorithm>
#include <cstdint>

#include "common/arena.hpp"
#include "common/simd.hpp"

namespace gcp {

namespace {

constexpr VertexId kUnmapped = static_cast<VertexId>(-1);

// Static order: greedily pick the unplaced vertex with (most placed
// neighbours, rarest target label, highest degree). The first vertex is
// chosen by (rarest label, highest degree) alone. Rarity is ranked by the
// target's precomputed label histogram.
std::vector<VertexId> StaticOrder(const Graph& pattern,
                                  const LabelHistogram& target_hist) {
  const std::size_t n = pattern.NumVertices();
  std::vector<VertexId> order;
  order.reserve(n);
  // Per-pair scratch: arena bumps instead of two heap round-trips per
  // (pattern, target) pair.
  Arena* const arena = ThreadArena();
  ScratchArray<unsigned char> placed(arena, n, 0);
  ScratchArray<int> placed_neighbors(arena, n, 0);

  auto rarity = [&](VertexId u) -> std::uint32_t {
    return HistogramCount(target_hist, pattern.label(u));
  };

  for (std::size_t step = 0; step < n; ++step) {
    VertexId best = kUnmapped;
    for (VertexId u = 0; u < n; ++u) {
      if (placed[u]) continue;
      if (best == kUnmapped) {
        best = u;
        continue;
      }
      const auto key = [&](VertexId x) {
        return std::make_tuple(-placed_neighbors[x], rarity(x),
                               -static_cast<int>(pattern.degree(x)));
      };
      if (key(u) < key(best)) best = u;
    }
    placed[best] = 1;
    order.push_back(best);
    for (const VertexId w : pattern.neighbors(best)) ++placed_neighbors[w];
  }
  return order;
}

class Vf2PlusState {
 public:
  Vf2PlusState(const Graph& pattern, const Graph& target,
               const std::vector<VertexId>& order, MatchStats* stats)
      : pattern_(pattern),
        target_(target),
        order_(order),
        stats_(stats),
        core_p_(ThreadArena(), pattern.NumVertices(), kUnmapped),
        core_t_(ThreadArena(), target.NumVertices(), kUnmapped) {}

  bool Search(std::size_t depth) {
    if (depth == order_.size()) return true;
    const VertexId u = order_[depth];
    // Candidates come from the adjacency of the mapped neighbour whose
    // image has the smallest degree (tightest constraint).
    const VertexId anchor_image = SmallestMappedImage(u);
    if (anchor_image != kUnmapped) {
      for (const VertexId v : target_.neighbors(anchor_image)) {
        if (TryPair(u, v, depth)) return true;
      }
    } else {
      for (VertexId v = 0; v < target_.NumVertices(); ++v) {
        if (TryPair(u, v, depth)) return true;
      }
    }
    return false;
  }

  void ExportMapping(std::vector<VertexId>* out) const {
    out->assign(core_p_.data(), core_p_.data() + core_p_.size());
  }

 private:
  bool TryPair(VertexId u, VertexId v, std::size_t depth) {
    if (stats_ != nullptr) ++stats_->nodes_expanded;
    if (!Feasible(u, v)) {
      if (stats_ != nullptr) ++stats_->pruned;
      return false;
    }
    core_p_[u] = v;
    core_t_[v] = u;
    if (Search(depth + 1)) return true;
    core_p_[u] = kUnmapped;
    core_t_[v] = kUnmapped;
    return false;
  }

  VertexId SmallestMappedImage(VertexId u) const {
    VertexId best = kUnmapped;
    std::size_t best_degree = 0;
    for (const VertexId w : pattern_.neighbors(u)) {
      const VertexId img = core_p_[w];
      if (img == kUnmapped) continue;
      const std::size_t d = target_.degree(img);
      if (best == kUnmapped || d < best_degree) {
        best = img;
        best_degree = d;
      }
    }
    return best;
  }

  bool Feasible(VertexId u, VertexId v) const {
    if (core_t_[v] != kUnmapped) return false;
    if (pattern_.label(u) != target_.label(v)) return false;
    if (pattern_.degree(u) > target_.degree(v)) return false;
    // Adjacency consistency plus unmapped-neighbour lookahead. Non-induced
    // safe: unmapped pattern neighbours of u must eventually occupy
    // distinct unmapped target neighbours of v.
    std::size_t unmapped_p = 0;
    for (const VertexId w : pattern_.neighbors(u)) {
      const VertexId mapped = core_p_[w];
      if (mapped == kUnmapped) {
        ++unmapped_p;
      } else if (!target_.HasEdge(v, mapped)) {
        return false;
      }
    }
    std::size_t unmapped_t = 0;
    for (const VertexId w : target_.neighbors(v)) {
      if (core_t_[w] == kUnmapped) ++unmapped_t;
    }
    return unmapped_p <= unmapped_t;
  }

  const Graph& pattern_;
  const Graph& target_;
  const std::vector<VertexId>& order_;
  MatchStats* stats_;
  // Arena-backed (heap fallback when disabled); members release in
  // reverse construction order, honouring the arena's LIFO contract.
  ScratchArray<VertexId> core_p_;
  ScratchArray<VertexId> core_t_;
};

// Search state over a prepared MatchContext: the static order and the
// per-depth connectivity frontier come precomputed, candidate generation
// is label-filtered through the CSR label runs, and per-vertex signature
// dominance prunes pairs before the adjacency walk.
class Vf2PlusPreparedState {
 public:
  Vf2PlusPreparedState(const MatchContext& ctx, const Graph& target,
                       MatchStats* stats)
      : ctx_(ctx),
        pattern_(*ctx.pattern),
        target_(target),
        stats_(stats),
        core_p_(ThreadArena(), pattern_.NumVertices(), kUnmapped),
        core_t_(ThreadArena(), target.NumVertices(), kUnmapped) {}

  bool Search(std::size_t depth) {
    if (depth == ctx_.order.size()) return true;
    const VertexId u = ctx_.order[depth];
    const VertexId anchor_image = SmallestFrontierImage(depth);
    if (anchor_image != kUnmapped) {
      // Only target neighbours carrying u's label can be feasible; the
      // label-sorted CSR run enumerates exactly those, in ascending id
      // order (the same relative order the unfiltered scan would try
      // feasible candidates in). Batch signature prescreen over the
      // neighbour run, mirroring the unanchored branch below: the SIMD
      // screen drops exactly the pairs Feasible would reject on
      // signature dominance, survivors are tried in the same order, and
      // each drop is charged one expansion + one prune exactly when the
      // unscreened loop would have reached it — MatchStats stay
      // bit-identical, early exit included.
      const NeighborRange cands =
          target_.NeighborsWithLabel(anchor_image, pattern_.label(u));
      const std::size_t m = cands.size();
      Arena* const arena = ThreadArena();
      ScratchArray<std::uint64_t> sigs(arena, m);
      for (std::size_t i = 0; i < m; ++i) {
        sigs[i] = target_.vertex_signature(cands[i]);
      }
      ScratchArray<std::uint32_t> survivors(arena, m);
      const std::size_t kept = simd::SignatureDominanceScreen(
          pattern_.vertex_signature(u), sigs.data(), m, survivors.data());
      std::size_t next_survivor = 0;
      for (std::size_t i = 0; i < m; ++i) {
        if (next_survivor < kept && survivors[next_survivor] == i) {
          ++next_survivor;
          if (TryPair(u, cands[i], depth)) return true;
        } else if (stats_ != nullptr) {
          ++stats_->nodes_expanded;
          ++stats_->pruned;
        }
      }
    } else {
      // Unanchored (depth 0, or a new connected component): only target
      // vertices carrying u's label are feasible — the label→vertices
      // index enumerates exactly those, ascending by id (the same
      // relative order the full scan would try feasible candidates in).
      // Batch signature prescreen over the whole label run: Feasible
      // applies the same SignatureDominates test per pair, so the SIMD
      // screen drops exactly the pairs Feasible would reject — survivors
      // are tried in the same order, and each dropped pair is charged one
      // expansion + one prune exactly when the unscreened loop would have
      // reached it (so MatchStats stay bit-identical, early exit
      // included).
      const NeighborRange cands =
          target_.VerticesWithLabel(pattern_.label(u));
      const std::size_t m = cands.size();
      Arena* const arena = ThreadArena();
      ScratchArray<std::uint64_t> sigs(arena, m);
      for (std::size_t i = 0; i < m; ++i) {
        sigs[i] = target_.vertex_signature(cands[i]);
      }
      ScratchArray<std::uint32_t> survivors(arena, m);
      const std::size_t kept = simd::SignatureDominanceScreen(
          pattern_.vertex_signature(u), sigs.data(), m, survivors.data());
      std::size_t next_survivor = 0;
      for (std::size_t i = 0; i < m; ++i) {
        if (next_survivor < kept && survivors[next_survivor] == i) {
          ++next_survivor;
          if (TryPair(u, cands[i], depth)) return true;
        } else if (stats_ != nullptr) {
          ++stats_->nodes_expanded;
          ++stats_->pruned;
        }
      }
    }
    return false;
  }

  void ExportMapping(std::vector<VertexId>* out) const {
    out->assign(core_p_.data(), core_p_.data() + core_p_.size());
  }

 private:
  bool TryPair(VertexId u, VertexId v, std::size_t depth) {
    if (stats_ != nullptr) ++stats_->nodes_expanded;
    if (!Feasible(u, v)) {
      if (stats_ != nullptr) ++stats_->pruned;
      return false;
    }
    core_p_[u] = v;
    core_t_[v] = u;
    if (Search(depth + 1)) return true;
    core_p_[u] = kUnmapped;
    core_t_[v] = kUnmapped;
    return false;
  }

  // Image (in the target) of the frontier vertex whose image has the
  // smallest degree — the tightest anchor. All frontier vertices of this
  // depth are placed by construction.
  VertexId SmallestFrontierImage(std::size_t depth) const {
    VertexId best = kUnmapped;
    std::size_t best_degree = 0;
    for (std::uint32_t i = ctx_.frontier_offsets[depth];
         i < ctx_.frontier_offsets[depth + 1]; ++i) {
      const VertexId img = core_p_[ctx_.frontier[i]];
      const std::size_t d = target_.degree(img);
      if (best == kUnmapped || d < best_degree) {
        best = img;
        best_degree = d;
      }
    }
    return best;
  }

  bool Feasible(VertexId u, VertexId v) const {
    if (core_t_[v] != kUnmapped) return false;
    if (pattern_.label(u) != target_.label(v)) return false;
    if (pattern_.degree(u) > target_.degree(v)) return false;
    // Neighbourhood label-signature dominance: u's neighbour-label
    // histogram must fit inside v's (sound — the mapping is injective and
    // label-preserving on N(u)).
    if (!SignatureDominates(pattern_.vertex_signature(u),
                            target_.vertex_signature(v))) {
      return false;
    }
    // Adjacency consistency plus unmapped-neighbour lookahead, as in the
    // per-pair path.
    std::size_t unmapped_p = 0;
    for (const VertexId w : pattern_.neighbors(u)) {
      const VertexId mapped = core_p_[w];
      if (mapped == kUnmapped) {
        ++unmapped_p;
      } else if (!target_.HasEdge(v, mapped)) {
        return false;
      }
    }
    std::size_t unmapped_t = 0;
    for (const VertexId w : target_.neighbors(v)) {
      if (core_t_[w] == kUnmapped) ++unmapped_t;
    }
    return unmapped_p <= unmapped_t;
  }

  const MatchContext& ctx_;
  const Graph& pattern_;
  const Graph& target_;
  MatchStats* stats_;
  // Arena-backed (heap fallback when disabled); members release in
  // reverse construction order, honouring the arena's LIFO contract.
  ScratchArray<VertexId> core_p_;
  ScratchArray<VertexId> core_t_;
};

// Prepared wrapper owning the reusable context.
class Vf2PlusPrepared : public PreparedPattern {
 public:
  Vf2PlusPrepared(const Graph& pattern, const LabelHistogram* target_stats)
      : PreparedPattern(pattern),
        ctx_(MatchContext::Build(pattern, target_stats)) {}

  const MatchContext& ctx() const { return ctx_; }

 private:
  MatchContext ctx_;
};

}  // namespace

std::unique_ptr<PreparedPattern> Vf2PlusMatcher::Prepare(
    const Graph& pattern, const LabelHistogram* target_stats) const {
  return std::make_unique<Vf2PlusPrepared>(pattern, target_stats);
}

bool Vf2PlusMatcher::FindEmbeddingPrepared(const PreparedPattern& prepared,
                                           const Graph& target,
                                           std::vector<VertexId>* embedding,
                                           MatchStats* stats) const {
  const auto& p = static_cast<const Vf2PlusPrepared&>(prepared);
  const MatchContext& ctx = p.ctx();
  if (ctx.pattern->NumVertices() == 0) {
    if (embedding != nullptr) embedding->clear();
    return true;
  }
  if (ctx.CheapReject(target)) return false;
  Vf2PlusPreparedState state(ctx, target, stats);
  if (!state.Search(0)) return false;
  if (embedding != nullptr) state.ExportMapping(embedding);
  return true;
}

bool Vf2PlusMatcher::FindEmbedding(const Graph& pattern, const Graph& target,
                                   std::vector<VertexId>* embedding,
                                   MatchStats* stats) const {
  if (pattern.NumVertices() == 0) {
    if (embedding != nullptr) embedding->clear();
    return true;
  }
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return false;
  }
  // Quick label-multiset screen on the graphs' precomputed histograms
  // (maintained incrementally by the Graph itself — no per-pair counting
  // pass): the pattern cannot need more vertices of a label than the
  // target has.
  if (!HistogramDominates(pattern.label_histogram(),
                          target.label_histogram())) {
    return false;
  }

  const std::vector<VertexId> order =
      StaticOrder(pattern, target.label_histogram());
  Vf2PlusState state(pattern, target, order, stats);
  if (!state.Search(0)) return false;
  if (embedding != nullptr) state.ExportMapping(embedding);
  return true;
}

}  // namespace gcp
