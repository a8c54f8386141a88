// VF2+ — the modified VF2 used by CT-Index (Klein, Kriege, Mutzel; ICDE
// 2011), reimplemented: VF2 search augmented with
//   * a static query-vertex order chosen by label rarity in the target and
//     connectivity to the ordered prefix (rare, high-degree vertices
//     first), and
//   * one-step lookahead pruning on unmapped-neighbour counts,
//   * candidate generation from the smallest mapped-neighbour adjacency.
// A consistently strong performer in the evaluations of Lee et al.
// (PVLDB 2012) and Katsarou et al. (PVLDB 2015), which is why the paper
// uses it as one of its Method M verifiers.

#ifndef GCP_MATCH_VF2_PLUS_HPP_
#define GCP_MATCH_VF2_PLUS_HPP_

#include "match/match_context.hpp"
#include "match/matcher.hpp"

namespace gcp {

/// \brief VF2 with static rarity ordering and lookahead ("VF2+").
///
/// Supports the prepared-pattern protocol: Prepare builds a MatchContext
/// (static order, per-depth connectivity frontier, early-reject data) that
/// FindEmbeddingPrepared reuses across every target, with label-filtered
/// candidate generation (Graph::NeighborsWithLabel) and per-vertex
/// signature dominance pruning on top of the classic VF2+ feasibility
/// rules. FindEmbedding keeps the per-pair formulation (target-specific
/// rarity ordering): it serves checks whose pattern changes per pair
/// (the supergraph direction) and is the reference the prepared path is
/// tested against.
class Vf2PlusMatcher : public SubgraphMatcher {
 public:
  std::string_view name() const override { return "VF2+"; }

  bool FindEmbedding(const Graph& pattern, const Graph& target,
                     std::vector<VertexId>* embedding,
                     MatchStats* stats = nullptr) const override;

  std::unique_ptr<PreparedPattern> Prepare(
      const Graph& pattern,
      const LabelHistogram* target_stats = nullptr) const override;

  bool FindEmbeddingPrepared(const PreparedPattern& prepared,
                             const Graph& target,
                             std::vector<VertexId>* embedding,
                             MatchStats* stats = nullptr) const override;
};

}  // namespace gcp

#endif  // GCP_MATCH_VF2_PLUS_HPP_
