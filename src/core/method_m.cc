#include "core/method_m.hpp"

#include <vector>

namespace gcp {

MethodM::MethodM(MatcherKind kind, const GraphDataset& dataset,
                 ThreadPool* pool, bool reuse_context)
    : kind_(kind), matcher_(MakeMatcher(kind)), dataset_(dataset),
      pool_(pool), reuse_context_(reuse_context) {}

DynamicBitset MethodM::VerifyCandidates(const Graph& query, QueryKind kind,
                                        const DynamicBitset& candidates,
                                        std::uint64_t* tests_run) const {
  DynamicBitset verified(candidates.size());
  const std::vector<std::size_t> ids = candidates.ToVector();

  // Subgraph queries verify one fixed pattern against every candidate:
  // prepare its reusable state once, rarity ranked by the dataset-wide
  // label histogram. Supergraph queries swap roles per candidate — the
  // pattern varies, so there is nothing to reuse.
  std::unique_ptr<PreparedPattern> prepared;
  if (reuse_context_ && kind == QueryKind::kSubgraph && !ids.empty()) {
    const LabelHistogram hist = dataset_.GlobalLabelHistogram();
    prepared = matcher_->Prepare(query, &hist);
  }

  const SubgraphMatcher& matcher = *matcher_;
  auto test_one = [&](GraphId id) {
    const Graph& g = dataset_.graph(id);
    // Subgraph query: pattern = query, target = dataset graph.
    // Supergraph query: roles swap (the dataset graph must embed in the
    // query).
    if (kind == QueryKind::kSubgraph) {
      return prepared != nullptr ? matcher.ContainsPrepared(*prepared, g)
                                 : matcher.Contains(query, g);
    }
    return matcher.Contains(g, query);
  };

  if (pool_ == nullptr || ids.size() < 2) {
    for (const std::size_t id : ids) {
      if (test_one(static_cast<GraphId>(id))) verified.Set(id);
    }
  } else {
    std::vector<char> pass(ids.size(), 0);
    pool_->ParallelFor(ids.size(), [&](std::size_t i) {
      pass[i] = test_one(static_cast<GraphId>(ids[i])) ? 1 : 0;
    });
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (pass[i] != 0) verified.Set(ids[i]);
    }
  }
  if (tests_run != nullptr) *tests_run += ids.size();
  return verified;
}

}  // namespace gcp
