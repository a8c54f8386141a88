#include "ftv/ftv_index.hpp"

#include <algorithm>

namespace gcp {

FtvIndex::FtvIndex(const GraphDataset& dataset) : dataset_(&dataset) {
  // Initial build composes the vector in place and publishes it once —
  // it is not a copy-on-write clone, so summary_copies() starts at 0.
  auto built = std::make_shared<SummaryVec>();
  built->resize(dataset_->IdHorizon());
  for (const GraphId id : dataset_->LiveIds()) {
    IndexGraph(*built, id);
  }
  summaries_ = std::move(built);
  watermark_ = dataset_->log().LatestSeq();
}

void FtvIndex::IndexGraph(SummaryVec& into, GraphId id) const {
  if (id >= into.size()) into.resize(id + 1);
  into[id] = GraphFeatures::Extract(dataset_->graph(id));
}

std::size_t FtvIndex::SyncWithDataset() {
  const std::vector<ChangeRecord> records =
      dataset_->log().ExtractSince(watermark_);
  if (records.empty()) return 0;
  // Coalesce: a graph touched multiple times needs only one re-derivation
  // against its final state in this window.
  std::vector<GraphId> touched;
  for (const ChangeRecord& r : records) {
    touched.push_back(r.graph_id);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Copy-on-write: snapshots may alias the published vector, so mutate a
  // clone and republish. One clone per mutating batch, independent of how
  // many snapshots are published in between.
  auto next = std::make_shared<SummaryVec>(*summaries_);
  summary_copies_.fetch_add(1, std::memory_order_relaxed);
  std::size_t updates = 0;
  if (dataset_->IdHorizon() > next->size()) {
    next->resize(dataset_->IdHorizon());
  }
  for (const GraphId id : touched) {
    if (dataset_->IsLive(id)) {
      IndexGraph(*next, id);  // ADD or UA/UR: (re-)derive the local summary
    } else {
      if (id < next->size()) (*next)[id].reset();  // DEL
    }
    ++updates;
  }
  summaries_ = std::move(next);
  watermark_ = dataset_->log().LatestSeq();
  return updates;
}

DynamicBitset FtvIndex::CandidateSet(const GraphFeatures& query_features,
                                     FtvQueryDirection direction) const {
  return CandidateSetOver(*summaries_, dataset_->LiveMask(), query_features,
                          direction);
}

DynamicBitset FtvIndex::CandidateSetOver(
    const SummaryVec& summaries, const DynamicBitset& live,
    const GraphFeatures& query_features, FtvQueryDirection direction) {
  DynamicBitset candidates(live.size());
  const std::size_t limit = std::min(summaries.size(), live.size());
  for (std::size_t id = 0; id < limit; ++id) {
    const auto& summary = summaries[id];
    if (!summary.has_value() || !live.Test(id)) continue;
    const bool pass = direction == FtvQueryDirection::kSubgraph
                          ? query_features.CouldBeSubgraphOf(*summary)
                          : summary->CouldBeSubgraphOf(query_features);
    if (pass) candidates.Set(id);
  }
  return candidates;
}

std::size_t FtvIndex::IndexedCount() const {
  std::size_t count = 0;
  for (const auto& s : *summaries_) {
    if (s.has_value()) ++count;
  }
  return count;
}

const GraphFeatures* FtvIndex::SummaryOf(GraphId id) const {
  const SummaryVec& summaries = *summaries_;
  if (id >= summaries.size() || !summaries[id].has_value()) return nullptr;
  return &*summaries[id];
}

}  // namespace gcp
