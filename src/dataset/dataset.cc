#include "dataset/dataset.hpp"

namespace gcp {

void GraphDataset::Bootstrap(std::vector<Graph> graphs) {
  slots_.clear();
  label_freq_.clear();
  slots_.reserve(graphs.size());
  for (auto& g : graphs) {
    CountLabels(g, +1);
    slots_.emplace_back(std::move(g));
  }
  num_live_ = slots_.size();
  live_ = DynamicBitset(slots_.size(), /*value=*/true);
}

GraphId GraphDataset::AddGraph(Graph g) {
  const auto id = static_cast<GraphId>(slots_.size());
  CountLabels(g, +1);
  slots_.emplace_back(std::move(g));
  live_.Resize(slots_.size());
  live_.Set(id);
  ++num_live_;
  log_.Append(ChangeType::kAdd, id);
  return id;
}

Status GraphDataset::DeleteGraph(GraphId id) {
  if (!IsLive(id)) return Status::NotFound("graph id not live");
  CountLabels(*slots_[id], -1);
  slots_[id].reset();
  live_.Reset(id);
  --num_live_;
  log_.Append(ChangeType::kDelete, id);
  return Status::OK();
}

void GraphDataset::CountLabels(const Graph& g, std::int64_t sign) {
  for (const auto& [label, count] : g.label_histogram()) {
    const std::int64_t next =
        (label_freq_[label] += sign * static_cast<std::int64_t>(count));
    if (next == 0) label_freq_.erase(label);
  }
}

LabelHistogram GraphDataset::GlobalLabelHistogram() const {
  LabelHistogram hist;
  hist.reserve(label_freq_.size());
  for (const auto& [label, count] : label_freq_) {
    hist.push_back({label, static_cast<std::uint32_t>(count)});
  }
  return hist;
}

Status GraphDataset::AddEdge(GraphId id, VertexId u, VertexId v) {
  if (!IsLive(id)) return Status::NotFound("graph id not live");
  GCP_RETURN_NOT_OK(slots_[id]->AddEdge(u, v));
  log_.Append(ChangeType::kEdgeAdd, id, u, v);
  return Status::OK();
}

Status GraphDataset::RemoveEdge(GraphId id, VertexId u, VertexId v) {
  if (!IsLive(id)) return Status::NotFound("graph id not live");
  GCP_RETURN_NOT_OK(slots_[id]->RemoveEdge(u, v));
  log_.Append(ChangeType::kEdgeRemove, id, u, v);
  return Status::OK();
}

std::vector<GraphId> GraphDataset::LiveIds() const {
  std::vector<GraphId> out;
  out.reserve(num_live_);
  live_.ForEachSetBit(
      [&out](std::size_t id) { out.push_back(static_cast<GraphId>(id)); });
  return out;
}

std::size_t GraphDataset::TotalLiveVertices() const {
  std::size_t total = 0;
  for (const auto& slot : slots_) {
    if (slot.has_value()) total += slot->NumVertices();
  }
  return total;
}

std::size_t GraphDataset::TotalLiveEdges() const {
  std::size_t total = 0;
  for (const auto& slot : slots_) {
    if (slot.has_value()) total += slot->NumEdges();
  }
  return total;
}

}  // namespace gcp
