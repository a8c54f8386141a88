#include "dataset/log_analyzer.hpp"

namespace gcp {

bool ChangeCounters::IsUaExclusive(GraphId id) const {
  const auto tc = total.find(id);
  if (tc == total.end()) return false;
  const auto ua = edge_adds.find(id);
  return ua != edge_adds.end() && ua->second == tc->second;
}

bool ChangeCounters::IsUrExclusive(GraphId id) const {
  const auto tc = total.find(id);
  if (tc == total.end()) return false;
  const auto ur = edge_removes.find(id);
  return ur != edge_removes.end() && ur->second == tc->second;
}

ChangeCounters LogAnalyzer::Analyze(const std::vector<ChangeRecord>& records) {
  ChangeCounters c;
  // Algorithm 1, lines 6-17: one pass over the incremental records,
  // dispatching on the operation type; every record counts toward CT.
  for (const ChangeRecord& r : records) {
    switch (r.type) {
      case ChangeType::kEdgeAdd:
        ++c.edge_adds[r.graph_id];
        break;
      case ChangeType::kEdgeRemove:
        ++c.edge_removes[r.graph_id];
        break;
      case ChangeType::kAdd:
      case ChangeType::kDelete:
        break;
    }
    ++c.total[r.graph_id];
  }
  return c;
}

}  // namespace gcp
