// GraphDataset — the Dataset Manager's graph store (paper §4).
//
// Holds the evolving collection D = {G_0, G_1, ...} of dataset graphs.
// Every mutation (ADD / DEL / UA / UR) is appended to the embedded
// ChangeLog; graph ids are never reused so that cached per-graph bitset
// indicators (Answer, CGvalid) stay aligned across changes.

#ifndef GCP_DATASET_DATASET_HPP_
#define GCP_DATASET_DATASET_HPP_

#include <map>
#include <optional>
#include <vector>

#include "common/bitset.hpp"
#include "common/status.hpp"
#include "dataset/change.hpp"
#include "dataset/change_log.hpp"
#include "graph/graph.hpp"

namespace gcp {

/// \brief Mutable, versioned collection of dataset graphs.
class GraphDataset {
 public:
  GraphDataset() = default;

  /// Installs the initial dataset without logging (changes prior to the
  /// first query are part of the baseline state, not of the incremental
  /// log the Cache Validator must reconcile).
  void Bootstrap(std::vector<Graph> graphs);

  /// ADD: appends a new graph; returns its id and logs the change.
  GraphId AddGraph(Graph g);

  /// DEL: removes graph `id`. Errors when `id` is unknown or deleted.
  Status DeleteGraph(GraphId id);

  /// UA: adds edge {u, v} to graph `id` and logs the change.
  Status AddEdge(GraphId id, VertexId u, VertexId v);

  /// UR: removes edge {u, v} from graph `id` and logs the change.
  Status RemoveEdge(GraphId id, VertexId u, VertexId v);

  /// True iff `id` refers to a live (non-deleted) graph.
  bool IsLive(GraphId id) const { return live_.TestOrFalse(id); }

  /// Live graph accessor; `id` must be live.
  const Graph& graph(GraphId id) const { return *slots_[id]; }

  /// One past the largest id ever assigned ("m + 1" of Algorithm 2).
  std::size_t IdHorizon() const { return slots_.size(); }

  /// Number of live graphs.
  std::size_t NumLive() const { return num_live_; }

  /// Bitset of live ids over [0, IdHorizon()) — the candidate set CS_M of a
  /// query when Method M runs without an index (the whole dataset).
  /// Maintained by Bootstrap/AddGraph/DeleteGraph, so reading it never
  /// walks the graph slots. The referenced mask follows later ADD/DEL;
  /// copy it to keep a point-in-time CS_M.
  const DynamicBitset& LiveMask() const { return live_; }

  /// Ids of live graphs, ascending (the live mask's set bits).
  std::vector<GraphId> LiveIds() const;

  /// The embedded change log.
  const ChangeLog& log() const { return log_; }

  /// Total vertices/edges across live graphs (reporting only).
  std::size_t TotalLiveVertices() const;
  std::size_t TotalLiveEdges() const;

  /// Dataset-wide label histogram over live graphs (sorted (label, count)
  /// pairs) — the rarity table Method M hands to SubgraphMatcher::Prepare.
  /// Maintained incrementally by Bootstrap/AddGraph/DeleteGraph (edge
  /// changes do not touch labels).
  LabelHistogram GlobalLabelHistogram() const;

 private:
  void CountLabels(const Graph& g, std::int64_t sign);

  std::vector<std::optional<Graph>> slots_;
  /// Bit i set iff slots_[i] holds a graph; sized to slots_.
  DynamicBitset live_;
  std::size_t num_live_ = 0;
  ChangeLog log_;
  std::map<Label, std::int64_t> label_freq_;
};

}  // namespace gcp

#endif  // GCP_DATASET_DATASET_HPP_
