// Method M subsystem (paper §4): the external SI method GC+ expedites.
//
// Without GC+, Method M answers a subgraph query by running its verifier
// over the whole live dataset (its candidate set MCS); with GC+, the
// candidate set is first reduced by the pruner. This adapter runs the
// verifier over an arbitrary candidate bitset, optionally in parallel, and
// accounts tests and wall time.

#ifndef GCP_CORE_METHOD_M_HPP_
#define GCP_CORE_METHOD_M_HPP_

#include <memory>

#include "common/bitset.hpp"
#include "common/thread_pool.hpp"
#include "dataset/dataset.hpp"
#include "match/matcher.hpp"

namespace gcp {

/// Direction of a graph-pattern query.
enum class QueryKind {
  kSubgraph,    ///< Return dataset graphs G with query ⊆ G.
  kSupergraph,  ///< Return dataset graphs G with G ⊆ query.
};

/// \brief Runs the SI verifier over dataset candidates.
class MethodM {
 public:
  /// `pool` may be nullptr (serial verification). The dataset reference
  /// must outlive the MethodM instance. Subgraph-query verification
  /// prepares the query's per-pattern state (SubgraphMatcher::Prepare,
  /// rarity ranked by the dataset-wide label histogram) once and reuses it
  /// across every candidate.
  MethodM(MatcherKind kind, const GraphDataset& dataset,
          ThreadPool* pool = nullptr);

  /// Verifies `query` against every candidate id; returns the bitset of
  /// candidates that pass (same size as `candidates`). `tests_run`
  /// (optional) receives the number of sub-iso invocations.
  DynamicBitset VerifyCandidates(const Graph& query, QueryKind kind,
                                 const DynamicBitset& candidates,
                                 std::uint64_t* tests_run = nullptr) const;

  const SubgraphMatcher& matcher() const { return *matcher_; }
  MatcherKind kind() const { return kind_; }

 private:
  MatcherKind kind_;
  std::unique_ptr<SubgraphMatcher> matcher_;
  const GraphDataset& dataset_;
  ThreadPool* pool_;
};

}  // namespace gcp

#endif  // GCP_CORE_METHOD_M_HPP_
