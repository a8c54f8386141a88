// Configuration of a GraphCachePlus instance.

#ifndef GCP_CORE_OPTIONS_HPP_
#define GCP_CORE_OPTIONS_HPP_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "cache/replacement.hpp"
#include "match/matcher.hpp"

namespace gcp {

class FaultInjector;

/// The two GC+ consistency models (paper §5).
enum class CacheModel {
  kEvi,  ///< Evict the whole cache whenever the dataset changed.
  kCon,  ///< Keep per-entry validity bits refreshed by Algorithms 1 + 2.
};

std::string_view CacheModelName(CacheModel model);

/// \brief Knobs of the GC+ system. Defaults mirror the paper's setup.
struct GraphCachePlusOptions {
  /// Consistency model (the paper's EVI / CON).
  CacheModel model = CacheModel::kCon;

  /// Method M: the external SI verifier GC+ expedites (paper: VF2, VF2+,
  /// GQL).
  MatcherKind method_m = MatcherKind::kVf2;

  /// Cache / window capacities (paper defaults: 100 / 20).
  std::size_t cache_capacity = 100;
  std::size_t window_capacity = 20;

  /// Replacement policy (paper's experiments use HD).
  ReplacementPolicy policy = ReplacementPolicy::kHybrid;

  /// Caps on the number of *verified* hits each processor may exploit per
  /// query; limits cache-probe cost on hit-rich workloads. 0 = unlimited.
  std::size_t max_sub_hits = 16;
  std::size_t max_super_hits = 16;

  /// §6.3 optimal cases. The exact shortcut also gates the drain-time
  /// twin dedup/refresh: with it off, every admission offer is admitted.
  bool enable_exact_shortcut = true;
  bool enable_empty_answer_shortcut = true;

  /// Whether executed queries are admitted to the window at all (off turns
  /// GC+ into a pass-through around Method M; useful for baselines).
  bool enable_admission = true;

  /// Equip Method M with the updatable FTV index (src/ftv): its candidate
  /// set CS_M becomes the feature-filtered subset of the live dataset
  /// instead of the whole dataset. Orthogonal to the cache — GC+ prunes
  /// whatever CS_M Method M produces.
  bool use_ftv_index = false;

  /// Sub-pattern fragment cache, as its total capacity across all shards
  /// (entries; 0 turns the tier off): decompose each subgraph query into
  /// canonical one-hop star fragments (match/fragments), cache
  /// per-fragment candidate bitsets beside the whole-query entries, and
  /// on a whole-query miss intersect the valid fragment non-answers out
  /// of Method M's candidate set — a pruning tier between the FTV filter
  /// and sub-iso verification. Pruning-only: a stale or missing fragment
  /// can never change an answer, so answers, the resident whole-query
  /// state and replacement decisions are the same with the tier off.
  std::size_t fragment_capacity = 256;

  /// Retrospective validation (the paper's §8 future-work optimisation),
  /// CON only: after Algorithm 2 fades validity bits, spend up to this
  /// many sub-iso re-verifications per dataset sync restoring them —
  /// re-testing invalidated (cached query, live graph) pairs against the
  /// *current* graph so the pair becomes known again instead of falling
  /// back to Method M at query time. Runs off the query critical path
  /// (accounted as validation overhead). 0 disables.
  std::size_t retrospective_budget = 0;

  /// Worker threads for Method M verification (1 = serial).
  std::size_t verify_threads = 1;

  /// Capacity of each per-shard bounded MPSC maintenance queue that
  /// decouples the shared-lock read phase from the per-shard maintenance
  /// phase. A query whose deferred mutations find a shard's queue full
  /// applies backpressure: it takes that shard's exclusive lock and
  /// drains inline.
  std::size_t maintenance_queue_capacity = 64;

  /// Number of digest-sharded cache stores. Each shard owns its slice of
  /// the entries, inverted postings, statistics and replacement state
  /// under its own reader/writer lock, so a maintenance drain on one
  /// shard never blocks hit discovery on another.
  std::size_t num_shards = 1;

  /// Run a dedicated maintenance thread that drains shard queues on
  /// queue-pressure or a timer, instead of the opportunistic post-query
  /// try-lock drain. Takes query tail latency off the hook for drains.
  bool maintenance_thread = false;

  /// Timer period of the maintenance thread (also the staleness bound on
  /// a queued batch when no pressure wakeup fires).
  std::size_t maintenance_interval_us = 200;

  /// Directory for durable cache checkpoints. Empty disables durability
  /// entirely: no background checkpoints, CheckpointNow/WarmRestart return
  /// FailedPrecondition.
  std::string checkpoint_dir;

  /// Background checkpoint period (µs), driven from the maintenance
  /// thread's drain loop. 0 disables background checkpointing (explicit
  /// CheckpointNow still works whenever checkpoint_dir is set). Requires
  /// maintenance_thread for background operation.
  std::size_t checkpoint_interval_us = 0;

  /// Committed checkpoint siblings to keep in checkpoint_dir. At least 2
  /// gives torn-write recovery a last-good file to degrade to.
  std::size_t checkpoint_keep = 2;

  /// Fault-injection hook threaded into every checkpoint file operation
  /// (tests only; nullptr in production). Not owned; must outlive the
  /// engine.
  FaultInjector* checkpoint_fault_injector = nullptr;

  /// Byte-accounted capacity model: a cap on the approximate resident
  /// graph+bitset bytes of the cache (summed across shards; ceil-split
  /// per shard, with 1/8 of each shard's slice carved out for its
  /// fragment store when fragments are on). Evictions the budget forces
  /// rank by utility-per-byte (paper R ÷ footprint); the entry-count caps
  /// above still apply first, so a budget that never binds reproduces the
  /// entry-count engine bit-exactly. The budget is enforced once per drain,
  /// so the resident footprint can overshoot it by one drain's admissions
  /// until that drain's byte pass runs. 0 = off (the entry-count model
  /// alone).
  std::size_t byte_budget = 0;

  /// Seed for cache-internal randomness (RANDOM policy).
  std::uint64_t rng_seed = 7;
};

}  // namespace gcp

#endif  // GCP_CORE_OPTIONS_HPP_
