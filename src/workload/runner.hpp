// Experiment runner: drives a workload and a change plan through Method M
// alone, GC+/EVI or GC+/CON — the three systems the paper's Figures 4-6
// compare — over identically evolving datasets.
//
// Dataset evolution is deterministic in (initial dataset, plan, plan
// seed): plan targets are resolved against the live dataset by an RNG
// that consumes no query-dependent state, so every mode observes the
// exact same dataset sequence. This is what makes cross-mode answer
// equivalence a sound oracle (Theorems 3 and 6) and speedups well
// defined.

#ifndef GCP_WORKLOAD_RUNNER_HPP_
#define GCP_WORKLOAD_RUNNER_HPP_

#include <string>
#include <vector>

#include "cache/statistics.hpp"
#include "core/graphcache_plus.hpp"
#include "dataset/change_plan.hpp"
#include "workload/workload.hpp"

namespace gcp {

/// Which system executes the workload.
enum class RunMode {
  kMethodM,  ///< Bare Method M: every live graph is sub-iso tested.
  kEvi,      ///< GC+ with the EVI consistency model.
  kCon,      ///< GC+ with the CON consistency model.
};

std::string_view RunModeName(RunMode mode);

/// \brief One experiment configuration.
struct RunnerConfig {
  RunMode mode = RunMode::kCon;
  MatcherKind method = MatcherKind::kVf2;
  QueryKind query_kind = QueryKind::kSubgraph;
  ReplacementPolicy policy = ReplacementPolicy::kHybrid;
  std::size_t cache_capacity = 100;   ///< Paper default.
  std::size_t window_capacity = 20;   ///< Paper default.
  /// Queries executed before measurement starts (paper: one window).
  std::size_t warmup_queries = 20;
  std::size_t verify_threads = 1;
  /// Closed-loop client threads sharing the one GraphCachePlus instance.
  /// 1 = the classic serial loop. With N > 1, warm-up still runs serially
  /// (deterministic warm cache), then N threads pull queries from a shared
  /// ticket; plan batches fire through ApplyDatasetChanges, serialized
  /// against in-flight read phases. Answers stay exact w.r.t. the dataset
  /// state each query observes, but the query↔change interleaving is no
  /// longer deterministic — cross-mode answer equivalence holds only for
  /// an empty change plan.
  std::size_t client_threads = 1;
  /// Digest-sharded cache stores (1 = the single-store legacy engine,
  /// bit-exact with PR 2/3 including replacement decisions).
  std::size_t shards = 1;
  /// Drain maintenance on a dedicated thread (queue-pressure/timer
  /// wakeups) instead of opportunistic post-query try-lock drains.
  bool maintenance_thread = false;
  std::size_t max_sub_hits = 16;
  std::size_t max_super_hits = 16;
  /// Sub-pattern fragment cache (on, the default) or the fragment-free
  /// oracle (off: fragment_capacity 0) — answers, resident whole-query
  /// state and replacement decisions are bit-exact either way; off is the
  /// "before" side of the fragments bench.
  bool fragments = true;
  /// CON-only retrospective validation budget per sync (0 = off, §8).
  std::size_t retrospective_budget = 0;
  /// Equip Method M with the updatable FTV index (src/ftv).
  bool use_ftv = false;
  /// Seed of the change-plan executor (same seed across modes ⇒ same
  /// dataset evolution).
  std::uint64_t plan_seed = 99;
  /// Record every query's answer ids (for equivalence oracles).
  bool record_answers = false;
  /// Durable checkpoint directory (--checkpoint-dir; empty = durability
  /// off). With checkpoint_interval_us and maintenance_thread the engine
  /// checkpoints in the background while the workload runs.
  std::string checkpoint_dir;
  /// Background checkpoint period in µs (--checkpoint-interval; 0 = no
  /// background checkpoints — explicit ones still work).
  std::size_t checkpoint_interval_us = 0;
  /// Attempt a verified warm restart from checkpoint_dir before the first
  /// query (--warm-restart); degrades to cold start when no checkpoint
  /// survives validation.
  bool warm_restart = false;
  /// Write one final checkpoint after the end-of-run flush, so a
  /// follow-up warm_restart run restores the fully-warm cache.
  bool checkpoint_at_end = false;
  /// Byte-accounted capacity cap (--byte-budget; 0 = off, the entry-count
  /// legacy model). See GraphCachePlusOptions::byte_budget.
  std::size_t byte_budget = 0;
  /// Sample the resident whole-query footprint after every query of a
  /// serial run (client_threads <= 1) and at the end of the run, and
  /// report its high-water mark in RunReport::peak_resident_bytes. Off by
  /// default: each sample is a full stats snapshot.
  bool track_peak_resident_bytes = false;
};

/// \brief Outcome of one experiment run.
struct RunReport {
  std::string label;
  /// Post-warm-up aggregates.
  AggregateMetrics agg;
  /// Cache-side counters at end of run.
  StatisticsManager cache_stats;
  /// Per-query answers (all queries, warm-up included) when requested.
  std::vector<std::vector<GraphId>> answers;
  /// What the pre-run warm restart did (config.warm_restart only).
  GraphCachePlus::WarmRestartReport warm_restart_report;
  /// Wall time of the whole run (ms).
  double total_wall_ms = 0.0;
  /// Wall time of the post-warm-up (measured) span (ms) — the throughput
  /// denominator for the scaling bench.
  double measured_wall_ms = 0.0;
  /// Queries in the measured span.
  std::size_t measured_queries = 0;
  /// High-water mark of the resident whole-query graph + bitset bytes
  /// (the footprint byte_budget governs) over the whole run, warm-up
  /// included; 0 unless config.track_peak_resident_bytes.
  std::uint64_t peak_resident_bytes = 0;

  double qps() const {
    return measured_wall_ms <= 0.0
               ? 0.0
               : static_cast<double>(measured_queries) /
                     (measured_wall_ms / 1000.0);
  }

  double avg_query_ms() const { return agg.AvgQueryTimeMs(); }
  double avg_overhead_ms() const { return agg.AvgOverheadMs(); }
  double avg_si_tests() const { return agg.AvgSiTests(); }
};

/// Runs `workload` (with `plan` firing between queries) under `config`,
/// starting from a fresh copy of `initial`.
RunReport RunWorkload(const std::vector<Graph>& initial,
                      const Workload& workload, const ChangePlan& plan,
                      const RunnerConfig& config);

/// Speedup of `cached` over `base` in average query time (>1 = faster).
double QueryTimeSpeedup(const RunReport& base, const RunReport& cached);

/// Speedup in the average number of sub-iso tests per query.
double SiTestSpeedup(const RunReport& base, const RunReport& cached);

}  // namespace gcp

#endif  // GCP_WORKLOAD_RUNNER_HPP_
