// Statistics Manager — metadata backing the replacement policies
// (paper §4, §7.1 "Cache Replacement Policy").
//
// PIN ranks entries by R (sub-iso tests alleviated); PINC by R weighted
// with an estimated per-test cost C; HD (hybrid) picks between them at
// eviction time using the squared coefficient of variation of the R
// distribution: CoV² = Var/Mean² > 1 → high variability → PIN, else PINC.

#ifndef GCP_CACHE_STATISTICS_HPP_
#define GCP_CACHE_STATISTICS_HPP_

#include <cstdint>
#include <vector>

#include "cache/cache_entry.hpp"
#include "graph/graph.hpp"

namespace gcp {

/// \brief Aggregate statistics over cache entries.
class StatisticsManager {
 public:
  /// Squared coefficient of variation (Var/Mean²) of the entries' R
  /// values. Returns 0 for fewer than two entries or an all-zero mean.
  static double SquaredCoV(const std::vector<double>& values);

  /// Heuristic per-sub-iso-test cost (ms) of a query when no measurement
  /// is available: grows with query size (after [25] GC+ estimates cost
  /// from structural properties).
  static double StructuralCostEstimateMs(const Graph& query);

  /// Records that `entry` alleviated `tests_saved` sub-iso tests at
  /// workload position `now`.
  static void RecordBenefit(CachedQuery& entry, std::uint64_t tests_saved,
                            std::uint64_t now);

  /// Batched form: `hit_count` RecordBenefit calls summing `tests_saved`,
  /// the last at workload position `now`. Kept here so the per-credit and
  /// per-drain paths can never diverge on benefit accounting.
  static void RecordBenefitSum(CachedQuery& entry, std::uint64_t tests_saved,
                               std::uint64_t hit_count, std::uint64_t now);

  // --- Global counters (reported by the hit-anatomy bench) ---------------
  std::uint64_t total_exact_hits = 0;
  std::uint64_t total_exact_hits_zero_test = 0;
  std::uint64_t total_sub_hits = 0;
  std::uint64_t total_super_hits = 0;
  std::uint64_t total_empty_shortcuts = 0;
  std::uint64_t total_tests_saved = 0;
  std::uint64_t total_admissions = 0;
  /// Drain-time twin drops: admission offers rejected because an
  /// isomorphic, fully-valid resident already covers the query.
  std::uint64_t total_admission_dedups = 0;
  /// Drain-time twin refreshes: admission offers merged into an
  /// isomorphic resident that was not fully valid, instead of being
  /// admitted beside it.
  std::uint64_t total_admission_refreshes = 0;
  std::uint64_t total_evictions = 0;
  std::uint64_t total_cache_clears = 0;  ///< EVI purges.
  std::uint64_t total_retro_refreshes = 0;  ///< Retrospective re-tests (§8).

  // --- Engine-level read-path counters (per-shard stores report 0, the
  // engine overlays them onto aggregated snapshots) ----------------------
  /// Always 0: the engine publishes no read snapshots. Kept because the
  /// end-to-end benchmark reports it.
  std::uint64_t snapshots_published = 0;
  /// Always 0: the engine retires no epochs. Kept because the end-to-end
  /// benchmark reports it.
  std::uint64_t epochs_retired = 0;
  /// Engine-lock acquisitions made by query paths — >= 1 per query.
  std::uint64_t read_phase_engine_lock_acquisitions = 0;
  /// Copy-on-write clones of the FTV summary vector — one per
  /// FTV-mutating sync batch.
  std::uint64_t snapshot_summary_copies = 0;

  // --- Durability counters (checkpointing + warm restart). The
  // checkpoint_* group is engine-level (the engine overlays it onto
  // aggregated snapshots, like the read-path counters); restored_entries is
  // per-shard. ------------------------------------------------------------
  /// Checkpoints durably committed (tmp → fsync → rename completed).
  std::uint64_t checkpoints_written = 0;
  /// Checkpoint attempts that failed on any I/O step (the tmp file, if
  /// any, is left behind as a crash would leave it).
  std::uint64_t checkpoints_failed = 0;
  /// Background attempts made while recovering from a failure (backoff
  /// retries; a first failure is counted in checkpoints_failed only).
  std::uint64_t checkpoints_retried = 0;
  /// Bytes of committed checkpoint files.
  std::uint64_t checkpoint_bytes = 0;
  /// Wall time spent exporting + writing checkpoints.
  std::uint64_t t_checkpoint_ns = 0;
  /// Successful warm restarts (a checkpoint was loaded and applied).
  std::uint64_t warm_restarts = 0;
  /// Checkpoint siblings rejected during restart (corrupt / truncated /
  /// wrong lineage) before last-good or cold start was reached.
  std::uint64_t warm_restart_rejected = 0;
  /// Entries re-admitted into the stores by snapshot/checkpoint restores.
  std::uint64_t restored_entries = 0;

  // --- Reconciliation counters. Every reconcile touches every resident
  // entry: CON runs Algorithm 2 over each, EVI purges them all. ---------
  /// Resident entries Algorithm 2 ran over during CON reconciliation (or
  /// purged by an EVI reconcile).
  std::uint64_t reconcile_entries_touched = 0;
  /// Always 0: no reconcile skips a resident entry. Kept because the
  /// end-to-end benchmark reports it.
  std::uint64_t reconcile_entries_skipped = 0;

  // --- Fragment-cache counters (one-hop sub-pattern store). Reconcile
  // accounting is kept separate from the entry counters above, so
  // reconcile_entries_touched counts whole-query entries only. ----------
  /// Fragment entries admitted fresh into a fragment store.
  std::uint64_t fragment_admissions = 0;
  /// Offers merged into an already-resident fragment (valid/answer union).
  std::uint64_t fragment_merges = 0;
  /// Fragment entries evicted past fragment_capacity (oldest-used first).
  std::uint64_t fragment_evictions = 0;
  /// Offers dropped because a *different* star already owns the digest —
  /// true WL collisions, expected to stay at (or very near) zero.
  std::uint64_t fragment_digest_collisions = 0;
  /// Drain-time credits: queries whose candidate set a resident fragment
  /// actually shrank (one per contributing fragment per query).
  std::uint64_t fragment_hits = 0;
  /// Method M candidates removed by fragment-bitset intersection, summed.
  std::uint64_t fragment_candidates_pruned = 0;
  /// Fragment entries a reconcile ran Algorithm 2 over (or EVI-purged).
  std::uint64_t fragment_reconcile_touched = 0;
  /// Fragment entries re-admitted by snapshot/checkpoint restores.
  std::uint64_t restored_fragments = 0;

  // --- Overload / byte-budget counters. The inline-drain counter is
  // engine-level (overlaid like the read-path counters); the
  // byte-eviction, alloc-failure and restore-drop groups are per-shard.
  // ----------------------------------------------------------------------
  /// Always 0: the engine sheds no admission offers. Kept because the
  /// end-to-end benchmark reports it.
  std::uint64_t admission_offers_shed = 0;
  /// MPSC TryPush failures that fell back to an inline backpressure drain
  /// of the full shard queue on the producer thread.
  std::uint64_t backpressure_inline_drains = 0;
  /// Always 0: the engine has no pressure tiers. Kept because the
  /// end-to-end benchmark reports it.
  std::uint64_t pressure_elevated_transitions = 0;
  /// Always 0: the engine has no pressure tiers. Kept because the
  /// end-to-end benchmark reports it.
  std::uint64_t pressure_critical_transitions = 0;
  /// Always 0: the engine bypasses no queries. Kept because the
  /// end-to-end benchmark reports it.
  std::uint64_t pressure_bypassed_queries = 0;
  /// Whole-query evictions forced by the byte budget (the utility-per-byte
  /// pass, beyond any entry-count-cap evictions).
  std::uint64_t byte_budget_evictions = 0;
  /// Fragment evictions forced by the fragment slice of the byte budget.
  std::uint64_t fragment_byte_evictions = 0;
  /// Whole-query admissions refused by an injected allocation fault.
  std::uint64_t alloc_failed_admissions = 0;
  /// Fragment admissions refused by an injected allocation fault.
  std::uint64_t alloc_failed_fragments = 0;
  /// Snapshot entries dropped at restore time because the restored set
  /// exceeded the byte budget (worst utility-per-byte first).
  std::uint64_t restore_budget_dropped = 0;

  // --- Approximate resident byte footprint (gauges, recomputed from the
  // stores on every aggregated stats snapshot — groundwork for the
  // bytes-accounted capacity model). -------------------------------------
  /// CSR graph payloads of resident whole-query entries (~20n + 16m each).
  std::uint64_t approx_graph_bytes = 0;
  /// Answer + valid indicator words of resident whole-query entries.
  std::uint64_t approx_bitset_bytes = 0;
  /// Always 0: no store keeps a change-relevance index. Kept because the
  /// end-to-end benchmark reports it.
  std::uint64_t approx_posting_bytes = 0;
  /// Everything resident in the fragment store (graphs + bitsets).
  std::uint64_t approx_fragment_bytes = 0;
};

/// Approximate resident byte footprint of one cache store, split by
/// category — the per-shard source of the approx_*_bytes gauges.
struct ApproxByteFootprint {
  std::uint64_t graph_bytes = 0;
  std::uint64_t bitset_bytes = 0;
  std::uint64_t fragment_bytes = 0;
};

/// ~Bytes of one CSR graph: labels + offsets + two flat neighbour arrays +
/// signatures + degree sequence. Deliberately a closed-form estimate (not
/// sizeof walks) so the number is stable across allocator/container
/// implementations.
inline std::uint64_t ApproxGraphBytes(const Graph& g) {
  return 20 * static_cast<std::uint64_t>(g.NumVertices()) +
         16 * static_cast<std::uint64_t>(g.NumEdges());
}

/// Per-entry byte footprint the byte budget accounts against: the CSR
/// query graph plus the answer/valid indicator words. The stores maintain
/// this incrementally in `CachedQuery::approx_bytes` and assert the
/// running sum against a from-scratch recompute.
inline std::uint64_t ApproxEntryBytes(const CachedQuery& e) {
  return ApproxGraphBytes(*e.query) +
         8 * static_cast<std::uint64_t>(e.answer.num_words() +
                                        e.valid.num_words());
}

}  // namespace gcp

#endif  // GCP_CACHE_STATISTICS_HPP_
