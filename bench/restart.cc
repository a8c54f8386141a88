// BENCH_08: durable cache — cold vs warm restart, in one run.
//
// Phase 1 ("seed") runs a Zipf workload over a churning dataset with
// background checkpointing on (maintenance thread + --checkpoint-interval)
// plus one explicit mid-run checkpoint, leaving a directory of committed
// checkpoint siblings behind. Phases 2 and 3 simulate a process restart:
// a fresh GraphDataset replays the identical change-plan evolution (same
// lineage, same watermark), then a fresh engine re-runs the workload —
// cold (empty stores) vs warm (WarmRestart from the checkpoint directory,
// fast-forwarded from the checkpoint's watermark through CON replay).
//
// Reported: the per-window hit-rate recovery curve of each phase,
// time-to-warm (queries until a window first reaches 80% of the warm
// phase's overall hit rate), and restart cost (read+validate+apply ms).
//
// The run FAILS (exit 1) when:
//   - cold or warm answers diverge from the uncached Method M oracle on
//     the same dataset state (restores must never change answers);
//   - the warm phase did not actually restore a checkpoint, restored no
//     entries, or recovered a lower overall hit rate than cold.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cache/checkpoint.hpp"
#include "common/io.hpp"
#include "core/graphcache_plus.hpp"
#include "dataset/change_plan.hpp"

using namespace gcp;
using namespace gcp::bench;

namespace {

std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

GraphCachePlusOptions EngineOptions(const BenchConfig& cfg,
                                    const std::string& dir,
                                    std::size_t interval_us) {
  GraphCachePlusOptions opts = MakeEngineOptions(CacheModel::kCon, cfg);
  opts.maintenance_thread = true;
  opts.checkpoint_dir = dir;
  opts.checkpoint_interval_us = interval_us;
  opts.checkpoint_keep = 4;  // siblings for the degradation ladder
  return opts;
}

/// Replays the change plan's full evolution onto a fresh dataset — the
/// deterministic "same process lineage" a restarted engine would see.
void ReplayEvolution(GraphDataset& ds, const std::vector<Graph>& corpus,
                     const ChangePlan& plan, const BenchConfig& cfg,
                     std::uint32_t upto) {
  ChangePlanExecutor executor(plan, corpus, ds, Rng(cfg.seed + 404));
  executor.AdvanceTo(upto);
}

struct PhaseResult {
  std::vector<double> window_hit_rate;  ///< One slot per query window.
  std::size_t window_queries = 0;
  double overall_hit_rate = 0.0;
  double avg_query_ms = 0.0;
  double restart_ms = 0.0;  ///< WarmRestart wall time (warm phase only).
  std::uint64_t answers_digest = 0;
  GraphCachePlus::WarmRestartReport restart;
};

/// Runs the measured workload on `gc` (already constructed and, for the
/// warm phase, already restored) and folds per-window hit anatomy.
PhaseResult MeasurePhase(GraphCachePlus& gc, const Workload& w) {
  PhaseResult r;
  r.window_queries = std::max<std::size_t>(5, w.size() / 20);
  std::size_t window_hits = 0;
  std::size_t in_window = 0;
  std::size_t total_hits = 0;
  std::int64_t query_ns = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const QueryResult res = gc.Query(w.queries[i].query, QueryKind::kSubgraph);
    query_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    const bool hit = res.metrics.exact_hit || res.metrics.empty_shortcut ||
                     res.metrics.sub_hits > 0 || res.metrics.super_hits > 0;
    window_hits += hit ? 1 : 0;
    total_hits += hit ? 1 : 0;
    if (++in_window == r.window_queries || i + 1 == w.size()) {
      r.window_hit_rate.push_back(static_cast<double>(window_hits) /
                                  static_cast<double>(in_window));
      window_hits = 0;
      in_window = 0;
    }
    r.answers_digest = HashCombine(r.answers_digest, res.answer.size());
    for (const GraphId id : res.answer) {
      r.answers_digest = HashCombine(r.answers_digest, id);
    }
  }
  gc.FlushMaintenance();
  r.overall_hit_rate =
      w.size() == 0 ? 0.0
                    : static_cast<double>(total_hits) /
                          static_cast<double>(w.size());
  r.avg_query_ms = w.size() == 0 ? 0.0
                                 : static_cast<double>(query_ns) / 1e6 /
                                       static_cast<double>(w.size());
  return r;
}

/// Queries until a window first reaches `threshold` hit rate; the full
/// workload length + 1 when no window ever does.
std::size_t TimeToWarmQueries(const PhaseResult& r, double threshold) {
  for (std::size_t wdx = 0; wdx < r.window_hit_rate.size(); ++wdx) {
    if (r.window_hit_rate[wdx] >= threshold) {
      return wdx * r.window_queries + 1;
    }
  }
  return r.window_hit_rate.size() * r.window_queries + 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  BenchConfig cfg = BenchConfig::FromFlags(flags);
  PrintConfig(cfg, "BENCH 08: durable cache — cold vs warm restart");
  ApplyProcessToggles(cfg);

  const std::string dir = cfg.checkpoint_dir.empty()
                              ? "bench_restart_checkpoints"
                              : cfg.checkpoint_dir;
  // Start from a clean directory so reruns measure this run's files.
  (void)EnsureDirectory(dir);
  (void)PruneCheckpoints(dir, 0);
  const std::size_t interval_us =
      cfg.checkpoint_interval_us == 0 ? 20000 : cfg.checkpoint_interval_us;

  const std::vector<Graph> corpus = BuildCorpus(cfg);
  const Workload w = BuildWorkload("ZU", corpus, cfg);
  const ChangePlan plan = BuildPlan(cfg, corpus.size());
  const auto last_query = static_cast<std::uint32_t>(
      w.size() == 0 ? 0 : w.size() - 1);

  int failures = 0;

  // --- Phase 1: seed run with background + one explicit checkpoint ------
  {
    GraphDataset ds;
    ds.Bootstrap(corpus);
    ChangePlanExecutor executor(plan, corpus, ds, Rng(cfg.seed + 404));
    GraphCachePlus gc(&ds, EngineOptions(cfg, dir, interval_us));
    for (std::size_t i = 0; i < w.size(); ++i) {
      const auto pos = static_cast<std::uint32_t>(i);
      if (executor.NextBatchAt() <= pos) {
        gc.ApplyDatasetChanges(
            [&executor, pos](GraphDataset&) { executor.AdvanceTo(pos); });
      }
      (void)gc.Query(w.queries[i].query, QueryKind::kSubgraph);
      if (i == w.size() * 3 / 5) {
        // Explicit mid-run checkpoint: an older sibling whose watermark
        // trails the final dataset state, so a restart from it exercises
        // the CON fast-forward replay.
        if (const Status st = gc.CheckpointNow(); !st.ok()) {
          std::fprintf(stderr, "FAIL: mid-run checkpoint: %s\n",
                       st.ToString().c_str());
          ++failures;
        }
      }
    }
    gc.FlushMaintenance();
    if (const Status st = gc.CheckpointNow(); !st.ok()) {
      std::fprintf(stderr, "FAIL: final checkpoint: %s\n",
                   st.ToString().c_str());
      ++failures;
    }
    const StatisticsManager stats = gc.CacheStatsSnapshot();
    std::printf(
        "\nseed: %llu checkpoints committed (%llu failed), %.1f KiB total, "
        "%.2f ms checkpoint wall\n",
        static_cast<unsigned long long>(stats.checkpoints_written),
        static_cast<unsigned long long>(stats.checkpoints_failed),
        static_cast<double>(stats.checkpoint_bytes) / 1024.0,
        static_cast<double>(stats.t_checkpoint_ns) / 1e6);
  }

  // --- Oracle: uncached Method M on the evolved dataset ------------------
  std::uint64_t oracle_digest = 0;
  {
    GraphDataset ds;
    ds.Bootstrap(corpus);
    ReplayEvolution(ds, corpus, plan, cfg, last_query);
    GraphCachePlusOptions opts = MakeEngineOptions(CacheModel::kEvi, cfg);
    // Bare Method M: no admission ⇒ empty cache, every query verified
    // against the live dataset (fragments are gated on admission too).
    opts.enable_admission = false;
    opts.enable_exact_shortcut = false;
    opts.enable_empty_answer_shortcut = false;
    opts.checkpoint_dir.clear();  // the oracle never persists
    opts.checkpoint_interval_us = 0;
    GraphCachePlus oracle(&ds, opts);
    for (std::size_t i = 0; i < w.size(); ++i) {
      const QueryResult res =
          oracle.Query(w.queries[i].query, QueryKind::kSubgraph);
      oracle_digest = HashCombine(oracle_digest, res.answer.size());
      for (const GraphId id : res.answer) {
        oracle_digest = HashCombine(oracle_digest, id);
      }
    }
  }

  // --- Phases 2 + 3: cold vs warm restart --------------------------------
  PhaseResult results[2];
  for (const bool warm : {false, true}) {
    GraphDataset ds;
    ds.Bootstrap(corpus);
    ReplayEvolution(ds, corpus, plan, cfg, last_query);
    GraphCachePlus gc(&ds, EngineOptions(cfg, dir, interval_us));
    PhaseResult pre;
    if (warm) {
      const auto t0 = std::chrono::steady_clock::now();
      const Status st = gc.WarmRestart(&pre.restart);
      pre.restart_ms =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()) /
          1e6;
      if (!st.ok()) {
        std::fprintf(stderr, "FAIL: warm restart: %s\n",
                     st.ToString().c_str());
        ++failures;
      }
    }
    PhaseResult r = MeasurePhase(gc, w);
    r.restart = pre.restart;
    r.restart_ms = pre.restart_ms;
    results[warm ? 1 : 0] = std::move(r);
  }
  const PhaseResult& cold = results[0];
  const PhaseResult& warm = results[1];

  // --- Gates -------------------------------------------------------------
  if (cold.answers_digest != oracle_digest) {
    std::fprintf(stderr, "FAIL: cold answers diverged from the oracle\n");
    ++failures;
  }
  if (warm.answers_digest != oracle_digest) {
    std::fprintf(stderr, "FAIL: warm answers diverged from the oracle\n");
    ++failures;
  }
  if (!warm.restart.warm || warm.restart.entries == 0) {
    std::fprintf(stderr,
                 "FAIL: warm phase did not restore a checkpoint (warm=%d, "
                 "entries=%zu, rejected=%zu)\n",
                 warm.restart.warm ? 1 : 0, warm.restart.entries,
                 warm.restart.rejected);
    ++failures;
  }
  if (warm.overall_hit_rate < cold.overall_hit_rate) {
    std::fprintf(stderr,
                 "FAIL: warm hit rate %.3f below cold %.3f — the restore "
                 "lost ground\n",
                 warm.overall_hit_rate, cold.overall_hit_rate);
    ++failures;
  }

  // --- Report ------------------------------------------------------------
  const double threshold = 0.8 * warm.overall_hit_rate;
  const std::size_t cold_ttw = TimeToWarmQueries(cold, threshold);
  const std::size_t warm_ttw = TimeToWarmQueries(warm, threshold);
  std::printf(
      "warm restart: %s (%zu entries, %zu siblings rejected, watermark "
      "%llu) in %.2f ms\n\n",
      warm.restart.warm ? "restored" : "cold start", warm.restart.entries,
      warm.restart.rejected,
      static_cast<unsigned long long>(warm.restart.watermark),
      warm.restart_ms);
  std::printf("%-8s %12s %12s %14s %14s\n", "phase", "hit rate", "avg q ms",
              "ttw queries", "restart ms");
  std::printf("%-8s %12.3f %12.5f %14zu %14.2f\n", "cold",
              cold.overall_hit_rate, cold.avg_query_ms, cold_ttw, 0.0);
  std::printf("%-8s %12.3f %12.5f %14zu %14.2f\n", "warm",
              warm.overall_hit_rate, warm.avg_query_ms, warm_ttw,
              warm.restart_ms);
  std::printf("\nrecovery curve (hit rate per %zu-query window):\n",
              cold.window_queries);
  const std::size_t windows = std::max(cold.window_hit_rate.size(),
                                       warm.window_hit_rate.size());
  for (std::size_t i = 0; i < windows; ++i) {
    const double c =
        i < cold.window_hit_rate.size() ? cold.window_hit_rate[i] : 0.0;
    const double h =
        i < warm.window_hit_rate.size() ? warm.window_hit_rate[i] : 0.0;
    std::printf("  w%02zu  cold %.3f  warm %.3f\n", i, c, h);
  }

  if (!cfg.json_path.empty()) {
    JsonWriter json(cfg.json_path, "restart", cfg);
    for (int p = 0; p < 2; ++p) {
      const PhaseResult& r = results[p];
      const char* phase = p == 0 ? "cold" : "warm";
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "\"phase\": \"%s\", \"row\": \"summary\", "
          "\"overall_hit_rate\": %.4f, \"avg_query_ms\": %.5f, "
          "\"time_to_warm_queries\": %zu, \"restart_ms\": %.3f, "
          "\"restored_entries\": %zu, \"siblings_rejected\": %zu, "
          "\"answers_digest\": %llu",
          phase, r.overall_hit_rate, r.avg_query_ms,
          TimeToWarmQueries(r, threshold), r.restart_ms, r.restart.entries,
          r.restart.rejected,
          static_cast<unsigned long long>(r.answers_digest));
      json.Row(buf);
      for (std::size_t i = 0; i < r.window_hit_rate.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "\"phase\": \"%s\", \"row\": \"curve\", "
                      "\"window\": %zu, \"first_query\": %zu, "
                      "\"hit_rate\": %.4f",
                      phase, i, i * r.window_queries, r.window_hit_rate[i]);
        json.Row(buf);
      }
    }
  }

  std::printf(
      "\n# Expected shape: identical answer digests across oracle, cold and\n"
      "# warm (restores never change answers). The warm curve starts at or\n"
      "# near its steady-state hit rate (time-to-warm ~1 query) while the\n"
      "# cold curve climbs from 0 over several windows; warm overall hit\n"
      "# rate >= cold. Restart cost is the read+validate+apply of the\n"
      "# newest surviving checkpoint, a few ms at bench scale.\n");
  return failures == 0 ? 0 : 1;
}
