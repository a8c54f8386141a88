#include "workload/runner.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common/stopwatch.hpp"

namespace gcp {

std::string_view RunModeName(RunMode mode) {
  switch (mode) {
    case RunMode::kMethodM:
      return "M";
    case RunMode::kEvi:
      return "EVI";
    case RunMode::kCon:
      return "CON";
  }
  return "Unknown";
}

namespace {

/// The whole-query footprint a byte budget governs: graphs + bitsets.
std::uint64_t ResidentBytes(const StatisticsManager& stats) {
  return stats.approx_graph_bytes + stats.approx_bitset_bytes;
}

/// Fires every plan batch due at query `i` through ApplyDatasetChanges.
/// Never by mutating the dataset directly, not even in a serial loop: a
/// maintenance thread's drains read the dataset meanwhile.
void FireDueBatches(GraphCachePlus& gc, ChangePlanExecutor& executor,
                    std::size_t i) {
  if (executor.NextBatchAt() > i) return;
  gc.ApplyDatasetChanges([&executor, i](GraphDataset&) {
    executor.AdvanceTo(static_cast<std::uint32_t>(i));
  });
}

/// N client threads pull query tickets from a shared counter; whichever
/// thread draws a query with a due change batch fires it (exclusive
/// lock) before querying. `answers` must be pre-sized: each slot is
/// written by exactly one thread.
void RunClientsConcurrently(GraphCachePlus& gc, const Workload& workload,
                            ChangePlanExecutor& executor,
                            const RunnerConfig& config, std::size_t first,
                            std::vector<std::vector<GraphId>>* answers) {
  std::atomic<std::size_t> ticket{first};
  std::mutex plan_mu;
  auto client = [&] {
    for (std::size_t i = ticket.fetch_add(1); i < workload.size();
         i = ticket.fetch_add(1)) {
      {
        std::lock_guard<std::mutex> lock(plan_mu);
        FireDueBatches(gc, executor, i);
      }
      QueryResult r = gc.Query(workload.queries[i].query, config.query_kind);
      if (answers != nullptr) (*answers)[i] = std::move(r.answer);
    }
  };
  std::vector<std::thread> clients;
  clients.reserve(config.client_threads);
  for (std::size_t t = 0; t < config.client_threads; ++t) {
    clients.emplace_back(client);
  }
  for (auto& c : clients) c.join();
}

}  // namespace

RunReport RunWorkload(const std::vector<Graph>& initial,
                      const Workload& workload, const ChangePlan& plan,
                      const RunnerConfig& config) {
  GraphDataset dataset;
  dataset.Bootstrap(initial);
  ChangePlanExecutor executor(plan, initial, dataset, Rng(config.plan_seed));

  GraphCachePlusOptions opts;
  opts.method_m = config.method;
  opts.policy = config.policy;
  opts.cache_capacity = config.cache_capacity;
  opts.window_capacity = config.window_capacity;
  opts.verify_threads = config.verify_threads;
  opts.num_shards = config.shards;
  opts.maintenance_thread = config.maintenance_thread;
  opts.max_sub_hits = config.max_sub_hits;
  opts.max_super_hits = config.max_super_hits;
  opts.use_fragment_cache = config.fragments;
  opts.delta_revalidation = config.delta_revalidation;
  opts.retrospective_budget = config.retrospective_budget;
  opts.use_ftv_index = config.use_ftv;
  opts.checkpoint_dir = config.checkpoint_dir;
  opts.checkpoint_interval_us = config.checkpoint_interval_us;
  opts.byte_budget = config.byte_budget;
  switch (config.mode) {
    case RunMode::kMethodM:
      // Bare Method M: no admission ⇒ the cache stays empty and every
      // query is verified against the full live dataset.
      opts.model = CacheModel::kEvi;
      opts.enable_admission = false;
      opts.enable_exact_shortcut = false;
      opts.enable_empty_answer_shortcut = false;
      break;
    case RunMode::kEvi:
      opts.model = CacheModel::kEvi;
      break;
    case RunMode::kCon:
      opts.model = CacheModel::kCon;
      break;
  }

  GraphCachePlus gc(&dataset, opts);

  RunReport report;
  report.label = std::string(RunModeName(config.mode)) +
                 (config.use_ftv ? "+FTV" : "") + "/" +
                 std::string(MatcherKindName(config.method)) + "/" +
                 workload.name;
  if (config.record_answers) report.answers.resize(workload.size());

  if (config.warm_restart && !config.checkpoint_dir.empty()) {
    // Verified warm restart before the first query; a cold start (nothing
    // usable on disk) is a valid outcome, not an error.
    (void)gc.WarmRestart(&report.warm_restart_report);
  }

  const std::size_t warmup =
      config.warmup_queries < workload.size() ? config.warmup_queries : 0;
  std::vector<std::vector<GraphId>>* answers =
      config.record_answers ? &report.answers : nullptr;

  Stopwatch wall;
  Stopwatch measured_wall;
  if (config.client_threads <= 1) {
    for (std::size_t i = 0; i < workload.size(); ++i) {
      FireDueBatches(gc, executor, i);
      QueryResult r = gc.Query(workload.queries[i].query, config.query_kind);
      if (answers != nullptr) (*answers)[i] = std::move(r.answer);
      if (config.track_peak_resident_bytes) {
        report.peak_resident_bytes =
            std::max(report.peak_resident_bytes,
                     ResidentBytes(gc.CacheStatsSnapshot()));
      }
      if (warmup != 0 && i + 1 == warmup) {
        gc.ResetAggregate();
        measured_wall.Restart();
      }
    }
  } else {
    // Warm-up stays serial so every configuration starts its measured span
    // from the same deterministic warm cache.
    for (std::size_t i = 0; i < warmup; ++i) {
      FireDueBatches(gc, executor, i);
      QueryResult r = gc.Query(workload.queries[i].query, config.query_kind);
      if (answers != nullptr) (*answers)[i] = std::move(r.answer);
    }
    if (warmup != 0) gc.ResetAggregate();
    measured_wall.Restart();
    RunClientsConcurrently(gc, workload, executor, config, warmup, answers);
  }
  report.measured_wall_ms = measured_wall.ElapsedMillis();
  report.measured_queries = workload.size() - warmup;
  report.total_wall_ms = wall.ElapsedMillis();
  gc.FlushMaintenance();
  if (config.checkpoint_at_end && !config.checkpoint_dir.empty()) {
    // Persist the fully-settled warm cache (after the flush, so queued
    // admissions make it in). Off the measured span by construction.
    (void)gc.CheckpointNow();
  }
  report.agg = gc.AggregateSnapshot();
  report.cache_stats = gc.CacheStatsSnapshot();
  if (config.track_peak_resident_bytes) {
    report.peak_resident_bytes = std::max(report.peak_resident_bytes,
                                          ResidentBytes(report.cache_stats));
  }
  return report;
}

double QueryTimeSpeedup(const RunReport& base, const RunReport& cached) {
  const double cached_ms = cached.avg_query_ms();
  if (cached_ms <= 0.0) return 0.0;
  return base.avg_query_ms() / cached_ms;
}

double SiTestSpeedup(const RunReport& base, const RunReport& cached) {
  const double cached_tests = cached.avg_si_tests();
  if (cached_tests <= 0.0) return 0.0;
  return base.avg_si_tests() / cached_tests;
}

}  // namespace gcp
