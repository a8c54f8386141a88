// Byte-budget torture: one engine under a budget that binds, hammered by
// closed-loop clients. Queue backpressure must drain inline (counted,
// never dropped), and allocation-fault chaos must degrade admissions
// without changing an answer, while every drain's byte pass keeps the
// stores under the budget (sanitizer-gated: the suite runs as the ASan
// torture label and matches the TSan CI shard).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/alloc_fault.hpp"
#include "core/graphcache_plus.hpp"
#include "dataset/aids_like.hpp"
#include "store_invariants.hpp"
#include "workload/type_a.hpp"

namespace gcp {
namespace {

using testing::ExpectStoreInvariants;

/// Below what the entry-count caps admit at this scale, so the byte pass
/// (and the fragment slice's) fires.
constexpr std::size_t kBudget = 4096;

std::vector<Graph> TortureCorpus() {
  AidsLikeOptions opts;
  opts.num_graphs = 60;
  opts.mean_vertices = 8.0;
  opts.stddev_vertices = 2.0;
  opts.min_vertices = 4;
  opts.max_vertices = 12;
  opts.num_labels = 6;
  opts.seed = 97;
  return AidsLikeGenerator(opts).Generate();
}

GraphCachePlusOptions TortureOptions() {
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  opts.cache_capacity = 16;
  opts.window_capacity = 4;
  opts.fragment_capacity = 24;
  opts.byte_budget = kBudget;
  return opts;
}

/// Ground truth on the same (static) dataset: uncached Method M.
std::vector<std::vector<GraphId>> Truth(const std::vector<Graph>& corpus,
                                        const Workload& w, std::size_t n) {
  GraphDataset ds;
  ds.Bootstrap(corpus);
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  opts.enable_admission = false;
  opts.enable_exact_shortcut = false;
  opts.enable_empty_answer_shortcut = false;
  GraphCachePlus gc(&ds, opts);
  std::vector<std::vector<GraphId>> truth;
  for (std::size_t i = 0; i < n; ++i) {
    truth.push_back(gc.SubgraphQuery(w.queries[i].query).answer);
  }
  return truth;
}

TEST(BudgetTortureTest, QueueBackpressureInlineDrainsAreCounted) {
  const std::vector<Graph> corpus = TortureCorpus();
  const Workload w = GenerateTypeAByName(corpus, "UU", 400, /*seed=*/7,
                                         /*zipf_alpha=*/1.0);
  const std::vector<std::vector<GraphId>> truth = Truth(corpus, w, 400);

  GraphCachePlusOptions opts = TortureOptions();
  // One shard with a single-slot queue: any two in-flight batches collide
  // and the loser must drain inline (counted, never dropped).
  opts.maintenance_queue_capacity = 1;

  // A collision needs two clients in the push window at once — on a
  // loaded machine one round of 400 queries can serialize cleanly, so
  // retry with a fresh engine until the counter moves. The answers and
  // lock-discipline checks hold on every round regardless.
  constexpr std::size_t kThreads = 4;
  constexpr int kMaxRounds = 25;
  std::uint64_t inline_drains = 0;
  for (int round = 0; round < kMaxRounds && inline_drains == 0; ++round) {
    GraphDataset ds;
    ds.Bootstrap(corpus);
    GraphCachePlus gc(&ds, opts);
    std::atomic<std::size_t> next{0};
    std::atomic<int> mismatches{0};
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&] {
        // Spin-start barrier: release all clients into the engine at
        // once to maximize hand-off overlap.
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (ready.load(std::memory_order_acquire) < kThreads) {
        }
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= 400) return;
          if (gc.SubgraphQuery(w.queries[i].query).answer != truth[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& c : clients) c.join();
    gc.FlushMaintenance();
    EXPECT_EQ(mismatches.load(), 0) << "mismatch in round " << round;
    EXPECT_EQ(gc.cache_shards().lock_violations(), 0u);
    inline_drains = gc.CacheStatsSnapshot().backpressure_inline_drains;
  }
  EXPECT_GT(inline_drains, 0u)
      << "a single-slot queue under 4 clients never overflowed in "
      << kMaxRounds << " rounds";
}

TEST(BudgetTortureTest, ChaosAllocFaultsUnderBudgetStayExact) {
  const std::vector<Graph> corpus = TortureCorpus();
  const Workload w = GenerateTypeAByName(corpus, "ZU", 600, /*seed=*/8,
                                         /*zipf_alpha=*/1.2);
  const std::vector<std::vector<GraphId>> truth = Truth(corpus, w, 600);

  GraphDataset ds;
  ds.Bootstrap(corpus);
  GraphCachePlusOptions opts = TortureOptions();
  opts.num_shards = 4;
  opts.maintenance_thread = true;
  GraphCachePlus gc(&ds, opts);

  ScriptedAllocationFaultInjector injector;
  ScopedAllocationFaultInjector scope(&injector);

  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> next{0};
  std::atomic<int> mismatches{0};
  std::atomic<bool> chaos_on{true};
  // Chaos: strobe admission and fragment-admission faults while the
  // clients hammer the engine and the drains evict under the budget.
  std::thread chaos([&] {
    for (int round = 0; chaos_on.load(std::memory_order_relaxed); ++round) {
      injector.FailSite(AllocSite::kAdmission, round % 2 == 0);
      injector.FailSite(AllocSite::kFragmentAdmission, round % 3 == 0);
      std::this_thread::yield();
    }
    injector.DisarmScript();
  });
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= 600) return;
        if (gc.SubgraphQuery(w.queries[i].query).answer != truth[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  chaos_on.store(false, std::memory_order_relaxed);
  chaos.join();
  gc.FlushMaintenance();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(gc.cache_shards().lock_violations(), 0u);
  const StatisticsManager after = gc.CacheStatsSnapshot();
  EXPECT_GT(after.byte_budget_evictions, 0u) << "the budget never bound";
  EXPECT_LE(after.approx_graph_bytes + after.approx_bitset_bytes, kBudget);
  EXPECT_GT(after.alloc_failed_admissions, 0u) << "no fault ever fired";
  ExpectStoreInvariants(gc, "post-chaos");
  // Post-chaos serving is fully functional.
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(gc.SubgraphQuery(w.queries[i].query).answer, truth[i]);
  }
  gc.FlushMaintenance();
  EXPECT_GE(gc.CacheStatsSnapshot().total_admissions, after.total_admissions);
}

}  // namespace
}  // namespace gcp
