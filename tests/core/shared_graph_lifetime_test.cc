// SharedGraphLifetimeTest — the sanitizer gate for shared-ownership
// graph reclamation (PR 6).
//
// Hit-discovery survivors alias the resident CachedQuery's Graph through
// a shared_ptr instead of deep-copying it under the shard lock, so an
// evicted or purged entry's graph must stay alive for as long as any
// in-flight query (or exported snapshot) can still reach it. This suite
// drives exactly the dangerous interleaving: a deliberately tiny cache
// (so resident graphs are evicted constantly) under racing client
// threads, a racing mutator, and the dedicated maintenance thread.
// ASan/UBSan turns a premature free into a use-after-free report; TSan
// (the suite name matches the TSan CI shard) checks the handoff
// ordering. A serial case additionally pins an exported entry's graph
// across a cache purge and keeps using it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cache/cache_manager.hpp"
#include "core/graphcache_plus.hpp"
#include "dataset/aids_like.hpp"
#include "workload/type_a.hpp"

namespace gcp {
namespace {

std::vector<Graph> SmallCorpus(std::uint64_t seed) {
  AidsLikeOptions opts;
  opts.num_graphs = 40;
  opts.mean_vertices = 9.0;
  opts.stddev_vertices = 3.0;
  opts.min_vertices = 4;
  opts.max_vertices = 14;
  opts.num_labels = 8;
  opts.seed = seed;
  return AidsLikeGenerator(opts).Generate();
}

constexpr std::size_t kThreads = 4;
constexpr std::size_t kQueries = 96;

void RunEvictionStorm(CacheModel model) {
  const std::vector<Graph> corpus = SmallCorpus(555);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kQueries, /*seed=*/47,
                                         /*zipf_alpha=*/1.2);

  GraphDataset ds;
  ds.Bootstrap(corpus);
  GraphCachePlusOptions opts;
  opts.model = model;
  // Tiny capacities: nearly every admission evicts a resident whose graph
  // a concurrent query may still alias.
  opts.cache_capacity = 4;
  opts.window_capacity = 2;
  opts.num_shards = 4;
  opts.maintenance_thread = true;
  opts.maintenance_interval_us = 100;
  opts.maintenance_queue_capacity = 4;
  GraphCachePlus gc(&ds, opts);

  std::atomic<std::size_t> ticket{0};
  std::atomic<bool> clients_done{false};
  std::atomic<std::uint64_t> answered{0};

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (std::size_t i = ticket.fetch_add(1); i < w.size();
           i = ticket.fetch_add(1)) {
        const QueryKind kind =
            i % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph;
        const QueryResult r = gc.Query(w.queries[i].query, kind);
        // Answers materialize from an id-indexed bitset, so they must come
        // back strictly increasing. (Checking ids against the dataset's
        // horizon here would race the mutator — the dataset may only be
        // inspected through the engine while mutations are in flight.)
        EXPECT_EQ(std::adjacent_find(r.answer.begin(), r.answer.end(),
                                     std::greater_equal<GraphId>()),
                  r.answer.end());
        answered.fetch_add(1);
      }
    });
  }
  // The mutator races evictions with dataset churn: EVI purges the whole
  // cache per batch (every resident graph dropped at once), CON fades
  // validity and keeps replacing.
  std::thread mutator([&] {
    std::size_t round = 0;
    do {
      gc.ApplyDatasetChanges([&corpus, &round](GraphDataset& d) {
        d.AddGraph(corpus[round % corpus.size()]);
        const std::vector<GraphId> live = d.LiveIds();
        if (live.size() > corpus.size() / 2) {
          d.DeleteGraph(live[(3 * round) % live.size()]).ok();
        }
        ++round;
      });
      std::this_thread::yield();
    } while (!clients_done.load());
  });
  for (auto& c : clients) c.join();
  clients_done.store(true);
  mutator.join();

  gc.FlushMaintenance();
  EXPECT_EQ(answered.load(), w.size());
  // Sharing did its job under the storm: not one graph was deep-copied
  // under a shard lock.
  EXPECT_EQ(gc.CacheStatsSnapshot().shard_lock_graph_copies, 0u);
  EXPECT_EQ(gc.cache_shards().lock_violations(), 0u);
}

TEST(SharedGraphLifetimeTest, EvictionStormCon) {
  RunEvictionStorm(CacheModel::kCon);
}

TEST(SharedGraphLifetimeTest, EvictionStormEvi) {
  RunEvictionStorm(CacheModel::kEvi);
}

// Serial pin: a graph exported from the cache must outlive the entry it
// came from (eviction, purge, engine teardown) for as long as the caller
// holds the shared_ptr.
TEST(SharedGraphLifetimeTest, ExportedGraphOutlivesPurge) {
  const std::vector<Graph> corpus = SmallCorpus(11);
  std::shared_ptr<const Graph> pinned;
  std::size_t pinned_vertices = 0;
  {
    GraphDataset ds;
    ds.Bootstrap(corpus);
    GraphCachePlusOptions opts;
    opts.model = CacheModel::kEvi;
    opts.cache_capacity = 4;
    opts.window_capacity = 2;
    GraphCachePlus gc(&ds, opts);
    const Workload w =
        GenerateTypeAByName(corpus, "ZZ", 16, /*seed=*/5, /*zipf_alpha=*/1.2);
    for (std::size_t i = 0; i < w.size(); ++i) {
      gc.Query(w.queries[i].query, QueryKind::kSubgraph);
    }
    gc.FlushMaintenance();
    const std::vector<CachedQuery> entries = gc.cache_shards().ExportEntries();
    ASSERT_FALSE(entries.empty());
    pinned = entries.front().query;  // aliases the resident graph
    ASSERT_NE(pinned, nullptr);
    pinned_vertices = pinned->NumVertices();
    // EVI purge drops every resident entry; the pinned graph must survive
    // it — and the engine teardown at scope exit.
    gc.ApplyDatasetChanges(
        [&corpus](GraphDataset& d) { d.AddGraph(corpus[0]); });
    gc.Query(w.queries[0].query, QueryKind::kSubgraph);
    gc.FlushMaintenance();
  }
  // Engine, dataset and cache are gone; the graph is not.
  EXPECT_EQ(pinned->NumVertices(), pinned_vertices);
  EXPECT_GT(pinned->NumVertices(), 0u);
}

}  // namespace
}  // namespace gcp
