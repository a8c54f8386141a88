// Background checkpointing vs racing mutators and readers (PR 8, TSan
// shard). The maintenance thread cuts checkpoints from live shard stores
// while query threads read and a mutator thread churns the dataset; an
// explicit CheckpointNow races the background one on checkpoint_mu_. The
// gates: no data race (TSan), at least one durable checkpoint, and a
// subsequent engine on the same dataset warm-restarts from it.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "cache/checkpoint.hpp"
#include "common/io.hpp"
#include "core/graphcache_plus.hpp"

namespace gcp {
namespace {

using testing::MakeCycle;
using testing::MakePath;
using testing::MakeSingleton;
using testing::MakeStar;

std::vector<Graph> Corpus() {
  std::vector<Graph> graphs;
  for (Label l = 0; l < 4; ++l) {
    graphs.push_back(MakePath({l, 0, 1}));
    graphs.push_back(MakeCycle({l, 1, 0}));
    graphs.push_back(MakeStar({l, 0, 1, 2}));
  }
  return graphs;
}

TEST(CheckpointConcurrencyTest, BackgroundCheckpointsUnderChurn) {
  const std::string dir =
      ::testing::TempDir() + "/checkpoint_concurrency";
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ASSERT_TRUE(PruneCheckpoints(dir, 0).ok());

  GraphDataset ds;
  ds.Bootstrap(Corpus());

  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  opts.cache_capacity = 12;
  opts.window_capacity = 3;
  opts.num_shards = 4;
  opts.maintenance_thread = true;
  opts.maintenance_interval_us = 100;
  opts.checkpoint_dir = dir;
  opts.checkpoint_interval_us = 300;  // fire often while the storm runs
  opts.checkpoint_keep = 3;

  {
    GraphCachePlus gc(&ds, opts);

    const std::vector<Graph> queries = {
        MakePath({0, 1}), MakeSingleton(0), MakePath({1, 0}),
        MakeCycle({0, 1, 0}), MakeStar({2, 0, 1})};
    std::atomic<bool> stop{false};

    std::thread reader_a([&] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)gc.SubgraphQuery(queries[i++ % queries.size()]);
      }
    });
    std::thread reader_b([&] {
      std::size_t i = 2;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)gc.SupergraphQuery(queries[i++ % queries.size()]);
      }
    });
    std::thread mutator([&] {
      std::size_t step = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        gc.ApplyDatasetChanges([&](GraphDataset& d) {
          d.AddGraph(MakePath({static_cast<Label>(step % 4), 1}));
          const std::vector<GraphId> live = d.LiveIds();
          if (step % 3 == 0 && live.size() > 8) {
            (void)d.DeleteGraph(live[step % (live.size() / 2)]);
          }
        });
        ++step;
      }
    });

    // Main thread: explicit checkpoints racing the background ones.
    for (int i = 0; i < 20; ++i) {
      (void)gc.CheckpointNow();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true, std::memory_order_relaxed);
    reader_a.join();
    reader_b.join();
    mutator.join();

    gc.FlushMaintenance();
    ASSERT_TRUE(gc.CheckpointNow().ok());

    const StatisticsManager stats = gc.CacheStatsSnapshot();
    EXPECT_GE(stats.checkpoints_written, 1u);
    EXPECT_GT(stats.checkpoint_bytes, 0u);
  }

  // The committed checkpoints survive the engine: a successor process on
  // the same dataset warm-restarts from the newest valid sibling.
  EXPECT_FALSE(ListCheckpointSeqs(dir).empty());
  GraphCachePlus restarted(&ds, opts);
  GraphCachePlus::WarmRestartReport report;
  ASSERT_TRUE(restarted.WarmRestart(&report).ok());
  EXPECT_TRUE(report.warm);
  (void)restarted.SubgraphQuery(MakePath({0, 1}));
}

}  // namespace
}  // namespace gcp
