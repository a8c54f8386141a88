// Allocation-fault matrix (PR 10): the OOM analogue of the crash matrix.
// Every discretionary allocation the engine makes — arena block growth,
// whole-query admission, fragment admission, snapshot export — consults
// the process-global injector; this sweep fails the Nth consult for every
// N and demands the run degrade gracefully: answers bit-exact vs an
// uncached Method M oracle, no crash, the refused state simply shed. A
// blackout scenario (every site failing at once) must serve uncached and
// then recover to full caching once the faults stop.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.hpp"
#include "common/alloc_fault.hpp"
#include "core/graphcache_plus.hpp"

namespace gcp {
namespace {

using testing::MakeCycle;
using testing::MakePath;
using testing::MakeSingleton;
using testing::MakeStar;

std::vector<Graph> Corpus() {
  return {MakePath({0, 0, 1}),    MakePath({0, 1}),
          MakeCycle({0, 0, 0}),   MakePath({2, 0, 1}),
          MakeSingleton(2),       MakeStar({1, 0, 0, 2}),
          MakeCycle({1, 2, 1, 2}), MakePath({0, 1, 2, 0})};
}

std::vector<Graph> Queries() {
  return {MakePath({0, 1}),    MakeSingleton(0),     MakePath({0, 0}),
          MakeCycle({0, 0, 0}), MakePath({1, 2}),    MakeSingleton(2),
          MakePath({0, 1, 2}), MakeStar({1, 0, 0})};
}

constexpr int kMutationSteps = 5;

void Mutate(GraphDataset& ds, int step) {
  switch (step) {
    case 0: ds.AddGraph(MakePath({2, 2})); break;
    case 1: ASSERT_TRUE(ds.RemoveEdge(0, 0, 1).ok()); break;
    case 2: ds.AddGraph(MakeCycle({2, 0, 2})); break;
    case 3: ASSERT_TRUE(ds.DeleteGraph(4).ok()); break;
    case 4: ASSERT_TRUE(ds.AddEdge(0, 0, 1).ok()); break;
    default: FAIL() << "no such mutation step " << step;
  }
}

GraphCachePlusOptions EngineOptions() {
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  opts.cache_capacity = 8;
  opts.window_capacity = 2;
  opts.num_shards = 2;
  opts.fragment_capacity = 16;
  // A byte budget that never binds at this scale: every sweep iteration
  // runs the budgeted engine's accounting path.
  opts.byte_budget = std::size_t{1} << 30;
  return opts;
}

GraphCachePlusOptions OracleOptions() {
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  opts.enable_admission = false;
  opts.enable_exact_shortcut = false;
  opts.enable_empty_answer_shortcut = false;
  return opts;
}

/// The interleaved run every sweep iteration replays: queries, dataset
/// mutations, one explicit snapshot export. Appends each query's answer.
std::vector<std::vector<GraphId>> SeedRun(GraphCachePlus& gc,
                                          GraphDataset& ds) {
  std::vector<std::vector<GraphId>> answers;
  for (int step = 0; step <= kMutationSteps; ++step) {
    for (const Graph& q : Queries()) {
      answers.push_back(gc.SubgraphQuery(q).answer);
    }
    if (step == 2) {
      gc.FlushMaintenance();
      // Export consults kSnapshotExport; a refused export is a failed
      // (counted) export, never a crash or a state change.
      (void)gc.ExportSnapshot();
    }
    if (step < kMutationSteps) Mutate(ds, step);
  }
  gc.FlushMaintenance();
  return answers;
}

std::vector<std::vector<GraphId>> OracleAnswers() {
  GraphDataset ds;
  ds.Bootstrap(Corpus());
  GraphCachePlus gc(&ds, OracleOptions());
  std::vector<std::vector<GraphId>> answers;
  for (int step = 0; step <= kMutationSteps; ++step) {
    for (const Graph& q : Queries()) {
      answers.push_back(gc.SubgraphQuery(q).answer);
    }
    if (step < kMutationSteps) Mutate(ds, step);
  }
  return answers;
}

TEST(OomMatrixTest, FailingEveryNthAllocationKeepsAnswersExact) {
  const std::vector<std::vector<GraphId>> oracle = OracleAnswers();
  bool saw_admission = false;
  bool saw_fragment = false;
  bool saw_export = false;
  // Sweep the failing consult over the global allocation index until a
  // full run completes without the script firing — every discretionary
  // allocation has then hosted a failure once.
  for (std::uint64_t n = 0;; ++n) {
    ScriptedAllocationFaultInjector injector;
    injector.FailAt(n);
    ScopedAllocationFaultInjector scope(&injector);
    GraphDataset ds;
    ds.Bootstrap(Corpus());
    GraphCachePlus gc(&ds, EngineOptions());
    EXPECT_EQ(SeedRun(gc, ds), oracle) << "divergence with OOM at consult "
                                       << n;
    if (injector.fired() > 0) {
      switch (injector.fired_site()) {
        case AllocSite::kAdmission: saw_admission = true; break;
        case AllocSite::kFragmentAdmission: saw_fragment = true; break;
        case AllocSite::kSnapshotExport: saw_export = true; break;
        case AllocSite::kArenaBlock: break;
      }
    } else {
      break;  // n ran past every consult the run makes
    }
    ASSERT_LT(n, 512u) << "allocation sweep failed to terminate";
  }
  // The sweep actually crossed the cache's allocation sites (arena growth
  // is warm-up dependent, so it is not demanded here).
  EXPECT_TRUE(saw_admission);
  EXPECT_TRUE(saw_fragment);
  EXPECT_TRUE(saw_export);
}

TEST(OomMatrixTest, AllocationBlackoutServesUncachedThenRecovers) {
  const std::vector<std::vector<GraphId>> oracle = OracleAnswers();
  ScriptedAllocationFaultInjector injector;
  ScopedAllocationFaultInjector scope(&injector);
  for (const AllocSite site :
       {AllocSite::kArenaBlock, AllocSite::kAdmission,
        AllocSite::kFragmentAdmission, AllocSite::kSnapshotExport}) {
    injector.FailSite(site, true);
  }
  GraphDataset ds;
  ds.Bootstrap(Corpus());
  GraphCachePlus gc(&ds, EngineOptions());
  EXPECT_EQ(SeedRun(gc, ds), oracle);
  StatisticsManager starved = gc.CacheStatsSnapshot();
  // Every admission was refused: the engine served the whole run through
  // uncached Method M without learning a single query.
  EXPECT_EQ(starved.total_admissions, 0u);
  EXPECT_EQ(starved.fragment_admissions, 0u);
  EXPECT_GT(starved.alloc_failed_admissions, 0u);
  EXPECT_GT(starved.alloc_failed_fragments, 0u);
  EXPECT_FALSE(gc.ExportSnapshot().ok());

  // The faults stop: caching resumes on the same engine instance.
  injector.DisarmScript();
  for (const Graph& q : Queries()) {
    (void)gc.SubgraphQuery(q);
  }
  gc.FlushMaintenance();
  const StatisticsManager recovered = gc.CacheStatsSnapshot();
  EXPECT_GT(recovered.total_admissions, 0u);
  EXPECT_TRUE(gc.ExportSnapshot().ok());
}

TEST(OomMatrixTest, SnapshotExportFaultFailsCheckpointGracefully) {
  const std::string dir = ::testing::TempDir() + "/oom_export";
  GraphCachePlusOptions opts = EngineOptions();
  opts.checkpoint_dir = dir;
  GraphDataset ds;
  ds.Bootstrap(Corpus());
  GraphCachePlus gc(&ds, opts);
  for (const Graph& q : Queries()) {
    (void)gc.SubgraphQuery(q);
  }
  gc.FlushMaintenance();

  ScriptedAllocationFaultInjector injector;
  ScopedAllocationFaultInjector scope(&injector);
  injector.FailSite(AllocSite::kSnapshotExport, true);
  const Status refused = gc.CheckpointNow();
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  const StatisticsManager stats = gc.CacheStatsSnapshot();
  EXPECT_GE(stats.checkpoints_failed, 1u);
  EXPECT_EQ(stats.checkpoints_written, 0u);

  injector.DisarmScript();
  EXPECT_TRUE(gc.CheckpointNow().ok());
  EXPECT_GE(gc.CacheStatsSnapshot().checkpoints_written, 1u);
}

}  // namespace
}  // namespace gcp
