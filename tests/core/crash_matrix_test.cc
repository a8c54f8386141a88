// Crash-recovery matrix (PR 8): a checkpointing engine is killed at every
// injected fault point (open / write / fsync / rename, swept by global op
// index), restarted against an identically-replayed dataset lineage, and
// must recover to the last good checkpoint or a cold start — never a
// crash, never a silently-wrong cache. Every restarted engine's answers
// are compared bit-exactly against a cold-start uncached Method M oracle.
// Engine-level corruption (bit flips, truncation, foreign bytes) rides on
// top of the byte-level sweeps in checkpoint_test: here a bad newest
// sibling must degrade to the older one, and an all-bad directory must
// cold-start.

#include <gtest/gtest.h>

#include <string>
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

/// Crash model: the process dies at file-op `at` — that operation and
/// every one after it fail. (ScriptedFaultInjector's single-shot fault
/// models a *transient* I/O error instead; both sweeps run below.)
class CrashAtInjector : public FaultInjector {
 public:
  explicit CrashAtInjector(std::uint64_t at) : at_(at) {}

  Decision OnOp(Op /*op*/, const std::string& /*path*/,
                std::size_t /*len*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    Decision d;
    if (seen_++ >= at_) {
      fired_ = true;
      d.status = Status::IOError("crashed here");
    }
    return d;
  }

  bool fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fired_;
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t at_ = 0;
  std::uint64_t seen_ = 0;
  bool fired_ = false;
};

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

/// One deterministic dataset mutation per step. Replaying the same steps
/// onto a freshly bootstrapped dataset reproduces the change log exactly,
/// which is how a "restarted process" regains the lineage a checkpoint
/// was cut from.
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

void ReplayLineage(GraphDataset& ds, int upto_step) {
  ds.Bootstrap(Corpus());
  for (int s = 0; s < upto_step; ++s) Mutate(ds, s);
}

GraphCachePlusOptions EngineOptions(const std::string& dir,
                                    FaultInjector* fault) {
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kCon;
  opts.cache_capacity = 8;
  opts.window_capacity = 2;
  opts.num_shards = 2;
  opts.checkpoint_dir = dir;
  opts.checkpoint_keep = 4;
  opts.checkpoint_fault_injector = fault;
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

std::vector<std::vector<GraphId>> RunQueries(GraphCachePlus& gc) {
  std::vector<std::vector<GraphId>> answers;
  for (const Graph& q : Queries()) {
    answers.push_back(gc.SubgraphQuery(q).answer);
  }
  return answers;
}

/// Ground truth: a cold uncached Method M pass over the same lineage.
std::vector<std::vector<GraphId>> OracleAnswers() {
  GraphDataset ds;
  ReplayLineage(ds, kMutationSteps);
  GraphCachePlus gc(&ds, OracleOptions());
  return RunQueries(gc);
}

/// The seed run every scenario shares: warm the cache, checkpoint, keep
/// mutating, checkpoint again, mutate once more so the newest committed
/// checkpoint is stale vs the final dataset (recovery must fast-forward
/// through the change-log suffix). Checkpoint failures are expected when
/// a fault is armed — the run itself must never crash.
void SeedRun(const std::string& dir, FaultInjector* fault) {
  GraphDataset ds;
  ds.Bootstrap(Corpus());
  GraphCachePlus gc(&ds, EngineOptions(dir, fault));
  RunQueries(gc);
  Mutate(ds, 0);
  RunQueries(gc);
  Mutate(ds, 1);
  RunQueries(gc);
  gc.FlushMaintenance();
  (void)gc.CheckpointNow();  // last-good candidate #1
  Mutate(ds, 2);
  RunQueries(gc);
  Mutate(ds, 3);
  RunQueries(gc);
  gc.FlushMaintenance();
  (void)gc.CheckpointNow();  // last-good candidate #2
  Mutate(ds, 4);
  RunQueries(gc);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  EXPECT_TRUE(PruneCheckpoints(dir, 0).ok());
  return dir;
}

std::string NewestCheckpointPath(const std::string& dir) {
  const std::vector<std::uint64_t> seqs = ListCheckpointSeqs(dir);
  EXPECT_FALSE(seqs.empty());
  return dir + "/" + CheckpointFileName(seqs.front());
}

/// Restart against the full lineage and demand exact answers. Returns the
/// restart report for outcome assertions.
GraphCachePlus::WarmRestartReport RestartAndCheck(
    const std::string& dir, const std::vector<std::vector<GraphId>>& oracle) {
  GraphDataset ds;
  ReplayLineage(ds, kMutationSteps);
  GraphCachePlus gc(&ds, EngineOptions(dir, nullptr));
  GraphCachePlus::WarmRestartReport report;
  EXPECT_TRUE(gc.WarmRestart(&report).ok());
  EXPECT_EQ(RunQueries(gc), oracle);
  return report;
}

TEST(CrashMatrixTest, CrashAtEveryFaultPointRecoversToLastGoodOrCold) {
  const std::vector<std::vector<GraphId>> oracle = OracleAnswers();
  std::size_t cold_starts = 0;
  std::size_t warm_starts = 0;
  // Sweep the crash point over the global file-op index until a full
  // seed run completes with the crash never firing — at that point every
  // op has hosted a crash once.
  for (std::size_t k = 0;; ++k) {
    const std::string dir = FreshDir("crash_matrix");
    CrashAtInjector fault(k);
    SeedRun(dir, &fault);
    const bool fired = fault.fired();
    const auto report = RestartAndCheck(dir, oracle);
    if (report.warm) {
      ++warm_starts;
      EXPECT_GT(report.entries, 0u) << "crash at op " << k;
    } else {
      ++cold_starts;
      EXPECT_EQ(report.entries, 0u) << "crash at op " << k;
    }
    if (!fired) break;
    ASSERT_LT(k, 64u) << "fault-point sweep failed to terminate";
  }
  // Both outcomes must have been exercised: a crash during checkpoint #1
  // leaves nothing to recover (cold start), a crash during #2 leaves #1
  // (last-good), and the final crash-free pass is trivially warm.
  EXPECT_GT(cold_starts, 0u);
  EXPECT_GT(warm_starts, 0u);
}

TEST(CrashMatrixTest, TransientFaultAtEveryPointStillLeavesACheckpoint) {
  const std::vector<std::vector<GraphId>> oracle = OracleAnswers();
  // A single transient I/O error (one op fails, the process carries on)
  // can sink at most one of the two checkpoints, so every restart in
  // this sweep must come up warm.
  for (std::size_t k = 0;; ++k) {
    const std::string dir = FreshDir("transient_matrix");
    ScriptedFaultInjector fault;
    fault.FailAt(k, Status::IOError("transient"));
    SeedRun(dir, &fault);
    const bool fired = fault.fired();
    const auto report = RestartAndCheck(dir, oracle);
    EXPECT_TRUE(report.warm) << "transient fault at op " << k;
    EXPECT_GT(report.entries, 0u) << "transient fault at op " << k;
    if (!fired) break;
    ASSERT_LT(k, 64u) << "fault-point sweep failed to terminate";
  }
}

TEST(CrashMatrixTest, BitFlipInNewestDegradesToLastGood) {
  const std::vector<std::vector<GraphId>> oracle = OracleAnswers();
  const std::string dir = FreshDir("crash_bitflip");
  SeedRun(dir, nullptr);
  ASSERT_EQ(ListCheckpointSeqs(dir).size(), 2u);
  const std::string newest = NewestCheckpointPath(dir);
  auto bytes = ReadFileToString(newest);
  ASSERT_TRUE(bytes.ok());
  // Flip one bit in several spots across the envelope (header, meta,
  // body, footer regions); each corrupted newest must be rejected and
  // recovery must land on the older sibling.
  const std::size_t n = bytes.value().size();
  for (const std::size_t at : {std::size_t{1}, n / 4, n / 2, n - 2}) {
    std::string corrupt = bytes.value();
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x04);
    {
      AtomicFileWriter w(newest);
      ASSERT_TRUE(w.Open().ok());
      ASSERT_TRUE(w.Append(corrupt).ok());
      ASSERT_TRUE(w.Commit().ok());
    }
    const auto report = RestartAndCheck(dir, oracle);
    EXPECT_TRUE(report.warm) << "flip at byte " << at;
    EXPECT_EQ(report.rejected, 1u) << "flip at byte " << at;
  }
}

TEST(CrashMatrixTest, TruncatedNewestDegradesToLastGood) {
  const std::vector<std::vector<GraphId>> oracle = OracleAnswers();
  const std::string dir = FreshDir("crash_truncate");
  SeedRun(dir, nullptr);
  const std::string newest = NewestCheckpointPath(dir);
  auto bytes = ReadFileToString(newest);
  ASSERT_TRUE(bytes.ok());
  const std::size_t n = bytes.value().size();
  // Torn write at a sweep of prefix lengths (0 = empty file).
  for (std::size_t k = 0; k < n; k += std::max<std::size_t>(1, n / 16)) {
    {
      AtomicFileWriter w(newest);
      ASSERT_TRUE(w.Open().ok());
      ASSERT_TRUE(w.Append(bytes.value().substr(0, k)).ok());
      ASSERT_TRUE(w.Commit().ok());
    }
    const auto report = RestartAndCheck(dir, oracle);
    EXPECT_TRUE(report.warm) << "truncated to " << k << " bytes";
    EXPECT_EQ(report.rejected, 1u) << "truncated to " << k << " bytes";
  }
}

TEST(CrashMatrixTest, AllSiblingsCorruptFallsBackToColdStart) {
  const std::vector<std::vector<GraphId>> oracle = OracleAnswers();
  const std::string dir = FreshDir("crash_all_bad");
  SeedRun(dir, nullptr);
  const std::vector<std::uint64_t> seqs = ListCheckpointSeqs(dir);
  ASSERT_EQ(seqs.size(), 2u);
  for (const std::uint64_t seq : seqs) {
    AtomicFileWriter w(dir + "/" + CheckpointFileName(seq));
    ASSERT_TRUE(w.Open().ok());
    ASSERT_TRUE(w.Append("GCPCHKPT v1\nnot really\n").ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  const auto report = RestartAndCheck(dir, oracle);
  EXPECT_FALSE(report.warm);
  EXPECT_EQ(report.entries, 0u);
  EXPECT_EQ(report.rejected, 2u);
}

TEST(CrashMatrixTest, FsyncFailureLeavesTmpThatRecoveryIgnores) {
  const std::vector<std::vector<GraphId>> oracle = OracleAnswers();
  const std::string dir = FreshDir("crash_fsync");
  // Kill the SECOND checkpoint's file fsync: each commit fsyncs the file
  // then the parent directory, so kFsync ops run file#1, dir#1, file#2 —
  // the first checkpoint commits, the second leaves a torn tmp behind
  // exactly as a crash would.
  ScriptedFaultInjector fault;
  fault.FailAtKind(FaultInjector::Op::kFsync, 2, Status::IOError("fsync"));
  SeedRun(dir, &fault);
  EXPECT_TRUE(fault.fired());
  const std::vector<std::uint64_t> seqs = ListCheckpointSeqs(dir);
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_TRUE(
      FileExists(dir + "/" + CheckpointFileName(seqs.front() + 1) + ".tmp"));
  const auto report = RestartAndCheck(dir, oracle);
  EXPECT_TRUE(report.warm);
  EXPECT_EQ(report.rejected, 0u);  // the tmp was never even considered
}

TEST(CrashMatrixTest, DoubleRestartIsStableAndSeqsAdvance) {
  const std::vector<std::vector<GraphId>> oracle = OracleAnswers();
  const std::string dir = FreshDir("crash_double");
  SeedRun(dir, nullptr);
  const std::uint64_t newest_before = ListCheckpointSeqs(dir).front();
  // First restarted process: warm, then cuts its own checkpoint — the
  // seq must continue above the on-disk horizon, not clobber it.
  {
    GraphDataset ds;
    ReplayLineage(ds, kMutationSteps);
    GraphCachePlus gc(&ds, EngineOptions(dir, nullptr));
    GraphCachePlus::WarmRestartReport report;
    ASSERT_TRUE(gc.WarmRestart(&report).ok());
    EXPECT_TRUE(report.warm);
    EXPECT_EQ(RunQueries(gc), oracle);
    gc.FlushMaintenance();
    ASSERT_TRUE(gc.CheckpointNow().ok());
  }
  EXPECT_GT(ListCheckpointSeqs(dir).front(), newest_before);
  // Second restarted process: warm again from the newer checkpoint.
  const auto report = RestartAndCheck(dir, oracle);
  EXPECT_TRUE(report.warm);
  EXPECT_GT(report.entries, 0u);
}

TEST(CrashMatrixTest, PostRestoreReconcileTouchesEveryRestoredEntry) {
  const std::string dir = FreshDir("crash_balance");
  SeedRun(dir, nullptr);
  GraphDataset ds;
  ReplayLineage(ds, kMutationSteps);
  GraphCachePlusOptions opts = EngineOptions(dir, nullptr);
  // No admissions after restart: the resident population stays exactly
  // the restored entries, so the first reconcile's accounting is pinned.
  opts.enable_admission = false;
  GraphCachePlus gc(&ds, opts);
  GraphCachePlus::WarmRestartReport report;
  ASSERT_TRUE(gc.WarmRestart(&report).ok());
  ASSERT_TRUE(report.warm);
  ASSERT_GT(report.entries, 0u);
  // The checkpoint may carry more entries than the capacity-capped
  // restore admits; the resident population is what restore reported.
  const StatisticsManager before = gc.CacheStatsSnapshot();
  const std::uint64_t resident = before.restored_entries;
  ASSERT_GT(resident, 0u);
  EXPECT_LE(resident, report.entries);
  // One change batch + one query forces the first post-restore reconcile
  // across every shard; Algorithm 2 must run over exactly the restored
  // population.
  ds.AddGraph(MakeSingleton(1));
  (void)gc.SubgraphQuery(MakePath({0, 1}));
  const StatisticsManager after = gc.CacheStatsSnapshot();
  EXPECT_EQ(after.reconcile_entries_touched - before.reconcile_entries_touched,
            resident);
  EXPECT_EQ(after.reconcile_entries_skipped, 0u);
}

TEST(CrashMatrixTest, WarmRestartUnderByteBudgetKeepsWhatFits) {
  const std::vector<std::vector<GraphId>> oracle = OracleAnswers();
  const std::string dir = FreshDir("crash_byte_budget");
  SeedRun(dir, nullptr);  // the donor cut its checkpoints with no budget

  // Measure the unconstrained restore so the budgeted run below is
  // guaranteed to be over budget regardless of entry sizes.
  std::uint64_t full_bytes = 0;
  std::uint64_t full_resident = 0;
  {
    GraphDataset ds;
    ReplayLineage(ds, kMutationSteps);
    GraphCachePlus gc(&ds, EngineOptions(dir, nullptr));
    ASSERT_TRUE(gc.WarmRestart(nullptr).ok());
    for (std::size_t s = 0; s < gc.cache_shards().num_shards(); ++s) {
      full_bytes += gc.cache_shards().shard(s).approx_entry_bytes();
    }
    full_resident = gc.CacheStatsSnapshot().restored_entries;
    ASSERT_GT(full_resident, 1u);
    ASSERT_GT(full_bytes, 0u);
  }

  GraphDataset ds;
  ReplayLineage(ds, kMutationSteps);
  GraphCachePlusOptions opts = EngineOptions(dir, nullptr);
  // Half the measured footprint: the summed per-shard slices are below
  // what the full restore holds, so at least one shard must drop.
  opts.byte_budget = full_bytes / 2;
  // No admissions after restart: the resident population stays exactly
  // the restored survivors, pinning the first-drain count below.
  opts.enable_admission = false;
  GraphCachePlus gc(&ds, opts);
  GraphCachePlus::WarmRestartReport report;
  ASSERT_TRUE(gc.WarmRestart(&report).ok());
  ASSERT_TRUE(report.warm);

  const StatisticsManager before = gc.CacheStatsSnapshot();
  EXPECT_GT(before.restore_budget_dropped, 0u);
  const std::uint64_t resident = before.restored_entries;
  EXPECT_GT(resident, 0u);
  EXPECT_LT(resident, full_resident);
  // Survivors respect the per-shard slice, and the incremental gauge the
  // restore rebuilt matches a from-scratch recompute of the footprints.
  for (std::size_t s = 0; s < gc.cache_shards().num_shards(); ++s) {
    const CacheManager& shard = gc.cache_shards().shard(s);
    EXPECT_LE(shard.approx_entry_bytes(), shard.entry_byte_budget());
    std::uint64_t recomputed = 0;
    shard.ForEachEntry([&recomputed](const CachedQuery& e) {
      EXPECT_EQ(e.approx_bytes, ApproxEntryBytes(e));
      recomputed += ApproxEntryBytes(e);
    });
    EXPECT_EQ(shard.approx_entry_bytes(), recomputed);
  }
  // A budget-trimmed warm cache still answers bit-exactly.
  EXPECT_EQ(RunQueries(gc), oracle);
  gc.FlushMaintenance();
  // The first post-restore reconcile runs over the full trimmed
  // population.
  const StatisticsManager pre_drain = gc.CacheStatsSnapshot();
  ds.AddGraph(MakeSingleton(1));
  (void)gc.SubgraphQuery(MakePath({0, 1}));
  const StatisticsManager after = gc.CacheStatsSnapshot();
  EXPECT_EQ(
      after.reconcile_entries_touched - pre_drain.reconcile_entries_touched,
      resident);
}

}  // namespace
}  // namespace gcp
