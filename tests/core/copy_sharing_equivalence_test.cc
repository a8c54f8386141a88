// Copy-cost equivalence gates, in two halves:
//
// 1. CopySharingEquivalenceTest — over a 300-step churn of interleaved
//    queries and dataset changes, the SIMD kernels at the widest detected
//    level must replay the scalar kernels bit-exactly: same answers, same
//    resident population, same admission/eviction/hit counters. (That
//    discovery survivors share the resident graph instead of copying it
//    is pinned by ProcessorsTest.CollectShardSurvivorsShareResidentGraphs.)
//
// 2. Counter semantics: snapshot_summary_copies increments exactly once
//    per FTV-mutating change batch — zero on a churn-free run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/simd.hpp"
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

/// One engine under comparison and the process-global SIMD dispatch cap
/// it runs its queries under.
struct PathConfig {
  std::string label;
  simd::SimdLevel simd_level = simd::SimdLevel::kScalar;
};

struct EngineUnderTest {
  PathConfig cfg;
  std::unique_ptr<GraphDataset> ds;
  std::unique_ptr<GraphCachePlus> gc;

  /// Applies this engine's dispatch cap; call before every interaction
  /// (the engines in one replay run under different ones).
  void Activate() const { simd::SetSimdLevel(cfg.simd_level); }
};

EngineUnderTest MakeEngine(const std::vector<Graph>& corpus, CacheModel model,
                           const PathConfig& cfg) {
  EngineUnderTest e;
  e.cfg = cfg;
  e.ds = std::make_unique<GraphDataset>();
  e.ds->Bootstrap(corpus);
  GraphCachePlusOptions opts;
  opts.model = model;
  opts.cache_capacity = 16;
  opts.window_capacity = 4;
  opts.num_shards = 2;
  opts.use_ftv_index = true;  // summary-clone accounting live everywhere
  e.gc = std::make_unique<GraphCachePlus>(e.ds.get(), opts);
  return e;
}

void ApplyChurnChanges(GraphDataset& ds, const std::vector<Graph>& corpus,
                       std::size_t step) {
  ds.AddGraph(corpus[(5 * step + 2) % corpus.size()]);
  const std::vector<GraphId> live = ds.LiveIds();
  const GraphId victim = live[(13 * step + 7) % live.size()];
  ASSERT_TRUE(ds.DeleteGraph(victim).ok());
  for (const GraphId id : ds.LiveIds()) {
    const Graph& g = ds.graph(id);
    if (g.NumVertices() >= 2 && g.HasEdge(0, 1)) {
      ASSERT_TRUE(ds.RemoveEdge(id, 0, 1).ok());
      if (step % 2 == 0) {
        ASSERT_TRUE(ds.AddEdge(id, 0, 1).ok());
      }
      break;
    }
  }
}

std::vector<std::uint64_t> SortedResidentDigests(const GraphCachePlus& gc) {
  std::vector<std::uint64_t> digests;
  gc.cache_shards().ForEachEntry(
      [&digests](const CachedQuery& e) { digests.push_back(e.digest); });
  std::sort(digests.begin(), digests.end());
  return digests;
}

/// Restores the default dispatch cap when a test exits.
struct ToggleGuard {
  ~ToggleGuard() { simd::SetSimdLevel(simd::DetectedSimdLevel()); }
};

void RunChurnReplay(CacheModel model) {
  ToggleGuard guard;
  constexpr std::size_t kSteps = 300;
  const std::vector<Graph> corpus = SmallCorpus(4321);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/909,
                                         /*zipf_alpha=*/1.2);

  // The scalar oracle, then the shipped configuration.
  const PathConfig oracle_cfg{"scalar", simd::SimdLevel::kScalar};
  const std::vector<PathConfig> variant_cfgs = {
      {"simd", simd::DetectedSimdLevel()},
  };

  EngineUnderTest oracle = MakeEngine(corpus, model, oracle_cfg);
  std::vector<EngineUnderTest> variants;
  for (const PathConfig& cfg : variant_cfgs) {
    variants.push_back(MakeEngine(corpus, model, cfg));
  }

  std::size_t mutation_batches = 0;
  for (std::size_t step = 0; step < kSteps; ++step) {
    if (step % 7 == 5) {
      ++mutation_batches;
      oracle.Activate();
      oracle.gc->ApplyDatasetChanges([&corpus, step](GraphDataset& d) {
        ApplyChurnChanges(d, corpus, step);
      });
      for (EngineUnderTest& e : variants) {
        e.Activate();
        e.gc->ApplyDatasetChanges([&corpus, step](GraphDataset& d) {
          ApplyChurnChanges(d, corpus, step);
        });
      }
      continue;
    }
    const QueryKind kind =
        step % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph;
    const Graph& q = w.queries[step].query;
    oracle.Activate();
    const std::vector<GraphId> expect = oracle.gc->Query(q, kind).answer;
    for (EngineUnderTest& e : variants) {
      e.Activate();
      EXPECT_EQ(e.gc->Query(q, kind).answer, expect)
          << e.cfg.label << " diverged from the oracle at step " << step;
    }
  }

  // Settle: the churn ends on a mutation batch, which the engines absorb
  // (and FTV-sync) lazily at the next query. One more query puts every
  // engine at the same point in the sync cycle.
  oracle.Activate();
  const std::vector<GraphId> settle =
      oracle.gc->Query(w.queries[0].query, QueryKind::kSubgraph).answer;
  for (EngineUnderTest& e : variants) {
    e.Activate();
    EXPECT_EQ(e.gc->Query(w.queries[0].query, QueryKind::kSubgraph).answer,
              settle)
        << e.cfg.label;
  }

  oracle.Activate();
  oracle.gc->FlushMaintenance();
  const StatisticsManager oracle_stats = oracle.gc->CacheStatsSnapshot();
  const std::vector<std::uint64_t> oracle_digests =
      SortedResidentDigests(*oracle.gc);

  // The oracle admitted queries, and its summary clones happened exactly
  // once per mutating batch.
  EXPECT_GT(oracle_stats.total_admissions, 0u);
  EXPECT_EQ(oracle_stats.snapshot_summary_copies, mutation_batches);

  for (EngineUnderTest& e : variants) {
    e.Activate();
    e.gc->FlushMaintenance();
    const StatisticsManager stats = e.gc->CacheStatsSnapshot();
    // Identical replacement decisions...
    EXPECT_EQ(SortedResidentDigests(*e.gc), oracle_digests) << e.cfg.label;
    EXPECT_EQ(stats.total_admissions, oracle_stats.total_admissions)
        << e.cfg.label;
    EXPECT_EQ(stats.total_evictions, oracle_stats.total_evictions)
        << e.cfg.label;
    EXPECT_EQ(stats.total_admission_dedups,
              oracle_stats.total_admission_dedups)
        << e.cfg.label;
    EXPECT_EQ(stats.total_exact_hits, oracle_stats.total_exact_hits)
        << e.cfg.label;
    EXPECT_EQ(stats.total_sub_hits, oracle_stats.total_sub_hits)
        << e.cfg.label;
    EXPECT_EQ(stats.total_super_hits, oracle_stats.total_super_hits)
        << e.cfg.label;
    // ...and the same one-clone-per-mutating-batch FTV accounting.
    EXPECT_EQ(stats.snapshot_summary_copies, mutation_batches)
        << e.cfg.label;
  }
}

TEST(CopySharingEquivalenceTest, SimdBitExactVsScalarCon) {
  RunChurnReplay(CacheModel::kCon);
}

TEST(CopySharingEquivalenceTest, SimdBitExactVsScalarEvi) {
  RunChurnReplay(CacheModel::kEvi);
}

TEST(CopySharingEquivalenceTest, NoMutationsMeansNoSummaryCopies) {
  ToggleGuard guard;
  const std::vector<Graph> corpus = SmallCorpus(99);
  const Workload w = GenerateTypeAByName(corpus, "ZZ", 40, /*seed=*/17,
                                         /*zipf_alpha=*/1.2);
  EngineUnderTest e = MakeEngine(
      corpus, CacheModel::kCon, PathConfig{"simd", simd::DetectedSimdLevel()});
  e.Activate();
  for (std::size_t i = 0; i < w.size(); ++i) {
    e.gc->Query(w.queries[i].query,
                i % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph);
  }
  e.gc->FlushMaintenance();
  const StatisticsManager stats = e.gc->CacheStatsSnapshot();
  // With no FTV-mutating batch not one clone of the summaries is allowed.
  EXPECT_EQ(stats.snapshot_summary_copies, 0u);
  EXPECT_GT(stats.total_admissions, 0u);
}

}  // namespace
}  // namespace gcp
