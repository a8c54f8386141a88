// Reconciliation equivalence gates:
//
// 1. ReconciliationEquivalenceTest — over a 300-step churn of interleaved
//    queries and dataset changes, an engine reconciling through the
//    change-relevance index must answer every query exactly as an
//    uncached Method M engine replaying the same churn does, across
//    {CON, EVI} × shards {1, 8}. The localized churn makes the screen
//    skip entries under CON (EVI purges everything). Under CON the churn
//    also fades resident twins that later repeats refresh in place at
//    drain time (asserted to happen); the merged bitsets must keep every
//    relevance footprint a superset and every byte gauge exact. That the
//    screen itself is bit-exact against brute-force Algorithm 2 is pinned
//    at the store level by
//    RelevanceIndexManagerTest.ValidateRelevantMatchesOracleRandomized.
//
// 2. DeltaRevalidationEquivalenceTest — with delta re-validation ON,
//    answers stay exact vs uncached Method M, the delta counters prove
//    the hook actually ran, and the relevance screen still skips entries.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/graphcache_plus.hpp"
#include "dataset/aids_like.hpp"
#include "store_invariants.hpp"
#include "workload/type_a.hpp"

namespace gcp {
namespace {

std::vector<Graph> ChurnCorpus(std::uint64_t seed) {
  AidsLikeOptions opts;
  opts.num_graphs = 120;  // several 64-id footprint blocks
  opts.mean_vertices = 9.0;
  opts.stddev_vertices = 3.0;
  opts.min_vertices = 4;
  opts.max_vertices = 14;
  opts.num_labels = 8;
  opts.seed = seed;
  return AidsLikeGenerator(opts).Generate();
}

struct EngineConfig {
  std::string label;
  bool delta = false;
  std::size_t shards = 1;
  std::size_t retro_budget = 0;
  bool admission = true;  // false = uncached Method M passthrough
};

struct EngineUnderTest {
  EngineConfig cfg;
  std::unique_ptr<GraphDataset> ds;
  std::unique_ptr<GraphCachePlus> gc;
};

EngineUnderTest MakeEngine(const std::vector<Graph>& corpus, CacheModel model,
                           const EngineConfig& cfg) {
  EngineUnderTest e;
  e.cfg = cfg;
  e.ds = std::make_unique<GraphDataset>();
  e.ds->Bootstrap(corpus);
  GraphCachePlusOptions opts;
  opts.model = model;
  opts.cache_capacity = 16;
  opts.window_capacity = 4;
  opts.num_shards = cfg.shards;
  opts.delta_revalidation = cfg.delta;
  opts.retrospective_budget = cfg.retro_budget;
  opts.use_ftv_index = true;  // the delta fallback's feature prescreen
  if (!cfg.admission) {
    opts.enable_admission = false;
    opts.enable_exact_shortcut = false;
    opts.enable_empty_answer_shortcut = false;
  }
  e.gc = std::make_unique<GraphCachePlus>(e.ds.get(), opts);
  return e;
}

/// Localized churn: every batch grows the id range (new graphs land in
/// the newest 64-id blocks) and aims its edge ops at recently added ids,
/// so each batch's footprint covers a shrinking fraction of the resident
/// entries' — the access pattern the relevance index exists for. A slow
/// trickle of deletions of old ids keeps structural ops in the mix.
void ApplyChurnChanges(GraphDataset& ds, const std::vector<Graph>& corpus,
                       std::size_t step) {
  ds.AddGraph(corpus[(5 * step + 2) % corpus.size()]);
  const std::vector<GraphId> live = ds.LiveIds();
  // Edge ops on the most recently added live graphs.
  std::size_t mutated = 0;
  for (std::size_t i = live.size(); i-- > 0 && mutated < 3;) {
    const GraphId id = live[i];
    const Graph& g = ds.graph(id);
    if (g.NumVertices() >= 2 && g.HasEdge(0, 1)) {
      ASSERT_TRUE(ds.RemoveEdge(id, 0, 1).ok());
      if ((step + mutated) % 2 == 0) {
        ASSERT_TRUE(ds.AddEdge(id, 0, 1).ok());
      }
      ++mutated;
    }
  }
  if (step % 3 == 0) {
    const GraphId victim = live[(13 * step + 7) % (live.size() / 2 + 1)];
    ASSERT_TRUE(ds.DeleteGraph(victim).ok());
  }
}

/// Replays `w` and its churn through `cached` and an uncached Method M
/// engine, checking every answer (plus one settling query after the last
/// batch, so both engines end reconciled).
void ReplayAgainstMethodM(const std::vector<Graph>& corpus,
                          const Workload& w, EngineUnderTest& cached,
                          EngineUnderTest& method_m) {
  for (std::size_t step = 0; step < w.size(); ++step) {
    if (step % 7 == 5) {
      for (EngineUnderTest* e : {&cached, &method_m}) {
        e->gc->ApplyDatasetChanges([&corpus, step](GraphDataset& d) {
          ApplyChurnChanges(d, corpus, step);
        });
      }
      continue;
    }
    const QueryKind kind =
        step % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph;
    const Graph& q = w.queries[step].query;
    EXPECT_EQ(cached.gc->Query(q, kind).answer,
              method_m.gc->Query(q, kind).answer)
        << cached.cfg.label << " diverged from uncached Method M at step "
        << step;
  }
  const Graph& settle = w.queries[0].query;
  EXPECT_EQ(cached.gc->Query(settle, QueryKind::kSubgraph).answer,
            method_m.gc->Query(settle, QueryKind::kSubgraph).answer);
  cached.gc->FlushMaintenance();
}

void RunReconcileReplay(CacheModel model, std::size_t shards) {
  constexpr std::size_t kSteps = 300;
  const std::vector<Graph> corpus = ChurnCorpus(4321);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/909,
                                         /*zipf_alpha=*/1.2);

  const std::size_t retro = model == CacheModel::kCon ? 4 : 0;
  EngineUnderTest indexed = MakeEngine(
      corpus, model, EngineConfig{"relevance-index", false, shards, retro});
  EngineUnderTest method_m = MakeEngine(
      corpus, model,
      EngineConfig{"uncached-method-m", false, shards, 0,
                   /*admission=*/false});
  ReplayAgainstMethodM(corpus, w, indexed, method_m);

  const StatisticsManager is = indexed.gc->CacheStatsSnapshot();
  EXPECT_GT(is.total_admissions, 0u);
  testing::ExpectStoreInvariants(*indexed.gc, indexed.cfg.label);
  EXPECT_EQ(is.delta_revalidations + is.delta_fallback_full_checks, 0u);
  if (model == CacheModel::kCon) {
    // Repeats found their twin faded and refreshed it in place; the
    // merged bitsets passed the checks above.
    EXPECT_GT(is.total_admission_refreshes, 0u);
    // Localized churn against block-granular footprints must actually
    // skip entries — the point of the index.
    EXPECT_GT(is.reconcile_entries_skipped, 0u);
    EXPECT_GT(is.reconcile_entries_touched, 0u);
  } else {
    // EVI never fades a resident: it purges, touching everything.
    EXPECT_EQ(is.total_admission_refreshes, 0u);
    EXPECT_EQ(is.reconcile_entries_skipped, 0u);
  }
}

TEST(ReconciliationEquivalenceTest, ConLockSingleShard) {
  RunReconcileReplay(CacheModel::kCon, /*shards=*/1);
}

TEST(ReconciliationEquivalenceTest, ConLockEightShards) {
  RunReconcileReplay(CacheModel::kCon, /*shards=*/8);
}

TEST(ReconciliationEquivalenceTest, EviLockSingleShard) {
  RunReconcileReplay(CacheModel::kEvi, /*shards=*/1);
}

TEST(ReconciliationEquivalenceTest, EviLockEightShards) {
  RunReconcileReplay(CacheModel::kEvi, /*shards=*/8);
}

void RunDeltaReplay() {
  constexpr std::size_t kSteps = 300;
  const std::vector<Graph> corpus = ChurnCorpus(8765);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/909,
                                         /*zipf_alpha=*/1.2);

  // Delta keeps/rewrites bits fading would clear, so its CGvalid state
  // legitimately differs from a fade-only engine's — but answers must not.
  EngineUnderTest delta = MakeEngine(
      corpus, CacheModel::kCon, EngineConfig{"delta,relevance-index", true, 2});
  EngineUnderTest method_m = MakeEngine(
      corpus, CacheModel::kCon,
      EngineConfig{"uncached-method-m", false, 2, 0, /*admission=*/false});
  ReplayAgainstMethodM(corpus, w, delta, method_m);

  const StatisticsManager is = delta.gc->CacheStatsSnapshot();
  EXPECT_GT(is.delta_revalidations + is.delta_fallback_full_checks, 0u);
  EXPECT_GT(is.reconcile_entries_skipped, 0u);
  testing::ExpectStoreInvariants(*delta.gc, delta.cfg.label);
}

TEST(DeltaRevalidationEquivalenceTest, LockPath) { RunDeltaReplay(); }

}  // namespace
}  // namespace gcp
