// Reconciliation equivalence gates (PR 7):
//
// 1. ReconciliationEquivalenceTest — over a 300-step churn of interleaved
//    queries and dataset changes, reconciling through the change-relevance
//    index must replay the brute-force ValidateAll oracle bit-exactly —
//    same answers every step, same resident population with identical
//    CGvalid/answer indicators, same admission/eviction/hit counters —
//    across {CON, EVI} × {lock, epoch} × shards {1, 8}. An uncached
//    Method M engine replays the same churn as the ground-truth answer
//    oracle. The accounting invariant rides along: the two engines
//    process identical reconcile events, so indexed touched + skipped ==
//    oracle touched, oracle skipped == 0, and the localized churn makes
//    indexed skipped strictly positive under CON. Under CON the churn
//    also fades resident twins that later repeats refresh in place at
//    drain time (asserted to happen); the merged bitsets must keep every
//    relevance footprint a superset and every byte gauge exact.
//
// 2. DeltaRevalidationEquivalenceTest — with delta re-validation ON the
//    relevance screen still replays the oracle bit-exactly (the screen
//    skips exactly the entries whose pairs never reach Algorithm 2's
//    clear site, so the delta hook sees the same pair sequence), answers
//    stay exact vs a fade-only engine, and the delta counters prove the
//    hook actually ran.

#include <gtest/gtest.h>

#include <algorithm>
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
  bool relevance = true;
  bool delta = false;
  bool epoch = false;
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
  opts.epoch_reads = cfg.epoch;
  opts.use_relevance_index = cfg.relevance;
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

std::string BitsetString(const DynamicBitset& bits) {
  std::string s(bits.size(), '0');
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits.Test(i)) s[i] = '1';
  }
  return s;
}

/// Sorted (digest, kind, CGvalid, answer) tuples over every resident
/// entry — equality means identical replacement decisions AND identical
/// validity knowledge, bit for bit.
std::vector<std::string> ResidentState(const GraphCachePlus& gc) {
  std::vector<std::string> out;
  gc.cache_shards().ForEachEntry([&out](const CachedQuery& e) {
    out.push_back(std::to_string(e.digest) + "|" +
                  (e.kind == CachedQueryKind::kSubgraph ? "sub" : "super") +
                  "|" + BitsetString(e.valid) + "|" + BitsetString(e.answer));
  });
  std::sort(out.begin(), out.end());
  return out;
}

void RunReconcileReplay(CacheModel model, bool epoch, std::size_t shards) {
  constexpr std::size_t kSteps = 300;
  const std::vector<Graph> corpus = ChurnCorpus(4321);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/909,
                                         /*zipf_alpha=*/1.2);

  const std::size_t retro = model == CacheModel::kCon ? 4 : 0;
  EngineUnderTest oracle = MakeEngine(
      corpus, model,
      EngineConfig{"validate-all-oracle", false, false, epoch, shards, retro});
  EngineUnderTest indexed = MakeEngine(
      corpus, model,
      EngineConfig{"relevance-index", true, false, epoch, shards, retro});
  EngineUnderTest method_m = MakeEngine(
      corpus, model,
      EngineConfig{"uncached-method-m", false, false, epoch, shards, 0,
                   /*admission=*/false});

  for (std::size_t step = 0; step < kSteps; ++step) {
    if (step % 7 == 5) {
      for (EngineUnderTest* e : {&oracle, &indexed, &method_m}) {
        e->gc->ApplyDatasetChanges([&corpus, step](GraphDataset& d) {
          ApplyChurnChanges(d, corpus, step);
        });
      }
      continue;
    }
    const QueryKind kind =
        step % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph;
    const Graph& q = w.queries[step].query;
    const std::vector<GraphId> truth = method_m.gc->Query(q, kind).answer;
    EXPECT_EQ(oracle.gc->Query(q, kind).answer, truth)
        << "oracle diverged from uncached Method M at step " << step;
    EXPECT_EQ(indexed.gc->Query(q, kind).answer, truth)
        << "relevance index diverged from uncached Method M at step " << step;
  }

  // Settle: the churn ends on a mutation batch, which the lock path
  // absorbs lazily at the next query; one more query puts both cached
  // engines at the same point in the sync cycle.
  const std::vector<GraphId> settle =
      oracle.gc->Query(w.queries[0].query, QueryKind::kSubgraph).answer;
  EXPECT_EQ(indexed.gc->Query(w.queries[0].query, QueryKind::kSubgraph).answer,
            settle);

  oracle.gc->FlushMaintenance();
  indexed.gc->FlushMaintenance();
  const StatisticsManager os = oracle.gc->CacheStatsSnapshot();
  const StatisticsManager is = indexed.gc->CacheStatsSnapshot();

  // Identical residents with identical CGvalid/answer bits...
  EXPECT_EQ(ResidentState(*indexed.gc), ResidentState(*oracle.gc));
  // ...reached through identical admission/replacement/hit decisions.
  EXPECT_GT(os.total_admissions, 0u);
  EXPECT_EQ(is.total_admissions, os.total_admissions);
  EXPECT_EQ(is.total_evictions, os.total_evictions);
  EXPECT_EQ(is.total_admission_dedups, os.total_admission_dedups);
  EXPECT_EQ(is.total_admission_refreshes, os.total_admission_refreshes);
  EXPECT_EQ(is.total_exact_hits, os.total_exact_hits);
  EXPECT_EQ(is.total_sub_hits, os.total_sub_hits);
  EXPECT_EQ(is.total_super_hits, os.total_super_hits);
  EXPECT_EQ(is.total_retro_refreshes, os.total_retro_refreshes);
  testing::ExpectStoreInvariants(*oracle.gc, oracle.cfg.label);
  testing::ExpectStoreInvariants(*indexed.gc, indexed.cfg.label);
  if (model == CacheModel::kCon) {
    // Repeats found their twin faded and refreshed it in place; the
    // merged bitsets passed the checks above.
    EXPECT_GT(os.total_admission_refreshes, 0u);
  } else {
    // EVI never fades a resident: it purges.
    EXPECT_EQ(os.total_admission_refreshes, 0u);
  }

  // Reconciliation accounting: the oracle touches every resident entry
  // at every event and never skips; the indexed engine splits the same
  // event stream into touched + skipped. Neither runs delta hooks.
  EXPECT_EQ(os.reconcile_entries_skipped, 0u);
  EXPECT_EQ(is.reconcile_entries_touched + is.reconcile_entries_skipped,
            os.reconcile_entries_touched);
  EXPECT_EQ(os.delta_revalidations + is.delta_revalidations, 0u);
  EXPECT_EQ(os.delta_fallback_full_checks + is.delta_fallback_full_checks,
            0u);
  if (model == CacheModel::kCon) {
    // Localized churn against block-granular footprints must actually
    // skip entries — the point of the index.
    EXPECT_GT(is.reconcile_entries_skipped, 0u);
    EXPECT_LT(is.reconcile_entries_touched, os.reconcile_entries_touched);
  } else {
    // EVI purges indiscriminately: both engines touch everything.
    EXPECT_EQ(is.reconcile_entries_touched, os.reconcile_entries_touched);
    EXPECT_EQ(is.reconcile_entries_skipped, 0u);
  }
}

TEST(ReconciliationEquivalenceTest, ConLockSingleShard) {
  RunReconcileReplay(CacheModel::kCon, /*epoch=*/false, /*shards=*/1);
}

TEST(ReconciliationEquivalenceTest, ConLockEightShards) {
  RunReconcileReplay(CacheModel::kCon, /*epoch=*/false, /*shards=*/8);
}

TEST(ReconciliationEquivalenceTest, ConEpochSingleShard) {
  RunReconcileReplay(CacheModel::kCon, /*epoch=*/true, /*shards=*/1);
}

TEST(ReconciliationEquivalenceTest, ConEpochEightShards) {
  RunReconcileReplay(CacheModel::kCon, /*epoch=*/true, /*shards=*/8);
}

TEST(ReconciliationEquivalenceTest, EviLockSingleShard) {
  RunReconcileReplay(CacheModel::kEvi, /*epoch=*/false, /*shards=*/1);
}

TEST(ReconciliationEquivalenceTest, EviLockEightShards) {
  RunReconcileReplay(CacheModel::kEvi, /*epoch=*/false, /*shards=*/8);
}

TEST(ReconciliationEquivalenceTest, EviEpochSingleShard) {
  RunReconcileReplay(CacheModel::kEvi, /*epoch=*/true, /*shards=*/1);
}

TEST(ReconciliationEquivalenceTest, EviEpochEightShards) {
  RunReconcileReplay(CacheModel::kEvi, /*epoch=*/true, /*shards=*/8);
}

void RunDeltaReplay(bool epoch) {
  constexpr std::size_t kSteps = 300;
  const std::vector<Graph> corpus = ChurnCorpus(8765);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/909,
                                         /*zipf_alpha=*/1.2);

  // At a fixed delta setting the relevance screen must stay bit-exact;
  // a fade-only engine provides the answer ground truth (its CGvalid
  // bits legitimately differ — delta keeps/rewrites bits fading would
  // clear — but answers must not).
  EngineUnderTest delta_oracle = MakeEngine(
      corpus, CacheModel::kCon,
      EngineConfig{"delta,validate-all", false, true, epoch, 2});
  EngineUnderTest delta_indexed = MakeEngine(
      corpus, CacheModel::kCon,
      EngineConfig{"delta,relevance-index", true, true, epoch, 2});
  EngineUnderTest fade_only = MakeEngine(
      corpus, CacheModel::kCon,
      EngineConfig{"fade-only", true, false, epoch, 2});

  for (std::size_t step = 0; step < kSteps; ++step) {
    if (step % 7 == 5) {
      for (EngineUnderTest* e : {&delta_oracle, &delta_indexed, &fade_only}) {
        e->gc->ApplyDatasetChanges([&corpus, step](GraphDataset& d) {
          ApplyChurnChanges(d, corpus, step);
        });
      }
      continue;
    }
    const QueryKind kind =
        step % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph;
    const Graph& q = w.queries[step].query;
    const std::vector<GraphId> truth = fade_only.gc->Query(q, kind).answer;
    EXPECT_EQ(delta_oracle.gc->Query(q, kind).answer, truth)
        << "delta re-validation changed an answer at step " << step;
    EXPECT_EQ(delta_indexed.gc->Query(q, kind).answer, truth)
        << "delta+relevance changed an answer at step " << step;
  }
  delta_oracle.gc->Query(w.queries[0].query, QueryKind::kSubgraph);
  delta_indexed.gc->Query(w.queries[0].query, QueryKind::kSubgraph);
  delta_oracle.gc->FlushMaintenance();
  delta_indexed.gc->FlushMaintenance();

  // Relevance on/off at delta=on: fully bit-exact, and the hook ran.
  EXPECT_EQ(ResidentState(*delta_indexed.gc), ResidentState(*delta_oracle.gc));
  const StatisticsManager os = delta_oracle.gc->CacheStatsSnapshot();
  const StatisticsManager is = delta_indexed.gc->CacheStatsSnapshot();
  EXPECT_EQ(is.total_admissions, os.total_admissions);
  EXPECT_EQ(is.total_evictions, os.total_evictions);
  EXPECT_EQ(is.delta_revalidations, os.delta_revalidations);
  EXPECT_EQ(is.delta_fallback_full_checks, os.delta_fallback_full_checks);
  EXPECT_EQ(is.total_admission_refreshes, os.total_admission_refreshes);
  EXPECT_GT(os.delta_revalidations + os.delta_fallback_full_checks, 0u);
  EXPECT_GT(is.reconcile_entries_skipped, 0u);
  testing::ExpectStoreInvariants(*delta_oracle.gc, delta_oracle.cfg.label);
  testing::ExpectStoreInvariants(*delta_indexed.gc, delta_indexed.cfg.label);
}

TEST(DeltaRevalidationEquivalenceTest, LockPath) { RunDeltaReplay(false); }

TEST(DeltaRevalidationEquivalenceTest, EpochPath) { RunDeltaReplay(true); }

}  // namespace
}  // namespace gcp
