// Byte-budget oracle gate (PR 10):
//
// --byte-budget=off must reproduce the entry-count engine bit-exactly,
// and the sharp way to prove it is the executable oracle the capacity
// model was designed around: a budget so large it never binds takes every
// budget-only code path (fragment slice, byte pass entry points) yet must
// replay the budget-free engine exactly — same answers every step (both
// checked against uncached Method M), same resident population with
// identical CGvalid/answer indicators, same
// admission/eviction/hit/reconciliation counters — over a 300-step churn
// across {CON, EVI} × shards {1, 8}. A bound budget then
// proves the byte pass engages: occupancy capped, byte evictions > 0,
// answers still exact.

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
  opts.num_graphs = 120;
  opts.mean_vertices = 9.0;
  opts.stddev_vertices = 3.0;
  opts.min_vertices = 4;
  opts.max_vertices = 14;
  opts.num_labels = 8;
  opts.seed = seed;
  return AidsLikeGenerator(opts).Generate();
}

struct EngineUnderTest {
  std::unique_ptr<GraphDataset> ds;
  std::unique_ptr<GraphCachePlus> gc;
};

EngineUnderTest MakeEngine(const std::vector<Graph>& corpus, CacheModel model,
                           std::size_t shards, std::size_t byte_budget,
                           bool admission) {
  EngineUnderTest e;
  e.ds = std::make_unique<GraphDataset>();
  e.ds->Bootstrap(corpus);
  GraphCachePlusOptions opts;
  opts.model = model;
  opts.cache_capacity = 16;
  opts.window_capacity = 4;
  opts.num_shards = shards;
  opts.use_ftv_index = true;
  opts.fragment_capacity = 24;
  opts.byte_budget = byte_budget;
  if (!admission) {
    opts.enable_admission = false;
    opts.enable_exact_shortcut = false;
    opts.enable_empty_answer_shortcut = false;
  }
  e.gc = std::make_unique<GraphCachePlus>(e.ds.get(), opts);
  return e;
}

void ApplyChurnChanges(GraphDataset& ds, const std::vector<Graph>& corpus,
                       std::size_t step) {
  ds.AddGraph(corpus[(5 * step + 2) % corpus.size()]);
  const std::vector<GraphId> live = ds.LiveIds();
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
/// whole-query entry — equality means identical contents, validity
/// knowledge AND replacement decisions.
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

/// A budget the tiny churn caches can never reach, yet finite — so the
/// gauge, monitor and byte-pass entry points all run.
constexpr std::size_t kHugeBudget = std::size_t{1} << 32;

void RunBudgetReplay(CacheModel model, std::size_t shards) {
  constexpr std::size_t kSteps = 300;
  const std::vector<Graph> corpus = ChurnCorpus(2468);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/707,
                                         /*zipf_alpha=*/1.2);

  EngineUnderTest off = MakeEngine(corpus, model, shards,
                                   /*byte_budget=*/0, /*admission=*/true);
  EngineUnderTest huge = MakeEngine(corpus, model, shards, kHugeBudget,
                                    /*admission=*/true);
  EngineUnderTest method_m = MakeEngine(corpus, model, shards,
                                        /*byte_budget=*/0,
                                        /*admission=*/false);

  for (std::size_t step = 0; step < kSteps; ++step) {
    if (step % 7 == 5) {
      for (EngineUnderTest* e : {&off, &huge, &method_m}) {
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
    EXPECT_EQ(off.gc->Query(q, kind).answer, truth)
        << "budget-off engine diverged from Method M at step " << step;
    EXPECT_EQ(huge.gc->Query(q, kind).answer, truth)
        << "never-binding budget changed an answer at step " << step;
  }

  // Settle on the same point of the sync cycle before comparing state.
  const std::vector<GraphId> settle =
      off.gc->Query(w.queries[0].query, QueryKind::kSubgraph).answer;
  EXPECT_EQ(huge.gc->Query(w.queries[0].query, QueryKind::kSubgraph).answer,
            settle);

  off.gc->FlushMaintenance();
  huge.gc->FlushMaintenance();
  const StatisticsManager offs = off.gc->CacheStatsSnapshot();
  const StatisticsManager huges = huge.gc->CacheStatsSnapshot();

  EXPECT_EQ(ResidentState(*off.gc), ResidentState(*huge.gc));
  EXPECT_GT(offs.total_admissions, 0u);
  EXPECT_EQ(huges.total_admissions, offs.total_admissions);
  EXPECT_EQ(huges.total_evictions, offs.total_evictions);
  EXPECT_EQ(huges.total_admission_dedups, offs.total_admission_dedups);
  EXPECT_EQ(huges.total_exact_hits, offs.total_exact_hits);
  EXPECT_EQ(huges.total_sub_hits, offs.total_sub_hits);
  EXPECT_EQ(huges.total_super_hits, offs.total_super_hits);
  EXPECT_EQ(huges.reconcile_entries_touched, offs.reconcile_entries_touched);
  EXPECT_EQ(huges.fragment_admissions, offs.fragment_admissions);
  EXPECT_EQ(huges.fragment_evictions, offs.fragment_evictions);
  // Identical resident state ⇒ identical byte gauges.
  EXPECT_EQ(huges.approx_graph_bytes, offs.approx_graph_bytes);
  EXPECT_EQ(huges.approx_bitset_bytes, offs.approx_bitset_bytes);

  // The budget never bound: no byte evictions.
  EXPECT_EQ(huges.byte_budget_evictions, 0u);
  EXPECT_EQ(huges.fragment_byte_evictions, 0u);
  // The running byte gauges equal a recompute from the resident bitsets.
  testing::ExpectStoreInvariants(*huge.gc, "huge budget");
}

void RunBoundBudgetServes(CacheModel model, std::size_t shards) {
  constexpr std::size_t kSteps = 120;
  const std::vector<Graph> corpus = ChurnCorpus(1357);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/11,
                                         /*zipf_alpha=*/1.2);
  // ~512 bytes per shard: room for at most an entry or two, well under
  // what the entry-count cap would keep even at 8 shards (ceil(16/8) + a
  // window slot), so it is the byte pass — not the count pass — that
  // fires constantly while answers stay exact.
  EngineUnderTest bound = MakeEngine(corpus, model, shards,
                                     /*byte_budget=*/512 * shards,
                                     /*admission=*/true);
  EngineUnderTest method_m = MakeEngine(corpus, model, shards, 0,
                                        /*admission=*/false);
  for (std::size_t step = 0; step < kSteps; ++step) {
    if (step % 7 == 5) {
      for (EngineUnderTest* e : {&bound, &method_m}) {
        e->gc->ApplyDatasetChanges([&corpus, step](GraphDataset& d) {
          ApplyChurnChanges(d, corpus, step);
        });
      }
      continue;
    }
    const QueryKind kind =
        step % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph;
    const Graph& q = w.queries[step].query;
    EXPECT_EQ(bound.gc->Query(q, kind).answer,
              method_m.gc->Query(q, kind).answer)
        << "bound budget changed an answer at step " << step;
  }
  bound.gc->FlushMaintenance();
  const StatisticsManager stats = bound.gc->CacheStatsSnapshot();
  EXPECT_GT(stats.byte_budget_evictions, 0u)
      << "the bound budget never forced an eviction — not a bound budget";
  // Post-merge occupancy respects the summed shard budgets.
  std::uint64_t resident_bytes = 0;
  std::uint64_t budget_sum = 0;
  for (std::size_t s = 0; s < bound.gc->cache_shards().num_shards(); ++s) {
    const CacheManager& shard = bound.gc->cache_shards().shard(s);
    resident_bytes += shard.approx_entry_bytes();
    budget_sum += shard.entry_byte_budget();
  }
  EXPECT_LE(resident_bytes, budget_sum);
}

TEST(ByteBudgetEquivalenceTest, ConLockSingleShard) {
  RunBudgetReplay(CacheModel::kCon, /*shards=*/1);
}

TEST(ByteBudgetEquivalenceTest, ConLockEightShards) {
  RunBudgetReplay(CacheModel::kCon, /*shards=*/8);
}

TEST(ByteBudgetEquivalenceTest, EviLockSingleShard) {
  RunBudgetReplay(CacheModel::kEvi, /*shards=*/1);
}

TEST(ByteBudgetEquivalenceTest, EviLockEightShards) {
  RunBudgetReplay(CacheModel::kEvi, /*shards=*/8);
}

TEST(ByteBudgetEquivalenceTest, BoundBudgetConLockStaysExact) {
  RunBoundBudgetServes(CacheModel::kCon, /*shards=*/1);
}

TEST(ByteBudgetEquivalenceTest, BoundBudgetEviShardedStaysExact) {
  RunBoundBudgetServes(CacheModel::kEvi, /*shards=*/8);
}

}  // namespace
}  // namespace gcp
