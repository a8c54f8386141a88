// Fragment-cache equivalence gate (PR 9):
//
// The fragment tier is pruning-only: over a 300-step churn of
// interleaved queries and dataset changes, an engine with the sub-pattern
// fragment cache ON must replay the fragment-free engine bit-exactly —
// same answers every step (both checked against an uncached Method M
// ground truth), same resident whole-query population with identical
// CGvalid/answer indicators, same admission/dedup/eviction/hit counters —
// across {CON, EVI} × shards {1, 8}. The fragment
// counters ride along to prove the tier actually engaged: fragments were
// admitted, probed, intersected, and (CON) reconciled or (EVI) purged.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/graphcache_plus.hpp"
#include "dataset/aids_like.hpp"
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
  opts.num_labels = 8;  // dense label space → shared one-hop stars
  opts.seed = seed;
  return AidsLikeGenerator(opts).Generate();
}

struct EngineUnderTest {
  std::unique_ptr<GraphDataset> ds;
  std::unique_ptr<GraphCachePlus> gc;
};

EngineUnderTest MakeEngine(const std::vector<Graph>& corpus, CacheModel model,
                           std::size_t shards, bool fragments,
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
  // Small enough that the churn exercises fragment LRU eviction too; 0
  // turns the tier off.
  opts.fragment_capacity = fragments ? 24 : 0;
  if (!admission) {
    opts.enable_admission = false;
    opts.enable_exact_shortcut = false;
    opts.enable_empty_answer_shortcut = false;
  }
  e.gc = std::make_unique<GraphCachePlus>(e.ds.get(), opts);
  return e;
}

/// Same shape as the reconciliation suite's churn: grow the id range,
/// aim edge ops at recent ids, trickle deletions of old ids.
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
/// whole-query entry. The fragment stores are deliberately NOT part of
/// this digest: equality means the fragment tier left the whole-query
/// cache — contents, validity knowledge and replacement decisions —
/// untouched.
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

void RunFragmentReplay(CacheModel model, std::size_t shards) {
  constexpr std::size_t kSteps = 300;
  const std::vector<Graph> corpus = ChurnCorpus(2468);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/707,
                                         /*zipf_alpha=*/1.2);

  EngineUnderTest on =
      MakeEngine(corpus, model, shards, /*fragments=*/true,
                 /*admission=*/true);
  EngineUnderTest off =
      MakeEngine(corpus, model, shards, /*fragments=*/false,
                 /*admission=*/true);
  EngineUnderTest method_m =
      MakeEngine(corpus, model, shards, /*fragments=*/false,
                 /*admission=*/false);

  AggregateMetrics on_agg;
  AggregateMetrics off_agg;
  for (std::size_t step = 0; step < kSteps; ++step) {
    if (step % 7 == 5) {
      for (EngineUnderTest* e : {&on, &off, &method_m}) {
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
    const QueryResult off_res = off.gc->Query(q, kind);
    EXPECT_EQ(off_res.answer, truth)
        << "fragment-free engine diverged from Method M at step " << step;
    const QueryResult on_res = on.gc->Query(q, kind);
    EXPECT_EQ(on_res.answer, truth)
        << "fragment pruning changed an answer at step " << step;
    off_agg.Add(off_res.metrics);
    on_agg.Add(on_res.metrics);
  }

  // Settle: the churn ends on a mutation batch, which the engines absorb
  // lazily at the next query; one more query puts every engine at the
  // same point in the sync cycle.
  const std::vector<GraphId> settle =
      off.gc->Query(w.queries[0].query, QueryKind::kSubgraph).answer;
  EXPECT_EQ(on.gc->Query(w.queries[0].query, QueryKind::kSubgraph).answer,
            settle);

  on.gc->FlushMaintenance();
  off.gc->FlushMaintenance();
  const StatisticsManager ons = on.gc->CacheStatsSnapshot();
  const StatisticsManager offs = off.gc->CacheStatsSnapshot();

  // Identical whole-query residents with identical CGvalid/answer bits...
  EXPECT_EQ(ResidentState(*on.gc), ResidentState(*off.gc));
  // ...reached through identical admission/replacement/hit decisions.
  EXPECT_GT(offs.total_admissions, 0u);
  EXPECT_EQ(ons.total_admissions, offs.total_admissions);
  EXPECT_EQ(ons.total_evictions, offs.total_evictions);
  EXPECT_EQ(ons.total_admission_dedups, offs.total_admission_dedups);
  EXPECT_EQ(ons.total_exact_hits, offs.total_exact_hits);
  EXPECT_EQ(ons.total_sub_hits, offs.total_sub_hits);
  EXPECT_EQ(ons.total_super_hits, offs.total_super_hits);
  EXPECT_EQ(ons.reconcile_entries_touched, offs.reconcile_entries_touched);

  // The tier actually engaged on the fragments side...
  EXPECT_GT(ons.fragment_admissions, 0u);
  EXPECT_GT(on_agg.fragment_computed, 0u);
  EXPECT_GT(on_agg.fragment_intersections, 0u);
  EXPECT_GT(on_agg.fragment_candidates_pruned, 0u);
  EXPECT_GT(ons.approx_fragment_bytes, 0u);
  // ...pruning never inflates verification work...
  EXPECT_LE(on_agg.si_tests, off_agg.si_tests);
  // ...and reconciliation reached the fragment store (CON refreshes it,
  // EVI purges it — either way fragments count as touched).
  EXPECT_GT(ons.fragment_reconcile_touched, 0u);
  // ...while the fragment-free side reports zero fragment activity.
  EXPECT_EQ(offs.fragment_admissions, 0u);
  EXPECT_EQ(offs.fragment_hits, 0u);
  EXPECT_EQ(offs.fragment_candidates_pruned, 0u);
  EXPECT_EQ(offs.approx_fragment_bytes, 0u);
}

TEST(FragmentEquivalenceTest, ConLockSingleShard) {
  RunFragmentReplay(CacheModel::kCon, /*shards=*/1);
}

TEST(FragmentEquivalenceTest, ConLockEightShards) {
  RunFragmentReplay(CacheModel::kCon, /*shards=*/8);
}

TEST(FragmentEquivalenceTest, EviLockSingleShard) {
  RunFragmentReplay(CacheModel::kEvi, /*shards=*/1);
}

TEST(FragmentEquivalenceTest, EviLockEightShards) {
  RunFragmentReplay(CacheModel::kEvi, /*shards=*/8);
}

}  // namespace
}  // namespace gcp
