// Sharded-vs-serial equivalence: the digest-sharded engine (any shard
// count, with or without the dedicated maintenance thread) must return
// bit-exact answers vs the single-store serial engine and vs uncached
// Method M, under a 300-step churn of interleaved queries and dataset
// changes (CON and EVI).
//
// The oracle leans on the exactness theorems (3/6): a GC+ answer depends
// only on the dataset state the read phase observes, never on how the
// cache is partitioned, which shard a drain has or hasn't reached, or
// which admissions were dedup-dropped or refreshed into a faded twin — so
// identical schedules must give identical answers at every shard count.
// Under CON the churn fades twins that repeats then refresh in place
// (asserted to happen in every configuration); the merged bitsets must
// keep relevance footprints supersets and byte gauges exact.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/graphcache_plus.hpp"
#include "dataset/aids_like.hpp"
#include "store_invariants.hpp"
#include "workload/type_a.hpp"

namespace gcp {
namespace {

constexpr std::size_t kSteps = 300;

std::vector<Graph> SmallCorpus() {
  AidsLikeOptions opts;
  opts.num_graphs = 40;
  opts.mean_vertices = 9.0;
  opts.stddev_vertices = 3.0;
  opts.min_vertices = 4;
  opts.max_vertices = 14;
  opts.num_labels = 8;
  opts.seed = 4321;
  return AidsLikeGenerator(opts).Generate();
}

struct EngineUnderTest {
  std::string label;
  std::unique_ptr<GraphDataset> ds;
  std::unique_ptr<GraphCachePlus> gc;
};

EngineUnderTest MakeEngine(const std::vector<Graph>& corpus, CacheModel model,
                           std::size_t shards, bool maintenance_thread,
                           bool epoch = false) {
  EngineUnderTest e;
  e.label = "shards=" + std::to_string(shards) +
            (maintenance_thread ? "+mt" : "") + (epoch ? "+epoch" : "");
  e.ds = std::make_unique<GraphDataset>();
  e.ds->Bootstrap(corpus);
  GraphCachePlusOptions opts;
  opts.model = model;
  opts.cache_capacity = 16;
  opts.window_capacity = 4;
  opts.num_shards = shards;
  opts.maintenance_thread = maintenance_thread;
  opts.epoch_reads = epoch;
  // A small queue keeps the backpressure (inline per-shard drain) path in
  // play during the churn too.
  opts.maintenance_queue_capacity = 8;
  e.gc = std::make_unique<GraphCachePlus>(e.ds.get(), opts);
  return e;
}

/// Uncached Method M over the full live dataset — the exactness reference.
std::vector<GraphId> ReferenceAnswer(const GraphDataset& ds, const Graph& q,
                                     QueryKind kind) {
  MethodM m(MatcherKind::kVf2, ds);
  const DynamicBitset bits = m.VerifyCandidates(q, kind, ds.LiveMask());
  std::vector<GraphId> out;
  bits.ForEachSetBit(
      [&out](std::size_t id) { out.push_back(static_cast<GraphId>(id)); });
  return out;
}

/// Deterministic change batch for churn step `step`: add a corpus clone,
/// delete a live victim, flip an edge. Identical inputs ⇒ identical
/// resulting dataset on every engine.
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

void RunChurnEquivalence(CacheModel model) {
  const std::vector<Graph> corpus = SmallCorpus();
  const Workload w =
      GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/909,
                          /*zipf_alpha=*/1.2);

  std::vector<EngineUnderTest> engines;
  engines.push_back(MakeEngine(corpus, model, 1, false));  // serial oracle
  engines.push_back(MakeEngine(corpus, model, 2, false));
  engines.push_back(MakeEngine(corpus, model, 8, false));
  engines.push_back(MakeEngine(corpus, model, 8, true));
  // Epoch read path joins the matrix: same churn, same answers.
  engines.push_back(MakeEngine(corpus, model, 8, false, /*epoch=*/true));

  for (std::size_t step = 0; step < kSteps; ++step) {
    if (step % 7 == 5) {
      for (EngineUnderTest& e : engines) {
        e.gc->ApplyDatasetChanges([&corpus, step](GraphDataset& d) {
          ApplyChurnChanges(d, corpus, step);
        });
      }
      ASSERT_EQ(engines[0].ds->NumLive(), engines.back().ds->NumLive());
      ASSERT_EQ(engines[0].ds->IdHorizon(), engines.back().ds->IdHorizon());
      continue;
    }
    const QueryKind kind =
        step % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph;
    const Graph& q = w.queries[step].query;
    const std::vector<GraphId> serial = engines[0].gc->Query(q, kind).answer;
    for (std::size_t i = 1; i < engines.size(); ++i) {
      EXPECT_EQ(engines[i].gc->Query(q, kind).answer, serial)
          << engines[i].label << " diverged from the serial engine at step "
          << step;
    }
    if (step % 10 == 0) {
      EXPECT_EQ(serial, ReferenceAnswer(*engines[0].ds, q, kind))
          << "serial engine diverged from uncached Method M at step " << step;
    }
  }

  for (EngineUnderTest& e : engines) {
    e.gc->FlushMaintenance();
    // Stores stay within their configured capacities and no per-shard
    // drain ever touched a foreign shard.
    EXPECT_EQ(e.gc->cache_shards().lock_violations(), 0u) << e.label;
    const std::size_t shards = e.gc->options().num_shards;
    const std::size_t per_shard_cache = (16 + shards - 1) / shards;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_LE(e.gc->cache_shards().shard(s).cache_size(), per_shard_cache)
          << e.label << " shard " << s;
    }
    // The churn admits far more queries than capacity: replacement must
    // have produced evictions in every configuration.
    const StatisticsManager stats = e.gc->CacheStatsSnapshot();
    EXPECT_GT(stats.total_admissions, 0u) << e.label;
    if (model == CacheModel::kCon) {
      EXPECT_GT(stats.total_admission_refreshes, 0u) << e.label;
    } else {
      EXPECT_EQ(stats.total_admission_refreshes, 0u) << e.label;
    }
    testing::ExpectStoreInvariants(*e.gc, e.label);
  }
}

TEST(ShardedEquivalenceTest, ChurnAnswersBitExactCon) {
  RunChurnEquivalence(CacheModel::kCon);
}

TEST(ShardedEquivalenceTest, ChurnAnswersBitExactEvi) {
  RunChurnEquivalence(CacheModel::kEvi);
}

}  // namespace
}  // namespace gcp
