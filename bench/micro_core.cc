// A5: google-benchmark micro-benchmarks of the GC+ primitives — bitset
// algebra, Algorithm 1 (log analysis), Algorithm 2 (validation), the live
// mask and fragment keys of the hit path, hit discovery and the sub-iso
// kernels. These quantify the "<1% validation overhead" claim at the
// operation level.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "cache/cache_validator.hpp"
#include "cache/query_index.hpp"
#include "common/bitset.hpp"
#include "dataset/aids_like.hpp"
#include "dataset/change_log.hpp"
#include "dataset/dataset.hpp"
#include "dataset/log_analyzer.hpp"
#include "graph/canonical.hpp"
#include "graph/features.hpp"
#include "match/fragments.hpp"
#include "match/matcher.hpp"
#include "workload/query_gen.hpp"

namespace gcp {
namespace {

void BM_BitsetAnd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  DynamicBitset a(n), b(n);
  for (std::size_t i = 0; i < n / 3; ++i) {
    a.Set(rng.UniformBelow(n));
    b.Set(rng.UniformBelow(n));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DynamicBitset::And(a, b).Count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitsetAnd)->Arg(1000)->Arg(40000)->Arg(1000000);

void BM_BitsetCountAnd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  DynamicBitset a(n), b(n);
  for (std::size_t i = 0; i < n / 3; ++i) {
    a.Set(rng.UniformBelow(n));
    b.Set(rng.UniformBelow(n));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CountAnd(b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitsetCountAnd)->Arg(40000)->Arg(1000000);

// Algorithm 1 throughput: a paper-sized batch (20 ops).
void BM_LogAnalyzer(benchmark::State& state) {
  gcp::ChangeLog log;
  Rng rng(3);
  for (int i = 0; i < state.range(0); ++i) {
    log.Append(static_cast<ChangeType>(rng.UniformBelow(4)),
               static_cast<GraphId>(rng.UniformBelow(40000)));
  }
  const std::vector<ChangeRecord> records = log.ExtractSince(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogAnalyzer::Analyze(records));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogAnalyzer)->Arg(20)->Arg(2000);

// Algorithm 2 on a paper-scale cache: 120 resident entries, 40,000-graph
// horizon, one batch of 20 operations.
void BM_CacheValidatorRefresh(benchmark::State& state) {
  const std::size_t horizon = 40000;
  Rng rng(4);
  std::vector<CachedQuery> entries(120);
  for (auto& e : entries) {
    e.answer = DynamicBitset(horizon);
    for (int i = 0; i < 50; ++i) e.answer.Set(rng.UniformBelow(horizon));
    e.valid = DynamicBitset(horizon, true);
  }
  gcp::ChangeLog log;
  for (int i = 0; i < 20; ++i) {
    log.Append(static_cast<ChangeType>(rng.UniformBelow(4)),
               static_cast<GraphId>(rng.UniformBelow(horizon)));
  }
  const ChangeCounters counters = LogAnalyzer::Analyze(log.ExtractSince(0));
  for (auto _ : state) {
    for (auto& e : entries) {
      CacheValidator::RefreshEntry(e, counters, horizon);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(entries.size()));
}
BENCHMARK(BM_CacheValidatorRefresh);

void BM_FeatureExtract(benchmark::State& state) {
  AidsLikeOptions opts;
  opts.num_graphs = 1;
  AidsLikeGenerator gen(opts);
  const Graph g = gen.GenerateOne(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GraphFeatures::Extract(g));
  }
}
BENCHMARK(BM_FeatureExtract)->Arg(20)->Arg(45)->Arg(245);

void BM_WlDigest(benchmark::State& state) {
  AidsLikeOptions opts;
  opts.num_graphs = 1;
  AidsLikeGenerator gen(opts);
  const Graph g = gen.GenerateOne(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(WlDigest(g));
  }
}
BENCHMARK(BM_WlDigest)->Arg(20)->Arg(45);

// CS_M of an unindexed query: the dataset's live mask, copied once per
// query. The mask is maintained by ADD/DEL, so this costs |D|/64 words;
// a regression to walking the graph slots shows up as a jump between the
// 5,000- and 40,000-graph rows far beyond that ratio of words.
void BM_LiveMask(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Graph> graphs(n);
  for (Graph& g : graphs) g.AddVertex(0);
  GraphDataset ds;
  ds.Bootstrap(std::move(graphs));
  for (std::size_t id = 0; id < n; id += 7) {
    (void)ds.DeleteGraph(static_cast<GraphId>(id));
  }
  for (auto _ : state) {
    const DynamicBitset csm = ds.LiveMask();
    benchmark::DoNotOptimize(csm.num_words());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_LiveMask)->Arg(5000)->Arg(40000);

// Query → one-hop fragment keys (cap 8) on AIDS-like BFS queries. Keys
// are label sequences; building a star graph or a WL digest per fragment
// here would show up as a several-fold slowdown.
void BM_DecomposeToFragments(benchmark::State& state) {
  AidsLikeOptions opts;
  opts.num_graphs = 64;
  opts.seed = 13;
  AidsLikeGenerator gen(opts);
  const std::vector<Graph> corpus = gen.Generate();
  Rng rng(14);
  std::vector<Graph> queries;
  for (int i = 0; i < 32; ++i) {
    const Graph& src = corpus[rng.UniformBelow(corpus.size())];
    queries.push_back(ExtractBfsQuery(
        src, static_cast<VertexId>(rng.UniformBelow(src.NumVertices())),
        4 + rng.UniformBelow(13)));
  }
  std::size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecomposeToFragments(queries[qi], 8).size());
    qi = (qi + 1) % queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecomposeToFragments);

// Sub-iso kernels on AIDS-like molecule/query pairs.
void SubIsoKernel(benchmark::State& state, MatcherKind kind) {
  AidsLikeOptions opts;
  opts.num_graphs = 64;
  opts.seed = 5;
  AidsLikeGenerator gen(opts);
  const std::vector<Graph> targets = gen.Generate();
  Rng rng(6);
  std::vector<Graph> queries;
  for (int i = 0; i < 16; ++i) {
    const Graph& src = targets[rng.UniformBelow(targets.size())];
    queries.push_back(ExtractBfsQuery(
        src, static_cast<VertexId>(rng.UniformBelow(src.NumVertices())),
        12));
  }
  const auto matcher = MakeMatcher(kind);
  std::size_t qi = 0, ti = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matcher->Contains(queries[qi], targets[ti]));
    qi = (qi + 1) % queries.size();
    ti = (ti + 7) % targets.size();
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_SubIsoVf2(benchmark::State& s) { SubIsoKernel(s, MatcherKind::kVf2); }
void BM_SubIsoVf2Plus(benchmark::State& s) {
  SubIsoKernel(s, MatcherKind::kVf2Plus);
}
void BM_SubIsoGql(benchmark::State& s) {
  SubIsoKernel(s, MatcherKind::kGraphQl);
}
BENCHMARK(BM_SubIsoVf2);
BENCHMARK(BM_SubIsoVf2Plus);
BENCHMARK(BM_SubIsoGql);

// The same VF2+ kernel with per-query prepared contexts (the Method M
// usage pattern): BM_SubIsoVf2Plus above is the per-pair "before", this is
// the reusable-MatchContext "after".
void BM_SubIsoVf2PlusPrepared(benchmark::State& state) {
  AidsLikeOptions opts;
  opts.num_graphs = 64;
  opts.seed = 5;
  AidsLikeGenerator gen(opts);
  const std::vector<Graph> targets = gen.Generate();
  Rng rng(6);
  std::vector<Graph> queries;
  for (int i = 0; i < 16; ++i) {
    const Graph& src = targets[rng.UniformBelow(targets.size())];
    queries.push_back(ExtractBfsQuery(
        src, static_cast<VertexId>(rng.UniformBelow(src.NumVertices())),
        12));
  }
  std::map<Label, std::uint32_t> freq;
  for (const Graph& t : targets) {
    for (const auto& [l, c] : t.label_histogram()) freq[l] += c;
  }
  const LabelHistogram global(freq.begin(), freq.end());
  const auto matcher = MakeMatcher(MatcherKind::kVf2Plus);
  std::vector<std::unique_ptr<PreparedPattern>> prepared;
  for (const Graph& q : queries) prepared.push_back(matcher->Prepare(q, &global));
  std::size_t qi = 0, ti = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matcher->ContainsPrepared(*prepared[qi], targets[ti]));
    qi = (qi + 1) % queries.size();
    ti = (ti + 7) % targets.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubIsoVf2PlusPrepared);

// Hit discovery over a paper-scale resident population (120 entries)
// through the inverted feature-signature index.
void BM_HitDiscoveryIndexed(benchmark::State& state) {
  AidsLikeOptions opts;
  opts.num_graphs = 64;
  opts.seed = 11;
  AidsLikeGenerator gen(opts);
  const std::vector<Graph> corpus = gen.Generate();
  Rng rng(12);
  std::vector<std::unique_ptr<CachedQuery>> entries;
  QueryIndex index;
  for (int i = 0; i < 120; ++i) {
    const Graph& src = corpus[rng.UniformBelow(corpus.size())];
    Graph q = ExtractBfsQuery(
        src, static_cast<VertexId>(rng.UniformBelow(src.NumVertices())),
        4 + rng.UniformBelow(10));
    auto e = std::make_unique<CachedQuery>();
    e->id = static_cast<CacheEntryId>(i + 1);
    e->features = GraphFeatures::Extract(q);
    e->digest = WlDigest(q);
    e->query = std::make_shared<const Graph>(std::move(q));
    index.Insert(e.get());
    entries.push_back(std::move(e));
  }
  std::vector<GraphFeatures> probes;
  for (int i = 0; i < 32; ++i) {
    const Graph& src = corpus[rng.UniformBelow(corpus.size())];
    probes.push_back(GraphFeatures::Extract(ExtractBfsQuery(
        src, static_cast<VertexId>(rng.UniformBelow(src.NumVertices())),
        4 + rng.UniformBelow(10))));
  }
  std::size_t pi = 0;
  for (auto _ : state) {
    const GraphFeatures& p = probes[pi];
    benchmark::DoNotOptimize(index.SupergraphCandidates(p).size());
    benchmark::DoNotOptimize(index.SubgraphCandidates(p).size());
    pi = (pi + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HitDiscoveryIndexed);

}  // namespace
}  // namespace gcp
