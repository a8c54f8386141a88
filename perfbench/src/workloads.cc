// Workload table and input generation. The corpus is fixed; the query
// stream and the change plan derive from the seed.

#include <unordered_map>

#include "common/rng.hpp"
#include "dataset/aids_like.hpp"
#include "perfbench.hpp"
#include "workload/type_a.hpp"

namespace gcp::perfbench {

namespace {

// Byte budget of constrained_concurrent: about half of the resident peak
// the same workload reaches when the budget never binds. That peak is the
// median of the property report's resident_peak_bytes over seeds 1-5 at
// --seconds 10 with a 1 GiB budget (501,056-511,404 bytes).
constexpr std::size_t kConstrainedByteBudget = 256 * 1024;
constexpr std::size_t kConstrainedUnbudgetedPeak = 505528;

constexpr std::uint64_t kCorpusSeed = 42;

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t state = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return SplitMix64(state);
}

std::uint64_t HashGraph(const Graph& g) {
  std::uint64_t h = g.NumVertices();
  for (const Label l : g.labels()) h = Mix(h, l);
  for (const auto& [u, v] : g.Edges()) {
    h = Mix(h, (static_cast<std::uint64_t>(u) << 32) | v);
  }
  return h;
}

/// Interns query graphs: identical graphs of one kind map to one shape.
class ShapeTable {
 public:
  explicit ShapeTable(std::vector<Graph>* shapes) : shapes_(shapes) {}

  std::uint32_t Intern(Graph g, QueryKind kind) {
    const std::uint64_t h =
        Mix(HashGraph(g), kind == QueryKind::kSubgraph ? 1 : 2);
    std::vector<std::uint32_t>& bucket = index_[h];
    for (const std::uint32_t id : bucket) {
      if ((*shapes_)[id] == g) return id;
    }
    const auto id = static_cast<std::uint32_t>(shapes_->size());
    shapes_->push_back(std::move(g));
    bucket.push_back(id);
    return id;
  }

 private:
  std::vector<Graph>* shapes_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "hot_reads",
       .type_a = "ZZ",
       .model = CacheModel::kCon,
       .cache_capacity = 100,
       .window_capacity = 20,
       .ftv = false,
       .supergraph_every = 0,
       .batch_every = 1000,
       .clients = 1,
       .shards = 1,
       .maintenance_thread = false,
       .checkpoint_interval_us = 0,
       .byte_budget = 0,
       .warmup = 2000,
       .unbudgeted_peak_bytes = 0,
       .qps_ceiling = 6000},
      {.name = "churn_mixed",
       .type_a = "UU",
       .model = CacheModel::kCon,
       .cache_capacity = 100,
       .window_capacity = 20,
       .ftv = true,
       .supergraph_every = 4,
       .batch_every = 20,
       .clients = 1,
       .shards = 1,
       .maintenance_thread = false,
       .checkpoint_interval_us = 0,
       .byte_budget = 0,
       .warmup = 500,
       .unbudgeted_peak_bytes = 0,
       .qps_ceiling = 1200},
      {.name = "constrained_concurrent",
       .type_a = "ZU",
       .model = CacheModel::kEvi,
       .cache_capacity = 100,
       .window_capacity = 20,
       .ftv = false,
       .supergraph_every = 0,
       .batch_every = 100,
       .clients = 2,
       .shards = 4,
       .maintenance_thread = true,
       .checkpoint_interval_us = 250000,
       .byte_budget = kConstrainedByteBudget,
       .warmup = 500,
       .unbudgeted_peak_bytes = kConstrainedUnbudgetedPeak,
       .qps_ceiling = 800},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Scale FullScale() {
  return {.graphs = 5000, .ops_per_batch = 10, .warmup_factor = 1, .qps_factor = 1};
}
Scale TinyScale() {
  return {.graphs = 300, .ops_per_batch = 4, .warmup_factor = 0.05, .qps_factor = 20};
}

Inputs GenerateInputs(const WorkloadSpec& spec, const Scale& scale,
                      std::uint64_t seed, std::size_t stream_length) {
  Inputs in;
  // The corpus plays the part of the paper's fixed AIDS dataset, so it does
  // not vary with the seed: Zipf-selected workloads then draw their hot
  // set from the same graphs on every seed, and only the queries and the
  // change plan differ.
  AidsLikeOptions corpus_opts;
  corpus_opts.num_graphs = scale.graphs;
  corpus_opts.seed = kCorpusSeed;
  in.corpus = AidsLikeGenerator(corpus_opts).Generate();
  std::uint64_t seeds = seed;

  // Type A queries are drawn independently, so they are generated in
  // chunks (one seed each) and interned as they come: only distinct query
  // graphs stay in memory.
  constexpr std::size_t kChunk = 1024;
  const std::uint64_t type_a_seed = SplitMix64(seeds);
  Rng super_rng(SplitMix64(seeds));
  ShapeTable shapes(&in.shapes);
  in.stream.reserve(stream_length);
  Workload sub;
  std::size_t next_sub = 0;
  for (std::size_t i = 0; i < stream_length; ++i) {
    StreamQuery q;
    if (spec.supergraph_every != 0 && (i + 1) % spec.supergraph_every == 0) {
      q.kind = QueryKind::kSupergraph;
      q.shape = shapes.Intern(
          in.corpus[super_rng.UniformBelow(in.corpus.size())], q.kind);
    } else {
      if (next_sub == sub.size()) {
        sub = GenerateTypeAByName(in.corpus, spec.type_a, kChunk,
                                  type_a_seed + i, /*zipf_alpha=*/1.4);
        next_sub = 0;
      }
      q.kind = QueryKind::kSubgraph;
      q.shape = shapes.Intern(std::move(sub.queries[next_sub++].query), q.kind);
    }
    in.stream.push_back(q);
  }

  // The plan's op mix is the paper's recipe; its batches fire at a fixed
  // cadence instead of at random stream positions.
  Rng plan_rng(SplitMix64(seeds));
  const auto length = static_cast<std::uint32_t>(stream_length);
  const auto batches = static_cast<std::uint32_t>(length / spec.batch_every);
  in.plan = ChangePlan::Generate(plan_rng, length, batches,
                                 scale.ops_per_batch, scale.graphs);
  for (std::uint32_t b = 0; b < batches; ++b) {
    in.plan.batches[b].at_query =
        static_cast<std::uint32_t>((b + 1) * spec.batch_every);
  }
  in.executor_seed = SplitMix64(seeds);
  return in;
}

GraphCachePlusOptions CachingOptions(const WorkloadSpec& spec,
                                     const std::string& checkpoint_dir) {
  GraphCachePlusOptions o;
  o.model = spec.model;
  o.method_m = MatcherKind::kVf2Plus;
  o.cache_capacity = spec.cache_capacity;
  o.window_capacity = spec.window_capacity;
  o.use_ftv_index = spec.ftv;
  o.num_shards = spec.shards;
  o.maintenance_thread = spec.maintenance_thread;
  o.byte_budget = spec.byte_budget;
  if (spec.checkpoint_interval_us != 0) {
    o.checkpoint_dir = checkpoint_dir;
    o.checkpoint_interval_us = spec.checkpoint_interval_us;
  }
  return o;
}

GraphCachePlusOptions ReferenceOptions(const WorkloadSpec& spec) {
  // What the workload runner's Method M mode does: no admission, so the
  // cache stays empty, and no §6.3 shortcuts. Served serially, so no
  // shards, maintenance thread, checkpoints or budget.
  GraphCachePlusOptions o;
  o.model = CacheModel::kEvi;
  o.method_m = MatcherKind::kVf2Plus;
  o.use_ftv_index = spec.ftv;
  o.enable_admission = false;
  o.enable_exact_shortcut = false;
  o.enable_empty_answer_shortcut = false;
  return o;
}

}  // namespace gcp::perfbench
