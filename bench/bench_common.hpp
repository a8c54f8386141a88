// Shared scaffolding for the figure-reproduction benches.
//
// The paper's testbed (AIDS: 40,000 graphs; 10,000-query workloads; Dell
// R920, 60 cores / 320 GB) runs for hours. The benches default to a
// laptop-scale configuration that preserves the paper's *ratios* —
// cache : window : purge-interval : workload length — so the shape of the
// results (who wins, by roughly what factor) carries over. Every knob is a
// flag; `--paper` switches to the full published scale.

#ifndef GCP_BENCH_BENCH_COMMON_HPP_
#define GCP_BENCH_BENCH_COMMON_HPP_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/simd.hpp"
#include "dataset/aids_like.hpp"
#include "dataset/change_plan.hpp"
#include "workload/runner.hpp"
#include "workload/type_a.hpp"
#include "workload/type_b.hpp"

namespace gcp::bench {

/// Reads a count flag through Flags::GetCount, bounded by T's range. A
/// negative, overflowing or malformed value is a usage error: it prints
/// the reason and exits 2 instead of wrapping or falling back.
template <typename T>
T CountFlag(const Flags& flags, const std::string& key, T def) {
  const Result<std::uint64_t> v =
      flags.GetCount(key, def, std::numeric_limits<T>::max());
  if (!v.ok()) {
    std::fprintf(stderr, "usage error: %s\n", v.status().message().c_str());
    std::exit(2);
  }
  return static_cast<T>(v.value());
}

/// All experiment knobs, with scaled-down defaults.
struct BenchConfig {
  // Corpus (AIDS-like synthetic; see DESIGN.md §4).
  std::uint32_t graphs = 500;
  double mean_vertices = 30.0;
  double stddev_vertices = 12.0;
  std::uint32_t min_vertices = 5;
  std::uint32_t max_vertices = 120;
  std::uint32_t labels = 62;

  // Workload.
  std::uint32_t queries = 1000;
  double zipf_alpha = 1.4;

  // Cache (paper: 100 / 20; scaled keeping the 5:1 ratio).
  std::size_t cache_capacity = 50;
  std::size_t window_capacity = 10;
  std::size_t warmup = 10;  ///< One window (paper: one window = 20).

  // Change plan (paper: 100 batches x 20 ops over 10,000 queries — one
  // batch per ~cache-capacity queries; scaled accordingly).
  std::uint32_t batches = 20;
  std::uint32_t ops_per_batch = 10;

  // Per-query caps on verified cache hits (0 = unlimited).
  std::size_t max_sub_hits = 16;
  std::size_t max_super_hits = 16;

  std::uint64_t seed = 42;
  std::size_t verify_threads = 1;
  /// Closed-loop client threads sharing one GraphCachePlus (the runner's
  /// --threads flag; bench_throughput_scaling sweeps 1..this).
  std::size_t client_threads = 1;
  /// Digest-sharded cache stores (--shards; 1 = single-store legacy).
  std::size_t shards = 1;
  /// Dedicated maintenance drain thread (--maintenance-thread).
  bool maintenance_thread = false;
  /// Sub-pattern fragment cache (--fragments=off = the fragment-free
  /// oracle, bit-exact on answers, resident whole-query state and
  /// replacement decisions — the "before" side of bench_fragments).
  bool fragments = true;
  /// SIMD dispatch cap (--simd=off|scalar|popcnt|avx2|auto; empty/auto =
  /// use whatever the CPU supports). "off"/"scalar" is the bit-exact
  /// scalar oracle.
  std::string simd;
  /// Durable checkpoint directory (--checkpoint-dir; empty = off).
  std::string checkpoint_dir;
  /// Background checkpoint period in µs (--checkpoint-interval; 0 = off;
  /// needs --maintenance-thread to actually fire in the background).
  std::size_t checkpoint_interval_us = 0;
  /// Attempt a verified warm restart before the first query
  /// (--warm-restart; degrades to cold start when nothing usable exists).
  bool warm_restart = false;
  /// Byte-accounted capacity cap (--byte-budget=off|N; 0/off = the
  /// entry-count legacy model, bit-exact).
  std::size_t byte_budget = 0;
  /// When non-empty, also emit machine-readable results here (--json=...).
  std::string json_path;

  static BenchConfig FromFlags(const Flags& flags) {
    BenchConfig c;
    if (flags.GetBool("paper", false)) {
      c.graphs = 40000;
      c.mean_vertices = 45.0;
      c.stddev_vertices = 22.0;
      c.max_vertices = 245;
      c.queries = 10000;
      c.cache_capacity = 100;
      c.window_capacity = 20;
      c.warmup = 20;
      c.batches = 100;
      c.ops_per_batch = 20;
    }
    if (flags.GetBool("quick", false)) {
      c.graphs = 150;
      c.queries = 120;
      c.cache_capacity = 30;
      c.window_capacity = 6;
      c.warmup = 6;
      c.batches = 3;
      c.ops_per_batch = 6;
    }
    c.graphs = CountFlag(flags, "graphs", c.graphs);
    c.queries = CountFlag(flags, "queries", c.queries);
    // Keep the paper's change cadence (one batch per ~50 scaled queries)
    // when only --queries is overridden.
    if (flags.Has("queries") && !flags.Has("batches") &&
        !flags.GetBool("paper", false)) {
      c.batches = std::max(1u, c.queries / 50);
    }
    c.labels = CountFlag(flags, "labels", c.labels);
    c.mean_vertices = flags.GetDouble("mean-vertices", c.mean_vertices);
    c.max_vertices = CountFlag(flags, "max-vertices", c.max_vertices);
    c.cache_capacity = CountFlag(flags, "cache", c.cache_capacity);
    c.window_capacity = CountFlag(flags, "window", c.window_capacity);
    c.warmup = CountFlag(flags, "warmup", c.warmup);
    c.batches = CountFlag(flags, "batches", c.batches);
    c.ops_per_batch = CountFlag(flags, "ops-per-batch", c.ops_per_batch);
    c.zipf_alpha = flags.GetDouble("alpha", c.zipf_alpha);
    c.max_sub_hits = CountFlag(flags, "max-sub-hits", c.max_sub_hits);
    c.max_super_hits = CountFlag(flags, "max-super-hits", c.max_super_hits);
    c.seed = CountFlag(flags, "seed", c.seed);
    c.verify_threads = CountFlag(flags, "verify-threads", c.verify_threads);
    c.client_threads = CountFlag(flags, "threads", c.client_threads);
    c.shards = CountFlag(flags, "shards", c.shards);
    c.maintenance_thread =
        flags.GetBool("maintenance-thread", c.maintenance_thread);
    c.fragments = flags.GetBool("fragments", c.fragments);
    c.simd = flags.GetString("simd", c.simd);
    c.checkpoint_dir = flags.GetString("checkpoint-dir", c.checkpoint_dir);
    c.checkpoint_interval_us =
        CountFlag(flags, "checkpoint-interval", c.checkpoint_interval_us);
    c.warm_restart = flags.GetBool("warm-restart", c.warm_restart);
    // --byte-budget accepts "off" (the entry-count oracle) or a byte
    // count; anything else must parse as a non-negative integer.
    if (flags.GetString("byte-budget", "") != "off") {
      c.byte_budget = CountFlag(flags, "byte-budget", c.byte_budget);
    }
    c.json_path = flags.GetString("json", c.json_path);
    return c;
  }

  AidsLikeOptions CorpusOptions() const {
    AidsLikeOptions opts;
    opts.num_graphs = graphs;
    opts.mean_vertices = mean_vertices;
    opts.stddev_vertices = stddev_vertices;
    opts.min_vertices = min_vertices;
    opts.max_vertices = max_vertices;
    opts.num_labels = labels;
    opts.seed = seed;
    return opts;
  }
};

inline std::vector<Graph> BuildCorpus(const BenchConfig& cfg) {
  return AidsLikeGenerator(cfg.CorpusOptions()).Generate();
}

/// Builds a workload by its paper name: "ZZ"/"ZU"/"UU" (Type A) or
/// "0%"/"20%"/"50%" (Type B).
inline Workload BuildWorkload(const std::string& name,
                              const std::vector<Graph>& corpus,
                              const BenchConfig& cfg) {
  if (name == "ZZ" || name == "ZU" || name == "UU" || name == "UZ") {
    return GenerateTypeAByName(corpus, name, cfg.queries, cfg.seed + 101,
                               cfg.zipf_alpha);
  }
  TypeBOptions opts;
  opts.zipf_alpha = cfg.zipf_alpha;
  opts.num_queries = cfg.queries;
  opts.seed = cfg.seed + 202;
  opts.answer_pool_size = cfg.queries;
  opts.no_answer_pool_size = cfg.queries * 3 / 10;
  if (name == "0%") {
    opts.no_answer_prob = 0.0;
  } else if (name == "20%") {
    opts.no_answer_prob = 0.2;
  } else if (name == "50%") {
    opts.no_answer_prob = 0.5;
  } else {
    std::fprintf(stderr, "unknown workload name '%s'\n", name.c_str());
    std::exit(2);
  }
  return GenerateTypeB(corpus, opts);
}

inline ChangePlan BuildPlan(const BenchConfig& cfg,
                            std::size_t corpus_size) {
  Rng rng(cfg.seed + 303);
  return ChangePlan::Generate(rng, cfg.queries, cfg.batches,
                              cfg.ops_per_batch,
                              static_cast<std::uint32_t>(corpus_size));
}

inline RunnerConfig MakeRunnerConfig(RunMode mode, MatcherKind method,
                                     const BenchConfig& cfg) {
  RunnerConfig rc;
  rc.mode = mode;
  rc.method = method;
  rc.cache_capacity = cfg.cache_capacity;
  rc.window_capacity = cfg.window_capacity;
  rc.warmup_queries = cfg.warmup;
  rc.verify_threads = cfg.verify_threads;
  rc.client_threads = cfg.client_threads;
  rc.shards = cfg.shards;
  rc.maintenance_thread = cfg.maintenance_thread;
  rc.max_sub_hits = cfg.max_sub_hits;
  rc.max_super_hits = cfg.max_super_hits;
  rc.fragments = cfg.fragments;
  rc.checkpoint_dir = cfg.checkpoint_dir;
  rc.checkpoint_interval_us = cfg.checkpoint_interval_us;
  rc.warm_restart = cfg.warm_restart;
  rc.byte_budget = cfg.byte_budget;
  rc.plan_seed = cfg.seed + 404;
  return rc;
}

/// Engine options for benches that construct GraphCachePlus directly
/// (bypassing the workload runner). One place maps BenchConfig knobs —
/// including --fragments — onto GraphCachePlusOptions, so a new flag
/// lands once instead of once per bench. Callers override the handful of fields their experiment pins
/// (model, checkpoint knobs, ...) after the call.
inline GraphCachePlusOptions MakeEngineOptions(CacheModel model,
                                               const BenchConfig& cfg) {
  GraphCachePlusOptions opts;
  opts.model = model;
  opts.cache_capacity = cfg.cache_capacity;
  opts.window_capacity = cfg.window_capacity;
  opts.verify_threads = cfg.verify_threads;
  opts.num_shards = std::max<std::size_t>(1, cfg.shards);
  opts.maintenance_thread = cfg.maintenance_thread;
  opts.max_sub_hits = cfg.max_sub_hits;
  opts.max_super_hits = cfg.max_super_hits;
  if (!cfg.fragments) opts.fragment_capacity = 0;
  opts.checkpoint_dir = cfg.checkpoint_dir;
  opts.checkpoint_interval_us = cfg.checkpoint_interval_us;
  opts.byte_budget = cfg.byte_budget;
  return opts;
}

/// Applies the process-global SIMD dispatch cap (--simd) for this bench
/// run. Call once from main before measuring; idempotent.
inline void ApplyProcessToggles(const BenchConfig& cfg) {
  if (cfg.simd.empty() || cfg.simd == "auto") {
    simd::SetSimdLevel(simd::DetectedSimdLevel());
  } else if (cfg.simd == "off" || cfg.simd == "scalar") {
    simd::SetSimdLevel(simd::SimdLevel::kScalar);
  } else if (cfg.simd == "popcnt") {
    simd::SetSimdLevel(simd::SimdLevel::kPopcnt);
  } else if (cfg.simd == "avx2") {
    simd::SetSimdLevel(simd::SimdLevel::kAvx2);
  } else {
    std::fprintf(stderr, "unknown --simd level '%s'\n", cfg.simd.c_str());
    std::exit(2);
  }
}

/// Method M verification throughput: sub-iso tests per second of verify
/// wall time — the Figure 5 "how fast does verification itself run" axis.
inline double VerifyThroughputTestsPerSec(const RunReport& r) {
  return r.agg.t_verify_ns <= 0
             ? 0.0
             : static_cast<double>(r.agg.si_tests) /
                   (static_cast<double>(r.agg.t_verify_ns) / 1e9);
}

/// Average per-query hit-discovery (cache probe) time in ms — candidate
/// enumeration plus utilities plus containment verification of hits.
inline double AvgProbeMs(const RunReport& r) {
  return r.agg.queries == 0
             ? 0.0
             : static_cast<double>(r.agg.t_probe_ns) / 1e6 /
                   static_cast<double>(r.agg.queries);
}

/// Average per-query candidate-enumeration time in ms (the slice of probe
/// the inverted feature-signature index attacks).
inline double AvgDiscoverMs(const RunReport& r) {
  return r.agg.queries == 0
             ? 0.0
             : static_cast<double>(r.agg.t_discover_ns) / 1e6 /
                   static_cast<double>(r.agg.queries);
}

/// Minimal JSON writer for the bench reports: an object of
/// "rows", each a flat field map. Callers pass alternating key/value
/// already-formatted fields.
class JsonWriter {
 public:
  explicit JsonWriter(const std::string& path, const char* bench,
                      const BenchConfig& cfg) {
    f_ = std::fopen(path.c_str(), "w");
    if (f_ == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      std::exit(2);
    }
    std::fprintf(f_,
                 "{\n  \"bench\": \"%s\",\n  \"config\": {\"graphs\": %u, "
                 "\"queries\": %u, \"cache\": %zu, \"window\": %zu, "
                 "\"batches\": %u, \"ops_per_batch\": %u, \"seed\": %llu},\n"
                 "  \"rows\": [",
                 bench, cfg.graphs, cfg.queries, cfg.cache_capacity,
                 cfg.window_capacity, cfg.batches, cfg.ops_per_batch,
                 static_cast<unsigned long long>(cfg.seed));
  }
  ~JsonWriter() {
    if (f_ != nullptr) {
      std::fprintf(f_, "\n  ]\n}\n");
      std::fclose(f_);
    }
  }

  void Row(const std::string& fields) {
    std::fprintf(f_, "%s\n    {%s}", first_ ? "" : ",", fields.c_str());
    first_ = false;
  }

 private:
  std::FILE* f_ = nullptr;
  bool first_ = true;
};

inline void PrintConfig(const BenchConfig& cfg, const char* bench_name) {
  std::printf("# %s\n", bench_name);
  std::printf(
      "# corpus: %u AIDS-like graphs (mean |V| %.0f, max %u) | workload: %u "
      "queries (Zipf a=%.1f) | cache/window: %zu/%zu | change plan: %u "
      "batches x %u ops | seed %llu\n",
      cfg.graphs, cfg.mean_vertices, cfg.max_vertices, cfg.queries,
      cfg.zipf_alpha, cfg.cache_capacity, cfg.window_capacity, cfg.batches,
      cfg.ops_per_batch, static_cast<unsigned long long>(cfg.seed));
}

}  // namespace gcp::bench

#endif  // GCP_BENCH_BENCH_COMMON_HPP_
