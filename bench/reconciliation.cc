// BENCH_07: reconciliation through the change-relevance index.
//
// Every change batch is routed through the change-relevance index: only
// entries whose CGvalid footprint intersects the batch run Algorithm 2's
// counter loop, everything else keeps its bits untouched by construction
// (touched + skipped == resident per reconcile). An uncached Method M
// row supplies the reference answers.
//
// The bench drives the engine directly (not through RunWorkload) so the
// churn's *locality* is controlled: "localized" batches aim their edge
// ops at a ≤1% band of the newest live graphs — the regime the index
// exists for — while "uniform" batches spray ops across the whole id
// space, the honest worst case where footprints rarely let anything
// skip. Each batch is reconciled by the next query's sync; the reconcile
// column is the engine's aggregate validation time (t_validate_ns:
// Algorithms 1 + 2 for CON, the purge for EVI).
//
// The run fails (exit 1) if any cached row's answers diverge from
// uncached Method M's (the equivalence suite pins this too), or if the
// localized CON row skips no entry. Wall-clock times are reported, not
// gated.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/graphcache_plus.hpp"

using namespace gcp;
using namespace gcp::bench;

namespace {

struct PathToggles {
  const char* path;  // "M" / "cached"
  bool cached;       // false = uncached Method M
};

struct RowResult {
  std::uint64_t answers_digest = 0;
  std::uint64_t touched = 0;
  std::uint64_t skipped = 0;
  double reconcile_ms = 0.0;  // aggregate t_validate_ns over the run
  double avg_query_ms = 0.0;
  std::size_t resident = 0;
};

std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Removes one deterministically chosen ring edge of `id`; reports which
/// via `u`/`v`. False when the graph has no ring edge left.
bool RemoveOneEdge(GraphDataset& ds, GraphId id, std::size_t salt,
                   VertexId* u, VertexId* v) {
  const Graph& g = ds.graph(id);
  const std::size_t n = g.NumVertices();
  if (n < 2) return false;
  for (std::size_t off = 0; off < n; ++off) {
    const auto a = static_cast<VertexId>((salt + off) % n);
    const auto b = static_cast<VertexId>((a + 1) % n);
    if (a != b && g.HasEdge(a, b)) {
      *u = a;
      *v = b;
      return ds.RemoveEdge(id, a, b).ok();
    }
  }
  return false;
}

/// One churn batch, deterministic in `step` so every path replays the
/// exact same dataset evolution. Localized batches are pure edge churn
/// inside the newest ≤1% of live ids — removal-leaning, so most batches
/// are UR-exclusive per graph and Algorithm 2's polarity rules have
/// something to preserve; every fourth batch re-adds the removed edges
/// (mixed ops). Uniform batches also grow the corpus and spray the same
/// edge churn across the whole live range.
void ApplyChurn(GraphDataset& ds, const std::vector<Graph>& corpus,
                std::size_t step, std::size_t batch, bool localized) {
  if (!localized) ds.AddGraph(corpus[(5 * step + 2) % corpus.size()]);
  const std::vector<GraphId> live = ds.LiveIds();
  const std::size_t band =
      localized ? std::max<std::size_t>(1, live.size() / 100) : live.size();
  std::size_t mutated = 0;
  for (std::size_t k = 0; k < 32 && mutated < 4; ++k) {
    const std::size_t idx = live.size() - 1 - ((7 * step + 3 * k) % band);
    const GraphId id = live[idx];
    VertexId u = 0;
    VertexId v = 0;
    if (RemoveOneEdge(ds, id, step + 5 * k, &u, &v)) {
      if (batch % 4 == 3) (void)ds.AddEdge(id, u, v);
      ++mutated;
    }
  }
}

RowResult RunRow(const std::vector<Graph>& corpus, const Workload& w,
                 const BenchConfig& cfg, CacheModel model,
                 const PathToggles& path, bool localized) {
  GraphDataset ds;
  ds.Bootstrap(corpus);
  GraphCachePlusOptions opts = MakeEngineOptions(model, cfg);
  opts.use_ftv_index = true;
  if (!path.cached) {
    opts.enable_admission = false;
    opts.enable_exact_shortcut = false;
    opts.enable_empty_answer_shortcut = false;
  }
  GraphCachePlus gc(&ds, opts);

  const std::size_t interval =
      std::max<std::size_t>(1, w.size() / std::max(1u, cfg.batches));
  RowResult r;
  std::int64_t query_ns = 0;
  std::size_t queries = 0;
  for (std::size_t step = 0; step < w.size(); ++step) {
    if (step % interval == interval - 1) {
      const std::size_t batch = step / interval;
      gc.ApplyDatasetChanges(
          [&corpus, step, batch, localized](GraphDataset& d) {
            ApplyChurn(d, corpus, step, batch, localized);
          });
    }
    const QueryKind kind =
        step % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph;
    const auto t0 = std::chrono::steady_clock::now();
    const QueryResult res = gc.Query(w.queries[step].query, kind);
    query_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ++queries;
    r.answers_digest = HashCombine(r.answers_digest, res.answer.size());
    for (const GraphId id : res.answer) {
      r.answers_digest = HashCombine(r.answers_digest, id);
    }
  }
  gc.FlushMaintenance();
  const StatisticsManager stats = gc.CacheStatsSnapshot();
  r.touched = stats.reconcile_entries_touched;
  r.skipped = stats.reconcile_entries_skipped;
  r.reconcile_ms =
      static_cast<double>(gc.AggregateSnapshot().t_validate_ns) / 1e6;
  r.avg_query_ms =
      queries == 0 ? 0.0
                   : static_cast<double>(query_ns) / 1e6 /
                         static_cast<double>(queries);
  gc.cache_shards().ForEachEntry([&r](const CachedQuery&) { ++r.resident; });
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const BenchConfig cfg = BenchConfig::FromFlags(flags);
  PrintConfig(cfg, "BENCH 07: relevance-indexed reconciliation");
  ApplyProcessToggles(cfg);

  const std::vector<Graph> corpus = BuildCorpus(cfg);
  const Workload w = BuildWorkload("ZU", corpus, cfg);

  std::unique_ptr<JsonWriter> json;
  if (!cfg.json_path.empty()) {
    json = std::make_unique<JsonWriter>(cfg.json_path, "reconciliation", cfg);
  }

  const PathToggles kMethodM{"M", false};
  const PathToggles kCached{"cached", true};

  int failures = 0;
  std::printf("\n%-10s %-12s %-4s %10s %10s %13s %11s\n", "churn", "path",
              "sys", "touched", "skipped", "reconcile ms", "avg q ms");
  for (const bool localized : {true, false}) {
    const char* churn = localized ? "localized" : "uniform";
    for (const CacheModel model : {CacheModel::kCon, CacheModel::kEvi}) {
      const char* sys = model == CacheModel::kCon ? "CON" : "EVI";
      std::vector<std::pair<PathToggles, RowResult>> rows;
      rows.emplace_back(kMethodM,
                        RunRow(corpus, w, cfg, model, kMethodM, localized));
      rows.emplace_back(kCached,
                        RunRow(corpus, w, cfg, model, kCached, localized));
      const RowResult& reference = rows.front().second;
      for (const auto& [path, r] : rows) {
        std::printf("%-10s %-12s %-4s %10llu %10llu %13.3f %11.5f\n", churn,
                    path.path, sys,
                    static_cast<unsigned long long>(r.touched),
                    static_cast<unsigned long long>(r.skipped),
                    r.reconcile_ms, r.avg_query_ms);
        std::fflush(stdout);
        if (r.answers_digest != reference.answers_digest) {
          std::fprintf(stderr,
                       "FAIL: %s/%s/%s answers diverged from uncached "
                       "Method M\n",
                       churn, path.path, sys);
          ++failures;
        }
        if (json != nullptr) {
          char buf[512];
          std::snprintf(
              buf, sizeof(buf),
              "\"churn\": \"%s\", \"path\": \"%s\", \"system\": \"%s\", "
              "\"reconcile_entries_touched\": %llu, "
              "\"reconcile_entries_skipped\": %llu, "
              "\"reconcile_ms\": %.3f, \"avg_query_ms\": %.5f, "
              "\"resident\": %zu, \"answers_digest\": %llu",
              churn, path.path, sys,
              static_cast<unsigned long long>(r.touched),
              static_cast<unsigned long long>(r.skipped),
              r.reconcile_ms, r.avg_query_ms, r.resident,
              static_cast<unsigned long long>(r.answers_digest));
          json->Row(buf);
        }
      }
      // The localized CON row must actually skip work.
      if (localized && model == CacheModel::kCon) {
        const RowResult& cached = rows[1].second;
        if (cached.skipped == 0) {
          std::fprintf(stderr,
                       "FAIL: localized CON touched %llu, skipped 0 — the "
                       "index screened nothing\n",
                       static_cast<unsigned long long>(cached.touched));
          ++failures;
        }
      }
    }
  }

  std::printf(
      "\n# Expected shape: identical answers on every row of a (churn, sys)\n"
      "# group — the index never changes results. On localized churn,\n"
      "# CON touches a small fraction of the resident entries per\n"
      "# reconcile (skipped >> touched); on uniform churn the footprints\n"
      "# intersect almost every batch, so few entries are skipped —\n"
      "# reported, not gated. EVI purges are indiscriminate by definition:\n"
      "# skipped stays 0. The M row has no cache: touched = skipped = 0.\n");
  return failures == 0 ? 0 : 1;
}
