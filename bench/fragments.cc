// BENCH_09: sub-pattern fragment cache, before/after in one run.
//
// The fragment tier targets exactly the workload the whole-query cache is
// worst at: diversified queries that rarely repeat, so exact/sub/super
// hits are scarce and Method M verification dominates. "UU" (uniform
// query draw, uniform target draw) is that workload. Each query is
// decomposed into its canonical one-hop stars; cached fragment bitsets
// are intersected into the Method M candidate set between the
// FTV/formula pruning and sub-iso verification — a pruning-only tier, so
// answers, resident whole-query state and replacement decisions are
// bit-exact with --fragments=off (the "before" side, run in the same
// process over the same evolving dataset).
//
// The run FAILS (exit 1) when:
//   - any GC+ row's answers diverge from the uncached Method M baseline
//     (fragments must never change answers);
//   - a fragments-on row pruned nothing (fragment_candidates_pruned == 0
//     — the tier did not engage) or ran MORE sub-iso tests than its
//     fragments-off twin;
//   - a fragments-on row's admission/dedup/refresh/eviction counters
//     differ from its fragments-off twin (replacement decisions must be
//     untouched);
//   - a fragments-off row reports any fragment activity.
//
// Per row the JSON carries the whole-query twin counters (admission
// dedups and refreshes), the fragment counters (hits, computations,
// intersections, candidates pruned, admissions/merges/evictions, digest
// collisions) and the approximate resident byte footprint split
// (graph/bitset/fragment bytes).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace gcp;
using namespace gcp::bench;

namespace {

bool SameAnswers(const RunReport& a, const RunReport& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (std::size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i] != b.answers[i]) return false;
  }
  return true;
}

void EmitRow(JsonWriter* json, const char* system, const char* path,
             const RunReport& r) {
  if (json == nullptr) return;
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "\"system\": \"%s\", \"path\": \"%s\", "
      "\"tests_per_query\": %.3f, \"avg_query_ms\": %.5f, "
      "\"verify_throughput_tests_per_sec\": %.1f, "
      "\"admission_dedups\": %llu, \"admission_refreshes\": %llu, "
      "\"avg_fragment_ms\": %.5f, "
      "\"fragment_hits\": %llu, \"fragment_computed\": %llu, "
      "\"fragment_intersections\": %llu, "
      "\"fragment_candidates_pruned\": %llu, "
      "\"fragment_admissions\": %llu, \"fragment_merges\": %llu, "
      "\"fragment_evictions\": %llu, \"fragment_digest_collisions\": %llu, "
      "\"approx_graph_bytes\": %llu, \"approx_bitset_bytes\": %llu, "
      "\"approx_fragment_bytes\": %llu",
      system, path, r.avg_si_tests(), r.avg_query_ms(),
      VerifyThroughputTestsPerSec(r),
      static_cast<unsigned long long>(r.cache_stats.total_admission_dedups),
      static_cast<unsigned long long>(
          r.cache_stats.total_admission_refreshes),
      r.agg.queries == 0 ? 0.0
                         : static_cast<double>(r.agg.t_fragment_ns) / 1e6 /
                               static_cast<double>(r.agg.queries),
      static_cast<unsigned long long>(r.agg.fragment_hits),
      static_cast<unsigned long long>(r.agg.fragment_computed),
      static_cast<unsigned long long>(r.agg.fragment_intersections),
      static_cast<unsigned long long>(r.agg.fragment_candidates_pruned),
      static_cast<unsigned long long>(r.cache_stats.fragment_admissions),
      static_cast<unsigned long long>(r.cache_stats.fragment_merges),
      static_cast<unsigned long long>(r.cache_stats.fragment_evictions),
      static_cast<unsigned long long>(
          r.cache_stats.fragment_digest_collisions),
      static_cast<unsigned long long>(r.cache_stats.approx_graph_bytes),
      static_cast<unsigned long long>(r.cache_stats.approx_bitset_bytes),
      static_cast<unsigned long long>(r.cache_stats.approx_fragment_bytes));
  json->Row(buf);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  BenchConfig cfg = BenchConfig::FromFlags(flags);
  if (!flags.Has("labels")) {
    // A denser label space than the AIDS-like default, so distinct queries
    // share one-hop stars: the cross-query reuse the fragment store feeds
    // on. Override with --labels to study sparser sharing.
    cfg.labels = 12;
  }
  PrintConfig(cfg, "BENCH 09: sub-pattern fragment cache, before/after");
  ApplyProcessToggles(cfg);

  const std::vector<Graph> corpus = BuildCorpus(cfg);
  const Workload w = BuildWorkload("UU", corpus, cfg);
  const ChangePlan plan = BuildPlan(cfg, corpus.size());
  const MatcherKind method = MatcherKind::kVf2Plus;

  std::unique_ptr<JsonWriter> json;
  if (!cfg.json_path.empty()) {
    json = std::make_unique<JsonWriter>(cfg.json_path, "fragments", cfg);
  }

  int failures = 0;

  // --- Baseline: uncached Method M (the answer oracle) -------------------
  RunnerConfig base_rc = MakeRunnerConfig(RunMode::kMethodM, method, cfg);
  base_rc.record_answers = true;
  const RunReport base = RunWorkload(corpus, w, plan, base_rc);
  std::printf("\n%-6s %-10s %12s %12s %12s %12s %12s\n", "sys", "path",
              "tests/q", "avg q ms", "frag ms", "frag hits", "pruned");
  std::printf("%-6s %-10s %12.1f %12.5f %12.5f %12llu %12llu\n", "M", "-",
              base.avg_si_tests(), base.avg_query_ms(), 0.0, 0ULL, 0ULL);
  EmitRow(json.get(), "M", "baseline", base);

  for (const RunMode sys : {RunMode::kEvi, RunMode::kCon}) {
    const std::string sys_name(RunModeName(sys));
    RunReport sides[2];
    for (const bool frag : {false, true}) {
      RunnerConfig rc = MakeRunnerConfig(sys, method, cfg);
      rc.fragments = frag;
      rc.record_answers = true;
      RunReport r = RunWorkload(corpus, w, plan, rc);
      const double frag_ms =
          r.agg.queries == 0 ? 0.0
                             : static_cast<double>(r.agg.t_fragment_ns) /
                                   1e6 / static_cast<double>(r.agg.queries);
      std::printf("%-6s %-10s %12.1f %12.5f %12.5f %12llu %12llu\n",
                  sys_name.c_str(),
                  frag ? "fragments" : "off", r.avg_si_tests(),
                  r.avg_query_ms(), frag_ms,
                  static_cast<unsigned long long>(r.agg.fragment_hits),
                  static_cast<unsigned long long>(
                      r.agg.fragment_candidates_pruned));
      std::fflush(stdout);
      EmitRow(json.get(), sys_name.c_str(),
              frag ? "fragments" : "off", r);
      sides[frag ? 1 : 0] = std::move(r);
    }
    const RunReport& off = sides[0];
    const RunReport& on = sides[1];

    if (!SameAnswers(base, off) || !SameAnswers(base, on)) {
      std::fprintf(stderr,
                   "FAIL: %s answers diverged from the Method M baseline\n",
                   sys_name.c_str());
      ++failures;
    }
    if (on.agg.fragment_candidates_pruned == 0) {
      std::fprintf(stderr,
                   "FAIL: %s fragments-on pruned no candidates — the tier "
                   "never engaged\n",
                   sys_name.c_str());
      ++failures;
    }
    if (on.agg.si_tests > off.agg.si_tests) {
      std::fprintf(stderr,
                   "FAIL: %s fragments-on ran %llu sub-iso tests vs %llu "
                   "off — pruning made verification worse\n",
                   sys_name.c_str(),
                   static_cast<unsigned long long>(on.agg.si_tests),
                   static_cast<unsigned long long>(off.agg.si_tests));
      ++failures;
    }
    if (on.cache_stats.total_admissions != off.cache_stats.total_admissions ||
        on.cache_stats.total_admission_dedups !=
            off.cache_stats.total_admission_dedups ||
        on.cache_stats.total_admission_refreshes !=
            off.cache_stats.total_admission_refreshes ||
        on.cache_stats.total_evictions != off.cache_stats.total_evictions) {
      std::fprintf(stderr,
                   "FAIL: %s whole-query replacement diverged "
                   "(admissions %llu/%llu, dedups %llu/%llu, refreshes "
                   "%llu/%llu, evictions %llu/%llu on/off)\n",
                   sys_name.c_str(),
                   static_cast<unsigned long long>(
                       on.cache_stats.total_admissions),
                   static_cast<unsigned long long>(
                       off.cache_stats.total_admissions),
                   static_cast<unsigned long long>(
                       on.cache_stats.total_admission_dedups),
                   static_cast<unsigned long long>(
                       off.cache_stats.total_admission_dedups),
                   static_cast<unsigned long long>(
                       on.cache_stats.total_admission_refreshes),
                   static_cast<unsigned long long>(
                       off.cache_stats.total_admission_refreshes),
                   static_cast<unsigned long long>(
                       on.cache_stats.total_evictions),
                   static_cast<unsigned long long>(
                       off.cache_stats.total_evictions));
      ++failures;
    }
    if (off.agg.fragment_hits != 0 || off.agg.fragment_computed != 0 ||
        off.agg.fragment_candidates_pruned != 0 ||
        off.cache_stats.fragment_admissions != 0) {
      std::fprintf(stderr,
                   "FAIL: %s fragments-off reported fragment activity\n",
                   sys_name.c_str());
      ++failures;
    }
    if (on.cache_stats.approx_fragment_bytes == 0 &&
        on.cache_stats.fragment_admissions != 0) {
      std::fprintf(stderr,
                   "FAIL: %s resident fragments but zero accounted bytes\n",
                   sys_name.c_str());
      ++failures;
    }
  }

  std::printf(
      "\n# Expected shape: identical answers across M, off and fragments\n"
      "# (the tier is pruning-only). tests/q drops on the fragments side —\n"
      "# resident fragment bitsets AND-NOT candidates away before\n"
      "# verification — while whole-query admissions/evictions match the\n"
      "# off side exactly. frag ms (intersection + on-miss star\n"
      "# computation) stays well under the verify time it saves; the byte\n"
      "# split shows what the fragment store costs to keep resident.\n");
  return failures == 0 ? 0 : 1;
}
