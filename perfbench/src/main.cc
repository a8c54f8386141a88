// gcp_perfbench: runs one named workload through GraphCachePlus and the
// uncached Method M reference, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: gcp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--scale full|tiny] [--work-dir DIR]
//                      [--corrupt-answer]   (self-test of the oracle)

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/flags.hpp"
#include "graph/canonical.hpp"
#include "perfbench.hpp"

namespace gcp::perfbench {
namespace {

constexpr int kSetupRepetitions = 7;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< Sample count or definition, for the table only.
  /// False for figures printed in the table but left out of the result
  /// line: absolute latencies move with the machine's speed from run to
  /// run, while the paired ratios next to them do not.
  bool in_result = true;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string Count(std::size_t n) { return "n=" + std::to_string(n); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintJsonNumber(std::FILE* f, double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::fprintf(f, "%.17g", v);
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::vector<QueryMetrics>& attributions) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans) {
    std::fprintf(f, "{\"id\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                    "\"dur_ns\":%lld",
                 static_cast<unsigned long long>(s.id), SpanNameString(s.name),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns - s.start_ns));
    if (s.parent != Span::kNoParent) {
      std::fprintf(f, ",\"parent\":%llu",
                   static_cast<unsigned long long>(s.parent));
    }
    if (s.attribution >= 0) {
      const QueryMetrics& m = attributions[s.attribution];
      std::fprintf(
          f,
          ",\"stages_ns\":{\"validate\":%lld,\"ftv_filter\":%lld,"
          "\"probe\":%lld,\"discover\":%lld,\"prune\":%lld,\"fragment\":%lld,"
          "\"verify\":%lld,\"maintenance\":%lld},\"si_tests\":%llu,"
          "\"candidates_initial\":%llu,\"candidates_final\":%llu",
          static_cast<long long>(m.t_validate_ns),
          static_cast<long long>(m.t_index_ns),
          static_cast<long long>(m.t_probe_ns),
          static_cast<long long>(m.t_discover_ns),
          static_cast<long long>(m.t_prune_ns),
          static_cast<long long>(m.t_fragment_ns),
          static_cast<long long>(m.t_verify_ns),
          static_cast<long long>(m.t_maintenance_ns),
          static_cast<unsigned long long>(m.si_tests),
          static_cast<unsigned long long>(m.candidates_initial),
          static_cast<unsigned long long>(m.candidates_final));
    }
    std::fprintf(f, "}\n");
  }
  std::fclose(f);
}

/// Input properties the engine's behaviour depends on, over the measured
/// queries.
void PrintProperties(const WorkloadSpec& spec, const Inputs& in,
                     const ClosedLoopResult& loop) {
  std::vector<std::uint64_t> digest(in.shapes.size());
  for (std::size_t s = 0; s < in.shapes.size(); ++s) {
    digest[s] = WlDigest(in.shapes[s]);
  }
  std::unordered_set<std::uint64_t> seen;
  std::size_t measured = 0, repeated = 0, super = 0, edges = 0;
  for (std::size_t i = 0; i < loop.queries.size(); ++i) {
    if (!loop.queries[i].executed) continue;
    const StreamQuery& q = in.stream[i];
    const std::uint64_t key =
        digest[q.shape] * 2 + (q.kind == QueryKind::kSupergraph ? 1 : 0);
    const bool again = !seen.insert(key).second;
    if (i < loop.measured_begin) continue;
    ++measured;
    repeated += again ? 1 : 0;
    super += q.kind == QueryKind::kSupergraph ? 1 : 0;
    edges += in.shapes[q.shape].NumEdges();
  }
  std::size_t ops = 0;
  for (std::size_t b = 0; b < loop.batches.size(); ++b) {
    if (loop.batches[b].measured) ops += in.plan.batches[b].ops.size();
  }
  const double m = static_cast<double>(std::max<std::size_t>(1, measured));
  std::printf("# workload properties (%zu measured queries)\n", measured);
  std::printf("  repeated_query_share      %.4f  (isomorphic to an earlier query)\n",
              static_cast<double>(repeated) / m);
  std::printf("  supergraph_share          %.4f\n", static_cast<double>(super) / m);
  std::printf("  mean_query_edges          %.2f\n", static_cast<double>(edges) / m);
  std::printf("  change_ops_per_100_queries %.3f\n",
              100.0 * static_cast<double>(ops) / m);
  std::printf("  corpus_graphs             %zu\n", in.corpus.size());
  if (spec.byte_budget != 0) {
    std::printf("  unbudgeted_peak_bytes     %zu  (measured when the budget was "
                "chosen; budget %zu = %.2f of it)\n",
                spec.unbudgeted_peak_bytes, spec.byte_budget,
                static_cast<double>(spec.byte_budget) /
                    static_cast<double>(spec.unbudgeted_peak_bytes));
    std::printf("  resident_peak_bytes       %llu  (this run, sampled before each "
                "batch and at the end)\n",
                static_cast<unsigned long long>(loop.peak_resident_bytes));
  }
}

std::vector<Metric> EndToEnd(const WorkloadSpec& spec,
                             const ClosedLoopResult& loop,
                             const ReferenceResult& ref, double setup_s,
                             double peak_rss_mb) {
  std::vector<double> wall_ms;
  for (std::size_t i = loop.measured_begin; i < loop.queries.size(); ++i) {
    if (loop.queries[i].executed) {
      wall_ms.push_back(static_cast<double>(loop.queries[i].wall_ns) / 1e6);
    }
  }
  std::vector<double> m_ms;
  for (const std::int64_t ns : ref.measured_wall_ns) {
    m_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  // The tails are shown but not gated: over ten seeds their spread on a
  // shared machine is wider than any useful regression bound.
  auto tails = [](const std::vector<double>& v) {
    return Count(v.size()) + ", p95 " + std::to_string(Percentile(v, 0.95)) +
           ", p99 " + std::to_string(Percentile(v, 0.99));
  };
  const double p50 = Percentile(wall_ms, 0.50);
  const double m_p50 = Percentile(m_ms, 0.50);
  const double qps =
      Ratio(static_cast<double>(wall_ms.size()), loop.measured_wall_s);
  // The reference serves as many clients as the workload, with no think
  // time, so its throughput is clients / mean latency (Little's law).
  double m_total_ms = 0;
  for (const double ms : m_ms) m_total_ms += ms;
  const double m_qps =
      Ratio(static_cast<double>(spec.clients * m_ms.size()), m_total_ms / 1e3);
  return {
      {"setup_s", setup_s, "s", "median of " + std::to_string(kSetupRepetitions)},
      {"query_p50_ms", p50, "ms", tails(wall_ms), false},
      {"throughput_qps", qps, "1/s",
       Count(wall_ms.size()) + ", batches included", false},
      {"m_query_p50_ms", m_p50, "ms", tails(m_ms), false},
      {"speedup_vs_m", Ratio(m_p50, p50), "x",
       "m_query_p50 / query_p50 (below 1 = cache slower than none)"},
      {"throughput_vs_m", Ratio(qps, m_qps), "x",
       "throughput_qps / uncached Method M's at the same client count (" +
           std::to_string(m_qps) + " 1/s)"},
      {"peak_rss_mb", peak_rss_mb, "MB", "process peak after the measured phase"},
  };
}

std::vector<Metric> PerLayer(const ClosedLoopResult& loop, double generate_s) {
  // Per-query means over the traced measured queries, from their spans and
  // the stage times attached to them.
  double n = 0, self_ns = 0, cand_init = 0, cand_final = 0, live = 0;
  double prune = 0, probe = 0, discover = 0, hits = 0, exact = 0, saved = 0;
  double maint = 0, frag = 0, frag_hits = 0, frag_computed = 0,
         frag_pruned = 0;
  double validate = 0, verify = 0, tests = 0, filter = 0;
  std::vector<double> traced_ms, untraced_ms;
  for (std::size_t i = loop.measured_begin; i < loop.queries.size(); ++i) {
    const QueryRecord& r = loop.queries[i];
    if (!r.executed) continue;
    (r.traced ? traced_ms : untraced_ms)
        .push_back(static_cast<double>(r.wall_ns) / 1e6);
  }
  double reconcile_ns = 0, mutation_ns = 0;
  std::vector<double> change_ms;
  for (const Span& s : loop.spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (s.name == SpanName::kQuery) {
      const QueryMetrics& m = loop.attributions[s.attribution];
      const QueryRecord& r = loop.queries[s.id];
      ++n;
      self_ns += dur - static_cast<double>(m.QueryTimeNs() + m.t_maintenance_ns);
      cand_init += static_cast<double>(m.candidates_initial);
      cand_final += static_cast<double>(m.candidates_final);
      live += r.live_graphs;
      prune += static_cast<double>(m.t_prune_ns);
      probe += static_cast<double>(m.t_probe_ns);
      discover += static_cast<double>(m.t_discover_ns);
      hits += m.sub_hits + m.super_hits + (m.exact_hit ? 1 : 0) +
              (m.empty_shortcut ? 1 : 0);
      exact += m.exact_hit ? 1 : 0;
      saved += static_cast<double>(m.tests_saved_sub + m.tests_saved_super);
      maint += static_cast<double>(m.t_maintenance_ns);
      frag += static_cast<double>(m.t_fragment_ns);
      frag_hits += m.fragment_hits;
      frag_computed += m.fragment_computed;
      frag_pruned += static_cast<double>(m.fragment_candidates_pruned);
      validate += static_cast<double>(m.t_validate_ns);
      verify += static_cast<double>(m.t_verify_ns);
      tests += static_cast<double>(m.si_tests);
      filter += static_cast<double>(m.t_index_ns);
    } else if (s.name == SpanName::kApplyDatasetChanges &&
               loop.batches[s.id - Span::kBatchIdBase].measured) {
      reconcile_ns += dur;
      change_ms.push_back(dur / 1e6);
    } else if (s.name == SpanName::kMutation &&
               loop.batches[s.id - Span::kBatchIdBase].measured) {
      reconcile_ns -= dur;
      mutation_ns += dur;
    }
  }
  const StatisticsManager& a = loop.stats_begin;
  const StatisticsManager& b = loop.stats_end;
  auto d = [&](auto field) {
    return static_cast<double>(b.*field - a.*field);
  };
  const double touched = d(&StatisticsManager::reconcile_entries_touched);
  const double skipped = d(&StatisticsManager::reconcile_entries_skipped);
  const double checkpoints = d(&StatisticsManager::checkpoints_written);
  const double resident = static_cast<double>(ResidentBytes(b));
  const double p50_traced = Percentile(traced_ms, 0.5);
  const double p50_untraced = Percentile(untraced_ms, 0.5);
  const std::string nq = Count(static_cast<std::size_t>(n)) + " traced queries";
  const auto batch_n = static_cast<double>(change_ms.size());
  const std::string nb = Count(change_ms.size()) + " batches";
  const std::string total = "measured-window total";
  return {
      {"core.query_self_ms", Ratio(self_ns, n) / 1e6, "ms", nq},
      {"core.prune_ms", Ratio(prune, n) / 1e6, "ms", nq},
      {"core.prune_keep_ratio", Ratio(cand_final, cand_init), "ratio",
       "candidates_final / candidates_initial"},
      {"core.apply_changes_p50_ms", Percentile(change_ms, 0.50), "ms", nb},
      {"core.apply_changes_p90_ms", Percentile(change_ms, 0.90), "ms", nb},
      {"core.reconcile_ms", Ratio(reconcile_ns, batch_n) / 1e6, "ms", nb},
      {"core.inline_drains", d(&StatisticsManager::backpressure_inline_drains),
       "count", total},
      {"core.offers_shed", d(&StatisticsManager::admission_offers_shed),
       "count", total},
      {"core.bypassed_queries",
       d(&StatisticsManager::pressure_bypassed_queries), "count", total},
      {"core.engine_lock_acquisitions",
       d(&StatisticsManager::read_phase_engine_lock_acquisitions), "count",
       total},
      {"cache.probe_ms", Ratio(probe, n) / 1e6, "ms", nq},
      {"cache.discover_ms", Ratio(discover, n) / 1e6, "ms", nq},
      {"cache.hits_per_query", Ratio(hits, n), "1/query",
       "sub + super + exact + empty-proof hits"},
      {"cache.exact_hit_share", Ratio(exact, n), "ratio", nq},
      {"cache.tests_saved_per_query", Ratio(saved, n), "1/query", nq},
      {"cache.maintenance_ms", Ratio(maint, n) / 1e6, "ms", nq},
      {"cache.fragment_ms", Ratio(frag, n) / 1e6, "ms", nq},
      {"cache.fragment_hit_ratio", Ratio(frag_hits, frag_hits + frag_computed),
       "ratio", "fragment hits / (hits + computed)"},
      {"cache.fragment_pruned_per_query", Ratio(frag_pruned, n), "1/query", nq},
      {"cache.validate_ms", Ratio(validate, n) / 1e6, "ms", nq},
      {"cache.reconcile_touched", touched, "count", total},
      {"cache.reconcile_skip_ratio", Ratio(skipped, touched + skipped), "ratio",
       "skipped / (touched + skipped)"},
      {"cache.admissions", d(&StatisticsManager::total_admissions), "count",
       total},
      {"cache.evictions", d(&StatisticsManager::total_evictions), "count",
       total},
      {"cache.byte_evictions", d(&StatisticsManager::byte_budget_evictions),
       "count", total},
      {"cache.resident_kb", resident / 1024.0, "KiB", "at end of run"},
      {"cache.checkpoint_ms",
       Ratio(d(&StatisticsManager::t_checkpoint_ns), checkpoints) / 1e6, "ms",
       "per checkpoint"},
      {"cache.checkpoints_written", checkpoints, "count", total},
      {"cache.checkpoint_kb",
       Ratio(d(&StatisticsManager::checkpoint_bytes), checkpoints) / 1024.0,
       "KiB", "per checkpoint"},
      {"match.verify_ms", Ratio(verify, n) / 1e6, "ms", nq},
      {"match.si_tests_per_query", Ratio(tests, n), "1/query", nq},
      {"match.tests_per_ms", Ratio(tests, verify / 1e6), "1/ms",
       "si tests / verify time"},
      {"ftv.filter_ms", Ratio(filter, n) / 1e6, "ms", nq},
      {"ftv.candidate_ratio", Ratio(cand_init, live), "ratio",
       "candidates_initial / live graphs"},
      {"dataset.mutation_ms", Ratio(mutation_ns, batch_n) / 1e6, "ms", nb},
      {"common.pressure_elevated",
       d(&StatisticsManager::pressure_elevated_transitions), "count", total},
      {"common.pressure_critical",
       d(&StatisticsManager::pressure_critical_transitions), "count", total},
      {"common.snapshots_published",
       d(&StatisticsManager::snapshots_published), "count", total},
      {"common.epochs_retired", d(&StatisticsManager::epochs_retired), "count",
       total},
      {"workload.generate_s", generate_s, "s",
       "median of " + std::to_string(kSetupRepetitions)},
      {"trace.overhead_pct", 100.0 * Ratio(p50_traced - p50_untraced, p50_untraced),
       "%", "query_p50 of traced (recording included) vs untraced queries"},
  };
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6f %-8s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.in_result ? "" : "(table only) ",
                m.note.c_str());
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "gcp_perfbench: %s\nusage: gcp_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--scale full|tiny] "
               "[--work-dir DIR] [--corrupt-answer]\nworkloads:",
               why);
  for (const WorkloadSpec& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (!flags.RequireKnown({"workload", "seed", "seconds", "trace", "scale",
                           "work-dir", "corrupt-answer"})
           .ok()) {
    return Usage("unknown flag");
  }
  const WorkloadSpec* spec = FindWorkload(flags.GetString("workload", ""));
  if (spec == nullptr) return Usage("unknown or missing --workload");
  if (!flags.Has("seed") || !flags.Has("seconds")) {
    return Usage("--seed and --seconds are required");
  }
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 0));
  const double seconds = flags.GetDouble("seconds", 0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string scale_name = flags.GetString("scale", "full");
  if (seconds <= 0) return Usage("--seconds must be positive");
  if (scale_name != "full" && scale_name != "tiny") return Usage("bad --scale");
  const Scale scale = scale_name == "tiny" ? TinyScale() : FullScale();
  const std::filesystem::path work_dir = flags.GetString("work-dir", ".bench_build/run");
  const std::filesystem::path checkpoint_dir =
      work_dir / ("checkpoints-" + std::string(spec->name) + "-" +
                  std::to_string(getpid()));
  std::filesystem::create_directories(work_dir);
  std::filesystem::remove_all(checkpoint_dir);

  const std::size_t stream_length = static_cast<std::size_t>(
      static_cast<double>(spec->warmup) * scale.warmup_factor +
      seconds * spec->qps_ceiling * scale.qps_factor);

  // Set-up: input generation and engine construction, repeated so its
  // median is steady; the last repetition's inputs and engine are used.
  std::vector<double> setup_s, generate_s;
  Inputs inputs;
  std::unique_ptr<GraphDataset> dataset;
  std::unique_ptr<GraphCachePlus> engine;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    engine.reset();
    dataset.reset();
    inputs = Inputs{};
    const std::int64_t start = NowNs();
    inputs = GenerateInputs(*spec, scale, seed, stream_length);
    const std::int64_t generated = NowNs();
    dataset = std::make_unique<GraphDataset>();
    dataset->Bootstrap(inputs.corpus);
    engine = std::make_unique<GraphCachePlus>(
        dataset.get(), CachingOptions(*spec, checkpoint_dir.string()));
    const std::int64_t end = NowNs();
    setup_s.push_back(static_cast<double>(end - start) / 1e9);
    generate_s.push_back(static_cast<double>(generated - start) / 1e9);
  }

  // Measurement: the caching engine's clients run for --seconds in blocks;
  // the reference runs each block's queries while the clients wait.
  Reference reference(*spec, inputs, trace,
                      flags.GetBool("corrupt-answer", false) ? 0 : -1);
  const ClosedLoopResult loop = RunClosedLoop(
      *spec, scale, inputs, *dataset, *engine, seconds, trace, reference);
  // The peak includes the reference's copy of the corpus, which is the
  // same for every version of the engine.
  const double peak_rss_mb = PeakRssMb();
  engine.reset();
  std::filesystem::remove_all(checkpoint_dir);
  const ReferenceResult ref = std::move(reference).Finish(loop);

  std::size_t executed = 0;
  for (const QueryRecord& r : loop.queries) executed += r.executed ? 1 : 0;
  std::size_t batches = 0;
  for (const BatchRecord& b : loop.batches) batches += b.wall_ns > 0 ? 1 : 0;
  const std::size_t checkpoint_failures = static_cast<std::size_t>(
      loop.stats_end.checkpoints_failed - loop.stats_begin.checkpoints_failed);
  const std::size_t attempted = executed + batches;
  // Running out of stream would shorten the measured window and so change
  // the workload; it counts as a failure.
  const std::size_t failed = ref.mismatches + loop.ops_skipped +
                             checkpoint_failures +
                             (loop.stream_exhausted ? 1 : 0);

  std::printf("# gcp_perfbench workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              spec->name, static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, scale_name.c_str());
  PrintProperties(*spec, inputs, loop);
  const std::vector<Metric> e2e =
      EndToEnd(*spec, loop, ref, Median(setup_s), peak_rss_mb);
  PrintTable("end-to-end", e2e);
  std::vector<Metric> layers;
  if (trace) {
    layers = PerLayer(loop, Median(generate_s));
    PrintTable("per-layer (traced run)", layers);
    const std::filesystem::path trace_path =
        work_dir / ("trace-" + std::string(spec->name) + "-seed" +
                    std::to_string(seed) + ".jsonl");
    std::vector<Span> spans = loop.spans;
    spans.insert(spans.end(), ref.spans.begin(), ref.spans.end());
    WriteTrace(trace_path.string(), spans, loop.attributions);
    std::printf("# trace: %zu spans -> %s\n", spans.size(), trace_path.c_str());
  }
  std::printf("# oracle: %zu answers checked against uncached Method M "
              "(%zu reference evaluations), %zu mismatches",
              ref.checked, ref.evaluations, ref.mismatches);
  if (ref.first_mismatch >= 0) {
    std::printf(", first at stream position %lld",
                static_cast<long long>(ref.first_mismatch));
  }
  std::printf("\n# error_rate %.6f (%zu failed / %zu attempted; %zu change ops "
              "refused, %zu checkpoint failures)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted, loop.ops_skipped, checkpoint_failures);
  if (loop.stream_exhausted) {
    std::printf("# failure: the input stream ran out before --seconds "
                "elapsed; raise the workload's qps_ceiling\n");
  }

  const std::vector<Metric>& reported = trace ? layers : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  const char* separator = "";
  for (const Metric& m : reported) {
    if (!m.in_result) continue;
    std::printf("%s\"%s\": {\"value\": ", separator, m.name.c_str());
    PrintJsonNumber(stdout, m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gcp::perfbench

int main(int argc, char** argv) { return gcp::perfbench::Main(argc, argv); }
