// Figure 6: average execution time and overhead per query (both panels).
//
// Paper numbers (Method M = VF2), average query time in ms with GC+
// maintenance overhead alongside:
//        ZZ: M 1217, EVI 698 (+4), CON 155 (+11)
//        ZU: M 1130, EVI 789 (+3), CON 237 (+9)
//        UU: M 1385, EVI 1085 (+3), CON 270 (+7)
//        0%: M 1627, EVI 856 (+3), CON 250 (+11)
//       20%: M 1383, EVI 785 (+3), CON 266 (+10)
//       50%: M  990, EVI 631 (+3), CON 217 (+8)
//
// Overhead = window/cache maintenance (admission, replacement,
// re-indexing). For CON the overhead additionally covers Algorithms 1 + 2
// (log analysis + validation), which §7.2 reports as <1% of CON overhead —
// printed here as its own column (E6).
//
// The probe column isolates per-query hit-discovery cost — the part the
// inverted feature-signature index attacks. With --json=PATH every row
// also lands in a machine-readable report.

#include <memory>

#include "bench_common.hpp"

using namespace gcp;
using namespace gcp::bench;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const BenchConfig cfg = BenchConfig::FromFlags(flags);
  PrintConfig(cfg, "Figure 6: per-query execution time and overhead (VF2)");

  const std::vector<Graph> corpus = BuildCorpus(cfg);
  const ChangePlan plan = BuildPlan(cfg, corpus.size());
  const std::vector<std::string> workloads = {"ZZ", "ZU", "UU",
                                              "0%", "20%", "50%"};
  const MatcherKind method = MatcherKind::kVf2;

  std::unique_ptr<JsonWriter> json;
  if (!cfg.json_path.empty()) {
    json = std::make_unique<JsonWriter>(cfg.json_path, "fig6_overhead", cfg);
  }

  std::printf("\n%-10s %-6s %13s %12s %11s %12s %13s %15s\n", "workload",
              "system", "avg query ms", "overhead ms", "probe ms",
              "discover ms", "validation ms", "validation shr");
  for (const std::string& wname : workloads) {
    const Workload w = BuildWorkload(wname, corpus, cfg);
    struct Row {
      const char* name;
      RunMode mode;
    };
    for (const Row row : {Row{"M", RunMode::kMethodM},
                          Row{"EVI", RunMode::kEvi},
                          Row{"CON", RunMode::kCon}}) {
      const RunReport r = RunWorkload(corpus, w, plan,
                                      MakeRunnerConfig(row.mode, method, cfg));
      const double queries = static_cast<double>(r.agg.queries);
      const double validation_ms =
          queries > 0 ? static_cast<double>(r.agg.t_validate_ns) / 1e6 / queries
                      : 0.0;
      if (row.mode == RunMode::kMethodM) {
        // Bare Method M has no cache to validate, maintain or probe.
        std::printf("%-10s %-6s %13.3f %12s %11s %12s %13s %15s\n",
                    wname.c_str(), row.name, r.avg_query_ms(), "-", "-", "-",
                    "-", "-");
      } else {
        std::printf(
            "%-10s %-6s %13.3f %12.3f %11.4f %12.5f %13.4f %14.2f%%\n",
            wname.c_str(), row.name, r.avg_query_ms(), r.avg_overhead_ms(),
            AvgProbeMs(r), AvgDiscoverMs(r), validation_ms,
            100.0 * r.agg.ValidationShareOfOverhead());
      }
      std::fflush(stdout);
      if (json != nullptr) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "\"workload\": \"%s\", \"system\": \"%s\", "
            "\"avg_query_ms\": %.5f, \"avg_overhead_ms\": %.5f, "
            "\"avg_probe_ms\": %.5f, \"avg_discover_ms\": %.5f, "
            "\"validation_ms\": %.5f",
            wname.c_str(), row.name, r.avg_query_ms(), r.avg_overhead_ms(),
            AvgProbeMs(r), AvgDiscoverMs(r), validation_ms);
        json->Row(buf);
      }
    }
  }
  std::printf(
      "\n# Expected shape (paper): CON query time << EVI << M; overheads are\n"
      "# a few ms and CON-specific validation is a trivial share (<1%% at\n"
      "# paper scale; the share shrinks further as dataset size grows).\n");
  return 0;
}
