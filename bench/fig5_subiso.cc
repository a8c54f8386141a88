// Figure 5: GC+ speedup in the NUMBER of sub-iso tests performed.
//
// Paper series (method-independent by construction):
//        ZZ   ZU   UU   0%   20%  50%
//   EVI 1.94 1.81 1.53 2.21 1.96 1.83
//   CON 8.71 6.53 7.30 9.84 5.42 6.23
//
// Under a fixed configuration the pruned candidate set is identical for
// every Method M (asserted by the test suite), so one run per
// workload/model suffices; we use VF2+ as the verifier.
//
// Besides the paper's test-count axis this bench reports Method M
// verification THROUGHPUT (sub-iso tests per second of verify wall time).
// With --json=PATH every row also lands in a machine-readable report.

#include <memory>

#include "bench_common.hpp"

using namespace gcp;
using namespace gcp::bench;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const BenchConfig cfg = BenchConfig::FromFlags(flags);
  PrintConfig(cfg, "Figure 5: GC+ speedup in number of sub-iso tests");

  const std::vector<Graph> corpus = BuildCorpus(cfg);
  const ChangePlan plan = BuildPlan(cfg, corpus.size());
  const std::vector<std::string> workloads = {"ZZ", "ZU", "UU",
                                              "0%", "20%", "50%"};
  const MatcherKind method = MatcherKind::kVf2Plus;

  std::unique_ptr<JsonWriter> json;
  if (!cfg.json_path.empty()) {
    json = std::make_unique<JsonWriter>(cfg.json_path, "fig5_subiso", cfg);
  }

  std::printf("\n%-10s %12s %12s %12s %9s %9s %14s\n", "workload",
              "M tests/q", "EVI tests/q", "CON tests/q", "EVI spd",
              "CON spd", "M verify t/s");
  for (const std::string& wname : workloads) {
    const Workload w = BuildWorkload(wname, corpus, cfg);
    const RunReport base = RunWorkload(
        corpus, w, plan, MakeRunnerConfig(RunMode::kMethodM, method, cfg));
    const RunReport evi = RunWorkload(
        corpus, w, plan, MakeRunnerConfig(RunMode::kEvi, method, cfg));
    const RunReport con = RunWorkload(
        corpus, w, plan, MakeRunnerConfig(RunMode::kCon, method, cfg));
    std::printf("%-10s %12.1f %12.1f %12.1f %8.2fx %8.2fx %14.0f\n",
                wname.c_str(), base.avg_si_tests(), evi.avg_si_tests(),
                con.avg_si_tests(), SiTestSpeedup(base, evi),
                SiTestSpeedup(base, con), VerifyThroughputTestsPerSec(base));
    std::fflush(stdout);
    if (json != nullptr) {
      struct Row {
        const char* system;
        const RunReport* r;
      };
      for (const Row row :
           {Row{"M", &base}, Row{"EVI", &evi}, Row{"CON", &con}}) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "\"workload\": \"%s\", \"system\": \"%s\", "
            "\"tests_per_query\": %.3f, \"avg_query_ms\": %.5f, "
            "\"avg_verify_ms\": %.5f, "
            "\"verify_throughput_tests_per_sec\": %.1f",
            wname.c_str(), row.system, row.r->avg_si_tests(),
            row.r->avg_query_ms(),
            row.r->agg.queries == 0
                ? 0.0
                : static_cast<double>(row.r->agg.t_verify_ns) / 1e6 /
                      static_cast<double>(row.r->agg.queries),
            VerifyThroughputTestsPerSec(*row.r));
        json->Row(buf);
      }
    }
  }
  std::printf(
      "\n# Expected shape (paper): CON saves ~5-10x of the tests, EVI only\n"
      "# ~1.5-2.2x; reductions in tests exceed reductions in query time\n"
      "# (cache hits have heterogeneous value).\n");
  return 0;
}
