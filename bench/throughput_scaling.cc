// Concurrent-serving throughput: queries/sec of one shared GraphCachePlus
// under 1 / 2 / 4 / 8 closed-loop client threads (Type-A workload), swept
// across cache shard counts.
//
// Sweeps shard configurations (--shard-sweep, default "1,4") x threads
// (1,2,4,.. up to --max-threads / --threads). --maintenance-thread
// applies to every configuration; shards=1 without it is the
// single-store engine bit-exactly.
//
// One JSON line per configuration on stdout for the BENCH_* trajectory;
// --json=PATH additionally writes the whole sweep as one report.
//
// Flags: --threads N caps the sweep (default 8); --workload ZZ|ZU|UU;
// --shard-sweep a,b,c; --maintenance-thread; the usual corpus/cache knobs
// from bench_common.

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

using namespace gcp;
using namespace gcp::bench;

namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<std::size_t> ParseShardSweep(const std::string& csv) {
  std::vector<std::size_t> out;
  for (const std::string& tok : SplitCsv(csv)) {
    const long v = std::strtol(tok.c_str(), nullptr, 10);
    if (v > 0) out.push_back(static_cast<std::size_t>(v));
  }
  if (out.empty()) out.push_back(1);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  BenchConfig cfg = BenchConfig::FromFlags(flags);
  const std::size_t max_threads =
      cfg.client_threads > 1
          ? cfg.client_threads
          : CountFlag(flags, "max-threads", std::size_t{8});
  const std::string wname = flags.GetString("workload", "ZZ");
  const std::vector<std::size_t> shard_sweep =
      ParseShardSweep(flags.GetString("shard-sweep", "1,4"));
  const unsigned cores = std::thread::hardware_concurrency();
  PrintConfig(cfg, "Throughput scaling: one shared GC+ vs. client threads "
                   "x cache shards");
  std::printf("# hardware_concurrency: %u — scaling beyond this is not "
              "expected\n", cores);

  const std::vector<Graph> corpus = BuildCorpus(cfg);
  const ChangePlan plan = BuildPlan(cfg, corpus.size());
  const Workload w = BuildWorkload(wname, corpus, cfg);

  std::unique_ptr<JsonWriter> json;
  if (!cfg.json_path.empty()) {
    json = std::make_unique<JsonWriter>(cfg.json_path, "throughput_scaling",
                                        cfg);
  }

  for (const std::size_t shards : shard_sweep) {
    cfg.shards = shards;
    std::printf("\n## shards=%zu maintenance_thread=%s\n", shards,
                cfg.maintenance_thread ? "on" : "off");
    std::printf("%-8s %12s %14s %12s %12s %10s\n", "threads", "qps",
                "measured ms", "avg q ms", "avg ovh ms", "scaling");
    double qps_at_1 = 0.0;
    for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
      cfg.client_threads = threads;
      RunnerConfig rc = MakeRunnerConfig(RunMode::kCon, MatcherKind::kVf2, cfg);
      const RunReport r = RunWorkload(corpus, w, plan, rc);
      if (threads == 1) qps_at_1 = r.qps();
      const double scaling = qps_at_1 > 0.0 ? r.qps() / qps_at_1 : 0.0;
      std::printf("%-8zu %12.1f %14.2f %12.4f %12.5f %9.2fx\n", threads,
                  r.qps(), r.measured_wall_ms, r.avg_query_ms(),
                  r.avg_overhead_ms(), scaling);
      char row[512];
      std::snprintf(
          row, sizeof(row),
          "\"workload\":\"%s\",\"mode\":\"CON\",\"method\":\"VF2\","
          "\"client_threads\":%zu,\"shards\":%zu,"
          "\"maintenance_thread\":%s,\"cores\":%u,\"queries\":%zu,"
          "\"measured_queries\":%zu,\"measured_wall_ms\":%.3f,\"qps\":%.2f,"
          "\"avg_query_ms\":%.5f,\"avg_overhead_ms\":%.5f,"
          "\"scaling_vs_1\":%.3f,"
          "\"read_phase_engine_lock_acquisitions\":%llu",
          wname.c_str(), threads, shards,
          cfg.maintenance_thread ? "true" : "false", cores, w.size(),
          r.measured_queries, r.measured_wall_ms, r.qps(), r.avg_query_ms(),
          r.avg_overhead_ms(), scaling,
          static_cast<unsigned long long>(
              r.cache_stats.read_phase_engine_lock_acquisitions));
      std::printf("{\"bench\":\"throughput_scaling\",%s}\n", row);
      if (json != nullptr) json->Row(row);
      std::fflush(stdout);
    }
  }
  std::printf(
      "\n# Expected shape: on a 1-core container flat thread-scaling is "
      "the correct result —\n# the win is bounded by hardware; the nightly "
      "4-core workflow measures real scaling.\n");
  return 0;
}
