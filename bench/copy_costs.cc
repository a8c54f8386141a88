// BENCH_06: the carried-over copy costs, before/after in one run.
//
// "Before" replays the pre-PR 6 allocation behaviour on today's engine:
// every hit-discovery survivor deep-copies its cached query graph (and
// bitsets) under the shard lock, matcher scratch comes off the plain
// heap, and every bitset/signature kernel runs the scalar loop. "After"
// is the shipped configuration: survivors share ownership of the
// resident graph (shared_ptr ownership), per-thread arenas
// back the matcher scratch, and the kernels dispatch to the widest SIMD
// level the CPU offers. Both sides run the same workloads over the same
// evolving dataset in the same process, so the delta is the copy costs
// and nothing else — answers are bit-identical by construction (the
// equivalence suite asserts it).
//
// The run fails (exit 1) if the shared-ownership side reports a nonzero
// StatisticsManager::shard_lock_graph_copies — the counter the tier-1
// suite also pins to zero.
//
// A second section microbenchmarks the dispatched kernels against their
// scalar oracles at every level the CPU supports.

#include <cassert>
#include <chrono>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "bench_common.hpp"
#include "common/bitset.hpp"

using namespace gcp;
using namespace gcp::bench;

namespace {

double NsPerOp(const std::function<void()>& op, int iters) {
  // One warm-up call keeps first-touch page faults out of the timing.
  op();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) op();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
         iters;
}

struct ModeToggles {
  const char* path;       // "before" / "after"
  bool copy_survivors;
  bool arena;
  simd::SimdLevel level;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const BenchConfig cfg = BenchConfig::FromFlags(flags);
  PrintConfig(cfg, "BENCH 06: carried-over copy costs, before/after");

  const std::vector<Graph> corpus = BuildCorpus(cfg);
  const ChangePlan plan = BuildPlan(cfg, corpus.size());
  const std::vector<std::string> workloads = {"ZZ", "UU", "20%"};
  const MatcherKind method = MatcherKind::kVf2Plus;

  std::unique_ptr<JsonWriter> json;
  if (!cfg.json_path.empty()) {
    json = std::make_unique<JsonWriter>(cfg.json_path, "copy_costs", cfg);
  }

  const simd::SimdLevel detected = simd::DetectedSimdLevel();
  const ModeToggles modes[] = {
      {"before", true, false, simd::SimdLevel::kScalar},
      {"after", false, true, detected},
  };

  int failures = 0;
  std::printf("\n%-10s %-8s %-6s %12s %12s %12s %10s %10s\n", "workload",
              "path", "sys", "tests/q", "avg q ms", "probe ms", "sum cp",
              "graph cp");
  for (const std::string& wname : workloads) {
    const Workload w = BuildWorkload(wname, corpus, cfg);
    for (const ModeToggles& mode : modes) {
      SetArenaEnabled(mode.arena);
      simd::SetSimdLevel(mode.level);
      BenchConfig mode_cfg = cfg;
      mode_cfg.copy_survivors = mode.copy_survivors;
      for (const RunMode sys : {RunMode::kEvi, RunMode::kCon}) {
        RunnerConfig rc = MakeRunnerConfig(sys, method, mode_cfg);
        // Equip the FTV index on both sides so summary-clone accounting
        // is live.
        rc.use_ftv = true;
        const RunReport r = RunWorkload(corpus, w, plan, rc);
        const auto sum_cp = r.cache_stats.snapshot_summary_copies;
        const auto graph_cp = r.cache_stats.shard_lock_graph_copies;
        std::printf("%-10s %-8s %-6s %12.1f %12.5f %12.5f %10llu %10llu\n",
                    wname.c_str(), mode.path,
                    std::string(RunModeName(sys)).c_str(), r.avg_si_tests(),
                    r.avg_query_ms(), AvgProbeMs(r),
                    static_cast<unsigned long long>(sum_cp),
                    static_cast<unsigned long long>(graph_cp));
        std::fflush(stdout);
        if (!mode.copy_survivors && graph_cp != 0) {
          std::fprintf(stderr,
                       "FAIL: shared-ownership run reported %llu "
                       "shard-lock graph copies (want 0)\n",
                       static_cast<unsigned long long>(graph_cp));
          ++failures;
        }
        if (json != nullptr) {
          char buf[512];
          std::snprintf(
              buf, sizeof(buf),
              "\"kind\": \"workload\", \"workload\": \"%s\", "
              "\"path\": \"%s\", \"system\": \"%s\", "
              "\"tests_per_query\": %.3f, \"avg_query_ms\": %.5f, "
              "\"avg_probe_ms\": %.5f, "
              "\"verify_throughput_tests_per_sec\": %.1f, "
              "\"snapshot_summary_copies\": %llu, "
              "\"shard_lock_graph_copies\": %llu, "
              "\"simd\": \"%s\", \"arena\": %s",
              wname.c_str(), mode.path,
              std::string(RunModeName(sys)).c_str(), r.avg_si_tests(),
              r.avg_query_ms(), AvgProbeMs(r),
              VerifyThroughputTestsPerSec(r),
              static_cast<unsigned long long>(sum_cp),
              static_cast<unsigned long long>(graph_cp),
              simd::SimdLevelName(mode.level),
              mode.arena ? "true" : "false");
          json->Row(buf);
        }
      }
    }
  }

  // --- Kernel micros: each dispatch level against the scalar oracle ----
  std::printf("\n%-22s %-8s %12s\n", "kernel", "level", "ns/op");
  {
    std::mt19937_64 prng(cfg.seed);
    constexpr std::size_t kWords = 4096;  // 256 Kbit bitsets
    std::vector<std::uint64_t> a(kWords), b(kWords);
    for (auto& w : a) w = prng();
    for (auto& w : b) w = prng();
    constexpr std::size_t kSigs = 2048;
    std::vector<std::uint64_t> sigs(kSigs);
    for (auto& s : sigs) s = prng() & 0x3333333333333333ULL;  // small nibbles
    std::vector<std::uint32_t> survivors(kSigs);
    volatile std::uint64_t sink = 0;

    for (int lv = 0; lv <= static_cast<int>(detected); ++lv) {
      const auto level = static_cast<simd::SimdLevel>(lv);
      simd::SetSimdLevel(level);
      struct Kernel {
        const char* name;
        std::function<void()> op;
      };
      const Kernel kernels[] = {
          {"popcount_4096w",
           [&] { sink = sink + simd::PopcountWords(a.data(), kWords); }},
          {"and_4096w",
           [&] { simd::AndWords(a.data(), b.data(), kWords); }},
          {"popcount_and_4096w",
           [&] {
             sink = sink + simd::PopcountAndWords(a.data(), b.data(), kWords);
           }},
          {"subset_4096w",
           [&] {
             sink = sink + (simd::SubsetWords(a.data(), b.data(), kWords) ? 1 : 0);
           }},
          {"sig_screen_2048",
           [&] {
             sink = sink + simd::SignatureDominanceScreen(
                 0x1111111111111111ULL, sigs.data(), kSigs, survivors.data());
           }},
      };
      for (const Kernel& k : kernels) {
        const double ns = NsPerOp(k.op, 2000);
        std::printf("%-22s %-8s %12.1f\n", k.name,
                    simd::SimdLevelName(level), ns);
        if (json != nullptr) {
          char buf[256];
          std::snprintf(buf, sizeof(buf),
                        "\"kind\": \"kernel\", \"kernel\": \"%s\", "
                        "\"level\": \"%s\", \"ns_per_op\": %.1f",
                        k.name,
                        simd::SimdLevelName(level), ns);
          json->Row(buf);
        }
      }
    }
    (void)sink;
  }
  // Leave the process-global toggles in their default state.
  simd::SetSimdLevel(detected);
  SetArenaEnabled(true);

  std::printf(
      "\n# Expected shape: identical tests/q per (workload, system) across\n"
      "# before/after (the copies never changed answers — that's the bug:\n"
      "# pure overhead). avg q ms and probe ms drop on the after side;\n"
      "# shard_lock_graph_copies is nonzero before, exactly zero after;\n"
      "# snapshot_summary_copies matches the FTV-mutating batch count on\n"
      "# both sides. Kernel rows: higher levels must not be slower.\n");
  return failures == 0 ? 0 : 1;
}
