#include "workload/runner.hpp"

#include <gtest/gtest.h>

#include "dataset/aids_like.hpp"
#include "workload/type_a.hpp"

namespace gcp {
namespace {

struct Fixture {
  std::vector<Graph> initial;
  Workload workload;
  ChangePlan plan;

  static Fixture Make(std::uint64_t seed, std::size_t queries = 80) {
    Fixture f;
    AidsLikeOptions opts;
    opts.num_graphs = 50;
    opts.mean_vertices = 10;
    opts.stddev_vertices = 3;
    opts.min_vertices = 5;
    opts.max_vertices = 20;
    opts.num_labels = 6;
    opts.seed = seed;
    f.initial = AidsLikeGenerator(opts).Generate();
    f.workload = GenerateTypeAByName(f.initial, "ZU", queries, seed + 1);
    Rng plan_rng(seed + 2);
    f.plan = ChangePlan::Generate(
        plan_rng, static_cast<std::uint32_t>(queries), 8, 3,
        static_cast<std::uint32_t>(f.initial.size()));
    return f;
  }
};

TEST(RunnerTest, MethodMBaselineTestsEveryLiveGraph) {
  const Fixture f = Fixture::Make(1);
  RunnerConfig cfg;
  cfg.mode = RunMode::kMethodM;
  cfg.warmup_queries = 0;
  const RunReport r = RunWorkload(f.initial, f.workload, f.plan, cfg);
  EXPECT_EQ(r.agg.queries, f.workload.size());
  // No cache: zero hits, and every query verified its full candidate set.
  EXPECT_EQ(r.agg.exact_hits, 0u);
  EXPECT_EQ(r.agg.sub_hits, 0u);
  EXPECT_EQ(r.agg.super_hits, 0u);
  EXPECT_GT(r.agg.si_tests, 0u);
  EXPECT_GT(r.avg_si_tests(), 40.0);  // ~50 live graphs per query
}

TEST(RunnerTest, WarmupExcludedFromAggregates) {
  const Fixture f = Fixture::Make(2);
  RunnerConfig cfg;
  cfg.mode = RunMode::kCon;
  cfg.warmup_queries = 20;
  const RunReport r = RunWorkload(f.initial, f.workload, f.plan, cfg);
  EXPECT_EQ(r.agg.queries, f.workload.size() - 20);
}

TEST(RunnerTest, RecordAnswersCoversAllQueries) {
  const Fixture f = Fixture::Make(3, 30);
  RunnerConfig cfg;
  cfg.mode = RunMode::kEvi;
  cfg.record_answers = true;
  const RunReport r = RunWorkload(f.initial, f.workload, f.plan, cfg);
  EXPECT_EQ(r.answers.size(), 30u);
}

TEST(RunnerTest, ConcurrentClientsMatchSerialAnswersOnStaticDataset) {
  // With an empty change plan the query↔change interleaving is trivially
  // deterministic, so the concurrent closed-loop must reproduce the serial
  // answers bit-exactly (exactness does not depend on cache state).
  Fixture f = Fixture::Make(5, 60);
  f.plan = ChangePlan();
  RunnerConfig serial;
  serial.mode = RunMode::kCon;
  serial.warmup_queries = 10;
  serial.record_answers = true;
  RunnerConfig concurrent = serial;
  concurrent.client_threads = 4;
  const RunReport s = RunWorkload(f.initial, f.workload, f.plan, serial);
  const RunReport c = RunWorkload(f.initial, f.workload, f.plan, concurrent);
  EXPECT_EQ(s.answers, c.answers);
  EXPECT_EQ(c.agg.queries, f.workload.size() - 10);
  EXPECT_EQ(c.measured_queries, f.workload.size() - 10);
  EXPECT_GT(c.qps(), 0.0);
}

TEST(RunnerTest, ConcurrentClientsWithChangePlanStayExactPerQuery) {
  // With a live change plan the interleaving is nondeterministic, but the
  // run must still complete every query and aggregate every metric.
  const Fixture f = Fixture::Make(6, 60);
  RunnerConfig cfg;
  cfg.mode = RunMode::kCon;
  cfg.warmup_queries = 0;
  cfg.client_threads = 3;
  cfg.record_answers = true;
  const RunReport r = RunWorkload(f.initial, f.workload, f.plan, cfg);
  EXPECT_EQ(r.agg.queries, f.workload.size());
  EXPECT_EQ(r.answers.size(), f.workload.size());
}

TEST(RunnerTest, ConSavesTestsOverMethodM) {
  const Fixture f = Fixture::Make(4, 120);
  RunnerConfig base;
  base.mode = RunMode::kMethodM;
  base.method = MatcherKind::kVf2Plus;
  const RunReport m = RunWorkload(f.initial, f.workload, f.plan, base);
  RunnerConfig con = base;
  con.mode = RunMode::kCon;
  const RunReport c = RunWorkload(f.initial, f.workload, f.plan, con);
  EXPECT_LT(c.agg.si_tests, m.agg.si_tests)
      << "CON must save sub-iso tests on a ZU workload";
  EXPECT_GT(SiTestSpeedup(m, c), 1.0);
}

TEST(RunnerTest, ConDominatesEviInTestSavings) {
  const Fixture f = Fixture::Make(5, 120);
  RunnerConfig cfg;
  cfg.method = MatcherKind::kVf2Plus;
  cfg.mode = RunMode::kEvi;
  const RunReport evi = RunWorkload(f.initial, f.workload, f.plan, cfg);
  cfg.mode = RunMode::kCon;
  const RunReport con = RunWorkload(f.initial, f.workload, f.plan, cfg);
  // With changes interleaved, CON retains knowledge EVI discards.
  EXPECT_LE(con.agg.si_tests, evi.agg.si_tests);
}

TEST(RunnerTest, PeakResidentBytesIsTheFootprintHighWaterMark) {
  const Fixture f = Fixture::Make(8, 80);
  RunnerConfig cfg;
  cfg.mode = RunMode::kCon;
  cfg.cache_capacity = 4;
  cfg.window_capacity = 3;
  const RunReport off = RunWorkload(f.initial, f.workload, f.plan, cfg);
  EXPECT_EQ(off.peak_resident_bytes, 0u) << "tracking is opt-in";

  cfg.track_peak_resident_bytes = true;
  const RunReport on = RunWorkload(f.initial, f.workload, f.plan, cfg);
  const std::uint64_t end = on.cache_stats.approx_graph_bytes +
                            on.cache_stats.approx_bitset_bytes;
  EXPECT_GT(end, 0u);
  // A 4-entry cache on a churning stream held larger entries mid-run
  // than it ends with, so the mark is sampled per query, not at the end.
  EXPECT_GT(on.peak_resident_bytes, end);
  // Sampling only reads stats: the run itself is unchanged.
  EXPECT_EQ(on.agg.si_tests, off.agg.si_tests);
  EXPECT_EQ(on.cache_stats.total_admissions, off.cache_stats.total_admissions);

  // Under a byte budget the serial footprint never exceeds it, at any
  // query, not just at the end of the run.
  cfg.cache_capacity = 64;
  cfg.byte_budget = on.peak_resident_bytes / 2;
  const RunReport capped = RunWorkload(f.initial, f.workload, f.plan, cfg);
  EXPECT_GT(capped.cache_stats.byte_budget_evictions, 0u);
  EXPECT_GT(capped.peak_resident_bytes, 0u);
  EXPECT_LE(capped.peak_resident_bytes, cfg.byte_budget);
}

TEST(RunnerTest, LabelsDescribeConfiguration) {
  const Fixture f = Fixture::Make(6, 25);
  RunnerConfig cfg;
  cfg.mode = RunMode::kCon;
  cfg.method = MatcherKind::kGraphQl;
  const RunReport r = RunWorkload(f.initial, f.workload, f.plan, cfg);
  EXPECT_EQ(r.label, "CON/GQL/ZU");
}

TEST(RunnerTest, RunModeNames) {
  EXPECT_EQ(RunModeName(RunMode::kMethodM), "M");
  EXPECT_EQ(RunModeName(RunMode::kEvi), "EVI");
  EXPECT_EQ(RunModeName(RunMode::kCon), "CON");
}

TEST(RunnerTest, SpeedupHelpersHandleDegenerateInputs) {
  RunReport a, b;
  EXPECT_DOUBLE_EQ(QueryTimeSpeedup(a, b), 0.0);
  EXPECT_DOUBLE_EQ(SiTestSpeedup(a, b), 0.0);
}

TEST(RunnerTest, DatasetEvolutionIdenticalAcrossModes) {
  // The premise of cross-mode comparison: same plan seed ⇒ same final
  // dataset regardless of who executes the queries. We proxy this by
  // equality of recorded answers for the *final* query across modes when
  // the query stream is identical.
  const Fixture f = Fixture::Make(7, 60);
  RunnerConfig cfg;
  cfg.record_answers = true;
  cfg.mode = RunMode::kMethodM;
  const RunReport m = RunWorkload(f.initial, f.workload, f.plan, cfg);
  cfg.mode = RunMode::kEvi;
  const RunReport e = RunWorkload(f.initial, f.workload, f.plan, cfg);
  cfg.mode = RunMode::kCon;
  const RunReport c = RunWorkload(f.initial, f.workload, f.plan, cfg);
  EXPECT_EQ(m.answers, e.answers);
  EXPECT_EQ(m.answers, c.answers);
}

}  // namespace
}  // namespace gcp
