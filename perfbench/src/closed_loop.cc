// Closed loop over the caching engine: each client calls Query (or,
// when a change batch is due, ApplyDatasetChanges) and waits for it before
// issuing the next call. The measured phase is a series of blocks: the
// clients run for kBlockSeconds and join, then the uncached reference runs
// the block's queries. A machine that speeds up or slows down during a run
// so moves both engines alike.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "perfbench.hpp"

namespace gcp::perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kQuery:
      return "Query";
    case SpanName::kApplyDatasetChanges:
      return "ApplyDatasetChanges";
    case SpanName::kMutation:
      return "mutation";
    case SpanName::kFlushMaintenance:
      return "FlushMaintenance";
    case SpanName::kReferenceQuery:
      return "reference.Query";
  }
  return "unknown";
}

std::uint64_t HashAnswer(const std::vector<GraphId>& answer) {
  std::uint64_t h = answer.size();
  for (const GraphId id : answer) {
    std::uint64_t state = h ^ id;
    h = SplitMix64(state);
  }
  return h;
}

std::uint64_t ResidentBytes(const StatisticsManager& stats) {
  return stats.approx_graph_bytes + stats.approx_bitset_bytes +
         stats.approx_posting_bytes + stats.approx_fragment_bytes;
}

namespace {

// Long enough that joining the clients costs little of a block; short
// enough that the machine's speed barely changes between a block and the
// reference run that follows it.
constexpr double kBlockSeconds = 0.5;

/// Per-client span buffer; merged after the clients join.
struct ClientTrace {
  std::vector<Span> spans;
  std::vector<QueryMetrics> attributions;
};

class ClosedLoop {
 public:
  ClosedLoop(const WorkloadSpec& spec, const Inputs& inputs,
             GraphDataset& dataset, GraphCachePlus& engine, bool trace,
             Reference& reference)
      : spec_(spec),
        inputs_(inputs),
        engine_(engine),
        trace_(trace),
        reference_(reference),
        traces_(spec.clients + 1),
        executor_(inputs.plan, inputs.corpus, dataset,
                  Rng(inputs.executor_seed)) {
    out_.queries.resize(inputs.stream.size());
    out_.batches.resize(inputs.plan.batches.size());
    live_at_version_.resize(inputs.plan.batches.size() + 1);
    live_at_version_[0] = static_cast<std::uint32_t>(dataset.NumLive());
    next_batch_at_.store(executor_.NextBatchAt());
  }

  /// Runs the first `queries` stream positions serially, unmeasured.
  void Warmup(std::size_t queries) {
    const std::size_t end = std::min(queries, inputs_.stream.size());
    for (std::size_t i = 0; i < end; ++i) {
      RunOne(i, /*measured=*/false, traces_.back());
    }
    Evaluate(0, end);
    ticket_.store(end);
    out_.measured_begin = end;
    out_.stats_begin = engine_.CacheStatsSnapshot();
  }

  /// Runs blocks until the clients have run for `seconds` or the stream
  /// ends; only the clients' time is measured.
  void Measure(double seconds) {
    const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
    const auto block_ns = static_cast<std::int64_t>(kBlockSeconds * 1e9);
    std::int64_t used_ns = 0;
    while (used_ns < budget_ns && ticket_.load() < inputs_.stream.size()) {
      const std::size_t begin = ticket_.load();
      const std::int64_t start = NowNs();
      RunClients(start + std::min(block_ns, budget_ns - used_ns));
      used_ns += NowNs() - start;
      Evaluate(begin, std::min(ticket_.load(), inputs_.stream.size()));
    }
    out_.measured_wall_s = static_cast<double>(used_ns) / 1e9;
    out_.stream_exhausted = ticket_.load() >= inputs_.stream.size();
  }

  /// Flushes maintenance, takes the final statistics and hands over the
  /// records.
  ClosedLoopResult Finish() && {
    const std::int64_t flush_start = NowNs();
    engine_.FlushMaintenance();
    if (trace_) {
      traces_.back().spans.push_back({.id = Span::kFlushId,
                                      .name = SpanName::kFlushMaintenance,
                                      .start_ns = flush_start,
                                      .end_ns = NowNs()});
    }
    out_.stats_end = engine_.CacheStatsSnapshot();
    if (spec_.byte_budget != 0) {
      out_.peak_resident_bytes =
          std::max(out_.peak_resident_bytes, ResidentBytes(out_.stats_end));
    }
    out_.ops_skipped = executor_.ops_skipped();
    for (ClientTrace& t : traces_) {
      const auto base = static_cast<std::int64_t>(out_.attributions.size());
      for (Span& s : t.spans) {
        if (s.attribution >= 0) s.attribution += base;
        out_.spans.push_back(s);
      }
      out_.attributions.insert(out_.attributions.end(),
                               t.attributions.begin(), t.attributions.end());
    }
    return std::move(out_);
  }

 private:
  void Client(std::int64_t deadline_ns, ClientTrace& trace) {
    while (NowNs() < deadline_ns) {
      const std::size_t i = ticket_.fetch_add(1);
      if (i >= inputs_.stream.size()) return;
      RunOne(i, /*measured=*/true, trace);
    }
  }

  /// Runs the clients until `deadline_ns` and waits for them.
  void RunClients(std::int64_t deadline_ns) {
    if (spec_.clients == 1) {
      Client(deadline_ns, traces_[0]);
      return;
    }
    std::vector<std::thread> clients;
    clients.reserve(spec_.clients);
    for (std::size_t c = 0; c < spec_.clients; ++c) {
      clients.emplace_back(
          [this, deadline_ns, c] { Client(deadline_ns, traces_[c]); });
    }
    for (std::thread& t : clients) t.join();
  }

  /// Runs stream positions [begin, end) through the reference at every
  /// dataset version each may have observed, in version order, on
  /// spec.clients threads. Every batch a block starts completes before its
  /// clients join, so versions never decrease from one block to the next.
  void Evaluate(std::size_t begin, std::size_t end) {
    struct Job {
      std::uint32_t version;
      std::uint32_t query;
    };
    std::vector<Job> jobs;
    for (std::size_t i = begin; i < end; ++i) {
      const QueryRecord& r = out_.queries[i];
      for (std::uint32_t v = r.version_lo; v <= r.version_hi; ++v) {
        jobs.push_back({v, static_cast<std::uint32_t>(i)});
      }
    }
    std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
      return a.version < b.version;
    });
    // One group per version; a query occurs once in a group, so its jobs
    // may run concurrently.
    for (std::size_t g = 0; g < jobs.size();) {
      std::size_t h = g;
      while (h < jobs.size() && jobs[h].version == jobs[g].version) ++h;
      reference_.AdvanceTo(jobs[g].version);
      std::atomic<std::size_t> next{g};
      auto worker = [&] {
        for (std::size_t k = next.fetch_add(1); k < h; k = next.fetch_add(1)) {
          reference_.Evaluate(jobs[k].query, out_.queries[jobs[k].query]);
        }
      };
      if (spec_.clients == 1) {
        worker();
      } else {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < spec_.clients; ++c) threads.emplace_back(worker);
        for (std::thread& t : threads) t.join();
      }
      g = h;
    }
  }

  /// Fires every batch due at stream position `i`, one
  /// ApplyDatasetChanges call per batch, in plan order.
  void FireDueBatches(std::size_t i, bool measured, ClientTrace& trace) {
    if (next_batch_at_.load() > i) return;
    std::lock_guard<std::mutex> lock(plan_mu_);
    while (executor_.NextBatchAt() <= i) {
      if (spec_.byte_budget != 0) {
        // Before the change, when an EVI cache is at its fullest.
        out_.peak_resident_bytes =
            std::max(out_.peak_resident_bytes,
                     ResidentBytes(engine_.CacheStatsSnapshot()));
      }
      const std::uint32_t batch = batches_started_.fetch_add(1);
      const std::uint32_t at = executor_.NextBatchAt();
      std::int64_t mutation_start = 0;
      std::int64_t mutation_end = 0;
      const std::int64_t start = NowNs();
      engine_.ApplyDatasetChanges([&](GraphDataset& ds) {
        mutation_start = NowNs();
        executor_.AdvanceTo(at);
        live_at_version_[batch + 1] = static_cast<std::uint32_t>(ds.NumLive());
        mutation_end = NowNs();
      });
      const std::int64_t end = NowNs();
      batches_completed_.fetch_add(1);
      out_.batches[batch] = {.measured = measured,
                             .wall_ns = end - start,
                             .mutation_ns = mutation_end - mutation_start};
      if (trace_) {
        const std::uint64_t id = Span::kBatchIdBase + batch;
        trace.spans.push_back({.id = id,
                               .name = SpanName::kApplyDatasetChanges,
                               .start_ns = start,
                               .end_ns = end});
        trace.spans.push_back({.id = id,
                               .parent = id,
                               .name = SpanName::kMutation,
                               .start_ns = mutation_start,
                               .end_ns = mutation_end});
      }
    }
    next_batch_at_.store(executor_.NextBatchAt());
  }

  void RunOne(std::size_t i, bool measured, ClientTrace& trace) {
    FireDueBatches(i, measured, trace);
    const StreamQuery& q = inputs_.stream[i];
    QueryRecord& rec = out_.queries[i];
    rec.version_lo = batches_completed_.load();
    rec.live_graphs = live_at_version_[rec.version_lo];
    const std::int64_t start = NowNs();
    QueryResult r = engine_.Query(inputs_.shapes[q.shape], q.kind);
    std::int64_t end = NowNs();
    rec.version_hi = batches_started_.load();
    rec.executed = true;
    // Half of the measured queries, picked by a hash of the position so the
    // choice is independent of the stream's query-kind pattern, are traced.
    // A traced query's wall time includes recording its span, so one run
    // gives the attribution and the tracing overhead (traced against
    // untraced latency).
    std::uint64_t pick = i;
    if (trace_ && measured && (SplitMix64(pick) & 1) == 0) {
      rec.traced = true;
      trace.spans.push_back({.id = i,
                             .name = SpanName::kQuery,
                             .start_ns = start,
                             .end_ns = end,
                             .attribution = static_cast<std::int64_t>(
                                 trace.attributions.size())});
      trace.attributions.push_back(r.metrics);
      end = NowNs();
    }
    rec.wall_ns = end - start;
    rec.answer_hash = HashAnswer(r.answer);
    rec.answer_size = static_cast<std::uint32_t>(r.answer.size());
  }

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  GraphCachePlus& engine_;
  const bool trace_;
  Reference& reference_;
  ClosedLoopResult out_;
  std::vector<ClientTrace> traces_;  ///< One per client, then the serial one.

  std::mutex plan_mu_;  ///< Serializes batches; guards executor_.
  ChangePlanExecutor executor_;
  /// Live graphs after each batch. Slot v is written before the batch
  /// counts as completed, so readers of slot `completed` need no lock.
  std::vector<std::uint32_t> live_at_version_;
  std::atomic<std::uint32_t> next_batch_at_{0};
  std::atomic<std::uint32_t> batches_started_{0};
  std::atomic<std::uint32_t> batches_completed_{0};
  std::atomic<std::size_t> ticket_{0};
};

}  // namespace

ClosedLoopResult RunClosedLoop(const WorkloadSpec& spec, const Scale& scale,
                               const Inputs& inputs, GraphDataset& dataset,
                               GraphCachePlus& engine, double seconds,
                               bool trace, Reference& reference) {
  ClosedLoop loop(spec, inputs, dataset, engine, trace, reference);
  loop.Warmup(static_cast<std::size_t>(static_cast<double>(spec.warmup) *
                                       scale.warmup_factor));
  loop.Measure(seconds);
  return std::move(loop).Finish();
}

}  // namespace gcp::perfbench
