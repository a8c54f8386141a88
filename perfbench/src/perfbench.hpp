// Shared declarations of the end-to-end benchmark binary.
//
// The engine under test is GraphCachePlus used as a library: application
// threads call Query and ApplyDatasetChanges and wait for the result, so
// every workload is a closed loop. The reference is the same engine with
// admission and the §6.3 shortcuts off (uncached Method M), run over the
// same inputs and dataset states in blocks that alternate with the caching
// engine's, so both see the same machine.
//
// The benchmark sets only deployment settings (model, Method M, capacities,
// shards, clients, maintenance thread, FTV, byte budget, checkpoint
// dir/interval). Every oracle or legacy toggle keeps its library default.

#ifndef GCP_PERFBENCH_PERFBENCH_HPP_
#define GCP_PERFBENCH_PERFBENCH_HPP_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cache/statistics.hpp"
#include "core/graphcache_plus.hpp"
#include "dataset/change_plan.hpp"

namespace gcp::perfbench {

// --- Workloads -------------------------------------------------------------

/// Deployment of the engine plus the shape of one workload's inputs.
struct WorkloadSpec {
  const char* name;
  const char* type_a;  ///< Type A selection ("ZZ", "UU", "ZU").
  CacheModel model;
  std::size_t cache_capacity;
  std::size_t window_capacity;
  bool ftv;
  std::size_t supergraph_every;  ///< Every k-th query is a supergraph query.
  std::size_t batch_every;       ///< Queries between change batches.
  std::size_t clients;           ///< Closed-loop client threads.
  std::size_t shards;
  bool maintenance_thread;
  std::size_t checkpoint_interval_us;  ///< 0 = no background checkpoints.
  std::size_t byte_budget;             ///< 0 = entry-count capacity only.
  std::size_t warmup;  ///< Queries run serially before measurement starts.
  /// Budgeted workloads: the resident peak the same workload reached with
  /// no byte budget, as measured when the budget was chosen.
  std::size_t unbudgeted_peak_bytes;
  /// About three times the query rate seen on a 4-vCPU machine; sizes the
  /// stream. Running out of stream before --seconds is a failure.
  double qps_ceiling;
};

/// The named workloads, in reporting order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Input scale: `full` is the benchmark proper, `tiny` the self-test.
struct Scale {
  std::uint32_t graphs;
  std::uint32_t ops_per_batch;
  double warmup_factor;  ///< Multiplies WorkloadSpec::warmup.
  double qps_factor;     ///< Multiplies WorkloadSpec::qps_ceiling.
};
Scale FullScale();
Scale TinyScale();

/// One query of the stream. `shape` indexes Inputs::shapes; identical
/// query graphs share a shape, so repeated queries cost no extra memory.
struct StreamQuery {
  std::uint32_t shape = 0;
  QueryKind kind = QueryKind::kSubgraph;
};

/// Everything generated from the seed. The engine sees only these graphs,
/// queries and change batches.
struct Inputs {
  std::vector<Graph> corpus;
  std::vector<Graph> shapes;  ///< Distinct query graphs.
  std::vector<StreamQuery> stream;
  ChangePlan plan;            ///< One batch every batch_every queries.
  std::uint64_t executor_seed = 0;
};

Inputs GenerateInputs(const WorkloadSpec& spec, const Scale& scale,
                      std::uint64_t seed, std::size_t stream_length);

/// Engine options of the caching engine and of the uncached reference.
GraphCachePlusOptions CachingOptions(const WorkloadSpec& spec,
                                     const std::string& checkpoint_dir);
GraphCachePlusOptions ReferenceOptions(const WorkloadSpec& spec);

// --- Tracing ---------------------------------------------------------------

/// Public calls the benchmark makes, one span each.
enum class SpanName : std::uint8_t {
  kQuery,
  kApplyDatasetChanges,
  kMutation,  ///< The benchmark's own mutation code, child of the above.
  kFlushMaintenance,
  kReferenceQuery,
};
const char* SpanNameString(SpanName name);

/// One span. Spans of one query share `id` (the query's stream index);
/// batch spans use kBatchIdBase + batch number. `parent` is the id of the
/// causing span, or kNoParent.
struct Span {
  static constexpr std::uint64_t kNoParent = ~std::uint64_t{0};
  static constexpr std::uint64_t kBatchIdBase = std::uint64_t{1} << 40;
  static constexpr std::uint64_t kFlushId = std::uint64_t{1} << 41;
  std::uint64_t id = 0;
  std::uint64_t parent = kNoParent;
  SpanName name = SpanName::kQuery;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index into ClosedLoopResult::attributions (query spans), else -1.
  std::int64_t attribution = -1;
};

/// Nanoseconds on the steady clock, the time base of every span.
std::int64_t NowNs();

// --- Closed loop over the caching engine -----------------------------------

struct QueryRecord {
  bool executed = false;
  /// Query wall time; for a traced query it includes recording its span.
  std::int64_t wall_ns = 0;
  std::uint64_t answer_hash = 0;
  std::uint32_t answer_size = 0;
  /// Dataset versions (batches applied) the query may have observed:
  /// batches completed when it started .. batches started when it ended.
  std::uint32_t version_lo = 0;
  std::uint32_t version_hi = 0;
  std::uint32_t live_graphs = 0;  ///< Live graphs at version_lo.
  bool traced = false;
};

struct BatchRecord {
  bool measured = false;
  std::int64_t wall_ns = 0;      ///< ApplyDatasetChanges wall time.
  std::int64_t mutation_ns = 0;  ///< The mutation callback alone.
};

struct ClosedLoopResult {
  std::vector<QueryRecord> queries;  ///< Indexed by stream position.
  std::vector<BatchRecord> batches;  ///< Indexed by batch number.
  std::size_t measured_begin = 0;    ///< First measured stream position.
  /// Wall time of the measured phase, without the reference's blocks.
  double measured_wall_s = 0.0;
  bool stream_exhausted = false;     ///< Ran out of inputs before the deadline.
  std::size_t ops_skipped = 0;       ///< Change ops the dataset refused.
  /// Byte-budgeted workloads: largest resident cache footprint seen just
  /// before a change batch or at the end (approx_*_bytes summed).
  std::uint64_t peak_resident_bytes = 0;
  StatisticsManager stats_begin;     ///< CacheStatsSnapshot at measure start.
  StatisticsManager stats_end;       ///< ... after the final flush.
  std::vector<Span> spans;           ///< Traced runs only.
  std::vector<QueryMetrics> attributions;
};

class Reference;

/// Runs the stream through `engine` (whose dataset is `dataset`): the
/// warm-up queries serially and unmeasured, then half-second blocks in
/// which spec.clients closed-loop clients run and join, until they have run
/// for `seconds`; then a maintenance flush. After the warm-up and after
/// each block, `reference` evaluates the queries just run. With `trace`,
/// half of the measured queries and every batch record spans.
ClosedLoopResult RunClosedLoop(const WorkloadSpec& spec, const Scale& scale,
                               const Inputs& inputs, GraphDataset& dataset,
                               GraphCachePlus& engine, double seconds,
                               bool trace, Reference& reference);

std::uint64_t HashAnswer(const std::vector<GraphId>& answer);

/// Approximate resident bytes of the cache (all approx_*_bytes gauges).
std::uint64_t ResidentBytes(const StatisticsManager& stats);

// --- Reference and answer oracle -------------------------------------------

struct ReferenceResult {
  /// Reference latency of each measured, executed query (ns), in stream
  /// order, taken at the query's version_lo.
  std::vector<std::int64_t> measured_wall_ns;
  std::size_t evaluations = 0;   ///< Reference queries run.
  std::size_t checked = 0;       ///< Executed queries compared.
  std::size_t mismatches = 0;    ///< ... whose answer matched no version.
  std::int64_t first_mismatch = -1;
  std::vector<Span> spans;       ///< Traced runs only.
};

/// The uncached reference: a fresh copy of the corpus that replays the
/// change plan, and an uncached engine over it. `corrupt_position` >= 0
/// makes the oracle treat that stream position's answer as wrong
/// (self-test).
class Reference {
 public:
  Reference(const WorkloadSpec& spec, const Inputs& inputs, bool trace,
            std::int64_t corrupt_position);

  /// Applies change batches until `version` batches have been applied.
  /// Versions must not decrease from call to call.
  void AdvanceTo(std::uint32_t version);

  /// Runs stream query `query` at the current version and checks its
  /// answer against `record`. Calls for distinct queries may run
  /// concurrently.
  void Evaluate(std::uint32_t query, const QueryRecord& record);

  /// Tallies the oracle over every executed query of `loop`: a query is
  /// correct when the reference gave its answer at some version it may
  /// have observed (one for serial workloads; for concurrent ones, the
  /// states before and after each batch that overlapped it).
  ReferenceResult Finish(const ClosedLoopResult& loop) &&;

 private:
  const Inputs& inputs_;
  const bool trace_;
  const std::int64_t corrupt_position_;
  GraphDataset dataset_;
  ChangePlanExecutor executor_;
  std::unique_ptr<GraphCachePlus> engine_;
  std::uint32_t version_ = 0;
  std::vector<char> matched_;
  std::vector<std::int64_t> wall_ns_;
  std::atomic<std::size_t> evaluations_{0};
  std::mutex spans_mu_;
  ReferenceResult out_;
};

}  // namespace gcp::perfbench

#endif  // GCP_PERFBENCH_PERFBENCH_HPP_
