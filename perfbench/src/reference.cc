// Uncached Method M reference and the answer oracle.
//
// The change plan is replayed on a fresh copy of the corpus (targets
// resolve against the dataset state only, so the replay walks the same
// states as the closed loop), and every executed query is run again at
// each dataset version it may have observed. A query is correct when its
// answer equals the reference answer at some version in its window. Every
// query is timed on its own; the closed loop runs them on as many threads
// as the workload has clients, so the reference latencies are those of
// uncached Method M serving the same number of clients.

#include "perfbench.hpp"

namespace gcp::perfbench {

Reference::Reference(const WorkloadSpec& spec, const Inputs& inputs,
                     bool trace, std::int64_t corrupt_position)
    : inputs_(inputs),
      trace_(trace),
      corrupt_position_(corrupt_position),
      executor_(inputs.plan, inputs.corpus, dataset_,
                Rng(inputs.executor_seed)),
      matched_(inputs.stream.size(), 0),
      wall_ns_(inputs.stream.size(), 0) {
  dataset_.Bootstrap(inputs.corpus);
  engine_ = std::make_unique<GraphCachePlus>(&dataset_, ReferenceOptions(spec));
}

void Reference::AdvanceTo(std::uint32_t version) {
  for (; version_ < version; ++version_) {
    engine_->ApplyDatasetChanges([this](GraphDataset&) {
      executor_.AdvanceTo(executor_.NextBatchAt());
    });
  }
}

void Reference::Evaluate(std::uint32_t query, const QueryRecord& record) {
  const StreamQuery& q = inputs_.stream[query];
  const std::int64_t start = NowNs();
  const QueryResult result = engine_->Query(inputs_.shapes[q.shape], q.kind);
  const std::int64_t end = NowNs();
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (version_ == record.version_lo) wall_ns_[query] = end - start;
  if (HashAnswer(result.answer) == record.answer_hash &&
      result.answer.size() == record.answer_size &&
      static_cast<std::int64_t>(query) != corrupt_position_) {
    matched_[query] = 1;
  }
  if (trace_) {
    std::lock_guard<std::mutex> lock(spans_mu_);
    out_.spans.push_back({.id = query,
                          .name = SpanName::kReferenceQuery,
                          .start_ns = start,
                          .end_ns = end});
  }
}

ReferenceResult Reference::Finish(const ClosedLoopResult& loop) && {
  out_.evaluations = evaluations_.load();
  for (std::size_t i = 0; i < loop.queries.size(); ++i) {
    if (!loop.queries[i].executed) continue;
    ++out_.checked;
    if (!matched_[i]) {
      ++out_.mismatches;
      if (out_.first_mismatch < 0) {
        out_.first_mismatch = static_cast<std::int64_t>(i);
      }
    }
    if (i >= loop.measured_begin) out_.measured_wall_ns.push_back(wall_ns_[i]);
  }
  return std::move(out_);
}

}  // namespace gcp::perfbench
