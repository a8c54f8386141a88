// Append-only dataset update log consumed by the Log Analyzer.
//
// Consumers (the Cache Validator via the Dataset Manager) remember a
// watermark — the sequence number up to which changes have been reflected
// in the cache — and extract only the incremental suffix (Algorithm 1,
// line 5: "Extract the incremental records R from L").

#ifndef GCP_DATASET_CHANGE_LOG_HPP_
#define GCP_DATASET_CHANGE_LOG_HPP_

#include <atomic>
#include <vector>

#include "dataset/change.hpp"

namespace gcp {

/// \brief In-memory append-only change log with monotone sequence numbers.
class ChangeLog {
 public:
  ChangeLog() = default;
  // Movable despite the atomic tail (single-threaded contexts only, e.g.
  // returning a freshly built dataset by value).
  ChangeLog(ChangeLog&& other) noexcept
      : records_(std::move(other.records_)),
        next_seq_(other.next_seq_.load(std::memory_order_relaxed)) {}
  ChangeLog& operator=(ChangeLog&& other) noexcept {
    records_ = std::move(other.records_);
    next_seq_.store(other.next_seq_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    return *this;
  }

  /// Appends a record, assigning the next sequence number (starting at 1).
  /// Returns the assigned sequence number.
  LogSeq Append(ChangeType type, GraphId graph_id, VertexId u = 0,
                VertexId v = 0);

  /// Sequence number of the newest record; 0 when the log is empty.
  /// Safe to call concurrently with Append (an atomic tail, so a reader
  /// may probe whether the log moved without locking it); every other
  /// accessor still requires external synchronization against appends.
  LogSeq LatestSeq() const {
    return next_seq_.load(std::memory_order_acquire) - 1;
  }

  /// Records with seq > `watermark`, oldest first.
  std::vector<ChangeRecord> ExtractSince(LogSeq watermark) const;

  /// True iff records newer than `watermark` exist.
  bool HasChangesSince(LogSeq watermark) const {
    return LatestSeq() > watermark;
  }

  std::size_t size() const { return records_.size(); }
  const std::vector<ChangeRecord>& records() const { return records_; }

 private:
  std::vector<ChangeRecord> records_;
  std::atomic<LogSeq> next_seq_{1};
};

}  // namespace gcp

#endif  // GCP_DATASET_CHANGE_LOG_HPP_
