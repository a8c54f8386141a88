// Cache snapshot codec: the image of a warm GC+ cache that a later
// process restores, skipping the cold-start window the paper pays on
// every run ("one window before starting measuring"). The stream format
// here is the body of the one on-disk format, the CRC-framed checkpoint
// file (cache/checkpoint.hpp).
//
// A snapshot records the dataset-log watermark it was consistent with.
// On load, the runtime resumes from that watermark: the first query's
// Dataset-Manager sync replays the incremental change-log suffix through
// Algorithms 1 + 2 (CON) or purges (EVI), so restoring a *stale* snapshot
// is exactly as safe as having kept the process alive.

#ifndef GCP_CACHE_SNAPSHOT_HPP_
#define GCP_CACHE_SNAPSHOT_HPP_

#include <iosfwd>
#include <string>
#include <vector>

#include "cache/cache_entry.hpp"
#include "common/status.hpp"
#include "dataset/change.hpp"

namespace gcp {

/// \brief Serializable image of the resident cache.
struct CacheSnapshot {
  /// Change-log sequence the entries' validity is consistent with.
  LogSeq watermark = 0;
  /// Dataset id horizon at save time (sanity check on load).
  std::uint64_t id_horizon = 0;
  std::vector<CachedQuery> entries;
  /// One-hop fragment entries (v2 payload; empty when restored from v1 —
  /// the fragment store rebuilds cold, which only costs pruning power).
  std::vector<CachedQuery> fragments;
};

/// Newest snapshot format: v2 = v1 plus a fragment section.
inline constexpr int kCacheSnapshotVersion = 2;

/// Writes `snapshot` as a versioned text stream. `version` selects the
/// format (1 or 2); v1 drops the fragment section, which lets tests and
/// downgrade tooling author authentic old-format bytes.
void WriteCacheSnapshot(std::ostream& os, const CacheSnapshot& snapshot,
                        int version = kCacheSnapshotVersion);

/// Parses a snapshot stream (v1 or v2); rejects unknown versions and
/// malformed records with Corruption.
Result<CacheSnapshot> ReadCacheSnapshot(std::istream& is);

}  // namespace gcp

#endif  // GCP_CACHE_SNAPSHOT_HPP_
