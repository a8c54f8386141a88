// Crash-safe checkpoint container around the cache snapshot.
//
// A checkpoint file is the versioned text snapshot (cache/snapshot.*)
// wrapped in a corruption-evident envelope:
//
//   GCPCHKPT v2\n                                  -- version header
//   section meta <len> <crc32>\n                   -- per-section framing
//   <len bytes: "watermark W\nhorizon H\nentries N\nfragments F\n">
//   section body <len> <crc32>\n
//   <len bytes: the GCPCACHE v2 snapshot text>
//   footer <entries> <watermark> <horizon> <crc32>\n
//
// Any other header, including the retired v1 envelope, is Corruption;
// warm restart degrades past such a file to the next-older sibling.
//
// Every section carries its own length + CRC32, so a torn write, a
// truncation at any byte, or a flipped bit in any region is detected at
// load — never parsed into a silently-wrong cache. The footer repeats the
// meta fields and a whole-prefix CRC: a file without a matching footer is
// by definition incomplete. Files are written tmp → fsync → atomic-rename
// through common/io's AtomicFileWriter, so the final name only ever holds
// a complete image; the envelope defends against everything else
// (bit rot, manual truncation, a torn tmp renamed by some other actor).
//
// A checkpoint DIRECTORY holds numbered siblings, checkpoint-<seq>.gcpchk,
// newest = highest seq. Recovery walks newest → oldest and degrades:
// first valid sibling wins (last-good), none valid ⇒ cold start.

#ifndef GCP_CACHE_CHECKPOINT_HPP_
#define GCP_CACHE_CHECKPOINT_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "cache/snapshot.hpp"
#include "common/io.hpp"
#include "common/status.hpp"

namespace gcp {

/// File name of checkpoint sequence `seq` ("checkpoint-000042.gcpchk").
std::string CheckpointFileName(std::uint64_t seq);

/// Parses a checkpoint file name back to its sequence; NotFound for
/// non-checkpoint names (tmp files, foreign files).
Result<std::uint64_t> ParseCheckpointSeq(const std::string& name);

/// Serializes `snapshot` into the envelope format (in memory).
std::string EncodeCheckpoint(const CacheSnapshot& snapshot);

/// Validates the envelope (header, section CRCs, footer) and parses the
/// embedded snapshot. Corruption pinpoints the failing section.
Result<CacheSnapshot> DecodeCheckpoint(const std::string& bytes);

/// Writes `snapshot` to `path` crash-safely (tmp → fsync → rename), every
/// file operation consulting `fault` (nullable). `bytes_out` (nullable)
/// receives the file size on success.
Status WriteCheckpointFile(const std::string& path,
                           const CacheSnapshot& snapshot,
                           FaultInjector* fault = nullptr,
                           std::uint64_t* bytes_out = nullptr);

/// Reads and validates one checkpoint file.
Result<CacheSnapshot> ReadCheckpointFile(const std::string& path);

/// Checkpoint sequences present in `dir`, descending (newest first).
/// Non-checkpoint files are ignored. Empty when the directory is missing.
std::vector<std::uint64_t> ListCheckpointSeqs(const std::string& dir);

/// Deletes all but the newest `keep` checkpoints (and any stale tmp file
/// belonging to a deleted sibling). Best-effort: returns the first error
/// but keeps going.
Status PruneCheckpoints(const std::string& dir, std::size_t keep);

}  // namespace gcp

#endif  // GCP_CACHE_CHECKPOINT_HPP_
