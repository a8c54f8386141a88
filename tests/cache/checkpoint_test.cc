#include "cache/checkpoint.hpp"

#include <gtest/gtest.h>

#include <string>

#include "../test_util.hpp"
#include "common/crc32.hpp"
#include "common/io.hpp"

namespace gcp {
namespace {

using testing::MakeCycle;
using testing::MakePath;
using testing::MakeStar;

CacheSnapshot SampleSnapshot() {
  CacheSnapshot s;
  s.watermark = 12;
  s.id_horizon = 6;
  CachedQuery e;
  e.kind = CachedQueryKind::kSubgraph;
  e.query = std::make_shared<const Graph>(MakePath({0, 1, 2}));
  e.answer = DynamicBitset(6);
  e.answer.Set(2);
  e.valid = DynamicBitset(6, true);
  e.tests_saved = 5;
  s.entries.push_back(std::move(e));
  CachedQuery f;
  f.kind = CachedQueryKind::kSupergraph;
  f.query = std::make_shared<const Graph>(MakeCycle({3, 3, 3}));
  f.answer = DynamicBitset(6);
  f.valid = DynamicBitset(6);
  s.entries.push_back(std::move(f));
  return s;
}

CacheSnapshot SampleSnapshotWithFragments() {
  CacheSnapshot s = SampleSnapshot();
  CachedQuery f;
  f.kind = CachedQueryKind::kSubgraph;
  f.query = std::make_shared<const Graph>(MakeStar({0, 1, 1}));
  f.answer = DynamicBitset(6);
  f.answer.Set(1);
  f.valid = DynamicBitset(6, true);
  f.tests_saved = 3;
  s.fragments.push_back(std::move(f));
  return s;
}

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  EXPECT_TRUE(PruneCheckpoints(dir, 0).ok());
  return dir;
}

TEST(CheckpointFormatTest, EncodeDecodeRoundTrip) {
  const CacheSnapshot original = SampleSnapshot();
  const std::string bytes = EncodeCheckpoint(original);
  auto decoded = DecodeCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const CacheSnapshot& s = decoded.value();
  EXPECT_EQ(s.watermark, original.watermark);
  EXPECT_EQ(s.id_horizon, original.id_horizon);
  ASSERT_EQ(s.entries.size(), original.entries.size());
  EXPECT_TRUE(s.entries[0].answer.Test(2));
  EXPECT_EQ(s.entries[1].kind, CachedQueryKind::kSupergraph);
}

TEST(CheckpointFormatTest, FragmentsRoundTripInV2) {
  const CacheSnapshot original = SampleSnapshotWithFragments();
  const std::string bytes = EncodeCheckpoint(original);
  auto decoded = DecodeCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const CacheSnapshot& s = decoded.value();
  ASSERT_EQ(s.entries.size(), 2u);
  ASSERT_EQ(s.fragments.size(), 1u);
  EXPECT_EQ(*s.fragments[0].query, *original.fragments[0].query);
  EXPECT_EQ(s.fragments[0].answer, original.fragments[0].answer);
  EXPECT_EQ(s.fragments[0].valid, original.fragments[0].valid);
  EXPECT_EQ(s.fragments[0].kind, CachedQueryKind::kSubgraph);
}

TEST(CheckpointFormatTest, V1CheckpointDecodesAsCorruption) {
  // A hand-written v1 checkpoint: v1 envelope, no fragments meta line, v1
  // snapshot body, with framing and footer CRCs that all check out. The
  // format is retired, so the header alone rejects it; warm restart then
  // degrades past the file like any other corrupt sibling.
  const std::string body =
      "GCPCACHE v1\nwatermark 12\nhorizon 2\nentries 1\n"
      "entry kind=0 admitted=0 last_used=0 hits=0 tests_saved=0 exact=0 "
      "sub=0 super=0 cost=0\nanswer 01\nvalid 11\nt # 0\nv 0 1\n"
      "endentry\n";
  const std::string meta = "watermark 12\nhorizon 2\nentries 1\n";
  std::string bytes = "GCPCHKPT v1\n";
  bytes += "section meta " + std::to_string(meta.size()) + " " +
           std::to_string(Crc32(meta)) + "\n" + meta;
  bytes += "section body " + std::to_string(body.size()) + " " +
           std::to_string(Crc32(body)) + "\n" + body;
  bytes += "footer 1 12 2 " + std::to_string(Crc32(bytes)) + "\n";
  auto decoded = DecodeCheckpoint(bytes);
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  // Relabelled as v2, the same envelope still fails: its meta section
  // lacks the fragments line a v2 writer always emits.
  bytes.replace(0, std::string("GCPCHKPT v1\n").size(), "GCPCHKPT v2\n");
  EXPECT_EQ(DecodeCheckpoint(bytes).status().code(), StatusCode::kCorruption);
}

TEST(CheckpointFormatTest, EveryTruncationIsRejectedNotUB) {
  // Fragment-bearing v2 bytes: the sweep covers the fragment section too.
  const std::string bytes = EncodeCheckpoint(SampleSnapshotWithFragments());
  // Torn write at every byte k: each prefix must decode to a Corruption
  // (or similar) error — never crash, never a silently-wrong snapshot.
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    auto decoded = DecodeCheckpoint(bytes.substr(0, k));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << k << " bytes decoded";
  }
}

TEST(CheckpointFormatTest, EveryBitFlipIsRejected) {
  const std::string clean = EncodeCheckpoint(SampleSnapshotWithFragments());
  // Flip one bit in every byte — header, meta, body and footer sections
  // are all CRC- or cross-check-covered, so no flip may survive.
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
    auto decoded = DecodeCheckpoint(bytes);
    if (decoded.ok()) {
      // The only acceptable survivors would be bit-identical decodes;
      // a flipped byte can never produce one.
      FAIL() << "bit flip at byte " << i << " decoded successfully";
    }
  }
}

TEST(CheckpointFormatTest, TrailingBytesRejected) {
  std::string bytes = EncodeCheckpoint(SampleSnapshot());
  bytes += "junk";
  EXPECT_FALSE(DecodeCheckpoint(bytes).ok());
}

TEST(CheckpointFormatTest, SeqNamesRoundTrip) {
  EXPECT_EQ(CheckpointFileName(7), "checkpoint-000007.gcpchk");
  auto seq = ParseCheckpointSeq("checkpoint-000007.gcpchk");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 7u);
  EXPECT_FALSE(ParseCheckpointSeq("checkpoint-000007.gcpchk.tmp").ok());
  EXPECT_FALSE(ParseCheckpointSeq("checkpoint-.gcpchk").ok());
  EXPECT_FALSE(ParseCheckpointSeq("checkpoint-12x4.gcpchk").ok());
  EXPECT_FALSE(ParseCheckpointSeq("other.gcpchk").ok());
}

TEST(CheckpointFileTest, WriteReadRoundTrip) {
  const std::string dir = FreshDir("chk_roundtrip");
  const std::string path = dir + "/" + CheckpointFileName(1);
  std::uint64_t bytes = 0;
  ASSERT_TRUE(
      WriteCheckpointFile(path, SampleSnapshot(), nullptr, &bytes).ok());
  EXPECT_GT(bytes, 0u);
  auto loaded = ReadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().watermark, 12u);
}

TEST(CheckpointFileTest, FailedWriteLeavesNoCommittedFile) {
  const std::string dir = FreshDir("chk_faulted");
  const std::string path = dir + "/" + CheckpointFileName(1);
  ScriptedFaultInjector fault;
  fault.FailAtKind(FaultInjector::Op::kWrite, 0, Status::IOError("EIO"),
                   /*torn_prefix=*/10);
  EXPECT_FALSE(
      WriteCheckpointFile(path, SampleSnapshot(), &fault, nullptr).ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(path + ".tmp"));  // crash-shaped leftover
  // Recovery never sees the tmp: it is not a checkpoint name.
  EXPECT_TRUE(ListCheckpointSeqs(dir).empty());
}

TEST(CheckpointFileTest, ListAndPrune) {
  const std::string dir = FreshDir("chk_prune");
  for (const std::uint64_t seq : {3u, 1u, 7u, 5u}) {
    ASSERT_TRUE(WriteCheckpointFile(dir + "/" + CheckpointFileName(seq),
                                    SampleSnapshot(), nullptr, nullptr)
                    .ok());
  }
  const std::vector<std::uint64_t> seqs = ListCheckpointSeqs(dir);
  ASSERT_EQ(seqs.size(), 4u);
  EXPECT_EQ(seqs[0], 7u);  // newest first
  EXPECT_EQ(seqs[3], 1u);
  ASSERT_TRUE(PruneCheckpoints(dir, 2).ok());
  const std::vector<std::uint64_t> kept = ListCheckpointSeqs(dir);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 7u);
  EXPECT_EQ(kept[1], 5u);
}

TEST(CheckpointFileTest, PruneRemovesTornTmpSiblings) {
  const std::string dir = FreshDir("chk_prune_tmp");
  ASSERT_TRUE(WriteCheckpointFile(dir + "/" + CheckpointFileName(1),
                                  SampleSnapshot(), nullptr, nullptr)
                  .ok());
  ASSERT_TRUE(WriteCheckpointFile(dir + "/" + CheckpointFileName(2),
                                  SampleSnapshot(), nullptr, nullptr)
                  .ok());
  // A torn tmp next to the pruned sibling goes with it.
  ScriptedFaultInjector fault;
  fault.FailAtKind(FaultInjector::Op::kFsync, 0, Status::IOError("EIO"));
  EXPECT_FALSE(WriteCheckpointFile(dir + "/" + CheckpointFileName(1),
                                   SampleSnapshot(), &fault, nullptr)
                   .ok());
  ASSERT_TRUE(FileExists(dir + "/" + CheckpointFileName(1) + ".tmp"));
  ASSERT_TRUE(PruneCheckpoints(dir, 1).ok());
  EXPECT_FALSE(FileExists(dir + "/" + CheckpointFileName(1)));
  EXPECT_FALSE(FileExists(dir + "/" + CheckpointFileName(1) + ".tmp"));
  EXPECT_TRUE(FileExists(dir + "/" + CheckpointFileName(2)));
}

TEST(CheckpointFileTest, MissingFileIsAnError) {
  const std::string dir = FreshDir("chk_missing");
  EXPECT_FALSE(ReadCheckpointFile(dir + "/" + CheckpointFileName(9)).ok());
}

}  // namespace
}  // namespace gcp
