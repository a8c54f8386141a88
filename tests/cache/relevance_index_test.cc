// Change-relevance index: footprint/posting maintenance across admit,
// evict, purge and restore; the polarity-matched affected predicate; and
// the end-to-end soundness gate — ValidateRelevant must leave every
// resident bitset exactly where ValidateAll leaves it, on randomized
// batches, because the screen only skips entries no counter can mutate.

#include "cache/relevance_index.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "cache/cache_manager.hpp"
#include "common/rng.hpp"
#include "dataset/change_log.hpp"

namespace gcp {
namespace {

using testing::MakePath;

ChangeCounters Counters(
    std::initializer_list<std::pair<ChangeType, GraphId>> ops) {
  ChangeLog log;
  for (const auto& [type, id] : ops) log.Append(type, id);
  return LogAnalyzer::Analyze(log.ExtractSince(0));
}

/// Entry with `horizon`-wide indicators: `answer_bits` set in the answer,
/// validity all-true unless `valid_bits` is given (then only those).
std::unique_ptr<CachedQuery> MakeEntry(
    CacheEntryId id, std::size_t horizon, std::vector<std::size_t> answer_bits,
    CachedQueryKind kind = CachedQueryKind::kSubgraph,
    const std::vector<std::size_t>* valid_bits = nullptr) {
  auto e = std::make_unique<CachedQuery>();
  e->id = id;
  e->kind = kind;
  e->query = std::make_shared<const Graph>(MakePath({0, 1}));
  e->features = GraphFeatures::Extract(*e->query);
  e->answer = DynamicBitset(horizon);
  for (const auto i : answer_bits) e->answer.Set(i);
  if (valid_bits == nullptr) {
    e->valid = DynamicBitset(horizon, true);
  } else {
    e->valid = DynamicBitset(horizon);
    for (const auto i : *valid_bits) e->valid.Set(i);
  }
  return e;
}

TEST(RelevanceIndexTest, FootprintOfClassifiesOpClasses) {
  // Graph 3: UA+UR (mixed). Graph 70: UA-exclusive. Graph 130: UR-only.
  const ChangeCounters c = Counters({{ChangeType::kEdgeAdd, 3},
                                     {ChangeType::kEdgeRemove, 3},
                                     {ChangeType::kEdgeAdd, 70},
                                     {ChangeType::kEdgeRemove, 130}});
  const RelevanceIndex::BatchFootprint batch = RelevanceIndex::FootprintOf(c);
  ASSERT_EQ(batch.mixed.size(), 1u);
  EXPECT_EQ(batch.mixed[0], 1u << 0);  // block 0 = graphs [0, 64)
  ASSERT_EQ(batch.ua.size(), 1u);
  EXPECT_EQ(batch.ua[0], 1u << 1);  // block 1 = graphs [64, 128)
  ASSERT_EQ(batch.ur.size(), 1u);
  EXPECT_EQ(batch.ur[0], 1u << 2);  // block 2 = graphs [128, 192)
  EXPECT_FALSE(batch.empty());
  EXPECT_TRUE(RelevanceIndex::BatchFootprint{}.empty());
}

TEST(RelevanceIndexTest, StructuralOpsLandInMixed) {
  const RelevanceIndex::BatchFootprint batch = RelevanceIndex::FootprintOf(
      Counters({{ChangeType::kAdd, 5}, {ChangeType::kDelete, 65}}));
  ASSERT_EQ(batch.mixed.size(), 1u);
  EXPECT_EQ(batch.mixed[0], (1u << 0) | (1u << 1));
  EXPECT_TRUE(batch.ua.empty());
  EXPECT_TRUE(batch.ur.empty());
}

TEST(RelevanceIndexTest, InsertComputesPolarityMasksAndPostings) {
  RelevanceIndex idx;
  // 130-wide indicator: answer only at graph 2, validity everywhere →
  // valid∧answer occupies block 0; valid∧¬answer occupies blocks 0-2.
  const auto e = MakeEntry(7, 130, {2});
  idx.Insert(e.get());
  EXPECT_EQ(idx.size(), 1u);
  const RelevanceIndex::Footprint* fp = idx.footprint(7);
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(fp->pos.size(), 1u);
  EXPECT_EQ(fp->pos[0], 0b001u);
  ASSERT_EQ(fp->neg.size(), 1u);
  EXPECT_EQ(fp->neg[0], 0b111u);
  for (std::uint32_t block = 0; block < 3; ++block) {
    const std::vector<CacheEntryId>* list = idx.postings(block);
    ASSERT_NE(list, nullptr) << "block " << block;
    EXPECT_EQ(*list, std::vector<CacheEntryId>{7});
  }
  EXPECT_EQ(idx.postings(3), nullptr);
}

TEST(RelevanceIndexTest, EraseAndClearDropPostings) {
  RelevanceIndex idx;
  const auto a = MakeEntry(1, 70, {0});
  const auto b = MakeEntry(2, 70, {65});
  idx.Insert(a.get());
  idx.Insert(b.get());
  ASSERT_NE(idx.postings(0), nullptr);
  EXPECT_EQ(idx.postings(0)->size(), 2u);
  idx.Erase(1);
  ASSERT_NE(idx.postings(0), nullptr);
  EXPECT_EQ(*idx.postings(0), std::vector<CacheEntryId>{2});
  EXPECT_EQ(idx.footprint(1), nullptr);
  idx.Erase(1);  // double-erase is a no-op
  idx.Clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.postings(0), nullptr);
  EXPECT_EQ(idx.postings(1), nullptr);
}

TEST(RelevanceIndexTest, RefreshTightensAfterClears) {
  RelevanceIndex idx;
  auto e = MakeEntry(4, 130, {2});
  idx.Insert(e.get());
  ASSERT_NE(idx.postings(1), nullptr);
  // Clear every valid bit of block 1 (graphs 64..127); Refresh must drop
  // the block from the footprint and its posting list.
  for (std::size_t i = 64; i < 128; ++i) e->valid.Set(i, false);
  idx.Refresh(e.get());
  const RelevanceIndex::Footprint* fp = idx.footprint(4);
  ASSERT_NE(fp, nullptr);
  EXPECT_EQ(fp->neg[0], 0b101u);
  EXPECT_EQ(idx.postings(1), nullptr);
  // Refresh of an un-indexed entry is a no-op.
  const auto stranger = MakeEntry(99, 10, {});
  idx.Refresh(stranger.get());
  EXPECT_EQ(idx.footprint(99), nullptr);
}

TEST(RelevanceIndexTest, UaPolaritySkipsPositiveOnlySubEntry) {
  RelevanceIndex idx;
  // Sub entry whose only valid bits are positive (valid == answer):
  // a UA-exclusive batch preserves positive sub results → not affected.
  const std::vector<std::size_t> only{5};
  const auto e =
      MakeEntry(1, 64, {5}, CachedQueryKind::kSubgraph, &only);
  idx.Insert(e.get());
  EXPECT_TRUE(idx.CollectAffected(RelevanceIndex::FootprintOf(
                                      Counters({{ChangeType::kEdgeAdd, 7}})))
                  .empty());
  // A UR-exclusive batch clears positive sub bits → affected.
  EXPECT_EQ(idx.CollectAffected(RelevanceIndex::FootprintOf(
                                    Counters({{ChangeType::kEdgeRemove, 7}})))
                .size(),
            1u);
  // Mixed ops clear either polarity → affected.
  EXPECT_EQ(idx.CollectAffected(RelevanceIndex::FootprintOf(
                                    Counters({{ChangeType::kEdgeAdd, 7},
                                              {ChangeType::kEdgeRemove, 7}})))
                .size(),
            1u);
}

TEST(RelevanceIndexTest, PolarityInvertsForSuperEntries) {
  RelevanceIndex idx;
  // Super entry, valid == answer (positive-only): UA clears positive
  // super bits (an added edge can break G ⊆ q) → affected; UR preserves
  // them → skipped.
  const std::vector<std::size_t> only{5};
  const auto e =
      MakeEntry(1, 64, {5}, CachedQueryKind::kSupergraph, &only);
  idx.Insert(e.get());
  EXPECT_EQ(idx.CollectAffected(RelevanceIndex::FootprintOf(
                                    Counters({{ChangeType::kEdgeAdd, 7}})))
                .size(),
            1u);
  EXPECT_TRUE(idx.CollectAffected(RelevanceIndex::FootprintOf(
                                      Counters({{ChangeType::kEdgeRemove, 7}})))
                  .empty());
}

TEST(RelevanceIndexTest, BatchBeyondIndicatorPrefixIsSkipped) {
  RelevanceIndex idx;
  // 64-wide indicator; the batch touches only graphs ≥ 128. Algorithm 2
  // ignores graphs beyond the indicator (graph_id >= valid.size()), and
  // so does the min-prefix intersection.
  const auto e = MakeEntry(1, 64, {3});
  idx.Insert(e.get());
  EXPECT_TRUE(idx.CollectAffected(RelevanceIndex::FootprintOf(Counters(
                                      {{ChangeType::kEdgeAdd, 130},
                                       {ChangeType::kEdgeRemove, 130}})))
                  .empty());
}

TEST(RelevanceIndexTest, CollectAffectedAscendingAndDeduped) {
  RelevanceIndex idx;
  // Entries spanning two blocks each, so a two-block batch would find
  // both through two posting lists — the result must dedup.
  const auto a = MakeEntry(9, 130, {2, 70});
  const auto b = MakeEntry(3, 130, {5, 66});
  idx.Insert(a.get());
  idx.Insert(b.get());
  const auto affected = idx.CollectAffected(RelevanceIndex::FootprintOf(
      Counters({{ChangeType::kDelete, 2}, {ChangeType::kDelete, 70}})));
  ASSERT_EQ(affected.size(), 2u);
  EXPECT_EQ(affected[0]->id, 3u);  // ascending by id
  EXPECT_EQ(affected[1]->id, 9u);
}

// --- CacheManager integration: the store keeps the index in sync across
// admit / evict / purge / restore, and ValidateRelevant is bit-exact
// against the brute-force oracle on randomized batches.

CacheManagerOptions ManagerOptions(std::size_t cache = 64,
                                   std::size_t window = 8) {
  CacheManagerOptions opts;
  opts.cache_capacity = cache;
  opts.window_capacity = window;
  opts.policy = ReplacementPolicy::kPin;
  return opts;
}

TEST(RelevanceIndexManagerTest, AdmitEvictPurgeRestoreKeepIndexInSync) {
  CacheManager cm(ManagerOptions(/*cache=*/2, /*window=*/2));
  const std::size_t horizon = 8;
  auto admit = [&](Label tag, std::uint64_t now) {
    DynamicBitset answer(horizon);
    DynamicBitset valid(horizon, true);
    return cm.Admit(MakePath({tag, tag}), CachedQueryKind::kSubgraph,
                    std::move(answer), std::move(valid), now, 1.0)
        .value();
  };
  const CacheEntryId a = admit(0, 0);
  EXPECT_EQ(cm.relevance_index().size(), 1u);
  const CacheEntryId b = admit(1, 1);  // merge #1: both fit
  cm.RecordBenefit(b, 10, 2);
  admit(2, 3);
  admit(3, 4);  // merge #2: 4 entries → capacity 2, evictions
  EXPECT_EQ(cm.resident(), 2u);
  EXPECT_EQ(cm.relevance_index().size(), 2u);
  EXPECT_EQ(cm.relevance_index().footprint(a), nullptr);  // evicted
  ASSERT_NE(cm.relevance_index().footprint(b), nullptr);

  // EVI reconcile purge: index emptied, every resident counted touched.
  const std::size_t resident_before = cm.resident();
  cm.PurgeForReconcile();
  EXPECT_EQ(cm.relevance_index().size(), 0u);
  EXPECT_EQ(cm.stats().reconcile_entries_touched, resident_before);

  // Restore re-registers entries under fresh ids.
  CacheManager donor(ManagerOptions());
  {
    DynamicBitset answer(horizon);
    answer.Set(1);
    DynamicBitset valid(horizon, true);
    donor.Admit(MakePath({4, 4}), CachedQueryKind::kSubgraph,
                std::move(answer), std::move(valid), 0, 1.0);
  }
  cm.RestoreEntries(donor.ExportEntries());
  EXPECT_EQ(cm.resident(), 1u);
  EXPECT_EQ(cm.relevance_index().size(), 1u);
}

std::string BitsetString(const DynamicBitset& bits) {
  std::string s(bits.size(), '0');
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits.Test(i)) s[i] = '1';
  }
  return s;
}

/// All resident (id, kind, valid, answer) tuples, ascending by id.
std::vector<std::string> StateOf(const CacheManager& cm) {
  std::vector<std::string> out;
  cm.ForEachEntry([&out](const CachedQuery& e) {
    out.push_back(std::to_string(e.id) + "|" +
                  (e.kind == CachedQueryKind::kSubgraph ? "sub" : "super") +
                  "|" + BitsetString(e.valid) + "|" + BitsetString(e.answer));
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RelevanceIndexManagerTest, ValidateRelevantMatchesOracleRandomized) {
  // Two stores built identically — one reconciles through the relevance
  // index, the other brute-force (ValidateAll, the reference). After every
  // randomized batch all resident bitsets must be identical, and the
  // accounting invariants must hold: touched + skipped == resident per
  // event on the indexed store, skipped == 0 always on the reference.
  Rng rng(1234);
  const std::size_t horizon = 300;  // several 64-id blocks
  CacheManager indexed(ManagerOptions());
  CacheManager oracle(ManagerOptions());
  for (std::size_t n = 0; n < 40; ++n) {
    const auto kind = (n % 3 == 0) ? CachedQueryKind::kSupergraph
                                   : CachedQueryKind::kSubgraph;
    DynamicBitset answer(horizon);
    DynamicBitset valid(horizon);
    // Valid bits confined to one random 64-id block per entry, so
    // footprints are localized and the screen has something to skip
    // (answer bits land anywhere — only valid∧answer matters). Every
    // fourth entry answers everything and every fourth nothing, so their
    // footprints hold one polarity only.
    const std::size_t lo = rng.UniformBelow(horizon / 64) * 64;
    const std::size_t hi = std::min(horizon, lo + 64);
    for (std::size_t i = 0; i < horizon; ++i) {
      const bool coin = rng.UniformBelow(4) == 0;
      if (n % 4 == 1 || (n % 4 != 3 && coin)) answer.Set(i);
      if (i >= lo && i < hi && rng.UniformBelow(3) != 0) valid.Set(i);
    }
    const Label tag = static_cast<Label>(n);
    indexed.Admit(MakePath({tag, tag}), kind, answer, valid, n, 1.0);
    oracle.Admit(MakePath({tag, tag}), kind, std::move(answer),
                 std::move(valid), n, 1.0);
  }
  ASSERT_EQ(StateOf(indexed), StateOf(oracle));

  std::uint64_t events = 0;
  for (std::size_t round = 0; round < 50; ++round) {
    // Localized batch: a handful of ops inside one random 64-id block.
    // A third of the batches add edges only and a third remove edges only
    // (the polarity-specific screens); the rest mix all four op types.
    ChangeLog log;
    const GraphId base =
        static_cast<GraphId>(rng.UniformBelow(horizon / 64) * 64);
    const std::size_t ops = 1 + rng.UniformBelow(5);
    const std::size_t batch_kind = rng.UniformBelow(3);
    for (std::size_t k = 0; k < ops; ++k) {
      const GraphId id = base + static_cast<GraphId>(rng.UniformBelow(64));
      switch (batch_kind == 2 ? rng.UniformBelow(4) : batch_kind) {
        case 0:
          log.Append(ChangeType::kEdgeAdd, id);
          break;
        case 1:
          log.Append(ChangeType::kEdgeRemove, id);
          break;
        case 2:
          log.Append(ChangeType::kAdd, id);
          break;
        default:
          log.Append(ChangeType::kDelete, id);
          break;
      }
    }
    const ChangeCounters counters = LogAnalyzer::Analyze(log.ExtractSince(0));
    indexed.ValidateRelevant(counters, horizon);
    oracle.ValidateAll(counters, horizon);
    ++events;
    ASSERT_EQ(StateOf(indexed), StateOf(oracle)) << "round " << round;
    EXPECT_EQ(indexed.stats().reconcile_entries_touched +
                  indexed.stats().reconcile_entries_skipped,
              events * indexed.resident());
    EXPECT_EQ(oracle.stats().reconcile_entries_skipped, 0u);
  }
  // Localized batches against block-granular footprints must actually
  // skip work — that is the point of the index.
  EXPECT_GT(indexed.stats().reconcile_entries_skipped, 0u);
  EXPECT_EQ(oracle.stats().reconcile_entries_touched,
            events * oracle.resident());
}

TEST(RelevanceIndexManagerTest, ValidateRelevantExtendsAllIndicators) {
  // Extension to a new horizon applies to every resident entry even when
  // the batch affects none of them (new ids default to invalid).
  CacheManager cm(ManagerOptions());
  DynamicBitset answer(4);
  DynamicBitset valid(4, true);
  cm.Admit(MakePath({0, 0}), CachedQueryKind::kSubgraph, std::move(answer),
           std::move(valid), 0, 1.0);
  const ChangeCounters empty;
  cm.ValidateRelevant(empty, 10);
  cm.ForEachEntry([](const CachedQuery& e) {
    EXPECT_EQ(e.valid.size(), 10u);
    EXPECT_EQ(e.answer.size(), 10u);
    EXPECT_FALSE(e.valid.Test(9));
  });
  EXPECT_EQ(cm.stats().reconcile_entries_touched, 0u);
  EXPECT_EQ(cm.stats().reconcile_entries_skipped, 1u);
}

}  // namespace
}  // namespace gcp
