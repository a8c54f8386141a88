// Resident-store invariants for the churn equivalence harnesses. Anything
// that SETS validity bits outside Algorithm 2 — retrospective refresh,
// delta re-validation, restore, a drain-time twin refresh — must re-derive
// the entry's relevance footprint and byte account; these checks catch a
// path that forgot.

#ifndef GCP_TESTS_CORE_STORE_INVARIANTS_HPP_
#define GCP_TESTS_CORE_STORE_INVARIANTS_HPP_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/graphcache_plus.hpp"

namespace gcp::testing {

inline bool HasBlock(const std::vector<std::uint64_t>& mask,
                     std::size_t block) {
  const std::size_t word = block >> 6;
  return word < mask.size() && ((mask[word] >> (block & 63)) & 1) != 0;
}

/// Per shard: every resident entry's relevance footprint covers each
/// valid word of its indicator with the right polarity (the screen may
/// skip only entries Algorithm 2 cannot mutate), and the whole-query and
/// fragment byte gauges equal a recompute from the resident bitsets.
inline void ExpectStoreInvariants(const GraphCachePlus& gc,
                                  const std::string& label) {
  const ShardedCache& cache = gc.cache_shards();
  const auto locks = cache.LockAllShared();
  for (std::size_t s = 0; s < cache.num_shards(); ++s) {
    const CacheManager& shard = cache.shard(s);
    std::uint64_t entry_bytes = 0;
    shard.ForEachEntry([&](const CachedQuery& e) {
      entry_bytes += ApproxEntryBytes(e);
      EXPECT_EQ(e.approx_bytes, ApproxEntryBytes(e))
          << label << " shard " << s << " entry " << e.id;
      const RelevanceIndex::Footprint* fp =
          shard.relevance_index().footprint(e.id);
      ASSERT_NE(fp, nullptr) << label << " entry " << e.id << " unindexed";
      for (std::size_t w = 0; w < e.valid.num_words(); ++w) {
        const std::uint64_t valid = e.valid.words()[w];
        const std::uint64_t answer =
            w < e.answer.num_words() ? e.answer.words()[w] : 0;
        if ((valid & answer) != 0) {
          EXPECT_TRUE(HasBlock(fp->pos, w))
              << label << " entry " << e.id << " misses pos block " << w;
        }
        if ((valid & ~answer) != 0) {
          EXPECT_TRUE(HasBlock(fp->neg, w))
              << label << " entry " << e.id << " misses neg block " << w;
        }
      }
    });
    EXPECT_EQ(shard.approx_entry_bytes(), entry_bytes)
        << label << " shard " << s << " entry byte gauge drifted";
    std::uint64_t fragment_bytes = 0;
    shard.fragments().ForEach([&fragment_bytes](const CachedQuery& e) {
      fragment_bytes += ApproxEntryBytes(e);
    });
    EXPECT_EQ(shard.fragments().approx_entry_bytes(), fragment_bytes)
        << label << " shard " << s << " fragment byte gauge drifted";
  }
}

}  // namespace gcp::testing

#endif  // GCP_TESTS_CORE_STORE_INVARIANTS_HPP_
