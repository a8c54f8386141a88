// Resident-store byte-account invariants for the churn equivalence
// harnesses. Anything that resizes an entry's bitsets — Algorithm 2's
// indicator extension, restore, a drain-time twin refresh — must re-derive
// its byte account; these checks catch a path that forgot.

#ifndef GCP_TESTS_CORE_STORE_INVARIANTS_HPP_
#define GCP_TESTS_CORE_STORE_INVARIANTS_HPP_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/graphcache_plus.hpp"

namespace gcp::testing {

/// Per shard: every resident entry's recorded byte count, and the
/// whole-query and fragment byte gauges, equal a recompute from the
/// resident graphs and bitsets.
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
