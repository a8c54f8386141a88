#include "common/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/alloc_fault.hpp"

namespace gcp {
namespace {

TEST(ArenaTest, BumpsWithinOneBlock) {
  Arena arena(1024);
  auto* a = arena.AllocateArray<std::uint64_t>(4);
  auto* b = arena.AllocateArray<std::uint64_t>(4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b, a + 4);  // contiguous bumps, no per-allocation headers
  EXPECT_EQ(arena.NumBlocks(), 1u);
  EXPECT_EQ(arena.BytesInUse(), 8 * sizeof(std::uint64_t));
}

TEST(ArenaTest, RespectsAlignment) {
  Arena arena(1024);
  arena.Allocate(1, 1);
  void* p = arena.Allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
  void* q = arena.Allocate(16, alignof(std::max_align_t));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) %
                alignof(std::max_align_t),
            0u);
}

TEST(ArenaTest, GrowsAcrossBlocksAndOversized) {
  Arena arena(64);
  arena.Allocate(48, 8);
  arena.Allocate(48, 8);  // forces a second block
  EXPECT_GE(arena.NumBlocks(), 2u);
  // A request larger than the block size gets a dedicated block.
  auto* big = static_cast<std::byte*>(arena.Allocate(1000, 8));
  std::memset(big, 0xAB, 1000);
  EXPECT_EQ(static_cast<unsigned char>(big[999]), 0xABu);
}

TEST(ArenaTest, RewindReleasesAndReusesStorage) {
  Arena arena(256);
  const Arena::Checkpoint start = arena.Mark();
  auto* a = arena.AllocateArray<std::uint32_t>(8);
  a[0] = 7;
  const Arena::Checkpoint mid = arena.Mark();
  arena.AllocateArray<std::uint32_t>(100);  // spills to another block
  arena.Rewind(mid);
  EXPECT_EQ(arena.BytesInUse(), 8 * sizeof(std::uint32_t));
  // Storage after the checkpoint is reused in place.
  auto* b = arena.AllocateArray<std::uint32_t>(8);
  EXPECT_EQ(b, a + 8);
  arena.Rewind(start);
  EXPECT_EQ(arena.BytesInUse(), 0u);
  const std::size_t blocks = arena.NumBlocks();
  arena.AllocateArray<std::uint32_t>(100);
  EXPECT_EQ(arena.NumBlocks(), blocks);  // blocks were retained
}

TEST(ArenaTest, NestedScratchArraysAreLifo) {
  Arena arena(128);
  {
    ScratchArray<int> outer(&arena, 10, -1);
    {
      ScratchArray<int> inner(&arena, 200, 3);  // forces block growth
      EXPECT_EQ(inner[199], 3);
      EXPECT_EQ(outer[9], -1);
    }
    EXPECT_EQ(arena.BytesInUse(), 10 * sizeof(int));
    EXPECT_EQ(outer[0], -1);
  }
  EXPECT_EQ(arena.BytesInUse(), 0u);
}

TEST(ArenaTest, ScratchArrayHeapFallback) {
  ScratchArray<int> heap(nullptr, 5, 42);
  EXPECT_EQ(heap.size(), 5u);
  EXPECT_EQ(heap[4], 42);
}

TEST(ArenaTest, ThreadArenaIsStableAndPerThread) {
  Arena* a = ThreadArena();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(ThreadArena(), a);  // stable per thread
  Arena* other = nullptr;
  std::thread([&other] { other = ThreadArena(); }).join();
  EXPECT_NE(other, nullptr);
  EXPECT_NE(other, a);  // one arena per thread
}

TEST(ArenaTest, TryAllocateFailsOnlyOnInjectedBlockGrowth) {
  Arena arena(128);
  ScriptedAllocationFaultInjector injector;
  ScopedAllocationFaultInjector scope(&injector);
  injector.FailSite(AllocSite::kArenaBlock, true);
  // No fresh block needed yet on the never-failing path.
  void* warm = arena.Allocate(32, 8);
  ASSERT_NE(warm, nullptr);
  // Bumping within the existing block never consults the injector.
  EXPECT_NE(arena.TryAllocate(32, 8), nullptr);
  const std::size_t in_use = arena.BytesInUse();
  // Growth would need a new block: the injected failure surfaces as
  // nullptr and leaves the bump position untouched.
  EXPECT_EQ(arena.TryAllocate(4096, 8), nullptr);
  EXPECT_EQ(arena.BytesInUse(), in_use);
  EXPECT_EQ(injector.fired_site(), AllocSite::kArenaBlock);
  injector.DisarmScript();
  EXPECT_NE(arena.TryAllocate(4096, 8), nullptr);
}

TEST(ArenaTest, PlainAllocateNeverFailsUnderInjection) {
  Arena arena(128);
  ScriptedAllocationFaultInjector injector;
  ScopedAllocationFaultInjector scope(&injector);
  injector.FailSite(AllocSite::kArenaBlock, true);
  // The never-null contract of Allocate is unaffected by the injector.
  EXPECT_NE(arena.Allocate(4096, 8), nullptr);
}

TEST(ArenaTest, ScratchArrayDegradesToHeapOnInjectedOom) {
  Arena arena(128);
  ScriptedAllocationFaultInjector injector;
  ScopedAllocationFaultInjector scope(&injector);
  injector.FailSite(AllocSite::kArenaBlock, true);
  const std::size_t in_use = arena.BytesInUse();
  {
    // Needs a fresh block → injected failure → silent heap fallback.
    ScratchArray<int> scratch(&arena, 1000, 9);
    EXPECT_EQ(scratch[999], 9);
    EXPECT_EQ(arena.BytesInUse(), in_use);
  }
  EXPECT_GT(injector.fired(), 0u);
  EXPECT_EQ(arena.BytesInUse(), in_use);
}

TEST(ArenaTest, ArenaAllocatorWorksWithVector) {
  Arena arena;
  const Arena::Checkpoint start = arena.Mark();
  {
    std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_EQ(v[999], 999);
    EXPECT_GT(arena.BytesInUse(), 1000 * sizeof(int) / 2);
  }
  arena.Rewind(start);
  EXPECT_EQ(arena.BytesInUse(), 0u);
}

}  // namespace
}  // namespace gcp
