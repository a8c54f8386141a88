// Bump-pointer arena for per-query transient allocations.
//
// The hot path allocates the same short-lived buffers for every
// (query, candidate) pair — VF2+ core mapping arrays, static-order
// scratch, signature-prescreen survivor buffers. Each is a handful of
// heap round-trips per candidate, and Method M verifies a query against
// thousands of candidates. An Arena turns all of them into pointer bumps
// inside a few reused blocks: allocation is an add, deallocation is a
// checkpoint rewind, and the blocks themselves are recycled across
// queries instead of going back to the allocator.
//
// Usage contract: scratch lifetimes nest (LIFO). ScratchArray takes a
// checkpoint on construction and rewinds on destruction, so plain
// stack-scoped usage — including recursion, where deeper frames allocate
// after and release before shallower ones — is always safe. Interleaving
// non-nested lifetimes on one arena is not supported.
//
// Matcher scratch must live per-thread (PreparedPattern is shared across
// concurrent searches; see match_context.hpp), so callers reach the arena
// through ThreadArena(). A ScratchArray falls back to a plain heap array
// only when the arena's block growth is injected to fail.

#ifndef GCP_COMMON_ARENA_HPP_
#define GCP_COMMON_ARENA_HPP_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace gcp {

/// \brief Chained-block bump allocator. Not thread-safe; use one per
/// thread (ThreadArena) or guard externally.
class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = std::size_t{1} << 16;

  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(std::max<std::size_t>(block_bytes, 64)) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Position marker; see Mark/Rewind.
  struct Checkpoint {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  /// Returns `bytes` of storage aligned to `align` (a power of two,
  /// at most alignof(std::max_align_t)). Never returns nullptr (zero-byte
  /// requests yield a valid, possibly shared, pointer).
  void* Allocate(std::size_t bytes, std::size_t align) {
    return AllocateImpl(bytes, align, /*may_fail=*/false);
  }

  /// Like Allocate, but consults the allocation-fault injector when a
  /// fresh block would have to be allocated; returns nullptr on an
  /// injected failure. Callers (ScratchArray) degrade to plain heap.
  void* TryAllocate(std::size_t bytes, std::size_t align) {
    return AllocateImpl(bytes, align, /*may_fail=*/true);
  }

  template <typename T>
  T* AllocateArray(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without running destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  template <typename T>
  T* TryAllocateArray(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without running destructors");
    return static_cast<T*>(TryAllocate(n * sizeof(T), alignof(T)));
  }

  /// Captures the current bump position.
  Checkpoint Mark() const {
    if (blocks_.empty()) return Checkpoint{};
    return Checkpoint{current_, blocks_[current_].used};
  }

  /// Releases everything allocated after `cp` (blocks are retained for
  /// reuse). `cp` must come from this arena and still be "below" the
  /// current position — LIFO order.
  void Rewind(const Checkpoint& cp);

  /// Rewinds to empty, keeping the blocks.
  void Reset() { Rewind(Checkpoint{}); }

  /// Bytes currently handed out (diagnostics/tests).
  std::size_t BytesInUse() const;
  /// Number of blocks ever allocated (diagnostics/tests).
  std::size_t NumBlocks() const { return blocks_.size(); }

 private:
  void* AllocateImpl(std::size_t bytes, std::size_t align, bool may_fail);

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  ///< Active block; later blocks are empty.
  std::size_t block_bytes_;
};

/// The calling thread's scratch arena. It lives until thread exit;
/// callers must release their allocations (ScratchArray does) so it stays
/// empty between queries.
Arena* ThreadArena();

/// \brief Fixed-size scratch buffer of trivially-destructible T, arena-
/// backed when an arena is given, heap-backed otherwise. Rewinds its
/// arena on destruction (LIFO).
template <typename T>
class ScratchArray {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  ScratchArray(Arena* arena, std::size_t n) : arena_(arena), size_(n) {
    if (arena_ != nullptr) {
      mark_ = arena_->Mark();
      data_ = arena_->TryAllocateArray<T>(n);
      if (data_ == nullptr && n != 0) {
        // Injected block-growth failure: degrade this scratch to plain
        // heap. The arena position is untouched (the failed request
        // allocated nothing past the mark).
        arena_->Rewind(mark_);
        arena_ = nullptr;
      }
    }
    if (arena_ == nullptr) {
      data_ = n == 0 ? nullptr : new T[n];
    }
  }

  ScratchArray(Arena* arena, std::size_t n, const T& fill)
      : ScratchArray(arena, n) {
    std::fill_n(data_, size_, fill);
  }

  ScratchArray(const ScratchArray&) = delete;
  ScratchArray& operator=(const ScratchArray&) = delete;

  ~ScratchArray() {
    if (arena_ != nullptr) {
      arena_->Rewind(mark_);
    } else {
      delete[] data_;
    }
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

 private:
  Arena* arena_;
  Arena::Checkpoint mark_;
  T* data_ = nullptr;
  std::size_t size_;
};

/// \brief std-compatible allocator over an Arena (deallocate is a no-op;
/// storage is reclaimed by the owner's Rewind/Reset).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) { assert(arena); }
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) { return arena_->AllocateArray<T>(n); }
  void deallocate(T*, std::size_t) {}

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace gcp

#endif  // GCP_COMMON_ARENA_HPP_
