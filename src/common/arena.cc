#include "common/arena.hpp"

#include "common/alloc_fault.hpp"

namespace gcp {

namespace {

inline std::size_t AlignUp(std::size_t offset, std::size_t align) {
  return (offset + align - 1) & ~(align - 1);
}

}  // namespace

void* Arena::AllocateImpl(std::size_t bytes, std::size_t align,
                          bool may_fail) {
  assert(align != 0 && (align & (align - 1)) == 0);
  assert(align <= alignof(std::max_align_t));
  // Try the active block, then any retained (empty) successor, then a
  // fresh block sized for the request.
  for (;;) {
    if (current_ < blocks_.size()) {
      Block& b = blocks_[current_];
      const std::size_t at = AlignUp(b.used, align);
      if (at + bytes <= b.size) {
        b.used = at + bytes;
        return b.data.get() + at;
      }
      if (current_ + 1 < blocks_.size() &&
          blocks_[current_ + 1].size >= bytes + align) {
        ++current_;
        assert(blocks_[current_].used == 0);
        continue;
      }
    }
    // Fresh-block growth is the arena's only discretionary allocation;
    // TryAllocate callers degrade to plain heap when it is injected to
    // fail, Allocate callers keep the never-null contract.
    if (may_fail &&
        AllocationFaultFires(AllocSite::kArenaBlock, bytes + align)) {
      return nullptr;
    }
    Block fresh;
    fresh.size = std::max(block_bytes_, bytes + align);
    fresh.data = std::make_unique<std::byte[]>(fresh.size);
    if (blocks_.empty()) {
      blocks_.push_back(std::move(fresh));
      current_ = 0;
    } else {
      // Insert right after the active block so Rewind's "later blocks are
      // empty" invariant keeps holding.
      blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(current_) +
                         1,
                     std::move(fresh));
      ++current_;
    }
  }
}

void Arena::Rewind(const Checkpoint& cp) {
  if (blocks_.empty()) return;
  assert(cp.block <= current_);
  for (std::size_t i = cp.block + 1; i <= current_; ++i) blocks_[i].used = 0;
  current_ = cp.block;
  assert(cp.used <= blocks_[current_].used);
  blocks_[current_].used = cp.used;
}

std::size_t Arena::BytesInUse() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < blocks_.size() && i <= current_; ++i) {
    total += blocks_[i].used;
  }
  return total;
}

Arena* ThreadArena() {
  thread_local Arena arena;
  return &arena;
}

}  // namespace gcp
