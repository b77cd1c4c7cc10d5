// Copyright (c) NetKernel reproduction authors.
// Shared hugepage region for application payloads (paper §4.5).
//
// One pool is shared per <VM, NSM> tuple: GuestLib copies send() payloads in,
// ServiceLib copies received payloads in, and NQEs reference chunks by offset
// (the NQE's 8-byte "data pointer"). The pool is a size-class slab allocator
// over one contiguous region (the paper uses 128 x 2 MB hugepages; the region
// size is configurable here). Exhaustion is reported to the caller, which
// models the finite socket-buffer backpressure of the real system.
//
// The region is a demand-zero anonymous mapping, with transparent hugepages
// refused (MADV_NOHUGEPAGE), so memory is committed only where chunks are
// carved: when a carve passes the committed mark, Alloc commits the 64 KiB
// stretches (kCommitBytes) it reaches into with one
// madvise(MADV_POPULATE_WRITE), instead of one page fault per 4 KiB. A
// pool's RSS is therefore its carve high-water mark rounded up to 64 KiB,
// not region_bytes(). (Before Linux 5.14 the advice fails with EINVAL, and
// pages are committed on first write instead.) Committed pages nothing has
// written read as zero, which IsAllocated() and Generation() rely on for
// offsets past the carve point.

#ifndef SRC_SHM_HUGEPAGE_POOL_H_
#define SRC_SHM_HUGEPAGE_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"

namespace netkernel::shm {

class HugepagePool {
 public:
  static constexpr uint64_t kInvalidOffset = ~0ULL;
  static constexpr uint64_t kDefaultRegionBytes = 64 * kMiB;
  // Largest allocatable chunk (one TSO-sized unit).
  static constexpr uint32_t kMaxChunk = 64 * 1024;
  // Memory is committed in stretches of this many bytes, aligned to it.
  static constexpr uint64_t kCommitBytes = 64 * 1024;

  explicit HugepagePool(uint64_t region_bytes = kDefaultRegionBytes);
  ~HugepagePool();
  // The pool owns its mapping, so it is neither copyable nor movable.
  HugepagePool(const HugepagePool&) = delete;
  HugepagePool& operator=(const HugepagePool&) = delete;

  // Allocates a chunk of at least `size` bytes (size <= kMaxChunk).
  // Returns the data offset, or kInvalidOffset when the region is exhausted.
  uint64_t Alloc(uint32_t size);
  // Returns a chunk. Freeing an offset that is not currently allocated (a
  // double free, or a garbage offset) is a hard invariant violation — the
  // chunk header carries an allocation state byte so it aborts loudly here
  // instead of silently corrupting the free list.
  void Free(uint64_t offset);
  // True when `offset` is the data offset of a currently-allocated chunk.
  bool IsAllocated(uint64_t offset) const;
  // Usable capacity of an allocated chunk (its size class).
  uint32_t ChunkCapacity(uint64_t offset) const;
  // Allocation generation of the chunk at `offset`: bumped every time the
  // chunk is handed out by Alloc(), wrapping at 16 bits. Together with the
  // offset this names one *incarnation* of a chunk, which is what nkguard
  // needs to tell a replayed NQE (same offset, stale incarnation already
  // consumed) from a legitimate reuse after free+realloc. `offset` must lie
  // inside the region but need not be currently allocated.
  uint16_t Generation(uint64_t offset) const;

  uint8_t* Data(uint64_t offset);
  const uint8_t* Data(uint64_t offset) const;

  uint64_t region_bytes() const { return region_bytes_; }
  uint64_t bytes_in_use() const { return bytes_in_use_; }
  uint64_t chunks_in_use() const { return allocs_ - frees_; }
  uint64_t allocs() const { return allocs_; }
  uint64_t frees() const { return frees_; }
  uint64_t alloc_failures() const { return alloc_failures_; }

  // Size class for a request (rounded up to the next power of two >= 64).
  static uint32_t ClassSize(uint32_t size);

 private:
  static constexpr uint32_t kMinChunk = 64;
  // Header layout: [int class_idx][u8 state][u16 generation][u8 unused].
  static constexpr uint64_t kHeader = 8;

  int ClassIndex(uint32_t size) const;

  uint8_t* region_ = nullptr;  // mmap'd, region_bytes_ long
  uint64_t region_bytes_;
  uint64_t bump_ = 0;       // carve point for fresh blocks
  uint64_t committed_ = 0;  // bytes from region_ committed; >= bump_
  std::vector<std::vector<uint64_t>> free_lists_;
  uint64_t bytes_in_use_ = 0;
  uint64_t allocs_ = 0;
  uint64_t frees_ = 0;
  uint64_t alloc_failures_ = 0;
};

}  // namespace netkernel::shm

#endif  // SRC_SHM_HUGEPAGE_POOL_H_
