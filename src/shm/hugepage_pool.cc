// Copyright (c) NetKernel reproduction authors.

#include "src/shm/hugepage_pool.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23  // Linux 5.14; older C libraries lack the name
#endif

namespace netkernel::shm {

namespace {
constexpr int kNumClasses = 11;  // 64 .. 64K in powers of two
// Allocation-state byte stored in the chunk header next to the class index:
// lets Free() detect double frees / garbage offsets instead of corrupting
// the free list (exactly-once ownership is a datapath invariant).
constexpr uint8_t kStateFree = 0;
constexpr uint8_t kStateAllocated = 0xa7;
constexpr uint64_t kStateByte = 4;  // header layout: [int class_idx][state][gen]
// 16-bit allocation generation at header bytes 5-6: bumped on every Alloc()
// of the chunk so a (offset, generation) pair names one incarnation. The
// region is demand-zero, so never-carved bytes read 0: fresh chunks start at
// generation 0, the first Alloc hands out generation 1, and an offset past
// the carve point reads as kStateFree.
constexpr uint64_t kGenBytes = 5;
}

HugepagePool::HugepagePool(uint64_t region_bytes)
    : region_bytes_(region_bytes), free_lists_(kNumClasses) {
  NK_CHECK(region_bytes >= kMaxChunk + kHeader);
  // Anonymous pages are zero-filled on first touch, and MAP_NORESERVE commits
  // no swap for the untouched tail. Transparent hugepages are refused even
  // where the host enables them for every mapping: each first touch would
  // then fault in 2 MiB. (A kernel without THP fails the madvise; it has
  // nothing to refuse.)
  void* region = mmap(nullptr, region_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  NK_CHECK(region != MAP_FAILED);
  madvise(region, region_bytes, MADV_NOHUGEPAGE);
  region_ = static_cast<uint8_t*>(region);
}

HugepagePool::~HugepagePool() { munmap(region_, region_bytes_); }

uint32_t HugepagePool::ClassSize(uint32_t size) {
  uint32_t c = kMinChunk;
  while (c < size) c <<= 1;
  return c;
}

int HugepagePool::ClassIndex(uint32_t size) const {
  NK_CHECK(size <= kMaxChunk);
  int idx = 0;
  uint32_t c = kMinChunk;
  while (c < size) {
    c <<= 1;
    ++idx;
  }
  NK_CHECK(idx < kNumClasses);
  return idx;
}

uint64_t HugepagePool::Alloc(uint32_t size) {
  if (size == 0) size = 1;
  if (size > kMaxChunk) {
    ++alloc_failures_;
    return kInvalidOffset;
  }
  int idx = ClassIndex(size);
  uint32_t chunk = kMinChunk << idx;
  uint64_t offset;
  if (!free_lists_[idx].empty()) {
    offset = free_lists_[idx].back();
    free_lists_[idx].pop_back();
  } else {
    if (bump_ + kHeader + chunk > region_bytes_) {
      ++alloc_failures_;
      return kInvalidOffset;
    }
    uint64_t header_at = bump_;
    bump_ += kHeader + chunk;
    if (bump_ > committed_) {
      // One call commits the stretches the carve reaches into. The result is
      // ignored: before Linux 5.14 the advice fails with EINVAL, and the
      // pages fault in on first write instead.
      const uint64_t end = std::min(
          region_bytes_, (bump_ + kCommitBytes - 1) / kCommitBytes * kCommitBytes);
      (void)madvise(region_ + committed_, end - committed_, MADV_POPULATE_WRITE);
      committed_ = end;
    }
    offset = header_at + kHeader;
    std::memcpy(&region_[header_at], &idx, sizeof(int));
  }
  region_[offset - kHeader + kStateByte] = kStateAllocated;
  uint16_t gen;
  std::memcpy(&gen, &region_[offset - kHeader + kGenBytes], sizeof(gen));
  ++gen;
  std::memcpy(&region_[offset - kHeader + kGenBytes], &gen, sizeof(gen));
  bytes_in_use_ += chunk;
  ++allocs_;
  return offset;
}

void HugepagePool::Free(uint64_t offset) {
  NK_CHECK(offset != kInvalidOffset && offset >= kHeader && offset < region_bytes_);
  int idx;
  std::memcpy(&idx, &region_[offset - kHeader], sizeof(int));
  NK_CHECK(idx >= 0 && idx < kNumClasses);
  NK_CHECK_MSG(region_[offset - kHeader + kStateByte] == kStateAllocated,
               "hugepage chunk double free (or bogus offset)");
  region_[offset - kHeader + kStateByte] = kStateFree;
  free_lists_[idx].push_back(offset);
  bytes_in_use_ -= kMinChunk << idx;
  ++frees_;
}

bool HugepagePool::IsAllocated(uint64_t offset) const {
  if (offset == kInvalidOffset || offset < kHeader || offset >= region_bytes_) return false;
  return region_[offset - kHeader + kStateByte] == kStateAllocated;
}

uint16_t HugepagePool::Generation(uint64_t offset) const {
  NK_CHECK(offset != kInvalidOffset && offset >= kHeader && offset < region_bytes_);
  uint16_t gen;
  std::memcpy(&gen, &region_[offset - kHeader + kGenBytes], sizeof(gen));
  return gen;
}

uint32_t HugepagePool::ChunkCapacity(uint64_t offset) const {
  NK_CHECK(offset != kInvalidOffset && offset >= kHeader && offset < region_bytes_);
  int idx;
  std::memcpy(&idx, &region_[offset - kHeader], sizeof(int));
  NK_CHECK(idx >= 0 && idx < kNumClasses);
  return kMinChunk << idx;
}

uint8_t* HugepagePool::Data(uint64_t offset) {
  NK_CHECK(offset != kInvalidOffset && offset < region_bytes_);
  return region_ + offset;
}

const uint8_t* HugepagePool::Data(uint64_t offset) const {
  NK_CHECK(offset != kInvalidOffset && offset < region_bytes_);
  return region_ + offset;
}

}  // namespace netkernel::shm
