// Copyright (c) NetKernel reproduction authors.

#include "src/sim/pool.h"

#include <sys/mman.h>

#include <cstdint>
#include <new>

#include "src/common/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define NK_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NK_POOL_ASAN 1
#endif
#endif

#if defined(NK_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23  // Linux 5.14; older C libraries lack the name
#endif

namespace netkernel::sim {
namespace {

constexpr size_t kSmallClasses = kPoolSmallMax / kPoolGranule;
constexpr size_t kClasses = kSmallClasses + kPoolMaxBlock / kPoolPage;

enum class ListState : uint8_t {
  kUnarmed,  // no block parked yet, so nothing to give back at thread exit
  kArmed,    // the reaper is registered
  kGone,     // the thread is exiting: frees bypass the lists
};

// A free block's first word links to the next free block of its class.
struct FreeLists {
  void* head[kClasses];
  ListState state;
};

// Constant-initialized and trivially destructible, so the fast paths touch it
// without a thread-local guard.
thread_local FreeLists tls_lists{};

size_t ClassOf(size_t block) {
  return block <= kPoolSmallMax ? block / kPoolGranule - 1
                                : kSmallClasses + block / kPoolPage - 1;
}

size_t BlockOf(size_t cls) {
  return cls < kSmallClasses ? (cls + 1) * kPoolGranule
                             : (cls - kSmallClasses + 1) * kPoolPage;
}

// Commits the pages a fresh block spans with one call. Prefaulting a page
// leaves its bytes as they are, so the partial pages at either end, which
// other blocks may share, are safe to include. The result is ignored: before
// Linux 5.14 the advice fails with EINVAL and the pages fault in on first
// touch instead.
void Populate(void* p, size_t n) {
  const auto lo = reinterpret_cast<uintptr_t>(p) & ~(kPoolPage - 1);
  const auto hi = (reinterpret_cast<uintptr_t>(p) + n + kPoolPage - 1) & ~(kPoolPage - 1);
  (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_POPULATE_WRITE);
}

// Gives this thread's parked blocks back at thread exit.
struct Reaper {
  ~Reaper() {
    tls_lists.state = ListState::kGone;
    for (size_t c = 0; c < kClasses; ++c) {
      const size_t block = BlockOf(c);
      while (void* p = tls_lists.head[c]) {
        ASAN_UNPOISON_MEMORY_REGION(p, block);
        tls_lists.head[c] = *static_cast<void**>(p);
        ::operator delete(p);
      }
    }
  }
};

void Arm() {
  thread_local Reaper reaper;  // registers its destructor for this thread
  (void)reaper;
  tls_lists.state = ListState::kArmed;
}

}  // namespace

void* PoolAllocate(size_t n) {
  if (n == 0) n = 1;  // a distinct, unpoisoned address
  const size_t block = PoolBlockSize(n);
  if (block == 0) return ::operator new(n);
  void*& head = tls_lists.head[ClassOf(block)];
  void* p = head;
  if (p != nullptr) {
    ASAN_UNPOISON_MEMORY_REGION(p, block);
    head = *static_cast<void**>(p);
  } else {
    p = ::operator new(block);
    if (block > kPoolSmallMax) Populate(p, block);
  }
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(p) + n, block - n);
  return p;
}

void PoolFree(void* p, size_t n) noexcept {
  if (p == nullptr) return;
  const size_t block = PoolBlockSize(n);
  if (block == 0) {
    ::operator delete(p);
    return;
  }
#if defined(NK_POOL_ASAN)
  NK_CHECK_MSG(!__asan_address_is_poisoned(p), "pooled block freed twice");
#endif
  ASAN_UNPOISON_MEMORY_REGION(p, block);  // the slack past `n` too
  if (tls_lists.state != ListState::kArmed) {
    if (tls_lists.state == ListState::kGone) {
      ::operator delete(p);
      return;
    }
    Arm();
  }
  void*& head = tls_lists.head[ClassOf(block)];
  *static_cast<void**>(p) = head;
  head = p;
  ASAN_POISON_MEMORY_REGION(p, block);
}

}  // namespace netkernel::sim
