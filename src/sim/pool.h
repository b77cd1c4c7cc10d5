// Copyright (c) NetKernel reproduction authors.
// sim pool: size-class free lists for the simulator's heap objects whose
// lifetimes churn with the traffic: coroutine frames (one per spawned or
// awaited Task), tcp::Segment and udp::Datagram (one per packet), and the
// refcounted TCP payload blocks (tcp::Block: a small header, and bytes in a
// page class when the send is bulk).
//
// Size classes. A request of up to kPoolSmallMax (2 KiB) bytes is rounded up
// to a multiple of kPoolGranule (64 B); a larger one, up to kPoolMaxBlock
// (64 KiB), to a multiple of kPoolPage (4 KiB). Each class has its own free
// list; a freed block goes back on it, and the next request of the class
// takes the most recently freed block first (LIFO, so it is likely still in
// cache). Coroutine frames, segments and datagrams cluster in a few small
// classes and payload blocks in a few page classes, so after warm-up nearly
// every request is a list pop. Larger requests go straight to ::operator new
// and come back through ::operator delete.
//
// Fresh page-class blocks. A page-class block the pool takes fresh from
// ::operator new is committed with one madvise(MADV_POPULATE_WRITE) over the
// whole pages it spans, instead of one page fault per 4 KiB on first touch.
// Kernels before Linux 5.14 reject the advice (EINVAL); the pages then fault
// in on first touch.
//
// thread_local. Each thread has its own free lists, so threads share nothing
// through the pool and need no lock: a block may be freed on another thread
// than the one that allocated it, and simply joins the freeing thread's list.
// A thread's lists are given back to ::operator delete when it exits; a
// block freed after that (by a static destructor, say) goes straight to
// ::operator delete too.
//
// One allocation per block. Every block is its own ::operator new call, never
// a slice of a larger slab. The pool only keeps freed blocks for reuse, so
// ASan still bounds-checks each object on its own and LeakSanitizer still
// reports a leaked object (a frame nobody destroys) as the object it is.
//
// AddressSanitizer. While a block sits on a free list it is poisoned
// (ASAN_POISON_MEMORY_REGION), so a read or write through a dangling pointer
// is reported as use-after-poison, and freeing a block that is already
// poisoned, a double free, fails an NK_CHECK. The slack between the size
// asked for and the block size stays poisoned while the block is in use. In
// other builds the poisoning compiles to nothing.

#ifndef SRC_SIM_POOL_H_
#define SRC_SIM_POOL_H_

#include <cstddef>
#include <memory>
#include <utility>

namespace netkernel::sim {

inline constexpr size_t kPoolGranule = 64;
inline constexpr size_t kPoolSmallMax = 2048;
inline constexpr size_t kPoolPage = 4096;
inline constexpr size_t kPoolMaxBlock = 64 * 1024;

// The block size a request of `n` bytes is served from, or 0 when the
// request bypasses the free lists (n > kPoolMaxBlock).
constexpr size_t PoolBlockSize(size_t n) {
  if (n > kPoolMaxBlock) return 0;
  if (n > kPoolSmallMax) return (n + kPoolPage - 1) / kPoolPage * kPoolPage;
  return n == 0 ? kPoolGranule : (n + kPoolGranule - 1) / kPoolGranule * kPoolGranule;
}

// Returns at least `n` bytes aligned for any fundamental type.
void* PoolAllocate(size_t n);
// Returns a block from PoolAllocate(n); `n` must be the size it was asked for.
void PoolFree(void* p, size_t n) noexcept;

// A std allocator over the pool, for std::allocate_shared: the object and
// its control block then come from one pooled block.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(size_t n) { return static_cast<T*>(PoolAllocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) noexcept { PoolFree(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T, typename... Args>
std::shared_ptr<T> MakePooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>(), std::forward<Args>(args)...);
}

}  // namespace netkernel::sim

#endif  // SRC_SIM_POOL_H_
