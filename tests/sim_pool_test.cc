// Copyright (c) NetKernel reproduction authors.
// Contracts of the simulator's pool (src/sim/pool.h) and its
// allocation-free FIFO (src/sim/fifo.h).
//
// Its own binary, because it replaces the global operator new and delete to
// count calls. The two-thread pool case also runs under ThreadSanitizer, and
// the poisoning cases only under AddressSanitizer.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/fifo.h"
#include "src/sim/pool.h"

namespace {
std::atomic<size_t> g_news{0};
std::atomic<size_t> g_deletes{0};
}  // namespace

// Kept out of line, so GCC never sees malloc() and free() meet the other
// side's operator inlined and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

namespace netkernel::sim {
namespace {

size_t News() { return g_news.load(std::memory_order_relaxed); }
size_t Deletes() { return g_deletes.load(std::memory_order_relaxed); }

// ---- Pool ------------------------------------------------------------------

TEST(SimPool, RoundsRequestsUpToSizeClasses) {
  EXPECT_EQ(PoolBlockSize(0), 64u);
  EXPECT_EQ(PoolBlockSize(1), 64u);
  EXPECT_EQ(PoolBlockSize(64), 64u);
  EXPECT_EQ(PoolBlockSize(65), 128u);
  EXPECT_EQ(PoolBlockSize(1000), 1024u);
  EXPECT_EQ(PoolBlockSize(2048), 2048u);
  // Past 2 KiB the classes are whole pages, up to 64 KiB.
  EXPECT_EQ(PoolBlockSize(2049), 4096u);
  EXPECT_EQ(PoolBlockSize(4096), 4096u);
  EXPECT_EQ(PoolBlockSize(4097), 8192u);
  EXPECT_EQ(PoolBlockSize(16 * 1024), 16u * 1024);
  EXPECT_EQ(PoolBlockSize(kPoolMaxBlock), kPoolMaxBlock);
  EXPECT_EQ(PoolBlockSize(kPoolMaxBlock + 1), 0u);  // bypasses the free lists
}

TEST(SimPool, ReusesFreedBlocksLastInFirstOutWithinAClass) {
  void* a = PoolAllocate(1100);  // both in the 1152-byte class, which no
  void* b = PoolAllocate(1150);  // other test in this binary touches
  PoolFree(a, 1100);
  PoolFree(b, 1150);
  const size_t news = News();
  EXPECT_EQ(PoolAllocate(1101), b);  // the most recently freed first
  EXPECT_EQ(PoolAllocate(1152), a);
  EXPECT_EQ(News(), news);
  // Another class does not take them: with its list empty, it allocates.
  void* c = PoolAllocate(1153);
  EXPECT_EQ(News(), news + 1);
  PoolFree(c, 1153);
  PoolFree(a, 1152);
  PoolFree(b, 1101);
}

TEST(SimPool, FreedBlocksStayWithThePoolUntilReused) {
  void* p = PoolAllocate(1800);
  const size_t deletes = Deletes();
  PoolFree(p, 1800);
  EXPECT_EQ(Deletes(), deletes);  // parked, not deleted
  const size_t news = News();
  void* q = PoolAllocate(1800);
  EXPECT_EQ(q, p);
  EXPECT_EQ(News(), news);
  PoolFree(q, 1800);
}

TEST(SimPool, PageClassesReuseFreedBlocksLastInFirstOut) {
  void* a = PoolAllocate(5000);  // both in the 8 KiB class, which no other
  void* b = PoolAllocate(8192);  // test in this binary touches
  const size_t deletes = Deletes();
  PoolFree(a, 5000);
  PoolFree(b, 8192);
  EXPECT_EQ(Deletes(), deletes);  // parked, not deleted
  const size_t news = News();
  EXPECT_EQ(PoolAllocate(4097), b);
  EXPECT_EQ(PoolAllocate(6000), a);
  EXPECT_EQ(News(), news);
  PoolFree(a, 6000);
  PoolFree(b, 4097);
}

// A page-class block taken fresh from operator new is committed before its
// first write, so touching it takes no page fault. Several are held at once,
// so at least the later ones are memory the heap had not touched before.
TEST(SimPool, FreshPageClassBlocksAreResidentBeforeTheirFirstWrite) {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  constexpr int kBlocks = 8;
  constexpr size_t kSize = 60 * 1024;  // the 60 KiB class, used nowhere else
  std::vector<void*> blocks;
  blocks.reserve(kBlocks);
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(PoolAllocate(kSize));
  for (void* p : blocks) {
    const uintptr_t begin = reinterpret_cast<uintptr_t>(p) & ~(page - 1);
    const uintptr_t end = reinterpret_cast<uintptr_t>(p) + kSize;
    std::vector<unsigned char> vec((end - begin + page - 1) / page);
    ASSERT_EQ(mincore(reinterpret_cast<void*>(begin), end - begin, vec.data()), 0);
    size_t resident = 0;
    for (unsigned char v : vec) resident += v & 1;
    EXPECT_EQ(resident, vec.size());
  }
  for (void* p : blocks) PoolFree(p, kSize);
}

TEST(SimPool, LargeRequestsGoStraightToOperatorNewAndDelete) {
  const size_t news = News();
  const size_t deletes = Deletes();
  void* p = PoolAllocate(kPoolMaxBlock + 1);
  EXPECT_EQ(News(), news + 1);
  PoolFree(p, kPoolMaxBlock + 1);
  EXPECT_EQ(Deletes(), deletes + 1);  // not parked
  void* q = PoolAllocate(4 * kPoolMaxBlock);
  EXPECT_EQ(News(), news + 2);
  PoolFree(q, 4 * kPoolMaxBlock);
  EXPECT_EQ(Deletes(), deletes + 2);
}

TEST(SimPool, MakePooledObjectsShareOneBlockWithTheirControlBlock) {
  struct Obj {
    uint64_t words[10] = {};
  };
  { auto warm = MakePooled<Obj>(); }
  const size_t news = News();
  for (int i = 0; i < 100; ++i) {
    std::shared_ptr<Obj> o = MakePooled<Obj>();
    o->words[9] = static_cast<uint64_t>(i);
    std::shared_ptr<const void> erased = o;  // the type-erased form packets carry
  }
  EXPECT_EQ(News(), news);
}

// A block allocated on one thread may be freed on another: it joins the
// freeing thread's lists, which that thread reuses and, at its exit, gives
// back to operator delete. Nothing is shared between the threads' lists.
TEST(SimPool, BlockFreedOnAnotherThreadIsSafe) {
  constexpr int kBlocks = 64;
  constexpr size_t kSize = 1900;  // a class no other test here touches
  std::vector<uint64_t*> blocks;
  blocks.reserve(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    auto* p = static_cast<uint64_t*>(PoolAllocate(kSize));
    p[0] = static_cast<uint64_t>(i);
    blocks.push_back(p);
  }
  const size_t deletes = Deletes();
  uint64_t sum = 0;
  size_t reused = 0;
  std::thread freer([&] {
    for (uint64_t* p : blocks) {
      sum += p[0];
      PoolFree(p, kSize);
    }
    // This thread's own list now holds the blocks: it reuses them.
    std::vector<void*> again;
    again.reserve(kBlocks);
    for (int i = 0; i < kBlocks; ++i) again.push_back(PoolAllocate(kSize));
    for (void* p : again) {
      for (uint64_t* b : blocks) reused += p == b ? 1 : 0;
    }
    for (void* p : again) PoolFree(p, kSize);
  });
  freer.join();
  EXPECT_EQ(sum, static_cast<uint64_t>(kBlocks * (kBlocks - 1) / 2));
  EXPECT_EQ(reused, static_cast<size_t>(kBlocks));
  // The freeing thread's exit returned every block it held.
  EXPECT_GE(Deletes(), deletes + kBlocks);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(SimPoolDeathTest, ReadOfAFreedPooledBlockIsReported) {
  EXPECT_DEATH(
      {
        auto* p = static_cast<volatile char*>(PoolAllocate(64));
        p[8] = 1;
        PoolFree(const_cast<char*>(p), 64);
        std::fprintf(stderr, "%d\n", p[8]);
      },
      "use-after-poison");
}

TEST(SimPoolDeathTest, ReadOfAFreedPageClassBlockIsReported) {
  EXPECT_DEATH(
      {
        auto* p = static_cast<volatile char*>(PoolAllocate(12 * 1024));
        p[9000] = 1;
        PoolFree(const_cast<char*>(p), 12 * 1024);
        std::fprintf(stderr, "%d\n", p[9000]);
      },
      "use-after-poison");
}

TEST(SimPoolDeathTest, DoubleFreeTripsTheCheck) {
  EXPECT_DEATH(
      {
        void* p = PoolAllocate(64);
        PoolFree(p, 64);
        PoolFree(p, 64);
      },
      "pooled block freed twice");
}
#endif

// ---- Fifo ------------------------------------------------------------------

TEST(SimFifo, AllocatesNothingWhileEmptyOrOnceGrown) {
  size_t news = News();
  Fifo<uint64_t> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(News(), news);
  for (uint64_t i = 0; i < 100; ++i) q.push_back(i);
  while (!q.empty()) q.pop_front();
  news = News();
  for (int round = 0; round < 10; ++round) {
    for (uint64_t i = 0; i < 100; ++i) q.push_back(i);
    for (uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(q.front(), i);
      q.pop_front();
    }
  }
  EXPECT_EQ(News(), news);  // a drained queue keeps its capacity
}

TEST(SimFifo, HoldsMoveOnlyElements) {
  Fifo<std::unique_ptr<int>> q;
  for (int i = 0; i < 5; ++i) q.push_back(std::make_unique<int>(i));
  q.emplace_back(new int(5));
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(*q.back(), 5);
  for (int i = 0; i < 6; ++i) {
    std::unique_ptr<int> p = std::move(q.front());
    q.pop_front();
    EXPECT_EQ(*p, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(SimFifo, KeepsOrderAcrossCompactionAgainstADeque) {
  Fifo<uint64_t> q;
  std::deque<uint64_t> ref;
  Rng rng(7);
  uint64_t next = 0;
  size_t max_backlog = 0;
  for (int op = 0; op < 20000; ++op) {
    // Pushes slightly outnumber pops, so the queue rarely drains and the
    // drained prefix has to be compacted away.
    if (ref.empty() || rng.NextBounded(100) < 52) {
      q.push_back(next);
      ref.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(q.front(), ref.front());
      q.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(q.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(q.back(), ref.back());
      size_t i = rng.NextBounded(ref.size());
      ASSERT_EQ(q[i], ref[i]);
    }
    max_backlog = std::max(max_backlog, ref.size());
  }
  size_t i = 0;
  for (uint64_t v : q) ASSERT_EQ(v, ref[i++]);
  EXPECT_EQ(i, ref.size());
  // Compaction bounds the vector by the backlog, not by the pushes.
  EXPECT_LE(q.capacity(), 4 * max_backlog);
  EXPECT_LT(q.capacity(), static_cast<size_t>(next));
}

TEST(SimFifo, ClearAndSwap) {
  Fifo<int> a, b;
  for (int i = 0; i < 4; ++i) a.push_back(i);
  a.pop_front();
  b.push_back(10);
  a.swap(b);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.front(), 10);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.front(), 1);
  EXPECT_EQ(b[2], 3);
  b.clear();
  EXPECT_TRUE(b.empty());
  b.push_back(7);
  EXPECT_EQ(b.front(), 7);
  Fifo<int> c(std::move(a));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.front(), 10);
}

// Counts constructions and destructions of live values, not of moved-from
// husks.
struct Tracked {
  static inline int live = 0;
  static inline int destroyed = 0;
  int v = 0;
  bool owns = false;
  explicit Tracked(int x) : v(x), owns(true) { ++live; }
  Tracked(Tracked&& o) noexcept : v(o.v), owns(std::exchange(o.owns, false)) {}
  Tracked& operator=(Tracked&& o) noexcept {
    if (this != &o) {
      Drop();
      v = o.v;
      owns = std::exchange(o.owns, false);
    }
    return *this;
  }
  ~Tracked() { Drop(); }
  void Drop() {
    if (owns) {
      owns = false;
      --live;
      ++destroyed;
    }
  }
};

TEST(SimFifo, DestroysEveryElementExactlyOnce) {
  Tracked::live = 0;
  Tracked::destroyed = 0;
  int made = 0;
  {
    Fifo<Tracked> q;
    Rng rng(11);
    for (int op = 0; op < 5000; ++op) {
      uint64_t r = rng.NextBounded(100);
      if (r < 55) {
        q.emplace_back(made++);
      } else if (r < 99) {
        if (q.empty()) continue;
        const int before = Tracked::destroyed;
        q.pop_front();
        EXPECT_EQ(Tracked::destroyed, before + 1);  // destroyed at once
      } else {
        q.clear();
      }
      ASSERT_EQ(Tracked::live, static_cast<int>(q.size()));
    }
    Fifo<Tracked> other;
    other.swap(q);
    ASSERT_EQ(Tracked::live, static_cast<int>(other.size()));
  }
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(Tracked::destroyed, made);
}

}  // namespace
}  // namespace netkernel::sim
