// Copyright (c) NetKernel reproduction authors.
// Allocation guard for the simulator's hot path: once the event loop's slab,
// heap and same-instant lane have grown to their peak, scheduling and firing
// events with captures of up to 48 bytes (this + a netsim::Packet) performs
// no heap allocation, whether through EventLoop::Schedule or CpuCore::Charge,
// at the current instant or later.
//
// Its own binary, because it replaces the global operator new and delete to
// count calls.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>

#include "src/netsim/packet.h"
#include "src/sim/callback.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"

namespace {
size_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace netkernel::sim {
namespace {

// The largest per-packet capture: Link::Enqueue's [this, packet].
static_assert(sizeof(void*) + sizeof(netsim::Packet) <= 48);

struct HotPath {
  EventLoop loop;
  CpuCore core{&loop, "core"};
  uint64_t sum = 0;
  uint64_t fired = 0;

  // Schedules `n` events with 48-byte captures, a quarter each at Now(),
  // later, as a zero-cycle charge and as a costed charge; every eighth one
  // chains a same-instant follow-up from inside its callback. Then runs them.
  void Round(int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t a = static_cast<uint64_t>(i);
      auto fn = [self = this, a, b = a + 1, c = a + 2, d = a + 3, e = a + 4] {
        self->sum += a + b + c + d + e;
        ++self->fired;
        if (a % 8 == 0) {
          self->loop.ScheduleAfter(0, [self, a, b, c, d, e] {
            self->sum += a ^ b ^ c ^ d ^ e;
            ++self->fired;
          });
        }
      };
      static_assert(sizeof(fn) == 48 && sizeof(fn) <= Callback::kInlineSize);
      switch (i % 4) {
        case 0:
          loop.ScheduleAfter(0, fn);
          break;
        case 1:
          loop.ScheduleAfter(1 + i % 7, fn);
          break;
        case 2:
          core.Charge(0, fn);
          break;
        default:
          core.Charge(100, fn);
          break;
      }
    }
    loop.Run();
  }
};

TEST(SimAlloc, HotPathSchedulesWithoutAllocating) {
  HotPath h;
  h.Round(10000);  // warm-up: grows the slab, the heap and the lane
  const uint64_t fired_before = h.fired;
  const size_t before = g_allocs;
  h.Round(10000);
  const size_t allocs = g_allocs - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(h.fired - fired_before, 10000u + 10000u / 8);
  EXPECT_EQ(h.loop.pending(), 0u);
}

TEST(SimAlloc, PacketCaptureStaysInline) {
  EventLoop loop;
  netsim::Packet pkt;
  pkt.payload = std::make_shared<int>(5);
  int delivered = 0;
  loop.ScheduleAfter(1, [] {});  // grows the slab and the heap
  loop.Run();
  const size_t before = g_allocs;
  loop.ScheduleAfter(3, [p = std::move(pkt), &delivered]() mutable {
    delivered = *std::static_pointer_cast<const int>(p.payload);
  });
  EXPECT_EQ(g_allocs - before, 0u);
  loop.Run();
  EXPECT_EQ(delivered, 5);
}

// Counts its destructions, not those of moved-from husks.
struct Counted {
  int* dtors;
  bool live = true;
  explicit Counted(int* d) : dtors(d) {}
  Counted(Counted&& o) noexcept : dtors(o.dtors), live(std::exchange(o.live, false)) {}
  Counted(const Counted&) = delete;
  ~Counted() {
    if (live) ++*dtors;
  }
};

TEST(SimAlloc, LargeCaptureRunsOnceAndIsDestroyedOnce) {
  EventLoop loop;
  int runs = 0, dtors = 0;
  auto big = [pad = std::array<uint8_t, Callback::kInlineSize>{}, c = Counted(&dtors), &runs] {
    runs += 1 + pad[0];
  };
  static_assert(sizeof(big) > Callback::kInlineSize);
  loop.ScheduleAfter(1, [] {});  // grows the slab and the heap
  loop.Run();
  const size_t before = g_allocs;
  loop.ScheduleAfter(4, std::move(big));
  EXPECT_EQ(g_allocs - before, 1u);  // one box on the heap
  EXPECT_EQ(dtors, 0);
  loop.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(dtors, 1);

  // The same for a cancelled one, in the lane and in the heap.
  int cancelled_dtors = 0;
  EventHandle lane = loop.ScheduleAfter(
      0, [pad = std::array<uint8_t, 64>{}, c = Counted(&cancelled_dtors), &runs] { ++runs; });
  EventHandle heap = loop.ScheduleAfter(
      9, [pad = std::array<uint8_t, 64>{}, c = Counted(&cancelled_dtors), &runs] { ++runs; });
  lane.Cancel();
  heap.Cancel();
  EXPECT_EQ(cancelled_dtors, 2);
  loop.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(cancelled_dtors, 2);
}

TEST(SimAlloc, CallbackMovesAndDestroysEveryKindOnce) {
  int dtors = 0, runs = 0;
  {
    Callback inline_cb = [c = Counted(&dtors), &runs] { ++runs; };
    Callback boxed_cb = [pad = std::array<uint8_t, 64>{}, c = Counted(&dtors), &runs] {
      runs += 10 + pad[0];
    };
    Callback moved(std::move(inline_cb));
    EXPECT_FALSE(inline_cb);  // NOLINT(bugprone-use-after-move)
    moved();
    moved = std::move(boxed_cb);  // destroys the inline callable
    EXPECT_EQ(dtors, 1);
    moved();
    Callback trivial = [&runs] { runs += 100; };
    moved = std::move(trivial);  // destroys the boxed callable
    EXPECT_EQ(dtors, 2);
    moved();
  }
  EXPECT_EQ(runs, 111);
  EXPECT_EQ(dtors, 2);
}

}  // namespace
}  // namespace netkernel::sim
