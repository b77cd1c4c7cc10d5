// Copyright (c) NetKernel reproduction authors.
// Unit tests for the simulation kernel: event loop, coroutines, CPU cores.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"
#include "src/sim/task.h"

namespace netkernel::sim {
namespace {

TEST(EventLoop, ExecutesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(30, [&] { order.push_back(3); });
  loop.Schedule(10, [&] { order.push_back(1); });
  loop.Schedule(20, [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), 30);
}

TEST(EventLoop, FifoAtSameInstant) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(5, [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, RunUntilStopsAtHorizon) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(10, [&] { ++fired; });
  loop.Schedule(100, [&] { ++fired; });
  loop.Run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.Now(), 50);
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, HorizonInThePastNeverMovesClockBackwards) {
  EventLoop loop;
  bool fired = false;
  loop.Schedule(100, [&] { fired = true; });
  loop.Run(50);
  EXPECT_EQ(loop.Now(), 50);
  loop.Run(40);  // already past: nothing runs and the clock stays put
  EXPECT_EQ(loop.Now(), 50);
  EXPECT_FALSE(fired);
  // An event scheduled at Now() still comes after time already simulated.
  SimTime ran_at = -1;
  loop.ScheduleAfter(0, [&] { ran_at = loop.Now(); });
  loop.Run(40);
  EXPECT_EQ(ran_at, -1);  // due at 50, beyond the horizon
  loop.Run();
  EXPECT_EQ(ran_at, 50);
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.Now(), 100);
}

TEST(EventLoop, CancelledEventDoesNotFireNorAdvanceClock) {
  EventLoop loop;
  bool fired = false;
  EventHandle h = loop.Schedule(1000, [&] { fired = true; });
  loop.Schedule(10, [&] {});
  EXPECT_TRUE(h.Pending());
  h.Cancel();
  EXPECT_FALSE(h.Pending());
  loop.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.Now(), 10);  // the cancelled event at t=1000 left no trace
}

TEST(EventLoop, ScheduleFromWithinEvent) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(1, [&] {
    ++count;
    loop.ScheduleAfter(5, [&] { ++count; });
  });
  loop.Run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.Now(), 6);
}

TEST(EventLoop, StopHaltsProcessing) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(1, [&] {
    ++count;
    loop.Stop();
  });
  loop.Schedule(2, [&] { ++count; });
  loop.Run();
  EXPECT_EQ(count, 1);
}

TEST(EventLoop, StaleHandleLeavesSlotReuserAlone) {
  EventLoop loop;
  int a = 0, b = 0, c = 0;
  EventHandle cancelled = loop.Schedule(10, [&] { ++a; });
  cancelled.Cancel();
  EventHandle reuser = loop.Schedule(20, [&] { ++b; });  // takes the freed slot
  cancelled.Cancel();
  EXPECT_FALSE(cancelled.Pending());
  EXPECT_TRUE(reuser.Pending());
  loop.Run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  // The same for a handle whose event fired.
  EventHandle fired = loop.Schedule(30, [&] {});
  loop.Run();
  EventHandle next = loop.Schedule(40, [&] { ++c; });
  fired.Cancel();
  EXPECT_FALSE(fired.Pending());
  EXPECT_TRUE(next.Pending());
  loop.Run();
  EXPECT_EQ(c, 1);
}

TEST(EventLoop, HandleIsNotPendingInsideItsOwnCallback) {
  EventLoop loop;
  EventHandle h;
  bool pending_inside = true;
  h = loop.Schedule(10, [&] {
    pending_inside = h.Pending();
    h.Cancel();  // a no-op on the running event
  });
  loop.Run();
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(loop.events_executed(), 1u);
}

TEST(EventLoop, CancelledEventBeyondHorizonStillParksClockThere) {
  EventLoop loop;
  loop.Schedule(10, [] {});
  loop.Schedule(100, [] {}).Cancel();
  loop.Run(50);
  EXPECT_EQ(loop.Now(), 50);
}

TEST(EventLoop, StopBeforeCancelledEventKeepsItQueued) {
  EventLoop loop;
  loop.Schedule(10, [&] { loop.Stop(); });
  loop.Schedule(100, [] {}).Cancel();
  loop.Run(150);  // stops at 10, before the loop reaches the cancelled event
  EXPECT_EQ(loop.Now(), 10);
  loop.Run(50);
  EXPECT_EQ(loop.Now(), 50);
}

TEST(EventLoop, DrainedCancelledEventNoLongerParksClock) {
  EventLoop loop;
  loop.Schedule(100, [] {}).Cancel();
  loop.Run();  // runs past the cancelled event without moving the clock
  EXPECT_EQ(loop.Now(), 0);
  loop.Schedule(10, [] {});
  loop.Run(50);
  EXPECT_EQ(loop.Now(), 10);
}

TEST(EventLoop, CancelReleasesCapturesAtOnce) {
  EventLoop loop;
  auto capture = std::make_shared<int>(0);
  EventHandle h = loop.Schedule(10, [capture] {});
  EXPECT_EQ(capture.use_count(), 2);
  h.Cancel();
  EXPECT_EQ(capture.use_count(), 1);
}

// A capture's destructor may re-enter the loop: Cancel destroys the callable
// only once the slab is consistent, even when the re-entrant Schedule grows
// the slab.
TEST(EventLoop, CaptureDestructorMayScheduleDuringCancel) {
  struct ScheduleOnDestroy {
    EventLoop* loop;
    int* fired;
    ~ScheduleOnDestroy() {
      loop->Schedule(5, [f = fired] { ++*f; });
    }
  };
  EventLoop loop;
  int fired = 0;
  auto hook = std::make_shared<ScheduleOnDestroy>(&loop, &fired);
  EventHandle h = loop.Schedule(10, [hook] {});
  hook.reset();  // the event now holds the only reference
  h.Cancel();
  loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.Now(), 5);
}

TEST(EventLoop, RearmedTimerKeepsQueueAtLiveEvents) {
  EventLoop loop;
  int fired = 0;
  EventHandle timer;
  size_t max_pending = 0;
  constexpr int kRearms = 1000000;
  for (int i = 0; i < kRearms; ++i) {
    timer.Cancel();
    timer = loop.Schedule(1000 + i, [&] { ++fired; });
    max_pending = std::max(max_pending, loop.pending());
  }
  EXPECT_EQ(max_pending, 1u);
  loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.Now(), 1000 + kRearms - 1);
  EXPECT_EQ(loop.pending(), 0u);
}

// ---------------------------------------------------------------------------
// The same-instant lane and sim::Callback
// ---------------------------------------------------------------------------

// Events scheduled for Now() take the lane, later ones the heap; events due
// at one instant still fire in seq order across the two.
TEST(EventLoop, LaneAndHeapEventsAtOneInstantFireInSeqOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(10, [&] {
    order.push_back(1);
    loop.ScheduleAfter(0, [&] {  // scheduled after event 2: fires after it
      order.push_back(3);
      loop.ScheduleAfter(0, [&] { order.push_back(5); });
    });
    loop.Schedule(11, [&] { order.push_back(6); });
  });
  loop.Schedule(10, [&] {
    order.push_back(2);
    loop.ScheduleAfter(0, [&] { order.push_back(4); });
  });
  loop.ScheduleAfter(0, [&] { order.push_back(0); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(loop.Now(), 11);
}

TEST(EventLoop, CancelledLaneEventReleasesCapturesAtOnce) {
  EventLoop loop;
  auto capture = std::make_shared<int>(0);
  bool fired = false;
  loop.Schedule(5, [] {});
  EventHandle h = loop.ScheduleAfter(0, [capture, &fired] { fired = true; });
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(capture.use_count(), 2);
  h.Cancel();
  EXPECT_FALSE(h.Pending());
  EXPECT_EQ(capture.use_count(), 1);
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run(3);
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.Now(), 3);  // the heap event at 5 is still queued
  loop.Run();
  EXPECT_EQ(loop.events_executed(), 1u);
  EXPECT_EQ(loop.pending(), 0u);
}

// The clock rule holds for lane events: a cancelled one sits at the current
// instant, so the loop runs past it, and it never displaces a later
// cancelled position that still parks the clock.
TEST(EventLoop, CancelledLaneEventKeepsTheClockRule) {
  EventLoop loop;
  EventHandle lane;
  loop.Schedule(10, [&] {
    lane = loop.ScheduleAfter(0, [] {});
    loop.Stop();
  });
  loop.Run(150);  // stops at 10 with the lane event still queued
  EXPECT_EQ(loop.Now(), 10);
  EXPECT_EQ(loop.pending(), 1u);
  lane.Cancel();
  EXPECT_EQ(loop.pending(), 0u);
  loop.Run(50);  // runs past the cancelled lane event; nothing is left
  EXPECT_EQ(loop.Now(), 10);

  loop.Schedule(100, [] {}).Cancel();
  loop.ScheduleAfter(0, [] {}).Cancel();
  loop.Run(60);  // the cancelled event at 100 still parks the clock at 60
  EXPECT_EQ(loop.Now(), 60);
}

TEST(EventLoop, SlotReusedAfterCancelledLaneEventIsNotMistakenForIt) {
  EventLoop loop;
  std::vector<int> order;
  EventHandle cancelled = loop.ScheduleAfter(0, [&] { order.push_back(-1); });
  cancelled.Cancel();  // its key stays in the lane as a tombstone
  EventHandle later = loop.ScheduleAfter(7, [&] { order.push_back(2); });  // reuses the slot
  EventHandle now = loop.ScheduleAfter(0, [&] { order.push_back(1); });
  EXPECT_FALSE(cancelled.Pending());
  EXPECT_TRUE(later.Pending());
  EXPECT_TRUE(now.Pending());
  EXPECT_EQ(loop.pending(), 2u);
  loop.RunUntilIdleAtNow();  // skips the tombstone, fires only `now`
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(loop.Now(), 0);
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.Now(), 7);

  // A lane slot reused by a lane event of the same instant.
  EventHandle first = loop.ScheduleAfter(0, [&] { order.push_back(-2); });
  first.Cancel();
  loop.ScheduleAfter(0, [&] { order.push_back(3); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.events_executed(), 3u);
}

TEST(EventLoop, MoveOnlyCapturesScheduleAndFire) {
  EventLoop loop;
  CpuCore core(&loop, "c0");
  int got = 0;
  loop.ScheduleAfter(0, [p = std::make_unique<int>(1), &got] { got += *p; });
  loop.ScheduleAfter(5, [p = std::make_unique<int>(10), &got] { got += *p; });
  core.Charge(100, [p = std::make_unique<int>(100), &got] { got += *p; });
  loop.Run();
  EXPECT_EQ(got, 111);
}

// Random schedules with many ties, cancels from outside and inside callbacks,
// stops and horizon-limited runs match a reference queue that keeps cancelled
// events until it passes them: events fire in (at, seq) order, and each
// Run(until) leaves the clock where that queue would. The events are sparse,
// so a horizon often has only cancelled events beyond it. About a third of
// the events are scheduled with zero delay, from callbacks and between runs,
// so the same-instant lane sees cancels and stops at the current instant.
TEST(EventLoop, RandomScheduleMatchesReferenceQueue) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    EventLoop loop;
    Rng rng(seed);
    struct Ref {
      int id;
      bool cancelled;
    };
    std::map<std::pair<SimTime, uint64_t>, Ref> ref;  // ordered by (at, seq)
    std::vector<EventHandle> handles;
    std::vector<std::pair<SimTime, uint64_t>> keys;
    std::vector<int> fired, expected;
    SimTime expected_now = 0;
    uint64_t seq = 0;
    size_t zero_delay = 0;
    bool stopped = false;
    auto cancel_random = [&] {
      int victim = static_cast<int>(rng.NextBounded(handles.size()));
      if (handles[victim].Pending()) ref.at(keys[victim]).cancelled = true;
      handles[victim].Cancel();
    };
    std::function<void(SimTime)> schedule = [&](SimTime at) {
      int id = static_cast<int>(handles.size());
      if (at == loop.Now()) ++zero_delay;
      keys.push_back({at, seq});
      ref[{at, seq++}] = Ref{id, false};
      handles.push_back(loop.Schedule(at, [&, id] {
        while (ref.begin()->second.cancelled) ref.erase(ref.begin());
        expected.push_back(ref.begin()->second.id);
        expected_now = ref.begin()->first.first;
        ref.erase(ref.begin());
        fired.push_back(id);
        if (rng.NextBounded(2) == 0) {
          schedule(loop.Now() +
                   (rng.NextBounded(3) == 0 ? static_cast<SimTime>(rng.NextBounded(40)) : 0));
        }
        if (rng.NextBounded(3) == 0) cancel_random();
        if (rng.NextBounded(16) == 0) {
          loop.Stop();
          stopped = true;
        }
      }));
    };
    for (int i = 0; i < 300; ++i) schedule(static_cast<SimTime>(rng.NextBounded(1000)));
    for (int i = 0; i < 100; ++i) cancel_random();
    for (SimTime until = 0; until < 1100; until += 7) {
      if (rng.NextBounded(2) == 0) schedule(loop.Now());
      if (rng.NextBounded(4) == 0) cancel_random();
      loop.Run(until);
      if (!stopped) {
        while (!ref.empty() && ref.begin()->first.first <= until) {
          EXPECT_TRUE(ref.begin()->second.cancelled);
          ref.erase(ref.begin());
        }
        if (!ref.empty()) expected_now = until;
      }
      stopped = false;
      ASSERT_EQ(loop.Now(), expected_now) << "after Run(" << until << ")";
      size_t live = 0;
      for (const auto& [key, r] : ref) live += r.cancelled ? 0 : 1;
      EXPECT_EQ(loop.pending(), live);
    }
    while (loop.pending() > 0) loop.Run();
    EXPECT_EQ(fired, expected);
    EXPECT_GT(fired.size(), 150u);
    EXPECT_GT(4 * zero_delay, handles.size()) << "fewer than a quarter at zero delay";
  }
}

// ---------------------------------------------------------------------------
// Coroutines
// ---------------------------------------------------------------------------

Task<int> ReturnForty() { co_return 40; }

Task<int> AddTwo() {
  int x = co_await ReturnForty();
  co_return x + 2;
}

TEST(Task, NestedAwaitReturnsValue) {
  EventLoop loop;
  int result = 0;
  auto run = [&]() -> Task<void> {
    result = co_await AddTwo();
  };
  Spawn(run());
  loop.Run();
  EXPECT_EQ(result, 42);
}

TEST(Task, DelayAdvancesVirtualTime) {
  EventLoop loop;
  SimTime when = -1;
  auto run = [&]() -> Task<void> {
    co_await Delay(&loop, 7 * kMicrosecond);
    when = loop.Now();
  };
  Spawn(run());
  loop.Run();
  EXPECT_EQ(when, 7 * kMicrosecond);
}

TEST(Task, ZeroDelayIsImmediate) {
  EventLoop loop;
  bool ran = false;
  auto run = [&]() -> Task<void> {
    co_await Delay(&loop, 0);
    ran = true;
  };
  Spawn(run());
  // Zero delay does not even need the loop.
  EXPECT_TRUE(ran);
}

TEST(SimEvent, NotifyAllWakesEveryWaiter) {
  EventLoop loop;
  SimEvent ev(&loop);
  int woke = 0;
  auto waiter = [&]() -> Task<void> {
    co_await ev.Wait();
    ++woke;
  };
  for (int i = 0; i < 5; ++i) Spawn(waiter());
  loop.Run();
  EXPECT_EQ(woke, 0);
  ev.NotifyAll();
  loop.Run();
  EXPECT_EQ(woke, 5);
}

TEST(SimEvent, NotifyOneWakesOne) {
  EventLoop loop;
  SimEvent ev(&loop);
  int woke = 0;
  auto waiter = [&]() -> Task<void> {
    co_await ev.Wait();
    ++woke;
  };
  Spawn(waiter());
  Spawn(waiter());
  ev.NotifyOne();
  loop.Run();
  EXPECT_EQ(woke, 1);
  ev.NotifyOne();
  loop.Run();
  EXPECT_EQ(woke, 2);
}

TEST(SimEvent, SequentialWaitNotifyCycles) {
  EventLoop loop;
  SimEvent ev(&loop);
  int rounds = 0;
  auto waiter = [&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await ev.Wait();
      ++rounds;
    }
  };
  Spawn(waiter());
  for (int i = 0; i < 3; ++i) {
    ev.NotifyAll();
    loop.Run();
  }
  EXPECT_EQ(rounds, 3);
}

// ---------------------------------------------------------------------------
// CPU cores
// ---------------------------------------------------------------------------

TEST(CpuCore, WorkTakesCycleTime) {
  EventLoop loop;
  CpuCore core(&loop, "c0", 1e9);  // 1 GHz: 1 cycle = 1 ns
  SimTime done = -1;
  auto run = [&]() -> Task<void> {
    co_await core.Work(1000);
    done = loop.Now();
  };
  Spawn(run());
  loop.Run();
  EXPECT_EQ(done, 1000);
  EXPECT_EQ(core.busy_cycles(), 1000u);
}

TEST(CpuCore, SerializesFifo) {
  EventLoop loop;
  CpuCore core(&loop, "c0", 1e9);
  std::vector<std::pair<int, SimTime>> done;
  core.Charge(100, [&] { done.push_back({1, loop.Now()}); });
  core.Charge(50, [&] { done.push_back({2, loop.Now()}); });
  loop.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, 1);
  EXPECT_EQ(done[0].second, 100);
  EXPECT_EQ(done[1].first, 2);
  EXPECT_EQ(done[1].second, 150);  // queued behind the first
}

TEST(CpuCore, IdleGapsDoNotAccumulate) {
  EventLoop loop;
  CpuCore core(&loop, "c0", 1e9);
  SimTime end = -1;
  loop.Schedule(1000, [&] { core.Charge(10, [&] { end = loop.Now(); }); });
  loop.Run();
  EXPECT_EQ(end, 1010);
  EXPECT_EQ(core.busy_cycles(), 10u);
}

TEST(CpuCore, UtilizationAccounting) {
  EventLoop loop;
  CpuCore core(&loop, "c0", 1e9);
  core.Charge(500, [] {});
  loop.Run();
  EXPECT_NEAR(core.Utilization(1000), 0.5, 1e-9);
  core.ResetAccounting();
  EXPECT_EQ(core.busy_cycles(), 0u);
}

TEST(CpuCore, ZeroCostChargeRunsAtIdlePoint) {
  EventLoop loop;
  CpuCore core(&loop, "c0", 1e9);
  SimTime when = -1;
  core.Charge(100, [] {});
  core.Charge(0, [&] { when = loop.Now(); });
  loop.Run();
  EXPECT_EQ(when, 100);
}

TEST(SimMutex, SerializesAcrossCores) {
  EventLoop loop;
  CpuCore a(&loop, "a", 1e9), b(&loop, "b", 1e9);
  SimMutex mu(&loop, 1e9);
  // Both cores grab the lock at t=0, each holding 100 cycles.
  SimTime ra = mu.Acquire(&a, 100);
  SimTime rb = mu.Acquire(&b, 100);
  EXPECT_EQ(ra, 100);
  EXPECT_EQ(rb, 200);  // waited for a
  // Core b burned its spin time.
  EXPECT_EQ(b.busy_cycles(), 200u);
}

TEST(SimMutex, UncontendedIsCheap) {
  EventLoop loop;
  CpuCore a(&loop, "a", 1e9);
  SimMutex mu(&loop, 1e9);
  SimTime r1 = mu.Acquire(&a, 50);
  EXPECT_EQ(r1, 50);
  loop.Schedule(1000, [] {});
  loop.Run();
  SimTime r2 = mu.Acquire(&a, 50);
  EXPECT_EQ(r2, 1050);
  EXPECT_EQ(a.busy_cycles(), 100u);
}

// Property: N cores hammering a mutex see Universal-Scalability-style
// serialization: total completion time >= N * hold.
class SimMutexScalingTest : public ::testing::TestWithParam<int> {};

TEST_P(SimMutexScalingTest, TotalHoldTimeSerializes) {
  int n = GetParam();
  EventLoop loop;
  std::vector<std::unique_ptr<CpuCore>> cores;
  for (int i = 0; i < n; ++i) {
    cores.push_back(std::make_unique<CpuCore>(&loop, "c", 1e9));
  }
  SimMutex mu(&loop, 1e9);
  SimTime last = 0;
  for (int i = 0; i < n; ++i) last = mu.Acquire(cores[i].get(), 100);
  EXPECT_EQ(last, static_cast<SimTime>(100) * n);
}

INSTANTIATE_TEST_SUITE_P(Cores, SimMutexScalingTest, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace netkernel::sim
