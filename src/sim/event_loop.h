// Copyright (c) NetKernel reproduction authors.
// Discrete-event simulation core: a virtual clock and an ordered event queue.
//
// The entire macro-level evaluation (hosts, vCPUs, NICs, TCP stacks, NetKernel
// datapath) runs single-threaded on one EventLoop, which makes every bench
// deterministic. Events fire in (at, seq) order: by virtual time, and events
// scheduled for the same instant in the order they were scheduled.
//
// Layout. Each scheduled callable lives in a slot of a slab (a vector reused
// through a free list). A callable is a sim::Callback, which holds captures
// of up to Callback::kInlineSize (56) bytes inline, so the slab owns every
// hot event's state and scheduling one allocates nothing. Slots are ordered
// by small plain keys {at, seq, slot} in one of two places:
//   * the same-instant lane, a FIFO of the keys of events scheduled for
//     Now() (doorbells, wakes, zero-cycle charges: a quarter to a third of
//     all events). It is a sim::Fifo, which keeps its capacity across
//     instants, so it too stops allocating once it has grown to the largest
//     burst of one instant;
//   * a binary heap for everything later. Each heap slot records where its
//     key sits, so Cancel takes the key out at once.
// Step pops whichever of the lane front and the heap top comes first in
// (at, seq). Cancel destroys the callable at once either way. A cancelled
// lane event leaves its key behind as a tombstone, which the lane skips when
// it reaches it: the slot records the seq of the event it holds, so a key
// whose seq no longer matches its slot (freed, or reused by a later event)
// is dead. pending() counts live events only.
//
// Generations. A slot's generation advances every time the slot is freed
// (its event fired or was cancelled), and an EventHandle is the triple
// {loop, slot, generation}. The handle is pending while the slot still has
// its generation. A handle kept past its event therefore reads not-pending
// and its Cancel does nothing, even after a later event reuses the slot.
// A handle holds a raw pointer to its loop: it must not outlive the loop.
//
// The Run(until) clock rule. Run(until) leaves the clock at `until` when it
// stops because the next queued event lies beyond `until`, and a cancelled
// event counts as queued until the loop runs past its (at, seq) position.
// So cancelling the only event beyond `until` does not change where the clock
// comes to rest. Only the latest such cancelled position can decide that, so
// the loop keeps that one position instead of the cancelled keys. Lane and
// heap events follow the same rule. The clock never moves backwards: a
// `until` earlier than Now() leaves it where it is.

#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/units.h"
#include "src/sim/callback.h"
#include "src/sim/fifo.h"

namespace netkernel::sim {

class EventLoop;

// Cancellation handle for a scheduled event. Default-constructed handles are
// inert. Cancelling an event that already fired or was cancelled is a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  void Cancel();
  bool Pending() const;

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, uint32_t slot, uint32_t generation)
      : loop_(loop), slot_(slot), generation_(generation) {}
  EventLoop* loop_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t generation_ = 0;
};

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute virtual time `at` (>= Now()). `fn` is any
  // void() callable (or a sim::Callback), built straight into its slab slot.
  template <typename F>
  EventHandle Schedule(SimTime at, F&& fn) {
    const uint32_t slot = TakeSlot(at);
    slab_[slot].fn.Assign(std::forward<F>(fn));
    return Enqueue(at, slot);
  }

  // Schedules `fn` after `delay` nanoseconds of virtual time.
  template <typename F>
  EventHandle ScheduleAfter(SimTime delay, F&& fn) {
    return Schedule(now_ + delay, std::forward<F>(fn));
  }

  // Runs until the queue empties or the clock would pass `until`.
  // Returns the number of events executed.
  uint64_t Run(SimTime until = kSimTimeNever);

  // Runs every event scheduled for the current instant, without advancing time.
  void RunUntilIdleAtNow();

  // Stops Run() after the current event completes.
  void Stop() { stopped_ = true; }

  // Scheduled events that have neither fired nor been cancelled.
  size_t pending() const { return heap_.size() + lane_live_; }
  uint64_t events_executed() const { return events_executed_; }

 private:
  friend class EventHandle;

  struct Key {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };
  struct Slot {
    Callback fn;
    // The seq of the scheduled event; kNoSeq while the slot is free.
    uint64_t seq = kNoSeq;
    uint32_t generation = 0;
    // The key's heap index while the slot is in the heap, kInLane while it
    // is in the lane, the next free slot while it is on the free list.
    uint32_t link = 0;
  };

  static bool Before(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  // Checks `at` and takes a free slab slot for an event due then; Enqueue
  // queues its key once the slot holds the callable.
  uint32_t TakeSlot(SimTime at);
  EventHandle Enqueue(SimTime at, uint32_t slot);

  bool IsPending(uint32_t slot, uint32_t generation) const {
    return slab_[slot].generation == generation;
  }
  void Cancel(uint32_t slot, uint32_t generation);
  // Fires the first event if it is due at or before `until`.
  bool Step(SimTime until);
  // Moves the slot's callable out and returns the slot to the free list.
  Callback Release(uint32_t slot);

  // True when the lane front is a live event (not a cancelled one's key).
  bool LaneFrontLive() const { return slab_[lane_.front().slot].seq == lane_.front().seq; }

  void Place(size_t i, const Key& key) {
    heap_[i] = key;
    slab_[key.slot].link = static_cast<uint32_t>(i);
  }
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void RemoveAt(size_t i);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
  std::vector<Key> heap_;
  Fifo<Key> lane_;  // keys of one instant
  size_t lane_live_ = 0;  // lane keys whose event is still scheduled
  std::vector<Slot> slab_;
  uint32_t free_head_ = kNoSlot;
  // The latest cancelled (at, seq) the loop has not yet run past.
  std::optional<Key> latest_cancelled_;

  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr uint32_t kInLane = UINT32_MAX;
  static constexpr uint64_t kNoSeq = UINT64_MAX;
};

inline void EventHandle::Cancel() {
  if (loop_ != nullptr) loop_->Cancel(slot_, generation_);
}

inline bool EventHandle::Pending() const {
  return loop_ != nullptr && loop_->IsPending(slot_, generation_);
}

}  // namespace netkernel::sim

#endif  // SRC_SIM_EVENT_LOOP_H_
