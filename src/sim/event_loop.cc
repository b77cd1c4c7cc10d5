// Copyright (c) NetKernel reproduction authors.

#include "src/sim/event_loop.h"

#include "src/common/check.h"

namespace netkernel::sim {

uint32_t EventLoop::TakeSlot(SimTime at) {
  NK_CHECK(at >= now_);
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slab_[slot].link;
  } else {
    slot = static_cast<uint32_t>(slab_.size());
    NK_CHECK(slot != kNoSlot);
    slab_.emplace_back();
  }
  return slot;
}

EventHandle EventLoop::Enqueue(SimTime at, uint32_t slot) {
  Slot& s = slab_[slot];
  s.seq = next_seq_++;
  const Key key{at, s.seq, slot};
  // The lane stays sorted: it only takes keys of the instant it holds.
  if (at == now_ && (lane_.empty() || lane_.back().at == at)) {
    s.link = kInLane;
    lane_.push_back(key);
    ++lane_live_;
  } else {
    heap_.push_back(key);
    SiftUp(heap_.size() - 1);
  }
  return EventHandle{this, slot, s.generation};
}

void EventLoop::Cancel(uint32_t slot, uint32_t generation) {
  if (!IsPending(slot, generation)) return;
  const uint32_t link = slab_[slot].link;
  Key key;
  if (link == kInLane) {
    // The key stays in the lane as a tombstone: Release clears the slot's
    // seq, so the lane skips the key when it reaches it. Every lane key has
    // the same instant.
    key = Key{lane_.front().at, slab_[slot].seq, slot};
    --lane_live_;
  } else {
    key = heap_[link];
    RemoveAt(link);
  }
  if (!latest_cancelled_ || Before(*latest_cancelled_, key)) latest_cancelled_ = key;
  // The callable is moved out and dies here, once the loop is consistent
  // again: its captures' destructors may schedule or cancel events.
  Release(slot);
}

Callback EventLoop::Release(uint32_t slot) {
  Slot& s = slab_[slot];
  Callback fn = std::move(s.fn);
  s.seq = kNoSeq;
  ++s.generation;
  s.link = free_head_;
  free_head_ = slot;
  return fn;
}

bool EventLoop::Step(SimTime until) {
  while (!lane_.empty() && !LaneFrontLive()) lane_.pop_front();  // cancelled lane events
  const bool from_lane = !lane_.empty() && (heap_.empty() || Before(lane_.front(), heap_[0]));
  const Key* next = from_lane ? &lane_.front() : heap_.empty() ? nullptr : &heap_[0];
  // The loop runs past a cancelled position exactly where it would pop that
  // event if it were still queued.
  if (latest_cancelled_ && latest_cancelled_->at <= until &&
      (next == nullptr || Before(*latest_cancelled_, *next))) {
    latest_cancelled_.reset();
  }
  if (next == nullptr || next->at > until) return false;
  const Key key = *next;
  if (from_lane) {
    lane_.pop_front();
    --lane_live_;
  } else {
    RemoveAt(0);
  }
  NK_CHECK(key.at >= now_);
  now_ = key.at;
  // Moved out first: the callback may schedule events and so grow the slab.
  // Its slot is already free, so its own handle reads not-pending inside it.
  Callback fn = Release(key.slot);
  fn();
  ++events_executed_;
  return true;
}

uint64_t EventLoop::Run(SimTime until) {
  stopped_ = false;
  uint64_t executed = 0;
  while (!stopped_ && Step(until)) ++executed;
  // Stopped, or nothing left (cancelled or not): the clock rests where the
  // last event left it. It never moves backwards: a `until` already in the
  // past leaves it where it is.
  if (!stopped_ && (pending() > 0 || latest_cancelled_) && until != kSimTimeNever &&
      until > now_) {
    now_ = until;
  }
  return executed;
}

void EventLoop::RunUntilIdleAtNow() {
  while (Step(now_)) {
  }
}

void EventLoop::SiftUp(size_t i) {
  const Key key = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!Before(key, heap_[parent])) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, key);
}

void EventLoop::SiftDown(size_t i) {
  const Key key = heap_[i];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], key)) break;
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, key);
}

void EventLoop::RemoveAt(size_t i) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  heap_[i] = last;
  if (i > 0 && Before(last, heap_[(i - 1) / 2])) {
    SiftUp(i);
  } else {
    SiftDown(i);
  }
}

}  // namespace netkernel::sim
