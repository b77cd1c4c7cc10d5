// Copyright (c) NetKernel reproduction authors.

#include "src/sim/event_loop.h"

#include "src/common/check.h"

namespace netkernel::sim {

EventHandle EventLoop::Schedule(SimTime at, std::function<void()> fn) {
  NK_CHECK(at >= now_);
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slab_[slot].link;
  } else {
    slot = static_cast<uint32_t>(slab_.size());
    NK_CHECK(slot != kNoSlot);
    slab_.emplace_back();
  }
  slab_[slot].fn = std::move(fn);
  heap_.push_back(Key{at, next_seq_++, slot});
  SiftUp(heap_.size() - 1);
  return EventHandle{this, slot, slab_[slot].generation};
}

void EventLoop::Cancel(uint32_t slot, uint32_t generation) {
  if (!IsPending(slot, generation)) return;
  const Key key = heap_[slab_[slot].link];
  RemoveAt(slab_[slot].link);
  if (!latest_cancelled_ || Before(*latest_cancelled_, key)) latest_cancelled_ = key;
  // The callable is moved out and dies here, once the loop is consistent
  // again: its captures' destructors may schedule or cancel events.
  Release(slot);
}

std::function<void()> EventLoop::Release(uint32_t slot) {
  Slot& s = slab_[slot];
  std::function<void()> fn = std::move(s.fn);
  ++s.generation;
  s.link = free_head_;
  free_head_ = slot;
  return fn;
}

bool EventLoop::Step(SimTime until) {
  // The loop runs past a cancelled position exactly where it would pop that
  // event if it were still queued.
  if (latest_cancelled_ && latest_cancelled_->at <= until &&
      (heap_.empty() || Before(*latest_cancelled_, heap_[0]))) {
    latest_cancelled_.reset();
  }
  if (heap_.empty() || heap_[0].at > until) return false;
  const Key key = heap_[0];
  RemoveAt(0);
  NK_CHECK(key.at >= now_);
  now_ = key.at;
  // Moved out first: the callback may schedule events and so grow the slab.
  // Its slot is already free, so its own handle reads not-pending inside it.
  std::function<void()> fn = Release(key.slot);
  fn();
  ++events_executed_;
  return true;
}

uint64_t EventLoop::Run(SimTime until) {
  stopped_ = false;
  uint64_t executed = 0;
  while (!stopped_ && Step(until)) ++executed;
  // Stopped, or nothing left (cancelled or not): the clock rests where the
  // last event left it.
  if (!stopped_ && (!heap_.empty() || latest_cancelled_) && until != kSimTimeNever) {
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
