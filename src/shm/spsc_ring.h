// Copyright (c) NetKernel reproduction authors.
// Lock-free single-producer single-consumer ring buffer (paper §3 "Scalable
// Lockless Queues"). Each queue is shared between exactly one producer and one
// consumer (a VM/NSM NK device on one side and CoreEngine on the other), so no
// locks or CAS loops are needed — just acquire/release on head/tail.
//
// This is real concurrent code: the Fig 11/12 microbenchmarks drive it from
// actual threads. The discrete-event simulation reuses it single-threaded.
//
// Ordering contract (guarded by the CI ThreadSanitizer job, which runs the
// two-thread stress in shm_test and the obs soak under -fsanitize=thread):
//   * head_ is written only by the producer, tail_ only by the consumer.
//   * Every slot write happens-before the head_ release-store that publishes
//     it; the consumer's acquire-load of head_ therefore makes the slot
//     contents visible before they are read. Symmetrically, the consumer's
//     tail_ release-store publishes that a slot was fully read out, and the
//     producer's acquire-load of tail_ makes it safe to overwrite.
//   * Each side reads its own index relaxed (no other thread writes it), and
//     the other side's index with acquire. Weakening any acquire/release
//     pair below to relaxed is a data race on slots_ — TSan will flag it.

#ifndef SRC_SHM_SPSC_RING_H_
#define SRC_SHM_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace netkernel::shm {

template <typename T>
class SpscRing {
 public:
  // capacity must be a power of two; the ring holds capacity-1 elements.
  explicit SpscRing(size_t capacity) : mask_(capacity - 1), slots_(capacity) {
    NK_CHECK(capacity >= 2 && (capacity & (capacity - 1)) == 0);
  }
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return slots_.size() - 1; }

  // Producer side -----------------------------------------------------------

  bool TryEnqueue(const T& item) {
    const size_t head = head_.load(std::memory_order_relaxed);  // own index
    const size_t next = (head + 1) & mask_;
    // Acquire pairs with the consumer's tail_ release in TryDequeue: seeing
    // the new tail guarantees the consumer is done reading slots_[head].
    if (next == tail_.load(std::memory_order_acquire)) return false;  // full
    slots_[head] = item;
    // Release publishes the slot write above to the consumer's acquire load.
    head_.store(next, std::memory_order_release);
    return true;
  }

  // Enqueues up to `n` items from `items`; returns how many were enqueued.
  // Same acquire(tail_)/release(head_) pairing as TryEnqueue, amortized over
  // the batch: one release-store publishes every slot written in the loop.
  size_t EnqueueBatch(const T* items, size_t n) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_.load(std::memory_order_acquire);
    size_t free = (tail - head - 1) & mask_;
    size_t count = n < free ? n : free;
    for (size_t i = 0; i < count; ++i) {
      slots_[(head + i) & mask_] = items[i];
    }
    head_.store((head + count) & mask_, std::memory_order_release);
    return count;
  }

  // Consumer side -----------------------------------------------------------

  bool TryDequeue(T* out) {
    const size_t tail = tail_.load(std::memory_order_relaxed);  // own index
    // Acquire pairs with the producer's head_ release: the slot contents
    // written before that release are visible once the new head is seen.
    if (tail == head_.load(std::memory_order_acquire)) return false;  // empty
    *out = slots_[tail];
    // Release publishes "slot consumed" to the producer's acquire load, so
    // it may safely overwrite slots_[tail].
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return true;
  }

  // Dequeues up to `max` items into `out`; returns how many were dequeued.
  // Same acquire(head_)/release(tail_) pairing as TryDequeue, amortized over
  // the batch: one release-store returns every drained slot to the producer.
  size_t DequeueBatch(T* out, size_t max) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_acquire);
    size_t avail = (head - tail) & mask_;
    size_t count = max < avail ? max : avail;
    for (size_t i = 0; i < count; ++i) {
      out[i] = slots_[(tail + i) & mask_];
    }
    tail_.store((tail + count) & mask_, std::memory_order_release);
    return count;
  }

  // Peeks at the next item without consuming it (consumer side only).
  bool Peek(T* out) const {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return false;
    *out = slots_[tail];
    return true;
  }

  // Whether any queued item satisfies `pred`, without consuming (consumer
  // side only; same acquire(head_) pairing as Peek).
  template <typename Pred>
  bool AnyQueued(Pred pred) const {
    const size_t head = head_.load(std::memory_order_acquire);
    for (size_t i = tail_.load(std::memory_order_relaxed); i != head; i = (i + 1) & mask_) {
      if (pred(slots_[i])) return true;
    }
    return false;
  }

  // Observers (approximate under concurrency; exact when single-threaded).

  bool Empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }
  size_t Size() const {
    return (head_.load(std::memory_order_acquire) - tail_.load(std::memory_order_acquire)) & mask_;
  }

 private:
  static constexpr size_t kCacheLine = 64;

  alignas(kCacheLine) std::atomic<size_t> head_{0};  // producer writes
  alignas(kCacheLine) std::atomic<size_t> tail_{0};  // consumer writes
  alignas(kCacheLine) const size_t mask_;
  std::vector<T> slots_;
};

}  // namespace netkernel::shm

#endif  // SRC_SHM_SPSC_RING_H_
