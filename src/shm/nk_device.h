// Copyright (c) NetKernel reproduction authors.
// NK device: the per-VM / per-NSM virtual device holding the NQE queue sets
// (paper §4.2-§4.3). A queue set has four independent SPSC rings:
//   job        VM -> NSM   control ops without data (socket, bind, ...)
//   completion NSM -> VM   execution results of control ops
//   send       VM -> NSM   ops with data transfer (send)
//   receive    NSM -> VM   events for newly received data
// There is one queue set per vCPU so NQE transmission scales with cores, and
// every ring is single-producer single-consumer (the other end is always
// CoreEngine).
//
// The device also models the paper's interrupt-driven polling: it is either
// polling its completion/receive queues or asleep waiting for CoreEngine to
// "interrupt" (wake) it.

#ifndef SRC_SHM_NK_DEVICE_H_
#define SRC_SHM_NK_DEVICE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/shm/nqe.h"
#include "src/shm/spsc_ring.h"

namespace netkernel::shm {

struct QueueSet {
  explicit QueueSet(size_t capacity)
      : job(capacity), completion(capacity), send(capacity), receive(capacity) {}

  SpscRing<Nqe>& ring(RingKind kind) {
    switch (kind) {
      case RingKind::kJob:
        return job;
      case RingKind::kCompletion:
        return completion;
      case RingKind::kSend:
        return send;
      case RingKind::kReceive:
        return receive;
    }
    return job;  // unreachable
  }

  SpscRing<Nqe> job;
  SpscRing<Nqe> completion;
  SpscRing<Nqe> send;
  SpscRing<Nqe> receive;
};

class NkDevice {
 public:
  static constexpr size_t kDefaultQueueCapacity = 4096;

  NkDevice(std::string name, int num_queue_sets, size_t capacity = kDefaultQueueCapacity)
      : name_(std::move(name)) {
    for (int i = 0; i < num_queue_sets; ++i) {
      queue_sets_.push_back(std::make_unique<QueueSet>(capacity));
    }
  }
  NkDevice(const NkDevice&) = delete;
  NkDevice& operator=(const NkDevice&) = delete;

  const std::string& name() const { return name_; }
  int num_queue_sets() const { return static_cast<int>(queue_sets_.size()); }
  QueueSet& queue_set(int i) { return *queue_sets_[i]; }

  // Queue sets can be added or removed with the number of vCPUs (§4.4).
  void AddQueueSet(size_t capacity = kDefaultQueueCapacity) {
    queue_sets_.push_back(std::make_unique<QueueSet>(capacity));
  }

  // Interrupt-driven polling state (§4.6). `polling` is true while the device
  // busy-polls its completion/receive rings; when it gives up it arms the
  // wakeup callback and CoreEngine calls Wake() on new NQEs.
  bool polling() const { return polling_; }
  void set_polling(bool p) { polling_ = p; }

  void SetWakeCallback(std::function<void()> cb) { wake_cb_ = std::move(cb); }
  void Wake() {
    if (wake_cb_) wake_cb_();
  }

  // True if any VM->CoreEngine-direction ring holds NQEs.
  bool HasOutbound() {
    for (auto& qs : queue_sets_) {
      if (!qs->job.Empty() || !qs->send.Empty()) return true;
    }
    return false;
  }
  // True if any CoreEngine->device-direction ring holds NQEs.
  bool HasInbound() {
    for (auto& qs : queue_sets_) {
      if (!qs->completion.Empty() || !qs->receive.Empty()) return true;
    }
    return false;
  }

 private:
  std::string name_;
  std::vector<std::unique_ptr<QueueSet>> queue_sets_;
  bool polling_ = false;
  std::function<void()> wake_cb_;
};

}  // namespace netkernel::shm

#endif  // SRC_SHM_NK_DEVICE_H_
