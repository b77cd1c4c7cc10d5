// Copyright (c) NetKernel reproduction authors.
// Simulated CPU cores with cycle accounting.
//
// A CpuCore is a serially-executing, non-preemptive resource: work items are
// served FIFO in virtual time, so two logical activities pinned to the same
// core naturally contend. Busy-cycle accounting drives the paper's CPU
// overhead results (Tables 6 and 7) and the multiplexing core-count math.

#ifndef SRC_SIM_CPU_H_
#define SRC_SIM_CPU_H_

#include <coroutine>
#include <string>

#include "src/common/units.h"
#include "src/sim/event_loop.h"

namespace netkernel::sim {

class CpuCore {
 public:
  CpuCore(EventLoop* loop, std::string name, double hz = kCpuHz)
      : loop_(loop), name_(std::move(name)), hz_(hz) {}
  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;

  const std::string& name() const { return name_; }
  EventLoop* loop() const { return loop_; }

  // Awaitable: occupy this core for `cycles`, queueing behind earlier work.
  // The awaiting coroutine resumes once the work completes.
  class WorkAwaiter {
   public:
    WorkAwaiter(CpuCore* core, Cycles cycles) : core_(core), cycles_(cycles) {}
    bool await_ready() const noexcept { return cycles_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      SimTime done = core_->Reserve(cycles_);
      core_->loop_->Schedule(done, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}

   private:
    CpuCore* core_;
    Cycles cycles_;
  };
  WorkAwaiter Work(Cycles cycles) { return WorkAwaiter{this, cycles}; }

  // Callback flavour: occupy the core for `cycles`, then run `fn` (built
  // straight into its event slot, like EventLoop::Schedule's).
  template <typename F>
  void Charge(Cycles cycles, F&& fn) {
    SimTime done = Reserve(cycles);
    loop_->Schedule(done, std::forward<F>(fn));
  }

  // Accounts cycles as busy without scheduling a completion (used for costs
  // folded into another activity's timeline).
  void AccountOnly(Cycles cycles) { busy_cycles_ += cycles; }

  // Reserves `cycles` of core time starting no earlier than now; returns the
  // completion instant and accounts the cycles as busy.
  SimTime Reserve(Cycles cycles) {
    SimTime now = loop_->Now();
    SimTime start = busy_until_ > now ? busy_until_ : now;
    SimTime dur = static_cast<SimTime>(static_cast<double>(cycles) / hz_ * kSecond);
    busy_until_ = start + dur;
    busy_cycles_ += cycles;
    return busy_until_;
  }

  // The instant this core next becomes idle.
  SimTime IdleAt() const {
    SimTime now = loop_->Now();
    return busy_until_ > now ? busy_until_ : now;
  }
  bool BusyNow() const { return busy_until_ > loop_->Now(); }

  Cycles busy_cycles() const { return busy_cycles_; }
  void ResetAccounting() { busy_cycles_ = 0; }

  // Utilization of this core over a window of virtual time.
  double Utilization(SimTime window) const {
    if (window <= 0) return 0.0;
    double busy_time = static_cast<double>(busy_cycles_) / hz_ * kSecond;
    double u = busy_time / static_cast<double>(window);
    return u > 1.0 ? 1.0 : u;
  }

 private:
  EventLoop* loop_;
  std::string name_;
  double hz_;
  SimTime busy_until_ = 0;
  Cycles busy_cycles_ = 0;
};

// Models a contended lock (e.g. the kernel stack's shared listener/port
// table). Acquire serializes callers: the caller's core spins (busy) from its
// request until it has held the lock for `hold_cycles`. The serialization is
// global across cores, which yields Universal-Scalability-Law-style sublinear
// multicore speedup exactly like the lock contention the paper measures
// (Fig 20, Table 3).
class SimMutex {
 public:
  explicit SimMutex(EventLoop* loop, double hz = kCpuHz) : loop_(loop), hz_(hz) {}

  // Reserves the lock for `hold_cycles`, spinning `core` until release.
  // Returns the release instant. The modeled spin burn is capped at a few
  // hold times: queued spinlocks (MCS) hand off efficiently, so a waiter
  // does not burn unbounded cycles even when many requests arrive in a burst.
  SimTime Acquire(CpuCore* core, Cycles hold_cycles) {
    SimTime now = loop_->Now();
    SimTime request = core ? core->IdleAt() : now;
    SimTime start = free_at_ > request ? free_at_ : request;
    SimTime hold = static_cast<SimTime>(static_cast<double>(hold_cycles) / hz_ * kSecond);
    free_at_ = start + hold;
    if (core) {
      SimTime wait = start - request;
      SimTime spin_cap = 3 * hold;
      if (wait > spin_cap) wait = spin_cap;
      Cycles burned = static_cast<Cycles>(static_cast<double>(wait + hold) / kSecond * hz_);
      core->Reserve(burned);
    }
    return free_at_;
  }

  SimTime free_at() const { return free_at_; }

 private:
  EventLoop* loop_;
  double hz_;
  SimTime free_at_ = 0;
};

}  // namespace netkernel::sim

#endif  // SRC_SIM_CPU_H_
