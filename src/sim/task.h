// Copyright (c) NetKernel reproduction authors.
// C++20 coroutine plumbing for simulated processes.
//
// Guest applications, load generators, and NetKernel control loops are written
// as ordinary-looking sequential code (`co_await sock.Send(...)`) and run as
// coroutines suspended/resumed by the EventLoop. A Task<T> is lazily started;
// it either becomes a child of another coroutine (co_await) or is detached
// onto the loop with Spawn().

#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <cstdlib>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sim/event_loop.h"
#include "src/sim/pool.h"

namespace netkernel::sim {

template <typename T>
class Task;

namespace internal {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  bool detached = false;

  // Coroutine frames come from the small-object pool: one frame per spawned
  // or awaited Task would otherwise be a heap allocation.
  static void* operator new(size_t n) { return PoolAllocate(n); }
  static void operator delete(void* p, size_t n) noexcept { PoolFree(p, n); }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.detached) {
        h.destroy();
        return std::noop_coroutine();
      }
      return p.continuation ? p.continuation : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { std::terminate(); }
};

}  // namespace internal

// Lazily-started coroutine task. Move-only owner of the coroutine frame until
// awaited or detached.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      DestroyIfOwned();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { DestroyIfOwned(); }

  bool valid() const { return handle_ != nullptr; }

  // Awaiting a Task starts it and suspends the awaiter until it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;
      }
      T await_resume() {
        NK_CHECK(handle.promise().value.has_value());
        T result = std::move(*handle.promise().value);
        return result;
      }
    };
    NK_CHECK(handle_ != nullptr);
    return Awaiter{handle_};
  }

 private:
  template <typename U>
  friend void Spawn(Task<U> task);

  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void DestroyIfOwned() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_ = nullptr;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      DestroyIfOwned();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { DestroyIfOwned(); }

  bool valid() const { return handle_ != nullptr; }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;
      }
      void await_resume() noexcept {}
    };
    NK_CHECK(handle_ != nullptr);
    return Awaiter{handle_};
  }

 private:
  template <typename U>
  friend void Spawn(Task<U> task);

  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void DestroyIfOwned() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_ = nullptr;
};

// Detaches `task` and starts it immediately. The coroutine frame frees itself
// on completion.
template <typename U>
inline void Spawn(Task<U> task) {
  NK_CHECK(task.handle_ != nullptr);
  auto h = std::exchange(task.handle_, nullptr);
  h.promise().detached = true;
  h.resume();
}

// Awaitable that suspends the current coroutine for `delay` of virtual time.
class Delay {
 public:
  Delay(EventLoop* loop, SimTime delay) : loop_(loop), delay_(delay) {}
  bool await_ready() const noexcept { return delay_ <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    loop_->ScheduleAfter(delay_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  EventLoop* loop_;
  SimTime delay_;
};

// A level-triggered notification primitive: coroutines Wait() on it; Notify()
// resumes all current waiters (via the loop, at the current instant).
// Used to build blocking socket calls and epoll.
class SimEvent {
 public:
  explicit SimEvent(EventLoop* loop) : loop_(loop) {}
  SimEvent(const SimEvent&) = delete;
  SimEvent& operator=(const SimEvent&) = delete;

  class Waiter {
   public:
    Waiter(SimEvent* ev) : ev_(ev) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { ev_->waiters_.push_back(h); }
    void await_resume() const noexcept {}

   private:
    SimEvent* ev_;
  };

  // co_await event.Wait(); resumes on next Notify().
  Waiter Wait() { return Waiter{this}; }

  // Scheduling resumes nothing inline, so the waiter list can be walked in
  // place and cleared, keeping its capacity for the next round of waiters.
  void NotifyAll() {
    for (auto h : waiters_) {
      loop_->ScheduleAfter(0, [h] { h.resume(); });
    }
    waiters_.clear();
  }

  void NotifyOne() {
    if (waiters_.empty()) return;
    auto h = waiters_.front();
    waiters_.erase(waiters_.begin());
    loop_->ScheduleAfter(0, [h] { h.resume(); });
  }

  bool HasWaiters() const { return !waiters_.empty(); }

 private:
  EventLoop* loop_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace netkernel::sim

#endif  // SRC_SIM_TASK_H_
