// Copyright (c) NetKernel reproduction authors.
// sim::Callback: the event loop's move-only `void()` callable.
//
// It plays std::function<void()>'s part on the simulator's hot path, but
// keeps its callable in kInlineSize bytes of inline storage: room for `this`
// plus a netsim::Packet, the largest capture scheduled per packet
// (Link::Enqueue). Scheduling such an event therefore allocates nothing.
// A larger callable falls back to one heap allocation, freed when the
// Callback is destroyed. Being move-only, it also takes callables that
// std::function refuses, such as a lambda owning a std::unique_ptr.
//
// Lambdas and std::function objects convert implicitly, so call sites that
// passed them to a std::function<void()> parameter stay unchanged. Invoking
// an empty Callback is a checked failure.

#ifndef SRC_SIM_CALLBACK_H_
#define SRC_SIM_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/check.h"

namespace netkernel::sim {

class Callback {
 public:
  static constexpr size_t kInlineSize = 56;

  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(f));
  }

  Callback(Callback&& other) noexcept { TakeFrom(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Replaces the callable with `f`, built straight into this Callback's
  // storage; a Callback rvalue is moved in instead. The event loop builds
  // each event's callable in its slab slot this way, with no temporary.
  template <typename F>
  void Assign(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      static_assert(!std::is_lvalue_reference_v<F>, "a Callback is moved in, never copied");
      *this = std::move(f);
    } else {
      Reset();
      Construct(std::forward<F>(f));
    }
  }

  void operator()() {
    NK_CHECK(ops_ != nullptr);
    ops_->invoke(storage_);
  }

 private:
  // A null relocate means a byte copy moves the callable; a null destroy
  // means destroying it is a no-op. Both hold for most captures (pointers,
  // ids, coroutine handles), which then cost no indirect call to move or
  // drop.
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineSize &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static D* Inline(void* storage) {
    return std::launder(static_cast<D*>(storage));
  }
  template <typename D>
  static D* Boxed(void* storage) {
    return *std::launder(static_cast<D**>(storage));
  }

  template <typename D>
  static constexpr Ops MakeOps() {
    if constexpr (kFitsInline<D>) {
      constexpr bool kByteCopy = std::is_trivially_copyable_v<D>;
      return Ops{
          [](void* s) { (*Inline<D>(s))(); },
          kByteCopy ? nullptr
                    : +[](void* from, void* to) noexcept {
                        ::new (to) D(std::move(*Inline<D>(from)));
                        Inline<D>(from)->~D();
                      },
          std::is_trivially_destructible_v<D> ? nullptr
                                              : +[](void* s) noexcept { Inline<D>(s)->~D(); },
      };
    } else {
      // The storage holds only the owning pointer: a byte copy moves it.
      return Ops{
          [](void* s) { (*Boxed<D>(s))(); },
          nullptr,
          [](void* s) noexcept { delete Boxed<D>(s); },
      };
    }
  }
  template <typename D>
  static constexpr Ops kOps = MakeOps<D>();

  template <typename F, typename D = std::decay_t<F>>
  void Construct(F&& f) {
    static_assert(std::is_invocable_r_v<void, D&>, "a Callback holds a void() callable");
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
    }
    ops_ = &kOps<D>;
  }

  void TakeFrom(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    if (other.ops_->relocate != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineSize);
    }
    ops_ = std::exchange(other.ops_, nullptr);
  }

  void Reset() noexcept {
    const Ops* ops = std::exchange(ops_, nullptr);
    if (ops != nullptr && ops->destroy != nullptr) ops->destroy(storage_);
  }

  // Zeroed first so that moving a callable smaller than the buffer by one
  // fixed-size byte copy never reads indeterminate bytes.
  alignas(std::max_align_t) unsigned char storage_[kInlineSize] = {};
  const Ops* ops_ = nullptr;
};

}  // namespace netkernel::sim

#endif  // SRC_SIM_CALLBACK_H_
