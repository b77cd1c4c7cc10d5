// Copyright (c) NetKernel reproduction authors.
// sim::Fifo: a first-in-first-out queue that allocates nothing while empty.
//
// It is a vector plus a head index: push_back appends, pop_front destroys
// the front element's value at once and advances the head. When the queue
// drains, the vector is cleared and keeps its capacity, so a queue that
// fills and drains in cycles stops allocating once it has grown to its
// largest backlog. When a push would grow the vector while at least half of
// it is a drained prefix, the prefix is erased first, so compaction costs
// amortized O(1) per element and a queue that never drains completely still
// runs in bounded memory.
//
// Why not std::deque: libstdc++'s deque allocates a 64 B map and a 512 B
// block as soon as it is constructed, empty or not, and frees and
// reallocates blocks as it drains. The simulator keeps a queue per socket
// direction, per NIC and per egress source, most of them empty or a few
// elements deep, so a short TCP connection paid for several such queues it
// barely used.
//
// Unlike a deque, push_back may move the elements (it invalidates references
// and iterators, as a vector's does), and there is no push_front. pop_front
// moves the value out of its slot and destroys it after the queue is
// consistent again, so the destructor may use the queue; the moved-from
// husk is destroyed later, with the prefix. clear() destroys the elements in
// place: a queue whose elements' destructors use the queue should be
// swapped into a local first.

#ifndef SRC_SIM_FIFO_H_
#define SRC_SIM_FIFO_H_

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace netkernel::sim {

template <typename T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  Fifo() = default;
  // A moved-from queue is empty.
  Fifo(Fifo&& other) noexcept { swap(other); }
  Fifo& operator=(Fifo&& other) noexcept {
    Fifo(std::move(other)).swap(*this);
    return *this;
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }
  // Elements the vector holds room for, drained prefix included.
  size_t capacity() const { return items_.capacity(); }

  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }
  T& back() { return items_.back(); }
  const T& back() const { return items_.back(); }
  // The i-th element from the front.
  T& operator[](size_t i) { return items_[head_ + i]; }
  const T& operator[](size_t i) const { return items_[head_ + i]; }

  iterator begin() { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  const_iterator end() const { return items_.end(); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (items_.size() == items_.capacity() && head_ > 0 && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), begin());
      head_ = 0;
    }
    return items_.emplace_back(std::forward<Args>(args)...);
  }
  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  void pop_front() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      [[maybe_unused]] T doomed = std::move(items_[head_]);
      Advance();
    } else {
      Advance();
    }
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

  void swap(Fifo& other) noexcept {
    items_.swap(other.items_);
    std::swap(head_, other.head_);
  }

 private:
  void Advance() {
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }

  std::vector<T> items_;  // [0, head_) are moved-from husks
  size_t head_ = 0;
};

}  // namespace netkernel::sim

#endif  // SRC_SIM_FIFO_H_
