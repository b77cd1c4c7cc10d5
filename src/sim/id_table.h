// Copyright (c) NetKernel reproduction authors.
// sim::IdTable: objects kept under ids that their owner hands out in
// increasing order and never reuses (socket handles, fds, endpoint ids),
// found by one bounds-checked index instead of a hash. Id 0 is never used.
// A slot holds a `Ptr`: std::unique_ptr<T> when the table owns its objects,
// T* when it indexes objects owned elsewhere.
//
// The ids index fixed pages of kPageSize slots through a page directory. A
// page is taken when the first id in it is inserted and given back once
// every object in it is gone and no later id can land in it, so memory
// follows the live objects, not every id ever issued: a guest that opened
// and closed a million connections keeps 8 bytes of directory per 256 ids.
// The table keeps the last page it gave back for the next one it needs, so
// live ids moving along in a window stop costing an allocation per page.
//
// Find takes any id, including one read off a shared ring, and returns null
// for ids never inserted, erased or past the end; no lookup allocates or
// grows the table. Only Insert sizes it, with ids the owner chose.

#ifndef SRC_SIM_ID_TABLE_H_
#define SRC_SIM_ID_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace netkernel::sim {

template <typename T, typename Ptr = std::unique_ptr<T>>
class IdTable {
 public:
  static constexpr uint64_t kPageBits = 8;
  static constexpr uint64_t kPageSize = uint64_t{1} << kPageBits;

  // The object `id` names, or nullptr.
  T* Find(uint64_t id) const {
    const uint64_t p = id >> kPageBits;
    if (p >= pages_.size() || pages_[p] == nullptr) return nullptr;
    return Get(pages_[p]->slots[id & (kPageSize - 1)]);
  }

  // Takes `obj` under `id`, which must exceed every id inserted before.
  T& Insert(uint64_t id, Ptr obj) {
    NK_CHECK(obj != nullptr && id > last_id_);
    const uint64_t p = id >> kPageBits;
    if (last_id_ > 0 && p > last_id_ >> kPageBits) ReleaseIfDrained(last_id_ >> kPageBits, p);
    last_id_ = id;
    if (p >= pages_.size()) pages_.resize(p + 1);
    if (pages_[p] == nullptr) {
      pages_[p] = spare_ != nullptr ? std::move(spare_) : std::make_unique<Page>();
    }
    Page& page = *pages_[p];
    ++page.live;
    return *Get(page.slots[id & (kPageSize - 1)] = std::move(obj));
  }

  // Removes the object under `id`, if any, destroying it when the table
  // owns it. The slot is cleared before the object dies, so its destructor
  // finds it gone.
  void Erase(uint64_t id) {
    const uint64_t p = id >> kPageBits;
    if (p >= pages_.size() || pages_[p] == nullptr) return;
    Page& page = *pages_[p];
    Ptr doomed = std::exchange(page.slots[id & (kPageSize - 1)], Ptr{});
    if (doomed == nullptr) return;
    --page.live;
    ReleaseIfDrained(p, last_id_ >> kPageBits);
  }

  // Calls f(T&) on every object in id order. `f` must not insert or erase.
  template <typename F>
  void ForEach(F&& f) const {
    for (const std::unique_ptr<Page>& page : pages_) {
      if (page == nullptr) continue;
      for (const Ptr& obj : page->slots) {
        if (obj != nullptr) f(*obj);
      }
    }
  }

 private:
  struct Page {
    std::array<Ptr, kPageSize> slots{};
    size_t live = 0;
  };

  static T* Get(T* p) { return p; }
  static T* Get(const std::unique_ptr<T>& p) { return p.get(); }

  // Gives back page `p` once it holds nothing and lies below page `top`,
  // the page of the latest id, so no later Insert can land in it.
  void ReleaseIfDrained(uint64_t p, uint64_t top) {
    if (p >= top || pages_[p] == nullptr || pages_[p]->live != 0) return;
    if (spare_ == nullptr) {
      spare_ = std::move(pages_[p]);
    } else {
      pages_[p].reset();
    }
  }

  std::vector<std::unique_ptr<Page>> pages_;
  std::unique_ptr<Page> spare_;  // a drained page, every slot empty
  uint64_t last_id_ = 0;         // the latest id inserted; 0 before the first
};

}  // namespace netkernel::sim

#endif  // SRC_SIM_ID_TABLE_H_
