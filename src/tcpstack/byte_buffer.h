// Copyright (c) NetKernel reproduction authors.
// Chunked byte FIFO used for socket send/receive buffers. Supports random
// access reads relative to the front (needed for TCP retransmission) and
// amortized O(1) append/drop.
//
// Chunks are either owned (the classic copy-in path) or external: a borrowed
// byte range appended by reference for the zero-copy datapath. An external
// chunk carries a free callback that fires exactly once, when the buffer is
// done with the bytes — fully dropped from the front (i.e. ACKed, for a TCP
// send buffer), cleared, or destroyed with the buffer. Until then the bytes
// must stay valid: every (re)transmission copies them from there via AppendTo.
//
// The receive-side zero-copy datapath adds a third flavor: a pluggable
// ChunkAllocator (the NSM installs one backed by the VM's hugepage pool) makes
// Append land incoming bytes directly into allocator-owned chunks. Successive
// appends tail-pack into the open chunk; the front chunk can then be
// *detached* — ownership (the allocator handle) transfers to the caller
// without copying and without firing the free callback, which is how
// ServiceLib ships a received chunk to the guest as-is. When the allocator is
// exhausted, Append falls back to an owned heap chunk, which the caller must
// move with a copy as before.

#ifndef SRC_TCPSTACK_BYTE_BUFFER_H_
#define SRC_TCPSTACK_BYTE_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sim/fifo.h"

namespace netkernel::tcp {

// Pluggable chunk source for receive buffers (and any other consumer that
// wants pool-backed storage, e.g. UdpStack's datagram queues). `alloc` returns
// false when the backing region is exhausted — the caller falls back to heap
// memory. `capacity` may exceed the requested size (size-class rounding);
// the extra space is used for tail-packing later appends.
struct ChunkAllocator {
  // size -> (handle, writable data pointer, usable capacity).
  std::function<bool(uint32_t size, uint64_t* handle, uint8_t** data, uint32_t* capacity)>
      alloc;
  std::function<void(uint64_t handle)> free;
};

// An allocator-backed chunk detached from the front of a ByteBuffer: the
// caller now owns `handle` (the free callback will NOT fire).
struct DetachedChunk {
  uint64_t handle = 0;
  uint32_t size = 0;  // valid bytes
};

class ByteBuffer {
 public:
  ByteBuffer() = default;
  ByteBuffer(const ByteBuffer&) = delete;
  ByteBuffer& operator=(const ByteBuffer&) = delete;
  ~ByteBuffer() { Clear(); }

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Installs (or clears) the allocator future Append calls draw chunks from.
  // Typically set once, right after socket creation, before data arrives.
  void SetChunkAllocator(std::shared_ptr<ChunkAllocator> allocator) {
    allocator_ = std::move(allocator);
  }
  bool has_chunk_allocator() const { return allocator_ != nullptr; }

  void Append(const uint8_t* data, uint64_t n) {
    if (n == 0) return;
    if (allocator_ == nullptr) {
      Chunk c;
      c.owned.assign(data, data + n);
      chunks_.push_back(std::move(c));
      size_ += n;
      return;
    }
    AppendPooled(data, n);
  }

  void Append(std::vector<uint8_t> chunk) {
    if (chunk.empty()) return;
    size_ += chunk.size();
    Chunk c;
    c.owned = std::move(chunk);
    chunks_.push_back(std::move(c));
  }

  // Appends `n` bytes by reference (zero-copy). `on_free` fires exactly once,
  // when the range is fully consumed (dropped past), cleared, or the buffer
  // is destroyed; the bytes must remain valid until then.
  void AppendExternal(const uint8_t* data, uint64_t n, std::function<void()> on_free) {
    NK_CHECK(n > 0);
    Chunk c;
    c.ext = data;
    c.ext_len = n;
    c.on_free = std::move(on_free);
    chunks_.push_back(std::move(c));
    size_ += n;
  }

  // True when the front chunk is allocator-backed and no byte of it has been
  // consumed — i.e. it can be handed off whole, by reference.
  bool FrontDetachable() const {
    return head_offset_ == 0 && !chunks_.empty() && chunks_.front().pooled;
  }

  // Transfers ownership of the front chunk's allocator handle to the caller:
  // the bytes leave the buffer without a copy and the chunk's free callback
  // is disarmed (the caller frees the handle when done). Fails when the front
  // chunk is heap-backed or partially consumed — ship those with a copy.
  bool DetachFront(DetachedChunk* out) {
    if (!FrontDetachable()) return false;
    Chunk c = std::move(chunks_.front());
    chunks_.pop_front();
    size_ -= c.ext_len;
    out->handle = c.handle;
    out->size = static_cast<uint32_t>(c.ext_len);
    c.on_free = nullptr;  // ownership moved: Release() must not free it
    return true;
  }

  // Copies `n` bytes starting `offset` bytes from the front into `out`.
  // Requires offset + n <= size().
  void CopyOut(uint64_t offset, uint64_t n, uint8_t* out) const {
    ForEachPiece(offset, n, [&out](const uint8_t* p, uint64_t len) {
      std::memcpy(out, p, len);
      out += len;
    });
  }

  // Appends `n` bytes starting `offset` bytes from the front to `out`, with
  // one reservation and one copy per chunk touched. Requires
  // offset + n <= size().
  void AppendTo(uint64_t offset, uint64_t n, std::vector<uint8_t>* out) const {
    out->reserve(out->size() + n);
    ForEachPiece(offset, n,
                 [out](const uint8_t* p, uint64_t len) { out->insert(out->end(), p, p + len); });
  }

  // Removes `n` bytes from the front, firing free callbacks of external
  // chunks that are fully passed.
  void Drop(uint64_t n) {
    NK_CHECK(n <= size_);
    size_ -= n;
    head_offset_ += n;
    while (!chunks_.empty() && head_offset_ >= chunks_.front().size()) {
      head_offset_ -= chunks_.front().size();
      Chunk c = std::move(chunks_.front());
      chunks_.pop_front();
      c.Release();  // may run arbitrary code; chunk already detached
    }
  }

  // Reads (copies + removes) up to `max` bytes from the front. Returns count.
  uint64_t ReadInto(uint8_t* out, uint64_t max) {
    uint64_t n = max < size_ ? max : size_;
    if (n > 0) {
      CopyOut(0, n, out);
      Drop(n);
    }
    return n;
  }

  void Clear() {
    sim::Fifo<Chunk> doomed;
    doomed.swap(chunks_);
    size_ = 0;
    head_offset_ = 0;
    for (Chunk& c : doomed) c.Release();
  }

 private:
  struct Chunk {
    std::vector<uint8_t> owned;
    const uint8_t* ext = nullptr;  // external range (owned is empty then)
    uint64_t ext_len = 0;
    std::function<void()> on_free;
    // Allocator-backed chunk state: handle for detach/free, writable pointer
    // and capacity for tail-packing later appends.
    bool pooled = false;
    uint64_t handle = 0;
    uint8_t* wdata = nullptr;
    uint32_t cap = 0;

    Chunk() = default;
    Chunk(Chunk&& o) noexcept
        : owned(std::move(o.owned)),
          ext(std::exchange(o.ext, nullptr)),
          ext_len(std::exchange(o.ext_len, 0)),
          on_free(std::exchange(o.on_free, nullptr)),
          pooled(std::exchange(o.pooled, false)),
          handle(std::exchange(o.handle, 0)),
          wdata(std::exchange(o.wdata, nullptr)),
          cap(std::exchange(o.cap, 0)) {}
    Chunk& operator=(Chunk&& o) noexcept {
      if (this != &o) {
        Release();
        owned = std::move(o.owned);
        ext = std::exchange(o.ext, nullptr);
        ext_len = std::exchange(o.ext_len, 0);
        on_free = std::exchange(o.on_free, nullptr);
        pooled = std::exchange(o.pooled, false);
        handle = std::exchange(o.handle, 0);
        wdata = std::exchange(o.wdata, nullptr);
        cap = std::exchange(o.cap, 0);
      }
      return *this;
    }
    Chunk(const Chunk&) = delete;
    Chunk& operator=(const Chunk&) = delete;
    ~Chunk() { Release(); }

    void Release() {
      if (on_free) std::exchange(on_free, nullptr)();
    }
    const uint8_t* data() const { return ext != nullptr ? ext : owned.data(); }
    uint64_t size() const { return ext != nullptr ? ext_len : owned.size(); }
  };

  // Calls fn(data, len) for each contiguous piece of the `n` bytes starting
  // `offset` bytes from the front, in order.
  template <typename Fn>
  void ForEachPiece(uint64_t offset, uint64_t n, Fn fn) const {
    NK_CHECK(offset + n <= size_);
    uint64_t skip = head_offset_ + offset;
    size_t ci = 0;
    while (skip >= chunks_[ci].size()) {
      skip -= chunks_[ci].size();
      ++ci;
    }
    uint64_t done = 0;
    while (done < n) {
      const Chunk& c = chunks_[ci];
      uint64_t avail = c.size() - skip;
      uint64_t take = n - done < avail ? n - done : avail;
      fn(c.data() + skip, take);
      done += take;
      skip = 0;
      ++ci;
    }
  }

  // Allocator path of Append: tail-pack into the open pooled chunk, then
  // draw fresh chunks; heap fallback when the allocator is dry.
  void AppendPooled(const uint8_t* data, uint64_t n) {
    uint64_t off = 0;
    if (!chunks_.empty()) {
      Chunk& tail = chunks_.back();
      if (tail.pooled && tail.ext_len < tail.cap) {
        uint64_t take = std::min<uint64_t>(n, tail.cap - tail.ext_len);
        std::memcpy(tail.wdata + tail.ext_len, data, take);
        tail.ext_len += take;
        size_ += take;
        off += take;
      }
    }
    while (off < n) {
      uint64_t handle = 0;
      uint8_t* wdata = nullptr;
      uint32_t cap = 0;
      uint32_t want = static_cast<uint32_t>(std::min<uint64_t>(n - off, 0xffffffffu));
      if (!allocator_->alloc(want, &handle, &wdata, &cap) || cap == 0) {
        // Pool exhausted: the rest lands on the heap; the consumer ships it
        // with a copy (the pre-zerocopy behaviour), so no data is lost.
        Chunk c;
        c.owned.assign(data + off, data + n);
        chunks_.push_back(std::move(c));
        size_ += n - off;
        return;
      }
      uint64_t take = std::min<uint64_t>(n - off, cap);
      std::memcpy(wdata, data + off, take);
      Chunk c;
      c.pooled = true;
      c.handle = handle;
      c.wdata = wdata;
      c.ext = wdata;
      c.cap = cap;
      c.ext_len = take;
      c.on_free = [allocator = allocator_, handle] { allocator->free(handle); };
      chunks_.push_back(std::move(c));
      size_ += take;
      off += take;
    }
  }

  sim::Fifo<Chunk> chunks_;
  uint64_t size_ = 0;
  uint64_t head_offset_ = 0;  // bytes of chunks_.front() already consumed
  std::shared_ptr<ChunkAllocator> allocator_;
};

}  // namespace netkernel::tcp

#endif  // SRC_TCPSTACK_BYTE_BUFFER_H_
