// Copyright (c) NetKernel reproduction authors.
// Chunked byte FIFO used for socket send/receive buffers, and the shared
// payload blocks TCP moves between them. Supports random access reads
// relative to the front (needed for TCP retransmission) and amortized O(1)
// append/drop.
//
// Shared blocks. Append copies the caller's bytes once, into refcounted
// Blocks: first into the free tail of the block the buffer's last append
// made, then into fresh ones, each as large as the rest of the append or
// the backlog the buffer already holds, up to 64 KiB. So a lone message
// gets a block its own size, while a busy stream fills 64 KiB blocks append
// after append, as Linux's tcp_sendmsg fills a socket's page frag. From
// there the bytes move by reference: a
// segment carries Slices of the send buffer's blocks (SliceInto), and a
// heap-backed receive buffer keeps the segment's slices (Append of a
// SliceList) until the application reads them. Only ByteBuffer chunks, a
// segment's payload and TcpStack's out-of-order map hold slices; a block is
// freed when the last of them lets go, so the send buffer can drop ACKed
// bytes while a receiver still reads them. The count is a plain integer: a
// topology runs on one thread, so a block never crosses threads. Block bytes
// come from the sim pool (src/sim/pool.h), so a freed block is ASan-poisoned
// until reused.
//
// Chunks are either shared slices (above) or external: a borrowed byte
// range appended by reference for the zero-copy datapath. An external chunk
// carries a free callback that fires exactly once, when the buffer is done
// with the bytes — fully dropped from the front (i.e. ACKed, for a TCP send
// buffer), cleared, or destroyed with the buffer. Until then the bytes must
// stay valid: every (re)transmission copies them from there into a fresh
// block, because the range is freed on ACK while a receiver may still hold
// the segment's slices.
//
// The receive-side zero-copy datapath adds a third flavor: a pluggable
// ChunkAllocator (the NSM installs one backed by the VM's hugepage pool) makes
// Append land incoming bytes directly into allocator-owned chunks, which the
// buffer frees through that allocator when it is done with them. Successive
// appends tail-pack into the open chunk, and one Append of a segment's
// slices is one copy into the same chunks a contiguous Append of its bytes
// would fill. The front chunk can then be *detached* — ownership (the
// allocator handle) transfers to the caller without copying and without
// being freed, which is how ServiceLib ships a received chunk to the guest
// as-is. When the allocator is exhausted, Append copies the
// rest into blocks, which the consumer ships with a copy.

#ifndef SRC_TCPSTACK_BYTE_BUFFER_H_
#define SRC_TCPSTACK_BYTE_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sim/fifo.h"
#include "src/sim/pool.h"

namespace netkernel::tcp {

// The largest block: one pool class, and one TSO segment.
inline constexpr uint32_t kMaxBlockBytes = sim::kPoolMaxBlock;

// A refcounted payload block, filled from the front: bytes once written are
// never changed, and a slice covers only written bytes, so the holder that
// made the block may keep appending to its free tail while others read its
// head. The header and the bytes are two pooled blocks, so the bytes fill
// exactly their pool class.
class Block {
 public:
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  const uint8_t* data() const { return bytes_; }
  uint32_t room() const { return cap_ - size_; }
  // The next `n` <= room() bytes, for the block's maker to write.
  uint8_t* Grow(uint32_t n) {
    uint8_t* tail = bytes_ + size_;
    size_ += n;
    return tail;
  }

 private:
  friend class BlockRef;
  explicit Block(uint32_t capacity)
      : cap_(static_cast<uint32_t>(sim::PoolBlockSize(capacity))),
        bytes_(static_cast<uint8_t*>(sim::PoolAllocate(cap_))) {}
  ~Block() { sim::PoolFree(bytes_, cap_); }

  void Unref() {
    if (--refs_ > 0) return;
    this->~Block();
    sim::PoolFree(this, sizeof(Block));
  }

  uint32_t refs_ = 1;
  uint32_t size_ = 0;  // bytes written
  uint32_t cap_;
  uint8_t* bytes_;
};

// An owning reference to a Block: copying takes another reference, and the
// last one to go frees the block.
class BlockRef {
 public:
  BlockRef() = default;
  // An empty block with room for at least `capacity` bytes
  // (0 < capacity <= kMaxBlockBytes).
  static BlockRef Make(uint32_t capacity) {
    NK_CHECK(capacity > 0 && capacity <= kMaxBlockBytes);
    return BlockRef(new (sim::PoolAllocate(sizeof(Block))) Block(capacity));
  }
  BlockRef(const BlockRef& o) : b_(o.b_) {
    if (b_ != nullptr) ++b_->refs_;
  }
  BlockRef(BlockRef&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  BlockRef& operator=(BlockRef o) noexcept {
    std::swap(b_, o.b_);
    return *this;
  }
  ~BlockRef() {
    if (b_ != nullptr) b_->Unref();
  }

  Block* operator->() const { return b_; }
  Block* get() const { return b_; }
  explicit operator bool() const { return b_ != nullptr; }

 private:
  explicit BlockRef(Block* b) : b_(b) {}
  Block* b_ = nullptr;
};

// `len` bytes of a block, starting `offset` bytes in.
struct Slice {
  BlockRef block;
  uint32_t offset = 0;
  uint32_t len = 0;

  const uint8_t* data() const { return block->data() + offset; }
};

// A segment's payload: the slices of blocks it carries, in stream order. The
// list itself comes from the sim pool, so building one allocates nothing
// after warm-up.
class SliceList {
 public:
  uint64_t size() const { return bytes_; }  // payload bytes
  bool empty() const { return bytes_ == 0; }
  size_t num_slices() const { return slices_.size(); }

  // Adds `len` bytes of `block` from `offset`, merging with the last slice
  // when they are adjacent bytes of one block.
  void Add(BlockRef block, uint32_t offset, uint32_t len) {
    bytes_ += len;
    if (!slices_.empty()) {
      Slice& last = slices_.back();
      if (last.block.get() == block.get() && last.offset + last.len == offset) {
        last.len += len;
        return;
      }
    }
    slices_.push_back(Slice{std::move(block), offset, len});
  }

  // Calls fn(slice, skip, len) for each slice piece of the `n` bytes
  // starting `offset` bytes in, in order. Requires offset + n <= size().
  template <typename Fn>
  void ForEachPiece(uint64_t offset, uint64_t n, Fn fn) const {
    NK_CHECK(offset + n <= bytes_);
    for (const Slice& s : slices_) {
      if (n == 0) return;
      if (offset >= s.len) {
        offset -= s.len;
        continue;
      }
      const auto take = static_cast<uint32_t>(std::min<uint64_t>(n, s.len - offset));
      fn(s, static_cast<uint32_t>(offset), take);
      n -= take;
      offset = 0;
    }
  }

  void CopyOut(uint64_t offset, uint64_t n, uint8_t* out) const {
    ForEachPiece(offset, n, [&out](const Slice& s, uint32_t skip, uint32_t len) {
      std::memcpy(out, s.data() + skip, len);
      out += len;
    });
  }

 private:
  std::vector<Slice, sim::PoolAllocator<Slice>> slices_;
  uint64_t bytes_ = 0;
};

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
// caller now owns `handle` (the buffer will NOT free it).
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
  // Typically set once, right after socket creation, before data arrives; it
  // may change only while no chunk of the old one is live.
  void SetChunkAllocator(std::shared_ptr<ChunkAllocator> allocator) {
    auto live = [](const Chunk& c) { return c.allocator != nullptr; };
    NK_CHECK(allocator == allocator_ || std::none_of(chunks_.begin(), chunks_.end(), live));
    allocator_ = std::move(allocator);
  }
  bool has_chunk_allocator() const { return allocator_ != nullptr; }

  // Copies `n` bytes in: into allocator chunks when an allocator is
  // installed, else into shared blocks.
  void Append(const uint8_t* data, uint64_t n) {
    if (n == 0) return;
    auto copy = [data](uint64_t off, uint64_t len, uint8_t* dst) {
      std::memcpy(dst, data + off, len);
    };
    if (allocator_ != nullptr) {
      AppendPooled(n, copy);
    } else {
      AppendBlocks(n, copy);
    }
  }

  // Appends the `n` bytes of `src` starting `offset` bytes in. Without an
  // allocator the buffer keeps references to src's blocks; with one it
  // copies them, in one pass that fills the same chunks a contiguous Append
  // of those bytes would.
  void Append(const SliceList& src, uint64_t offset, uint64_t n) {
    if (n == 0) return;
    if (allocator_ != nullptr) {
      AppendPooled(n, [&src, offset](uint64_t off, uint64_t len, uint8_t* dst) {
        src.CopyOut(offset + off, len, dst);
      });
      return;
    }
    src.ForEachPiece(offset, n, [this](const Slice& s, uint32_t skip, uint32_t len) {
      const uint8_t* data = s.data() + skip;
      size_ += len;
      if (!chunks_.empty()) {
        Chunk& tail = chunks_.back();
        if (tail.block.get() == s.block.get() && tail.data + tail.size == data) {
          tail.size += len;  // the next bytes of the same block
          return;
        }
      }
      chunks_.push_back(Chunk::Shared(s.block, data, len));
    });
  }

  // Appends `n` bytes by reference (zero-copy). `on_free` fires exactly once,
  // when the range is fully consumed (dropped past), cleared, or the buffer
  // is destroyed; the bytes must remain valid until then.
  void AppendExternal(const uint8_t* data, uint64_t n, std::function<void()> on_free) {
    NK_CHECK(n > 0);
    Chunk c;
    c.data = data;
    c.size = n;
    c.on_free = std::move(on_free);
    chunks_.push_back(std::move(c));
    size_ += n;
  }

  // True when the front chunk is allocator-backed and no byte of it has been
  // consumed — i.e. it can be handed off whole, by reference.
  bool FrontDetachable() const {
    return head_offset_ == 0 && !chunks_.empty() && chunks_.front().allocator != nullptr;
  }

  // Transfers ownership of the front chunk's allocator handle to the caller:
  // the bytes leave the buffer without a copy and the buffer no longer frees
  // the handle (the caller frees it when done). Fails when the front
  // chunk is heap-backed or partially consumed — ship those with a copy.
  bool DetachFront(DetachedChunk* out) {
    if (!FrontDetachable()) return false;
    Chunk c = std::move(chunks_.front());
    chunks_.pop_front();
    size_ -= c.size;
    out->handle = c.handle;
    out->size = static_cast<uint32_t>(c.size);
    c.allocator = nullptr;  // ownership moved: Release() must not free it
    return true;
  }

  // Copies `n` bytes starting `offset` bytes from the front into `out`.
  // Requires offset + n <= size().
  void CopyOut(uint64_t offset, uint64_t n, uint8_t* out) const {
    ForEachPiece(offset, n, [&out](const Chunk& c, uint64_t skip, uint64_t len) {
      std::memcpy(out, c.data + skip, len);
      out += len;
    });
  }

  // Adds to `out` the `n` bytes starting `offset` bytes from the front, as
  // slices of this buffer's blocks. Bytes of an external or allocator chunk
  // are copied into a fresh block: those are freed when dropped, and the
  // slices may outlive that. Requires offset + n <= size() and
  // n <= kMaxBlockBytes (one segment).
  void SliceInto(uint64_t offset, uint64_t n, SliceList* out) const {
    NK_CHECK(n <= kMaxBlockBytes);
    ForEachPiece(offset, n, [out](const Chunk& c, uint64_t skip, uint64_t len) {
      const auto n32 = static_cast<uint32_t>(len);
      if (c.block) {
        out->Add(c.block, static_cast<uint32_t>(c.data + skip - c.block->data()), n32);
        return;
      }
      BlockRef copy = BlockRef::Make(n32);
      std::memcpy(copy->Grow(n32), c.data + skip, len);
      out->Add(std::move(copy), 0, n32);
    });
  }

  // Removes `n` bytes from the front. Chunks fully passed fire their free
  // callbacks, return their allocator chunks and let go of their blocks.
  void Drop(uint64_t n) {
    NK_CHECK(n <= size_);
    size_ -= n;
    head_offset_ += n;
    while (!chunks_.empty() && head_offset_ >= chunks_.front().size) {
      head_offset_ -= chunks_.front().size;
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
    const uint8_t* data = nullptr;
    uint64_t size = 0;
    BlockRef block;  // set for a slice of a shared block
    bool fills_block = false;  // this chunk made `block` and appends to it
    // Set for an external chunk.
    std::function<void()> on_free;
    // Allocator-backed chunk state: the buffer's allocator, which frees the
    // handle (null once detached), and writable pointer and capacity for
    // tail-packing later appends.
    ChunkAllocator* allocator = nullptr;
    uint64_t handle = 0;
    uint8_t* wdata = nullptr;
    uint32_t cap = 0;

    static Chunk Shared(BlockRef block, const uint8_t* data, uint64_t size) {
      Chunk c;
      c.data = data;
      c.size = size;
      c.block = std::move(block);
      return c;
    }

    Chunk() = default;
    Chunk(Chunk&& o) noexcept { *this = std::move(o); }
    Chunk& operator=(Chunk&& o) noexcept {
      if (this != &o) {
        Release();
        data = std::exchange(o.data, nullptr);
        size = std::exchange(o.size, 0);
        block = std::move(o.block);
        fills_block = std::exchange(o.fills_block, false);
        on_free = std::exchange(o.on_free, nullptr);
        allocator = std::exchange(o.allocator, nullptr);
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
      if (allocator != nullptr) std::exchange(allocator, nullptr)->free(handle);
    }
  };

  // Calls fn(chunk, skip, len) for each chunk piece of the `n` bytes
  // starting `offset` bytes from the front, in order.
  template <typename Fn>
  void ForEachPiece(uint64_t offset, uint64_t n, Fn fn) const {
    NK_CHECK(offset + n <= size_);
    uint64_t skip = head_offset_ + offset;
    size_t ci = 0;
    while (skip >= chunks_[ci].size) {
      skip -= chunks_[ci].size;
      ++ci;
    }
    uint64_t done = 0;
    while (done < n) {
      const Chunk& c = chunks_[ci];
      uint64_t avail = c.size - skip;
      uint64_t take = n - done < avail ? n - done : avail;
      fn(c, skip, take);
      done += take;
      skip = 0;
      ++ci;
    }
  }

  // Copy-in path without an allocator: `n` bytes, which copy(off, len, dst)
  // writes, fill the free tail of the block the last append made, then
  // fresh blocks.
  template <typename CopyFn>
  void AppendBlocks(uint64_t n, CopyFn copy) {
    for (uint64_t off = 0; off < n;) {
      if (chunks_.empty() || !chunks_.back().fills_block || chunks_.back().block->room() == 0) {
        // As large as the rest of the append or the backlog already held,
        // whichever is larger, up to kMaxBlockBytes.
        BlockRef b = BlockRef::Make(static_cast<uint32_t>(
            std::min<uint64_t>(std::max(n - off, size_), kMaxBlockBytes)));
        const uint8_t* data = b->data();
        Chunk c = Chunk::Shared(std::move(b), data, 0);
        c.fills_block = true;
        chunks_.push_back(std::move(c));
      }
      Chunk& tail = chunks_.back();
      const auto len = static_cast<uint32_t>(std::min<uint64_t>(n - off, tail.block->room()));
      copy(off, len, tail.block->Grow(len));
      tail.size += len;
      size_ += len;
      off += len;
    }
  }

  // Allocator path of Append: tail-pack into the open pooled chunk, then
  // draw fresh chunks; blocks when the allocator is dry.
  template <typename CopyFn>
  void AppendPooled(uint64_t n, CopyFn copy) {
    uint64_t off = 0;
    if (!chunks_.empty()) {
      Chunk& tail = chunks_.back();
      if (tail.allocator != nullptr && tail.size < tail.cap) {
        uint64_t take = std::min<uint64_t>(n, tail.cap - tail.size);
        copy(0, take, tail.wdata + tail.size);
        tail.size += take;
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
        // Pool exhausted: the rest lands in blocks; the consumer ships it
        // with a copy (the pre-zerocopy behaviour), so no data is lost.
        AppendBlocks(n - off, [&copy, off](uint64_t o, uint64_t len, uint8_t* dst) {
          copy(off + o, len, dst);
        });
        return;
      }
      uint64_t take = std::min<uint64_t>(n - off, cap);
      copy(off, take, wdata);
      Chunk c;
      c.allocator = allocator_.get();
      c.handle = handle;
      c.wdata = wdata;
      c.data = wdata;
      c.cap = cap;
      c.size = take;
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
