// Copyright (c) NetKernel reproduction authors.

#include "src/core/guestlib.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/udpstack/udp_types.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

// The kernel the guest still runs: its syscall and epoll costs are a Baseline guest's.
constexpr tcp::CostProfile kGuestKernel = tcp::KernelProfile();

GuestLib::GuestLib(sim::EventLoop* loop, uint8_t vm_id, CoreEngine* ce, shm::NkDevice* dev,
                   shm::HugepagePool* pool, std::vector<sim::CpuCore*> vcpus, Config config)
    : loop_(loop),
      vm_id_(vm_id),
      ce_(ce),
      dev_(dev),
      pool_(pool),
      vcpus_(std::move(vcpus)),
      config_(config),
      epolls_(loop, [this](int fd) { return Readiness(fd); }),
      drain_scheduled_(static_cast<size_t>(dev->num_queue_sets()), false),
      batches_(static_cast<size_t>(dev->num_queue_sets())),
      poll_until_(static_cast<size_t>(dev->num_queue_sets()), 0),
      overflow_(static_cast<size_t>(dev->num_queue_sets())) {
  NK_CHECK(static_cast<int>(vcpus_.size()) == dev->num_queue_sets());
  dev_->SetWakeCallback([this] { OnDeviceWake(); });
}

GuestLib::GSock* GuestLib::FindByFd(int fd) {
  return fd >= 0 ? by_fd_.Find(static_cast<uint64_t>(fd)) : nullptr;
}

GuestLib::GSock* GuestLib::FindByHandle(uint32_t handle) { return socks_.Find(handle); }

int GuestLib::QueueSetOf(sim::CpuCore* core) const {
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    if (vcpus_[i] == core) return static_cast<int>(i);
  }
  return 0;
}

GuestLib::GSock& GuestLib::NewSock(sim::CpuCore* core) {
  const uint32_t handle = next_handle_++;
  GSock& ref = socks_.Insert(handle, std::make_unique<GSock>());
  ref.handle = handle;
  ref.fd = next_fd_++;
  ref.qset = QueueSetOf(core);
  ref.ev = std::make_unique<sim::SimEvent>(loop_);
  ref.send_limit = config_.sndbuf_bytes;
  by_fd_.Insert(static_cast<uint64_t>(ref.fd), &ref);
  return ref;
}

uint32_t GuestLib::Readiness(int fd) {
  GSock* g = FindByFd(fd);
  if (g == nullptr) return kEpollErr | kEpollHup;
  uint32_t r = 0;
  if (g->error) r |= kEpollErr;
  if (g->dgram) {
    if (!g->drx.empty()) r |= kEpollIn;
    if (g->send_usage < g->send_limit) r |= kEpollOut;
    return r;
  }
  if (!g->pending_conns.empty()) r |= kEpollIn;
  if (g->rx_bytes > 0 || g->fin) r |= kEpollIn;
  if (g->connected && g->send_usage < g->send_limit) r |= kEpollOut;
  return r;
}

void GuestLib::EnqueueJob(const GSock& g, NqeOp op, uint32_t vm_sock, uint64_t op_data,
                          uint8_t flags) {
  EnqueueRing(false, g.qset, op, vm_sock, op_data, 0, 0, flags);
}

void GuestLib::EnqueueSend(const GSock& g, NqeOp op, uint64_t op_data, uint64_t data_ptr,
                           uint32_t size) {
  EnqueueRing(true, g.qset, op, g.handle, op_data, data_ptr, size, 0);
}

void GuestLib::EnqueueRing(bool send_ring, int qset, NqeOp op, uint32_t vm_sock,
                           uint64_t op_data, uint64_t data_ptr, uint32_t size, uint8_t flags) {
  const auto write = [&](Nqe& nqe) {
    nqe = MakeNqe(op, vm_id_, static_cast<uint8_t>(qset), vm_sock, op_data, data_ptr, size);
    nqe.reserved[1] = flags;
    // T0: stamped wherever the NQE is built, so the trace id rides it even
    // when it sits in the overflow park first.
    if (tracer_ != nullptr) {
      Cycles tc = tracer_->OnGuestEnqueue(&nqe);
      if (tc != 0) vcpus_[static_cast<size_t>(qset)]->AccountOnly(tc);
    }
  };
  Overflow& ov = overflow_[static_cast<size_t>(qset)];
  shm::QueueSet& q = dev_->queue_set(qset);
  shm::SpscRing<Nqe>& ring = send_ring ? q.send : q.job;
  // Preserve FIFO: once anything is parked, everything goes through the park.
  if (ov.nqes.empty() && ring.TryEnqueueInPlace(write)) {
    ++nqes_sent_;
    ce_->NotifyVmOutbound(vm_id_, qset);  // wake only the owning shard
    return;
  }
  write(ov.nqes.emplace_back(send_ring, Nqe{}).second);
  if (!ov.flush_scheduled) {
    ov.flush_scheduled = true;
    loop_->ScheduleAfter(20 * kMicrosecond, [this, qset] { FlushOverflow(qset); });
  }
}

void GuestLib::FlushOverflow(int qset) {
  Overflow& ov = overflow_[static_cast<size_t>(qset)];
  ov.flush_scheduled = false;
  shm::QueueSet& q = dev_->queue_set(qset);
  bool progressed = false;
  while (!ov.nqes.empty()) {
    auto& [send_ring, nqe] = ov.nqes.front();
    shm::SpscRing<Nqe>& ring = send_ring ? q.send : q.job;
    if (!ring.TryEnqueue(nqe)) break;
    ++nqes_sent_;
    progressed = true;
    ov.nqes.pop_front();
  }
  if (progressed) ce_->NotifyVmOutbound(vm_id_, qset);
  if (!ov.nqes.empty() && !ov.flush_scheduled) {
    ov.flush_scheduled = true;
    loop_->ScheduleAfter(20 * kMicrosecond, [this, qset] { FlushOverflow(qset); });
  }
}

sim::Task<int> GuestLib::DoControlOp(sim::CpuCore* core, GSock& g, NqeOp op, uint64_t op_data,
                                     uint8_t flags) {
  co_await core->Work(kGuestKernel.syscall + ce_->costs().guestlib_translate);
  g.op_done = false;
  uint32_t handle = g.handle;
  EnqueueJob(g, op, handle, op_data, flags);
  for (;;) {
    GSock* g2 = FindByHandle(handle);
    if (g2 == nullptr) co_return tcp::kConnReset;
    if (g2->op_done) co_return g2->op_result;
    if (g2->error) co_return g2->err;
    co_await g2->ev->Wait();
  }
}

// ---------------------------------------------------------------------------
// SocketApi
// ---------------------------------------------------------------------------

sim::Task<int> GuestLib::Socket(sim::CpuCore* core) {
  // The guest kernel rewrites SOCK_STREAM to SOCK_NETKERNEL (§5): socket
  // creation becomes a kSocket NQE answered by the NSM.
  GSock& g = NewSock(core);
  int fd = g.fd;
  int r = co_await DoControlOp(core, g, NqeOp::kSocket);
  if (r != 0) co_return r;
  co_return fd;
}

sim::Task<int> GuestLib::Bind(sim::CpuCore* core, int fd, netsim::IpAddr ip, uint16_t port) {
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;
  NqeOp op = g->dgram ? NqeOp::kBindUdp : NqeOp::kBind;
  const uint32_t handle = g->handle;
  int r = co_await DoControlOp(core, *g, op, shm::PackAddr(ip, port));
  if (r == 0) {
    // Remember the datagram bind so it can be replayed to a standby NSM.
    GSock* g2 = FindByHandle(handle);
    if (g2 != nullptr && g2->dgram) {
      g2->dgram_bound = true;
      g2->dgram_bound_addr = shm::PackAddr(ip, port);
    }
  }
  co_return r;
}

sim::Task<int> GuestLib::Listen(sim::CpuCore* core, int fd, int backlog, bool reuseport) {
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;
  g->listening = true;
  co_return co_await DoControlOp(core, *g, NqeOp::kListen, static_cast<uint64_t>(backlog),
                                 reuseport ? 1 : 0);
}

sim::Task<int> GuestLib::Connect(sim::CpuCore* core, int fd, netsim::IpAddr ip, uint16_t port) {
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;
  co_await core->Work(kGuestKernel.syscall + ce_->costs().guestlib_translate);
  g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;
  uint32_t handle = g->handle;
  g->connect_done = false;  // wait for this call's own kConnectResult
  EnqueueJob(*g, NqeOp::kConnect, handle, shm::PackAddr(ip, port));
  for (;;) {
    GSock* g2 = FindByHandle(handle);
    if (g2 == nullptr) co_return tcp::kConnReset;
    if (g2->connect_done) {
      if (g2->connect_result == 0) g2->connected = true;
      co_return g2->connect_result;
    }
    co_await g2->ev->Wait();
  }
}

sim::Task<int> GuestLib::Accept(sim::CpuCore* core, int fd) {
  co_await core->Work(kGuestKernel.syscall);
  for (;;) {
    GSock* g = FindByFd(fd);
    if (g == nullptr) co_return tcp::kNotConnected;
    if (g->error) co_return g->err;
    if (!g->pending_conns.empty()) {
      uint64_t nsm_sock = g->pending_conns.front();
      g->pending_conns.pop_front();
      // Create the guest-side socket for the accepted connection and announce
      // its handle so CoreEngine can complete the connection-table entry.
      GSock& child = NewSock(core);
      child.connected = true;
      child.connect_done = true;
      co_await core->Work(ce_->costs().guestlib_translate);
      EnqueueJob(child, NqeOp::kAccept, child.handle, nsm_sock);
      co_return child.fd;
    }
    co_await g->ev->Wait();
  }
}

sim::Task<int64_t> GuestLib::Sendv(sim::CpuCore* core, int fd, const NkConstIoVec* iov,
                                   int iovcnt) {
  co_await core->Work(kGuestKernel.syscall + ce_->costs().guestlib_translate);
  uint64_t total = 0;
  for (int i = 0; i < iovcnt; ++i) total += iov[i].len;
  uint64_t sent = 0;
  int vi = 0;
  uint64_t voff = 0;
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr) co_return tcp::kNotConnected;
    handle = g->handle;
  }
  while (sent < total) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return tcp::kConnReset;
    if (g->error) co_return g->err;
    if (!g->connected) co_return tcp::kNotConnected;
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(shm::HugepagePool::kMaxChunk, total - sent));
    if (g->send_usage + chunk > g->send_limit) {
      co_await g->ev->Wait();  // kSendResult returns credits
      continue;
    }
    uint64_t off = pool_->Alloc(chunk);
    if (off == shm::HugepagePool::kInvalidOffset) {
      // Hugepage region exhausted: wait for in-flight sends to drain.
      if (g->send_usage > 0) {
        co_await g->ev->Wait();
      } else {
        co_await sim::Delay(loop_, 50 * kMicrosecond);
      }
      continue;
    }
    // Copy payload from userspace into the shared hugepages (§4.5), gathering
    // across the iovecs. This is the copy the zero-copy path (AcquireTxBuf +
    // SendBuf) eliminates by having the app fill the chunk in place.
    co_await core->Work(
        static_cast<Cycles>(ce_->costs().hugepage_copy_per_byte * chunk));
    g = FindByHandle(handle);
    if (g == nullptr) {
      pool_->Free(off);
      co_return tcp::kConnReset;
    }
    uint8_t* dst = pool_->Data(off);
    uint32_t filled = 0;
    while (filled < chunk) {
      while (voff >= iov[vi].len) {
        ++vi;
        voff = 0;
      }
      uint32_t take = static_cast<uint32_t>(
          std::min<uint64_t>(chunk - filled, iov[vi].len - voff));
      std::memcpy(dst + filled, iov[vi].data + voff, take);
      filled += take;
      voff += take;
    }
    g->send_usage += chunk;
    EnqueueSend(*g, NqeOp::kSend, 0, off, chunk);
    sent += chunk;
  }
  co_return static_cast<int64_t>(sent);
}

// ---------------------------------------------------------------------------
// Zero-copy registered-buffer datapath
// ---------------------------------------------------------------------------

sim::Task<int> GuestLib::AcquireTxBuf(sim::CpuCore* core, int fd, uint32_t len, NkBuf* out) {
  co_await core->Work(kGuestKernel.syscall);
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr) co_return tcp::kNotConnected;
    handle = g->handle;
  }
  const uint32_t want =
      std::max<uint32_t>(1, std::min<uint32_t>(len, shm::HugepagePool::kMaxChunk));
  for (;;) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return tcp::kConnReset;
    if (g->error) co_return g->err;
    // A datagram loan needs no connection; a stream loan does.
    if (!g->dgram && !g->connected) co_return tcp::kNotConnected;
    // The credit is reserved at acquire time: an application sitting on a
    // loan holds send-buffer space, exactly like bytes it had written.
    if (g->send_usage + want > g->send_limit) {
      co_await g->ev->Wait();
      continue;
    }
    uint64_t off = pool_->Alloc(want);
    if (off == shm::HugepagePool::kInvalidOffset) {
      if (g->send_usage > 0) {
        co_await g->ev->Wait();
      } else {
        co_await sim::Delay(loop_, 50 * kMicrosecond);
      }
      continue;
    }
    g->send_usage += want;
    g->tx_loans[off] = want;
    out->handle = off;
    out->data = pool_->Data(off);
    out->capacity = want;
    out->size = 0;
    co_return 0;
  }
}

sim::Task<int64_t> GuestLib::SendBuf(sim::CpuCore* core, int fd, NkBuf buf) {
  co_await core->Work(kGuestKernel.syscall + ce_->costs().guestlib_translate);
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;  // Close() revoked the loan
  auto it = g->tx_loans.find(buf.handle);
  if (it == g->tx_loans.end()) co_return tcp::kInvalidArg;
  const uint32_t reserved = it->second;
  const uint32_t n = std::min(buf.size, reserved);
  g->tx_loans.erase(it);
  auto release_credit = [this, g](uint32_t bytes) {
    g->send_usage = g->send_usage > bytes ? g->send_usage - bytes : 0;
    g->ev->NotifyAll();
    epolls_.NotifyFd(g->fd);
  };
  if (g->error || !g->connected || n == 0) {
    pool_->Free(buf.handle);
    release_credit(reserved);
    if (g->error) co_return g->err;
    if (!g->connected) co_return tcp::kNotConnected;
    co_return 0;
  }
  // No copy: ownership of the filled chunk transfers as-is. The reserved
  // credit for unfilled capacity returns now; the rest returns only when the
  // byte range is ACKed (kSendZcComplete).
  if (n < reserved) release_credit(reserved - n);
  ++zc_sends_;
  EnqueueSend(*g, NqeOp::kSendZc, 0, buf.handle, n);
  co_return static_cast<int64_t>(n);
}

sim::Task<int64_t> GuestLib::RecvBuf(sim::CpuCore* core, int fd, NkBuf* out) {
  co_await core->Work(kGuestKernel.syscall);
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr || g->dgram) co_return tcp::kNotConnected;
    handle = g->handle;
  }
  for (;;) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return 0;
    if (g->rx_bytes > 0) {
      // Loan the front chunk to the application as-is — no hugepage->app
      // copy. The receive credit (the full chunk) returns at ReleaseBuf.
      RxChunk c = g->rx.front();
      g->rx.pop_front();
      const uint32_t avail = c.size - c.consumed;
      g->rx_bytes -= avail;
      g->rx_loans[c.ptr] = GSock::RxLoan{c.size, false};
      out->handle = c.ptr;
      out->data = pool_->Data(c.ptr + c.consumed);
      out->capacity = avail;
      out->size = avail;
      co_return static_cast<int64_t>(avail);
    }
    if (g->fin) co_return 0;
    if (g->error) co_return g->err;
    co_await g->ev->Wait();
  }
}

sim::Task<int> GuestLib::ReleaseBuf(sim::CpuCore* core, int fd, NkBuf buf) {
  co_await core->Work(kGuestKernel.syscall);
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;  // Close() revoked the loan
  auto rit = g->rx_loans.find(buf.handle);
  if (rit != g->rx_loans.end()) {
    const GSock::RxLoan loan = rit->second;
    g->rx_loans.erase(rit);
    pool_->Free(buf.handle);
    if (loan.dgram) {
      // Datagram receive credit returns through the NQE channel (kRecvFrom),
      // exactly like the copying RecvFrom path.
      EnqueueJob(*g, NqeOp::kRecvFrom, g->handle, loan.size);
    } else if (recv_credit_cb_) {
      // Ring the stream receive-credit channel so the NSM resumes shipping.
      recv_credit_cb_(g->handle, loan.size);
    }
    co_return 0;
  }
  auto tit = g->tx_loans.find(buf.handle);
  if (tit != g->tx_loans.end()) {
    const uint32_t reserved = tit->second;
    g->tx_loans.erase(tit);
    pool_->Free(buf.handle);
    g->send_usage = g->send_usage > reserved ? g->send_usage - reserved : 0;
    g->ev->NotifyAll();
    epolls_.NotifyFd(g->fd);
    co_return 0;
  }
  co_return tcp::kInvalidArg;
}

sim::Task<int> GuestLib::SocketDgram(sim::CpuCore* core) {
  // SOCK_DGRAM is rewritten to SOCK_NETKERNEL just like SOCK_STREAM (§5);
  // only the NQE verb differs, so the NSM knows to create a UDP socket.
  GSock& g = NewSock(core);
  g.dgram = true;
  int fd = g.fd;
  uint32_t handle = g.handle;
  int r = co_await DoControlOp(core, g, NqeOp::kSocketUdp);
  if (r != 0) {
    // The NSM rejected the socket (e.g. a shared-memory NSM has no datagram
    // transport); the app never sees the fd, so reclaim it here.
    if (FindByHandle(handle) != nullptr) {
      by_fd_.Erase(static_cast<uint64_t>(fd));
      socks_.Erase(handle);
    }
    co_return r;
  }
  co_return fd;
}

sim::Task<int64_t> GuestLib::SendTo(sim::CpuCore* core, int fd, netsim::IpAddr dst_ip,
                                    uint16_t dst_port, const uint8_t* data, uint64_t len) {
  co_await core->Work(kGuestKernel.syscall + ce_->costs().guestlib_translate);
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr || !g->dgram) co_return udp::kBadSocket;
    handle = g->handle;
  }
  if (len > udp::kMaxDatagram || len > shm::HugepagePool::kMaxChunk) {
    co_return udp::kMsgSize;
  }
  const uint32_t size = static_cast<uint32_t>(len);
  for (;;) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return udp::kBadSocket;
    if (g->error) co_return g->err;
    // A datagram is sent whole or not at all; wait for send credit for all
    // of it (kSendToResult returns credits as the NSM transmits).
    if (g->send_usage + size > g->send_limit) {
      co_await g->ev->Wait();
      continue;
    }
    uint64_t off = pool_->Alloc(size > 0 ? size : 1);
    if (off == shm::HugepagePool::kInvalidOffset) {
      if (g->send_usage > 0) {
        co_await g->ev->Wait();
      } else {
        co_await sim::Delay(loop_, 50 * kMicrosecond);
      }
      continue;
    }
    // Copy payload from userspace into the shared hugepages (§4.5).
    co_await core->Work(static_cast<Cycles>(ce_->costs().hugepage_copy_per_byte * size));
    g = FindByHandle(handle);
    if (g == nullptr) {
      pool_->Free(off);
      co_return udp::kBadSocket;
    }
    if (size > 0) std::memcpy(pool_->Data(off), data, size);
    g->send_usage += size;
    EnqueueSend(*g, NqeOp::kSendTo, shm::PackAddr(dst_ip, dst_port), off, size);
    co_return static_cast<int64_t>(size);
  }
}

sim::Task<int64_t> GuestLib::RecvFrom(sim::CpuCore* core, int fd, uint8_t* out, uint64_t max,
                                      netsim::IpAddr* src_ip, uint16_t* src_port) {
  co_await core->Work(kGuestKernel.syscall);
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr || !g->dgram) co_return udp::kBadSocket;
    handle = g->handle;
  }
  for (;;) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return udp::kBadSocket;
    if (!g->drx.empty()) {
      DgramChunk c = g->drx.front();
      g->drx.pop_front();
      g->drx_bytes -= c.size;
      uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(c.size, max));
      co_await core->Work(static_cast<Cycles>(ce_->costs().hugepage_copy_per_byte * n));
      if (n > 0 && out != nullptr) std::memcpy(out, pool_->Data(c.ptr), n);
      pool_->Free(c.ptr);
      if (src_ip != nullptr) *src_ip = shm::AddrIp(c.src);
      if (src_port != nullptr) *src_port = shm::AddrPort(c.src);
      // Return the datagram receive credit through the NQE channel so the
      // NSM resumes shipping (the kRecvFrom verb).
      GSock* g2 = FindByHandle(handle);
      if (g2 != nullptr) {
        EnqueueJob(*g2, NqeOp::kRecvFrom, handle, c.size);
      }
      co_return static_cast<int64_t>(n);
    }
    if (g->error) co_return g->err;
    co_await g->ev->Wait();
  }
}

sim::Task<int64_t> GuestLib::SendToBuf(sim::CpuCore* core, int fd, netsim::IpAddr dst_ip,
                                       uint16_t dst_port, NkBuf buf) {
  co_await core->Work(kGuestKernel.syscall + ce_->costs().guestlib_translate);
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return udp::kBadSocket;  // Close() revoked the loan
  auto it = g->tx_loans.find(buf.handle);
  if (it == g->tx_loans.end()) co_return tcp::kInvalidArg;
  const uint32_t reserved = it->second;
  const uint32_t n = std::min(buf.size, reserved);
  g->tx_loans.erase(it);
  auto release_credit = [this, g](uint32_t bytes) {
    g->send_usage = g->send_usage > bytes ? g->send_usage - bytes : 0;
    g->ev->NotifyAll();
    epolls_.NotifyFd(g->fd);
  };
  if (!g->dgram || g->error || n == 0) {
    pool_->Free(buf.handle);
    release_credit(reserved);
    if (!g->dgram) co_return udp::kBadSocket;
    if (g->error) co_return g->err;
    co_return 0;
  }
  // No copy: the filled chunk transfers as-is; the credit for unfilled
  // capacity returns now, the rest when the NSM commits the wire datagram
  // (kSendToResult with orig kSendToZc).
  if (n < reserved) release_credit(reserved - n);
  ++dgram_zc_sends_;
  EnqueueSend(*g, NqeOp::kSendToZc, shm::PackAddr(dst_ip, dst_port), buf.handle, n);
  co_return static_cast<int64_t>(n);
}

sim::Task<int64_t> GuestLib::RecvFromBuf(sim::CpuCore* core, int fd, NkBuf* out,
                                         netsim::IpAddr* src_ip, uint16_t* src_port) {
  co_await core->Work(kGuestKernel.syscall);
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr || !g->dgram) co_return udp::kBadSocket;
    handle = g->handle;
  }
  for (;;) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return udp::kBadSocket;
    if (!g->drx.empty()) {
      // Loan the whole datagram chunk to the application — no hugepage->app
      // copy; the receive credit returns at ReleaseBuf via kRecvFrom.
      DgramChunk c = g->drx.front();
      g->drx.pop_front();
      g->drx_bytes -= c.size;
      g->rx_loans[c.ptr] = GSock::RxLoan{c.size, true};
      out->handle = c.ptr;
      out->data = pool_->Data(c.ptr);
      out->capacity = c.size;
      out->size = c.size;
      if (src_ip != nullptr) *src_ip = shm::AddrIp(c.src);
      if (src_port != nullptr) *src_port = shm::AddrPort(c.src);
      co_return static_cast<int64_t>(c.size);
    }
    if (g->error) co_return g->err;
    co_await g->ev->Wait();
  }
}

sim::Task<int64_t> GuestLib::Recvv(sim::CpuCore* core, int fd, const NkIoVec* iov,
                                   int iovcnt) {
  co_await core->Work(kGuestKernel.syscall);
  uint64_t total = 0;
  for (int i = 0; i < iovcnt; ++i) total += iov[i].len;
  if (total == 0) co_return 0;  // zero-capacity read never blocks
  uint32_t handle;
  {
    GSock* g = FindByFd(fd);
    if (g == nullptr) co_return tcp::kNotConnected;
    handle = g->handle;
  }
  for (;;) {
    GSock* g = FindByHandle(handle);
    if (g == nullptr) co_return 0;
    if (g->rx_bytes > 0) {
      uint64_t target = std::min(g->rx_bytes, total);
      // Copy from hugepages to the application buffers (§4.5) — the copy the
      // zero-copy path (RecvBuf/ReleaseBuf) eliminates by loaning the chunk.
      co_await core->Work(static_cast<Cycles>(ce_->costs().hugepage_copy_per_byte * target));
      g = FindByHandle(handle);
      if (g == nullptr) co_return 0;
      target = std::min(target, g->rx_bytes);  // consumed concurrently?
      uint64_t copied = 0;
      int vi = 0;
      uint64_t voff = 0;
      while (copied < target && !g->rx.empty()) {
        RxChunk& c = g->rx.front();
        while (voff >= iov[vi].len) {
          ++vi;
          voff = 0;
        }
        uint32_t take = static_cast<uint32_t>(std::min<uint64_t>(
            {static_cast<uint64_t>(c.size - c.consumed), iov[vi].len - voff,
             target - copied}));
        std::memcpy(iov[vi].data + voff, pool_->Data(c.ptr + c.consumed), take);
        c.consumed += take;
        voff += take;
        copied += take;
        g->rx_bytes -= take;
        if (c.consumed == c.size) {
          pool_->Free(c.ptr);
          uint32_t sz = c.size;
          g->rx.pop_front();
          // Return receive credit through shared memory (the NSM observes the
          // freed chunk and resumes shipping).
          if (recv_credit_cb_) recv_credit_cb_(handle, sz);
          g = FindByHandle(handle);  // the credit callback may close sockets
          if (g == nullptr) co_return static_cast<int64_t>(copied);
        }
      }
      if (copied > 0) co_return static_cast<int64_t>(copied);
    }
    if (g->fin) co_return 0;
    if (g->error) co_return g->err;
    co_await g->ev->Wait();
  }
}

sim::Task<int> GuestLib::Close(sim::CpuCore* core, int fd) {
  co_await core->Work(kGuestKernel.syscall + ce_->costs().guestlib_translate);
  GSock* g = FindByFd(fd);
  if (g == nullptr) co_return tcp::kNotConnected;
  // A listening socket may hold accepted-but-unclaimed connections: link each
  // one to a throwaway guest handle, then close it, so the NSM side tears the
  // established connection down (FIN to the peer) instead of leaking it. The
  // job-ring FIFO guarantees the link lands before its close.
  if (g->listening) {
    for (uint64_t nsm_sock : g->pending_conns) {
      uint32_t h = next_handle_++;
      EnqueueJob(*g, NqeOp::kAccept, h, nsm_sock);
      EnqueueJob(*g, NqeOp::kClose, h);
    }
    g->pending_conns.clear();
  }
  // Pipelined close (§4.6): fire the NQE and return without waiting.
  EnqueueJob(*g, NqeOp::kClose, g->handle);
  for (RxChunk& c : g->rx) pool_->Free(c.ptr);
  g->rx.clear();
  for (DgramChunk& c : g->drx) pool_->Free(c.ptr);
  g->drx.clear();
  // Revoke outstanding zero-copy loans: the app's pointers die with the fd.
  for (const auto& [off, sz] : g->tx_loans) pool_->Free(off);
  g->tx_loans.clear();
  for (const auto& [off, sz] : g->rx_loans) pool_->Free(off);
  g->rx_loans.clear();
  epolls_.RemoveFd(fd);
  by_fd_.Erase(static_cast<uint64_t>(fd));
  socks_.Erase(g->handle);
  co_return 0;
}

sim::Task<std::vector<EpollEvent>> GuestLib::EpollWait(sim::CpuCore* core, int epfd,
                                                       size_t max_events, SimTime timeout) {
  co_await core->Work(kGuestKernel.syscall);
  std::vector<EpollEvent> evs = co_await epolls_.Wait(epfd, max_events, timeout);
  co_await core->Work(kGuestKernel.epoll_wakeup + kGuestKernel.epoll_fetch * evs.size());
  co_return evs;
}

// ---------------------------------------------------------------------------
// Inbound NQE processing (completion + receive queues)
// ---------------------------------------------------------------------------

void GuestLib::OnDeviceWake() {
  for (int qs = 0; qs < dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev_->queue_set(qs);
    if (!q.completion.Empty() || !q.receive.Empty()) ProcessInbound(qs);
  }
}

void GuestLib::ProcessInbound(int qs) {
  if (drain_scheduled_[qs]) return;
  drain_scheduled_[qs] = true;

  shm::QueueSet& q = dev_->queue_set(qs);
  Nqe buf[128];
  size_t n = q.completion.DequeueBatch(buf, 64);
  n += q.receive.DequeueBatch(buf + n, 64);
  if (n == 0) {
    drain_scheduled_[qs] = false;
    return;
  }
  nqes_received_ += n;

  // Interrupt-driven polling (§4.6): within the polling window the NQEs are
  // picked up by the poll loop; outside it CoreEngine's wakeup interrupt
  // costs device_wakeup cycles.
  const SimTime now = loop_->Now();
  Cycles cost = ce_->costs().nqe_parse * static_cast<Cycles>(n);
  if (now >= poll_until_[qs]) cost += ce_->costs().device_wakeup;

  // drain_scheduled_ keeps this queue set to one batch in flight, so its
  // buffer is free again by the time the next batch is taken.
  batches_[qs].assign(buf, buf + n);
  vcpus_[qs]->Charge(cost, [this, qs] {
    poll_until_[qs] = loop_->Now() + ce_->costs().guest_poll_period;
    for (const Nqe& nqe : batches_[qs]) {
      // T4: completion reached the guest; closes out the traced sample.
      if (tracer_ != nullptr) {
        Cycles tc = tracer_->OnGuestReap(nqe);
        if (tc != 0) vcpus_[qs]->AccountOnly(tc);
      }
      ApplyInbound(nqe);
    }
    drain_scheduled_[qs] = false;
    shm::QueueSet& q2 = dev_->queue_set(qs);
    if (!q2.completion.Empty() || !q2.receive.Empty()) ProcessInbound(qs);
  });
}

void GuestLib::ApplyInbound(const Nqe& nqe) {
  // kNsmRehomed is a per-VM notification (vm_sock = 0): it names no socket.
  const bool per_vm = nqe.Op() == NqeOp::kNsmRehomed;
  GSock* g = per_vm ? nullptr : FindByHandle(nqe.vm_sock);
  if (g == nullptr && !per_vm) {
    // Socket already closed; free any referenced hugepage chunk. A datagram
    // NQE always references a chunk — even a zero-length datagram rides in a
    // minimal allocation.
    if (shm::CarriesRxChunk(nqe.Op()) && (nqe.Op() != NqeOp::kRecvData || nqe.size > 0)) {
      // The offset comes off a shared ring: free only what the pool actually
      // has allocated, or a forged completion aborts the whole guest.
      if (pool_->IsAllocated(nqe.data_ptr)) {
        pool_->Free(nqe.data_ptr);
      } else {
        ++guard_bad_frees_;
      }
    }
    // CoreEngine-rejected send whose socket closed meanwhile: the payload
    // chunk was never consumed and still belongs to this guest.
    if (nqe.reserved[1] == shm::kNqeFlagChunkUnconsumed && shm::IsChunkReclaim(nqe.Op())) {
      if (pool_->IsAllocated(nqe.data_ptr)) {
        pool_->Free(nqe.data_ptr);
        ++send_credit_reclaims_;
      } else {
        ++guard_bad_frees_;
      }
    }
    if (nqe.Op() == NqeOp::kSendZcComplete) ++zc_completions_;
    if (nqe.Op() == NqeOp::kSendToResult &&
        static_cast<NqeOp>(nqe.reserved[0]) == NqeOp::kSendToZc) {
      ++dgram_zc_completions_;
    }
    return;
  }
  switch (nqe.Op()) {
    case NqeOp::kOpResult:
      g->op_done = true;
      g->op_result = static_cast<int32_t>(nqe.size);
      break;
    case NqeOp::kConnectResult:
      g->connect_done = true;
      g->connect_result = static_cast<int32_t>(nqe.size);
      if (g->connect_result == 0) g->connected = true;
      break;
    case NqeOp::kAcceptedConn:
      g->pending_conns.push_back(nqe.op_data);
      break;
    case NqeOp::kSendResult:
    case NqeOp::kSendToResult: {
      uint64_t bytes = nqe.op_data;
      g->send_usage = g->send_usage > bytes ? g->send_usage - bytes : 0;
      if (static_cast<NqeOp>(nqe.reserved[0]) == NqeOp::kSendToZc) {
        ++dgram_zc_completions_;
      }
      if (nqe.reserved[1] == shm::kNqeFlagChunkUnconsumed) {
        // CoreEngine could not deliver the send (no NSM, or switch overload
        // beyond the pending bound): reclaim the untouched payload chunk.
        // A lost stream write breaks the byte stream, so the TCP socket is
        // errored; a lost datagram is ordinary UDP loss.
        if (pool_->IsAllocated(nqe.data_ptr)) {
          pool_->Free(nqe.data_ptr);
          ++send_credit_reclaims_;
        } else {
          ++guard_bad_frees_;
        }
        if (nqe.Op() == NqeOp::kSendResult) {
          g->error = true;
          g->err = static_cast<int32_t>(nqe.size);
        }
      }
      break;
    }
    case NqeOp::kSendZcComplete: {
      // Zero-copy send retired: the byte range was ACKed (the NSM freed the
      // chunk into the shared pool) — or the switch failed it before any
      // consumer saw it, in which case the untouched chunk is still ours.
      uint64_t bytes = nqe.op_data;
      g->send_usage = g->send_usage > bytes ? g->send_usage - bytes : 0;
      ++zc_completions_;
      if (nqe.reserved[1] == shm::kNqeFlagChunkUnconsumed) {
        if (pool_->IsAllocated(nqe.data_ptr)) {
          pool_->Free(nqe.data_ptr);
          ++send_credit_reclaims_;
        } else {
          ++guard_bad_frees_;
        }
        // A lost zero-copy stream write breaks the byte stream.
        g->error = true;
        g->err = static_cast<int32_t>(nqe.size);
      } else if (static_cast<int32_t>(nqe.size) != 0) {
        g->error = true;
        g->err = static_cast<int32_t>(nqe.size);
      }
      break;
    }
    case NqeOp::kDgramRecvZc:
      ++dgram_zc_recvs_;
      [[fallthrough]];
    case NqeOp::kDgramRecv:
      g->drx.push_back(DgramChunk{nqe.data_ptr, nqe.size, nqe.op_data});
      g->drx_bytes += nqe.size;
      break;
    case NqeOp::kRecvData:
      g->rx.push_back(RxChunk{nqe.data_ptr, nqe.size, 0});
      g->rx_bytes += nqe.size;
      break;
    case NqeOp::kFinReceived:
      g->fin = true;
      if (nqe.size != 0) {
        g->error = true;
        g->err = static_cast<int32_t>(nqe.size);
        // An errored FIN (connection torn down under the app, e.g. its NSM
        // was failed over): the stream is dead and the app owes a reconnect.
        if (!g->dgram) ++reconnects_required_;
      }
      break;
    case NqeOp::kNsmRehomed:
      OnNsmRehomed(static_cast<uint8_t>(nqe.op_data));
      return;  // no socket to wake
    case NqeOp::kInvalid:
    case NqeOp::kSocket:
    case NqeOp::kBind:
    case NqeOp::kListen:
    case NqeOp::kConnect:
    case NqeOp::kAccept:
    case NqeOp::kClose:
    case NqeOp::kSend:
    case NqeOp::kSocketUdp:
    case NqeOp::kBindUdp:
    case NqeOp::kSendTo:
    case NqeOp::kRecvFrom:
    case NqeOp::kSendZc:
    case NqeOp::kSendToZc:
      // Request-direction ops (like non-op bytes, which match no case) never
      // get past CoreEngine's NSM-direction check (guard::IsNsmToGuestOp);
      // with the guard off, a buggy or hostile NSM-side writer is ignored,
      // not UB.
      break;
  }
  g->ev->NotifyAll();
  epolls_.NotifyFd(g->fd);
}

void GuestLib::OnNsmRehomed(uint8_t new_nsm_id) {
  (void)new_nsm_id;  // routing already re-pointed; the id is informational
  ++nsm_rehomes_;
  // The standby NSM starts with an empty socket table. Replay creation (and
  // the remembered bind) for every SOCK_DGRAM handle so bound server sockets
  // keep receiving under the same guest fds — datagram state is small enough
  // to rebuild statelessly, which is why dgram flows survive a failover.
  // Stream sockets are NOT replayed: their connections died with the old NSM
  // and arrive here separately as errored FINs (counted reconnects).
  socks_.ForEach([this](GSock& g) {
    if (!g.dgram) return;
    EnqueueJob(g, NqeOp::kSocketUdp, g.handle);
    if (g.dgram_bound) EnqueueJob(g, NqeOp::kBindUdp, g.handle, g.dgram_bound_addr);
    g.ev->NotifyAll();
    epolls_.NotifyFd(g.fd);
  });
}

}  // namespace netkernel::core
