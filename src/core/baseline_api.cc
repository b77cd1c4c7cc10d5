// Copyright (c) NetKernel reproduction authors.

#include "src/core/baseline_api.h"

#include <algorithm>

namespace netkernel::core {

BaselineSocketApi::BaselineSocketApi(sim::EventLoop* loop, tcp::TcpStack* stack,
                                     udp::UdpStack* udp_stack)
    : loop_(loop),
      stack_(stack),
      udp_stack_(udp_stack),
      epolls_(loop, [this](int fd) { return Readiness(fd); }) {}

BaselineSocketApi::Fd* BaselineSocketApi::FindFd(int fd) {
  return fd >= 0 && static_cast<size_t>(fd) < fds_.size() ? fds_[static_cast<size_t>(fd)].get()
                                                          : nullptr;
}

int BaselineSocketApi::NewFd() {
  const int fd = next_fd_++;
  const size_t i = static_cast<size_t>(fd);
  if (fds_.size() <= i) fds_.resize(i + 1);
  fds_[i] = std::make_unique<Fd>();
  fds_[i]->ev = std::make_unique<sim::SimEvent>(loop_);
  return fd;
}

int BaselineSocketApi::WrapSocket(tcp::SocketId sid) {
  const int fd = NewFd();
  FindFd(fd)->sid = sid;
  InstallCallbacks(fd);
  return fd;
}

void BaselineSocketApi::InstallCallbacks(int fd) {
  Fd* f = FindFd(fd);
  tcp::SocketCallbacks cbs;
  cbs.on_connect = [this, fd](int err) {
    Fd* f2 = FindFd(fd);
    if (f2 == nullptr) return;
    f2->connect_done = true;
    f2->connect_result = err;
    f2->ev->NotifyAll();
    epolls_.NotifyFd(fd);
  };
  auto notify = [this, fd] {
    Fd* f2 = FindFd(fd);
    if (f2 == nullptr) return;
    f2->ev->NotifyAll();
    epolls_.NotifyFd(fd);
  };
  cbs.on_readable = notify;
  cbs.on_writable = notify;
  cbs.on_acceptable = notify;
  cbs.on_error = [this, fd](int err) {
    Fd* f2 = FindFd(fd);
    if (f2 == nullptr) return;
    f2->error = true;
    f2->err = err;
    f2->ev->NotifyAll();
    epolls_.NotifyFd(fd);
  };
  stack_->SetCallbacks(f->sid, std::move(cbs));
}

int BaselineSocketApi::WrapDgramSocket(udp::SocketId usid) {
  const int fd = NewFd();
  Fd* f = FindFd(fd);
  f->dgram = true;
  f->usid = usid;
  udp::UdpSocketCallbacks cbs;
  cbs.on_readable = [this, fd] {
    Fd* f2 = FindFd(fd);
    if (f2 == nullptr) return;
    f2->ev->NotifyAll();
    epolls_.NotifyFd(fd);
  };
  udp_stack_->SetCallbacks(usid, std::move(cbs));
  return fd;
}

uint32_t BaselineSocketApi::Readiness(int fd) {
  Fd* f = FindFd(fd);
  if (f == nullptr) return kEpollErr | kEpollHup;
  if (f->dgram) {
    uint32_t r = kEpollOut;  // UDP sends never block on peer state
    if (udp_stack_->RxQueuedDatagrams(f->usid) > 0) r |= kEpollIn;
    if (!udp_stack_->Exists(f->usid)) r |= kEpollHup;
    return r;
  }
  uint32_t r = 0;
  if (f->error) r |= kEpollErr;
  if (stack_->HasPendingAccept(f->sid)) r |= kEpollIn;
  if (stack_->RecvAvailable(f->sid) > 0 || stack_->FinReceived(f->sid)) r |= kEpollIn;
  tcp::TcpState st = stack_->State(f->sid);
  if ((st == tcp::TcpState::kEstablished || st == tcp::TcpState::kCloseWait) &&
      stack_->SendBufSpace(f->sid) > 0) {
    r |= kEpollOut;
  }
  if (!stack_->Exists(f->sid)) r |= kEpollHup;
  return r;
}

sim::Task<int> BaselineSocketApi::Socket(sim::CpuCore* core) {
  co_await core->Work(stack_->config().profile.syscall);
  co_return WrapSocket(stack_->CreateSocket());
}

sim::Task<int> BaselineSocketApi::Bind(sim::CpuCore* core, int fd, netsim::IpAddr ip,
                                       uint16_t port) {
  co_await core->Work(stack_->config().profile.syscall);
  Fd* f = FindFd(fd);
  if (f == nullptr) co_return tcp::kNotConnected;
  if (f->dgram) co_return udp_stack_->Bind(f->usid, ip, port);
  co_return stack_->Bind(f->sid, ip, port);
}

sim::Task<int> BaselineSocketApi::Listen(sim::CpuCore* core, int fd, int backlog,
                                         bool reuseport) {
  co_await core->Work(stack_->config().profile.syscall);
  Fd* f = FindFd(fd);
  if (f == nullptr) co_return tcp::kNotConnected;
  co_return stack_->Listen(f->sid, backlog, reuseport);
}

sim::Task<int> BaselineSocketApi::Connect(sim::CpuCore* core, int fd, netsim::IpAddr ip,
                                          uint16_t port) {
  co_await core->Work(stack_->config().profile.syscall);
  Fd* f = FindFd(fd);
  if (f == nullptr) co_return tcp::kNotConnected;
  int r = stack_->Connect(f->sid, ip, port);
  if (r != tcp::kOk) co_return r;
  while (true) {
    f = FindFd(fd);
    if (f == nullptr) co_return tcp::kConnReset;
    if (f->connect_done) co_return f->connect_result;
    co_await f->ev->Wait();
  }
}

sim::Task<int> BaselineSocketApi::Accept(sim::CpuCore* core, int fd) {
  co_await core->Work(stack_->config().profile.syscall);
  for (;;) {
    Fd* f = FindFd(fd);
    if (f == nullptr) co_return tcp::kNotConnected;
    tcp::SocketId child = stack_->Accept(f->sid);
    if (child != tcp::kInvalidSocket) {
      int cfd = WrapSocket(child);
      FindFd(cfd)->connect_done = true;
      co_return cfd;
    }
    if (f->error) co_return f->err;
    co_await f->ev->Wait();
  }
}

sim::Task<int64_t> BaselineSocketApi::Sendv(sim::CpuCore* core, int fd, const NkConstIoVec* iov,
                                            int iovcnt) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  int64_t total_sent = 0;
  for (int i = 0; i < iovcnt; ++i) {
    uint64_t sent = 0;
    while (sent < iov[i].len) {
      Fd* f = FindFd(fd);
      if (f == nullptr) co_return tcp::kNotConnected;
      if (f->error) co_return f->err;
      uint64_t queued = stack_->Send(f->sid, iov[i].data + sent, iov[i].len - sent);
      if (queued > 0) {
        // Copy from userspace into kernel socket buffer.
        co_await core->Work(static_cast<Cycles>(p.copy_per_byte * queued));
        sent += queued;
        total_sent += static_cast<int64_t>(queued);
        continue;
      }
      if (!stack_->Exists(f->sid)) co_return tcp::kConnReset;
      co_await f->ev->Wait();
    }
  }
  co_return total_sent;
}

sim::Task<int64_t> BaselineSocketApi::Recvv(sim::CpuCore* core, int fd, const NkIoVec* iov,
                                            int iovcnt) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  uint64_t total = 0;
  for (int i = 0; i < iovcnt; ++i) total += iov[i].len;
  if (total == 0) co_return 0;  // zero-capacity read never blocks
  for (;;) {
    Fd* f = FindFd(fd);
    if (f == nullptr) co_return tcp::kNotConnected;
    uint64_t copied = 0;
    for (int i = 0; i < iovcnt; ++i) {
      if (iov[i].len == 0) continue;
      uint64_t n = stack_->Recv(f->sid, iov[i].data, iov[i].len);
      copied += n;
      if (n < iov[i].len) break;  // drained the receive buffer
    }
    if (copied > 0) {
      co_await core->Work(static_cast<Cycles>(p.copy_per_byte * copied));
      co_return static_cast<int64_t>(copied);
    }
    if (stack_->FinReceived(f->sid)) co_return 0;
    if (f->error) co_return f->err;
    if (!stack_->Exists(f->sid)) co_return 0;
    co_await f->ev->Wait();
  }
}

// ---------------------------------------------------------------------------
// Zero-copy loaning surface (heap arena)
// ---------------------------------------------------------------------------

sim::Task<int> BaselineSocketApi::AcquireTxBuf(sim::CpuCore* core, int fd, uint32_t len,
                                               NkBuf* out) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  Fd* f = FindFd(fd);
  if (f == nullptr) co_return tcp::kNotConnected;
  if (f->error) co_return f->err;
  // The arena is plain heap: acquisition never blocks (backpressure is
  // applied at SendBuf, where stack send-buffer space gates admission).
  // The loan is capped at the stack's send-buffer size as well as the TSO
  // chunk size, so an all-or-nothing SendBuf can always eventually fit.
  constexpr uint32_t kMaxLoan = 64 * 1024;  // one TSO chunk, like GuestLib
  const uint32_t want = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::min<uint64_t>(
             {len, kMaxLoan, stack_->config().sndbuf_bytes})));
  uint64_t id = arena_->Alloc(want);
  out->handle = id;
  out->data = arena_->Find(id)->mem.get();
  out->capacity = want;
  out->size = 0;
  co_return 0;
}

sim::Task<int64_t> BaselineSocketApi::SendBuf(sim::CpuCore* core, int fd, NkBuf buf) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  Arena::Block* b = arena_->Find(buf.handle);
  // A handle already handed to the stack is no longer the app's to send:
  // without the in_flight check a second SendBuf would queue the same block
  // twice and the first ACK's free would leave the stack transmitting from
  // freed memory.
  if (b == nullptr || b->in_flight) co_return tcp::kInvalidArg;
  const uint32_t n = std::min(buf.size, b->size);
  if (n == 0) {
    arena_->Free(buf.handle);
    co_return 0;
  }
  b->in_flight = true;
  const uint8_t* data = b->mem.get();
  for (;;) {
    Fd* f = FindFd(fd);
    if (f == nullptr || f->dgram) {
      arena_->Free(buf.handle);
      co_return tcp::kNotConnected;
    }
    if (f->error) {
      int err = f->err;
      arena_->Free(buf.handle);
      co_return err;
    }
    // MSG_ZEROCOPY-style: the stack transmits (and retransmits) from the
    // loaned block; no user->kernel copy is charged. The block frees on ACK.
    if (stack_->SendZc(f->sid, data, n,
                       [arena = arena_, id = buf.handle] { arena->Free(id); })) {
      co_return static_cast<int64_t>(n);
    }
    if (!stack_->Exists(f->sid)) {
      arena_->Free(buf.handle);
      co_return tcp::kConnReset;
    }
    co_await f->ev->Wait();  // send-buffer space frees on ACK
  }
}

sim::Task<int64_t> BaselineSocketApi::SendToBuf(sim::CpuCore* core, int fd,
                                                netsim::IpAddr dst_ip, uint16_t dst_port,
                                                NkBuf buf) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  Arena::Block* b = arena_->Find(buf.handle);
  if (b == nullptr || b->in_flight) co_return tcp::kInvalidArg;
  const uint32_t n = std::min(buf.size, b->size);
  Fd* f = FindFd(fd);
  if (f == nullptr || !f->dgram) {
    arena_->Free(buf.handle);
    co_return udp::kBadSocket;
  }
  if (n == 0) {
    arena_->Free(buf.handle);
    co_return 0;
  }
  // MSG_ZEROCOPY-style: the skb is built straight from the block (no
  // user->kernel copy charged); the block frees when the skb owns the bytes.
  b->in_flight = true;
  int r = udp_stack_->SendToZc(f->usid, dst_ip, dst_port, b->mem.get(), n,
                               [arena = arena_, id = buf.handle] { arena->Free(id); });
  if (r < 0) {
    arena_->Free(buf.handle);
    co_return r;
  }
  co_return static_cast<int64_t>(n);
}

sim::Task<int64_t> BaselineSocketApi::RecvFromBuf(sim::CpuCore* core, int fd, NkBuf* out,
                                                  netsim::IpAddr* src_ip, uint16_t* src_port) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  for (;;) {
    Fd* f = FindFd(fd);
    if (f == nullptr || !f->dgram) co_return udp::kBadSocket;
    uint32_t next = udp_stack_->NextDatagramSize(f->usid);
    if (udp_stack_->RxQueuedDatagrams(f->usid) > 0) {
      uint64_t id = arena_->Alloc(next > 0 ? next : 1);
      uint8_t* data = arena_->Find(id)->mem.get();
      int64_t n = udp_stack_->RecvFrom(f->usid, data, next, src_ip, src_port);
      if (n < 0) {
        arena_->Free(id);
        continue;
      }
      // The kernel->buffer copy stays: with the stack inside the guest there
      // is no shared region to loan the datagram from.
      co_await core->Work(static_cast<Cycles>(p.copy_per_byte * n));
      out->handle = id;
      out->data = data;
      out->capacity = next > 0 ? next : 1;
      out->size = static_cast<uint32_t>(n);
      co_return n;
    }
    co_await f->ev->Wait();
  }
}

sim::Task<int64_t> BaselineSocketApi::RecvBuf(sim::CpuCore* core, int fd, NkBuf* out) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  constexpr uint32_t kMaxLoan = 64 * 1024;
  for (;;) {
    Fd* f = FindFd(fd);
    if (f == nullptr || f->dgram) co_return tcp::kNotConnected;
    uint64_t avail = stack_->RecvAvailable(f->sid);
    if (avail > 0) {
      const uint32_t want = static_cast<uint32_t>(std::min<uint64_t>(avail, kMaxLoan));
      uint64_t id = arena_->Alloc(want);
      uint8_t* data = arena_->Find(id)->mem.get();
      uint64_t n = stack_->Recv(f->sid, data, want);
      if (n == 0) {
        arena_->Free(id);
        continue;
      }
      // The kernel->buffer copy stays: with the stack inside the guest there
      // is no shared region to loan the bytes from.
      co_await core->Work(static_cast<Cycles>(p.copy_per_byte * n));
      out->handle = id;
      out->data = data;
      out->capacity = want;
      out->size = static_cast<uint32_t>(n);
      co_return static_cast<int64_t>(n);
    }
    if (stack_->FinReceived(f->sid)) co_return 0;
    if (f->error) co_return f->err;
    if (!stack_->Exists(f->sid)) co_return 0;
    co_await f->ev->Wait();
  }
}

sim::Task<int> BaselineSocketApi::ReleaseBuf(sim::CpuCore* core, int fd, NkBuf buf) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  (void)fd;
  Arena::Block* b = arena_->Find(buf.handle);
  // Unknown handle (double release) or a block the stack currently owns
  // (released mid-flight): both are misuse — error out instead of freeing
  // memory the stack may still transmit from.
  if (b == nullptr || b->in_flight) co_return tcp::kInvalidArg;
  arena_->Free(buf.handle);
  co_return 0;
}

sim::Task<int> BaselineSocketApi::Close(sim::CpuCore* core, int fd) {
  co_await core->Work(stack_->config().profile.syscall);
  Fd* f = FindFd(fd);
  if (f == nullptr) co_return tcp::kNotConnected;
  if (f->dgram) {
    udp_stack_->Close(f->usid);
  } else {
    stack_->Close(f->sid);
  }
  epolls_.RemoveFd(fd);
  fds_[static_cast<size_t>(fd)].reset();
  co_return tcp::kOk;
}

sim::Task<int> BaselineSocketApi::SocketDgram(sim::CpuCore* core) {
  co_await core->Work(stack_->config().profile.syscall);
  if (udp_stack_ == nullptr) co_return udp::kBadSocket;
  co_return WrapDgramSocket(udp_stack_->CreateSocket());
}

sim::Task<int64_t> BaselineSocketApi::SendTo(sim::CpuCore* core, int fd, netsim::IpAddr dst_ip,
                                             uint16_t dst_port, const uint8_t* data,
                                             uint64_t len) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  Fd* f = FindFd(fd);
  if (f == nullptr || !f->dgram) co_return udp::kBadSocket;
  if (len > udp::kMaxDatagram) co_return udp::kMsgSize;
  // Copy from userspace into the kernel skb.
  co_await core->Work(static_cast<Cycles>(p.copy_per_byte * len));
  f = FindFd(fd);
  if (f == nullptr) co_return udp::kBadSocket;
  co_return udp_stack_->SendTo(f->usid, dst_ip, dst_port, data, static_cast<uint32_t>(len));
}

sim::Task<int64_t> BaselineSocketApi::RecvFrom(sim::CpuCore* core, int fd, uint8_t* out,
                                               uint64_t max, netsim::IpAddr* src_ip,
                                               uint16_t* src_port) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  for (;;) {
    Fd* f = FindFd(fd);
    if (f == nullptr || !f->dgram) co_return udp::kBadSocket;
    int64_t n = udp_stack_->RecvFrom(f->usid, out, max, src_ip, src_port);
    if (n >= 0) {
      co_await core->Work(static_cast<Cycles>(p.copy_per_byte * n));
      co_return n;
    }
    co_await f->ev->Wait();
  }
}

sim::Task<std::vector<EpollEvent>> BaselineSocketApi::EpollWait(sim::CpuCore* core, int epfd,
                                                                size_t max_events,
                                                                SimTime timeout) {
  const tcp::CostProfile& p = stack_->config().profile;
  co_await core->Work(p.syscall);
  std::vector<EpollEvent> evs = co_await epolls_.Wait(epfd, max_events, timeout);
  co_await core->Work(p.epoll_wakeup + p.epoll_fetch * evs.size());
  co_return evs;
}

}  // namespace netkernel::core
