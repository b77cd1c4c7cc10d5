// Copyright (c) NetKernel reproduction authors.
// ServiceLib's stack-backed transport: the kernel, mTCP and FairShare NSMs.
// Guest sockets map onto TcpStack / UdpStack sockets; payload moves between
// the VM's hugepages and the stack's buffers (copied, or handed over by
// reference on the zero-copy paths).

#include <algorithm>
#include <functional>

#include "src/common/check.h"
#include "src/core/servicelib.h"
#include "src/sim/fifo.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

class ServiceLib::StackTransport final : public ServiceLib::Transport {
 public:
  StackTransport(tcp::TcpStack* stack, udp::UdpStack* udp_stack)
      : stack_(stack), udp_stack_(udp_stack) {}
  ~StackTransport() override { *alive_ = false; }

  void Socket(const Nqe& nqe) override;
  void SocketUdp(const Nqe& nqe) override;
  void AcceptLink(const Nqe& nqe) override;
  void Bind(const Nqe& nqe, Conn& c) override;
  void BindUdp(const Nqe& nqe, Conn& c) override;
  void Listen(const Nqe& nqe, Conn& c) override;
  void Connect(const Nqe& nqe, Conn& c) override;
  void Send(const Nqe& nqe, Conn& c) override;
  void SendTo(const Nqe& nqe, Conn& c) override;
  void Close(Conn& c) override;
  void ResumeRecv(Conn& c) override;
  size_t DropConns(int vm) override;

 private:
  struct PendingTx {
    uint64_t ptr = 0;
    uint32_t size = 0;
    uint32_t consumed = 0;
    // Zero-copy chunk: handed to the stack by reference (all-or-nothing) and
    // freed only when the byte range is ACKed (kSendZcComplete).
    bool zc = false;
  };
  struct StackConn : Conn {
    // Datagram sockets live in the UDP stack; sid stays invalid for them.
    tcp::SocketId sid = tcp::kInvalidSocket;
    udp::SocketId usid = udp::kInvalidSocket;
    bool listener = false;
    bool ship_pending = false;
    int sends_in_flight = 0;  // kSend copies charged but not yet queued
    sim::Fifo<PendingTx> pending_tx;
  };

  static StackConn& Of(Conn& c) { return static_cast<StackConn&>(c); }
  StackConn* FindBySid(tcp::SocketId sid);
  StackConn* FindByUsid(udp::SocketId usid);
  // The allocator the stacks land this VM's inbound bytes with: straight
  // into its hugepage pool (the RX zero-copy datapath).
  std::shared_ptr<tcp::ChunkAllocator> RxAllocator(uint8_t vm_id);
  void InstallDataCallbacks(StackConn& c);
  void AutoAccept(tcp::SocketId listener_sid);

  // Send path: hugepages -> stack.
  void DoSend(const Nqe& nqe, StackConn& c);
  void DoSendZc(const Nqe& nqe, StackConn& c);
  void DrainPendingTx(StackConn& c);
  void MaybeFinishClose(tcp::SocketId sid);
  // Builds the free callback of a zero-copy chunk a stack holds by reference
  // (`orig` kSendZc: freed on ACK; kSendToZc: on wire commit): frees it into
  // the VM's pool and returns the send credit. The callback can fire on
  // teardown or during stack destruction — possibly after this transport,
  // the connection or the VM's pool are gone — hence the liveness token and
  // the pool re-resolution.
  std::function<void()> MakeZcFreeCallback(const StackConn& c, uint64_t ptr, uint32_t size,
                                           NqeOp orig);
  // A zero-copy chunk that can no longer reach the stack: free it and return
  // the credit with an error status.
  void FailZcTx(const StackConn& c, uint64_t ptr, uint32_t size);

  // Receive path: stack -> hugepages -> kRecvData / kDgramRecv NQEs.
  void ShipRecv(tcp::SocketId sid);
  void ShipDgrams(udp::SocketId usid);
  void MaybeFinishCloseDgram(udp::SocketId usid);

  tcp::TcpStack* stack_;
  udp::UdpStack* udp_stack_;
  std::unordered_map<tcp::SocketId, std::unique_ptr<StackConn>> by_sid_;   // owner
  std::unordered_map<udp::SocketId, std::unique_ptr<StackConn>> by_usid_;  // owner (dgram)
  std::unordered_map<uint8_t, std::shared_ptr<tcp::ChunkAllocator>> rx_allocators_;
  // Liveness token captured by callbacks held inside TcpStack/UdpStack
  // buffers: the stacks outlive ServiceLib in the owning Nsm, so a callback
  // firing during stack teardown must become a no-op.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

std::unique_ptr<ServiceLib::Transport> ServiceLib::StackBacked(tcp::TcpStack* stack,
                                                               udp::UdpStack* udp_stack) {
  NK_CHECK(stack != nullptr && udp_stack != nullptr);
  return std::make_unique<StackTransport>(stack, udp_stack);
}

ServiceLib::StackTransport::StackConn* ServiceLib::StackTransport::FindBySid(tcp::SocketId sid) {
  auto it = by_sid_.find(sid);
  return it == by_sid_.end() ? nullptr : it->second.get();
}

ServiceLib::StackTransport::StackConn* ServiceLib::StackTransport::FindByUsid(
    udp::SocketId usid) {
  auto it = by_usid_.find(usid);
  return it == by_usid_.end() ? nullptr : it->second.get();
}

std::shared_ptr<tcp::ChunkAllocator> ServiceLib::StackTransport::RxAllocator(uint8_t vm_id) {
  std::shared_ptr<tcp::ChunkAllocator>& a = rx_allocators_[vm_id];
  if (a != nullptr) return a;
  // ShipRecv/ShipDgrams then detach and forward the chunk the stack already
  // owns. The callbacks sit inside stack receive buffers and outlive
  // arbitrary teardown orders, hence the liveness token and the
  // re-resolution of the pool on every call.
  a = std::make_shared<tcp::ChunkAllocator>();
  ServiceLib* slib = slib_;
  a->alloc = [slib, alive = alive_, vm_id](uint32_t size, uint64_t* handle, uint8_t** data,
                                           uint32_t* cap) {
    if (!*alive) return false;
    // An evicted (quarantined) VM must not grow its footprint: refusing the
    // alloc makes the stack fall back to its own buffering, and the eviction
    // sweep has already reclaimed what the pool held.
    const VmInfo* vm = slib->FindVm(vm_id);
    if (vm == nullptr || vm->evicted) return false;
    uint32_t want = std::min<uint32_t>(size > 0 ? size : 1, shm::HugepagePool::kMaxChunk);
    uint64_t off = vm->pool->Alloc(want);
    if (off == shm::HugepagePool::kInvalidOffset) return false;
    *handle = off;
    *data = vm->pool->Data(off);
    *cap = vm->pool->ChunkCapacity(off);
    return true;
  };
  a->free = [slib, alive = alive_, vm_id](uint64_t handle) {
    if (!*alive) return;
    if (const VmInfo* vm = slib->FindVm(vm_id)) vm->pool->Free(handle);
  };
  return a;
}

// ---------------------------------------------------------------------------
// Stream control verbs
// ---------------------------------------------------------------------------

void ServiceLib::StackTransport::Socket(const Nqe& nqe) {
  const VmInfo* vm = slib_->FindVm(nqe.vm_id);
  if (vm == nullptr) return;
  tcp::SocketId sid = stack_->CreateSocket();
  if (vm->cc_factory) stack_->SetCongestionControl(sid, vm->cc_factory());
  // RX zero-copy: inbound payload lands in the VM's pool; listeners pass the
  // allocator on to accepted children inside the stack.
  if (slib_->config_.rx_zerocopy) stack_->SetRxChunkAllocator(sid, RxAllocator(nqe.vm_id));
  // Connections of this VM use the VM's address (the NSM's vNIC answers for
  // every address of the VMs it serves).
  stack_->Bind(sid, vm->ip, 0);

  auto owned = std::make_unique<StackConn>();
  StackConn& c = *owned;
  static_cast<Conn&>(c) = Requester(nqe);
  c.sid = sid;
  by_sid_[sid] = std::move(owned);
  slib_->Link(c);
  slib_->Respond(c, NqeOp::kOpResult, NqeOp::kSocket, 0, sid);
}

void ServiceLib::StackTransport::Bind(const Nqe& nqe, Conn& c) {
  const VmInfo* vm = slib_->FindVm(c.vm_id);
  if (vm == nullptr) return;
  int r = stack_->Bind(Of(c).sid, vm->ip, shm::AddrPort(nqe.op_data));
  slib_->Respond(c, NqeOp::kOpResult, NqeOp::kBind, r);
}

void ServiceLib::StackTransport::Listen(const Nqe& nqe, Conn& c) {
  int backlog = static_cast<int>(nqe.op_data);
  bool reuseport = nqe.reserved[1] != 0;
  tcp::SocketId lsid = Of(c).sid;
  int r = stack_->Listen(lsid, backlog, reuseport);
  if (r == 0) {
    Of(c).listener = true;
    tcp::SocketCallbacks cbs;
    cbs.on_acceptable = [this, lsid] { AutoAccept(lsid); };
    stack_->SetCallbacks(lsid, std::move(cbs));
  }
  slib_->Respond(c, NqeOp::kOpResult, NqeOp::kListen, r);
}

void ServiceLib::StackTransport::Connect(const Nqe& nqe, Conn& c) {
  tcp::SocketId sid = Of(c).sid;
  // A refused connect (the socket is connecting, connected or listening)
  // answers at once and leaves the live socket's callbacks in place.
  const int r = stack_->Connect(sid, shm::AddrIp(nqe.op_data), shm::AddrPort(nqe.op_data));
  if (r != tcp::kOk) {
    slib_->Respond(c, NqeOp::kConnectResult, NqeOp::kConnect, r);
    return;
  }
  tcp::SocketCallbacks cbs;
  cbs.on_connect = [this, sid](int err) {
    StackConn* c2 = FindBySid(sid);
    if (c2 == nullptr) return;
    slib_->Respond(*c2, NqeOp::kConnectResult, NqeOp::kConnect, err);
    if (err == 0) InstallDataCallbacks(*c2);
  };
  cbs.on_error = [this, sid](int err) {
    if (StackConn* c2 = FindBySid(sid)) slib_->DeliverFin(*c2, err);
  };
  stack_->SetCallbacks(sid, std::move(cbs));
}

void ServiceLib::StackTransport::AutoAccept(tcp::SocketId listener_sid) {
  StackConn* l = FindBySid(listener_sid);
  if (l == nullptr) return;
  for (;;) {
    tcp::SocketId cid = stack_->Accept(listener_sid);
    if (cid == tcp::kInvalidSocket) break;
    auto child = std::make_unique<StackConn>();
    child->vm_id = l->vm_id;
    child->vm_qset = l->vm_qset;
    child->nsm_qset = l->nsm_qset;
    child->sid = cid;
    by_sid_[cid] = std::move(child);
    const VmInfo* vm = slib_->FindVm(l->vm_id);
    if (vm != nullptr && vm->cc_factory) stack_->SetCongestionControl(cid, vm->cc_factory());
    // Tell GuestLib about the new connection; the NSM socket id rides in
    // op_data and the guest answers with a kAccept link NQE (Fig 6).
    Nqe nqe = MakeNqe(NqeOp::kAcceptedConn, l->vm_id, l->vm_qset, l->vm_sock, cid);
    slib_->EnqueueToVm(*l, nqe, false);
  }
}

void ServiceLib::StackTransport::AcceptLink(const Nqe& nqe) {
  tcp::SocketId sid = static_cast<tcp::SocketId>(nqe.op_data);
  StackConn* c = FindBySid(sid);
  if (c == nullptr || !stack_->Exists(sid)) {
    // Connection reset before the guest accepted it: signal EOF.
    Conn requester = Requester(nqe);
    slib_->DeliverFin(requester, tcp::kConnReset);
    return;
  }
  c->vm_id = nqe.vm_id;
  c->vm_qset = nqe.queue_set;
  c->vm_sock = nqe.vm_sock;
  slib_->Link(*c);
  InstallDataCallbacks(*c);
  slib_->ReplayOrphanSends(*c);
  ShipRecv(sid);  // data may have arrived before the link
}

void ServiceLib::StackTransport::InstallDataCallbacks(StackConn& c) {
  tcp::SocketId sid = c.sid;
  tcp::SocketCallbacks cbs;
  cbs.on_readable = [this, sid] { ShipRecv(sid); };
  cbs.on_writable = [this, sid] {
    if (StackConn* c2 = FindBySid(sid)) DrainPendingTx(*c2);
  };
  cbs.on_error = [this, sid](int err) {
    if (StackConn* c2 = FindBySid(sid)) slib_->DeliverFin(*c2, err);
  };
  stack_->SetCallbacks(sid, std::move(cbs));
}

// ---------------------------------------------------------------------------
// Send path: hugepages -> stack
// ---------------------------------------------------------------------------

void ServiceLib::StackTransport::Send(const Nqe& nqe, Conn& c) {
  if (nqe.Op() == NqeOp::kSendZc) {
    DoSendZc(nqe, Of(c));
  } else {
    DoSend(nqe, Of(c));
  }
}

void ServiceLib::StackTransport::DoSend(const Nqe& nqe, StackConn& c) {
  const VmInfo* vm = slib_->FindVm(c.vm_id);
  if (vm == nullptr) return;
  shm::HugepagePool* pool = vm->pool;
  tcp::SocketId sid = c.sid;
  uint64_t ptr = nqe.data_ptr;
  uint32_t size = nqe.size;

  // The copy from hugepages into the stack's socket buffer happens on the
  // connection's stack core (this is the overhead Table 6 quantifies; the
  // zero-copy kSendZc path removes it).
  Cycles copy = static_cast<Cycles>(slib_->ce_->costs().hugepage_copy_per_byte * size);
  ++c.sends_in_flight;
  stack_->ChargeOnSocketCore(sid, copy, [this, sid, ptr, size, pool] {
    StackConn* c2 = FindBySid(sid);
    if (c2 == nullptr) {
      pool->Free(ptr);
      return;
    }
    --c2->sends_in_flight;
    if (!stack_->Exists(sid)) {
      pool->Free(ptr);
      MaybeFinishClose(sid);
      return;
    }
    c2->pending_tx.push_back(PendingTx{ptr, size, 0});
    DrainPendingTx(*c2);
  });
}

std::function<void()> ServiceLib::StackTransport::MakeZcFreeCallback(const StackConn& c,
                                                                     uint64_t ptr, uint32_t size,
                                                                     NqeOp orig) {
  const Conn to = c;  // routing identity only
  ServiceLib* slib = slib_;
  return [slib, alive = alive_, to, ptr, size, orig] {
    if (!*alive) return;
    const VmInfo* vm = slib->FindVm(to.vm_id);
    if (vm == nullptr) return;  // VM gone; its pool may be gone too
    vm->pool->Free(ptr);
    slib->recorder_.Record(obs::FlightEventType::kZcChunkFree, to.vm_id, to.vm_qset,
                           static_cast<uint8_t>(orig), to.vm_sock, size);
    // Return the send credit. Status 0 covers both outcomes — on a teardown
    // with unacked bytes the guest also receives the error FIN, which is
    // what reports the broken stream.
    NqeOp completion = orig == NqeOp::kSendZc ? NqeOp::kSendZcComplete : NqeOp::kSendToResult;
    Nqe nqe = MakeNqe(completion, to.vm_id, to.vm_qset, to.vm_sock, size);
    nqe.reserved[0] = static_cast<uint8_t>(orig);
    slib->EnqueueToVm(to, nqe, false);
  };
}

void ServiceLib::StackTransport::FailZcTx(const StackConn& c, uint64_t ptr, uint32_t size) {
  if (const VmInfo* vm = slib_->FindVm(c.vm_id)) vm->pool->Free(ptr);
  slib_->Respond(c, NqeOp::kSendZcComplete, NqeOp::kSendZc, tcp::kConnReset, size);
}

void ServiceLib::StackTransport::DoSendZc(const Nqe& nqe, StackConn& c) {
  // No hugepage->stack copy (the Table 6 overhead DoSend pays): only the
  // zero-cycle trip through the socket's core, which preserves FIFO ordering
  // with any legacy kSend copies still in flight on that core.
  const VmInfo* vm = slib_->FindVm(c.vm_id);
  if (vm == nullptr) return;
  shm::HugepagePool* pool = vm->pool;
  tcp::SocketId sid = c.sid;
  uint64_t ptr = nqe.data_ptr;
  uint32_t size = nqe.size;
  ++c.sends_in_flight;
  stack_->ChargeOnSocketCore(sid, 0, [this, sid, ptr, size, pool] {
    StackConn* c2 = FindBySid(sid);
    if (c2 == nullptr) {
      // Conn gone (guest already closed): the chunk goes back to the pool.
      pool->Free(ptr);
      return;
    }
    --c2->sends_in_flight;
    if (!stack_->Exists(sid)) {
      FailZcTx(*c2, ptr, size);
      MaybeFinishClose(sid);
      return;
    }
    c2->pending_tx.push_back(PendingTx{ptr, size, 0, true});
    DrainPendingTx(*c2);
  });
}

void ServiceLib::StackTransport::DrainPendingTx(StackConn& c) {
  const VmInfo* vm = slib_->FindVm(c.vm_id);
  if (vm == nullptr) return;
  shm::HugepagePool* pool = vm->pool;
  while (!c.pending_tx.empty()) {
    PendingTx& tx = c.pending_tx.front();
    if (!stack_->Exists(c.sid)) {
      if (tx.zc) {
        FailZcTx(c, tx.ptr, tx.size);
      } else {
        pool->Free(tx.ptr);
      }
      c.pending_tx.pop_front();
      continue;
    }
    if (tx.zc) {
      // A chunk the stack's send buffer can never hold would wedge the
      // connection (on_writable cannot fire with nothing queued): fail it
      // back to the guest instead of waiting forever.
      if (tx.size > stack_->config().sndbuf_bytes) {
        FailZcTx(c, tx.ptr, tx.size);
        c.pending_tx.pop_front();
        continue;
      }
      // Zero-copy: append the chunk to the send buffer by reference
      // (all-or-nothing). The chunk frees — and the guest's send credit
      // returns — only when the byte range is ACKed.
      if (!stack_->SendZc(c.sid, pool->Data(tx.ptr), tx.size,
                          MakeZcFreeCallback(c, tx.ptr, tx.size, NqeOp::kSendZc))) {
        break;  // stack sndbuf full; resume on writable
      }
      c.pending_tx.pop_front();
      continue;
    }
    uint64_t q = stack_->Send(c.sid, pool->Data(tx.ptr + tx.consumed), tx.size - tx.consumed);
    tx.consumed += static_cast<uint32_t>(q);
    if (tx.consumed < tx.size) break;  // stack sndbuf full; resume on writable
    // Fully handed to the stack: free the chunk and return the send credit
    // so GuestLib can decrease the socket's send-buffer usage (§4.5).
    pool->Free(tx.ptr);
    slib_->Respond(c, NqeOp::kSendResult, NqeOp::kSend, 0, tx.size);
    c.pending_tx.pop_front();
  }
  MaybeFinishClose(c.sid);
}

// ---------------------------------------------------------------------------
// Receive path: stack -> hugepages -> kRecvData
// ---------------------------------------------------------------------------

void ServiceLib::StackTransport::ResumeRecv(Conn& c) {
  if (c.dgram) {
    ShipDgrams(Of(c).usid);
  } else {
    ShipRecv(Of(c).sid);
  }
}

void ServiceLib::StackTransport::ShipRecv(tcp::SocketId sid) {
  StackConn* c = FindBySid(sid);
  if (c == nullptr || !c->linked || c->ship_pending) return;
  const VmInfo* vm = slib_->FindVm(c->vm_id);
  if (vm == nullptr) return;
  shm::HugepagePool* pool = vm->pool;
  const Config& config = slib_->config_;

  uint64_t avail = stack_->RecvAvailable(sid);
  if (avail > 0 && c->rx_outstanding < config.rx_outstanding_cap) {
    // Zero-copy ship: the front of the stack's receive buffer already IS a
    // chunk of this VM's pool (landed there at segment arrival) — detach it
    // and forward the handle. No rcvbuf->hugepage copy, no fresh allocation;
    // the last per-byte touch on the RX path is gone (§7.8). The chunk may
    // overshoot the outstanding cap by at most one chunk (64 KB).
    if (stack_->RxDetachable(sid)) {
      c->ship_pending = true;
      stack_->ChargeOnSocketCore(sid, 0, [this, sid, pool] {
        StackConn* c2 = FindBySid(sid);
        if (c2 == nullptr) return;  // rcvbuf teardown frees its own chunks
        c2->ship_pending = false;
        tcp::DetachedChunk chunk;
        if (!stack_->Exists(sid) || !stack_->RecvZcDetach(sid, &chunk)) {
          ShipRecv(sid);
          return;
        }
        ++slib_->rx_zc_ships_;
        Nqe nqe = MakeNqe(NqeOp::kRecvData, c2->vm_id, c2->vm_qset, c2->vm_sock, 0,
                          chunk.handle, chunk.size);
        if (!slib_->EnqueueToVm(*c2, nqe, true)) {
          // Ring full at the final hop: the detached bytes cannot be
          // re-queued, so the stream is broken (same as the copy path).
          pool->Free(chunk.handle);
          slib_->DeliverFin(*c2, tcp::kConnReset);
          return;
        }
        c2->rx_outstanding += chunk.size;
        ShipRecv(sid);
      });
      return;
    }
    // Copy fallback: the front chunk is heap-backed (the pool was exhausted
    // when the segment landed) or partially consumed — stage it through a
    // fresh pool chunk with the classic per-byte copy.
    uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
        {shm::HugepagePool::kMaxChunk, avail, config.rx_outstanding_cap - c->rx_outstanding}));
    uint64_t off = pool->Alloc(chunk);
    if (off == shm::HugepagePool::kInvalidOffset) return;  // resumes on credit
    c->ship_pending = true;
    Cycles copy = static_cast<Cycles>(slib_->ce_->costs().hugepage_copy_per_byte * chunk);
    stack_->ChargeOnSocketCore(sid, copy, [this, sid, off, chunk, pool] {
      StackConn* c2 = FindBySid(sid);
      if (c2 == nullptr) {
        pool->Free(off);
        return;
      }
      c2->ship_pending = false;
      uint64_t n = stack_->Recv(sid, pool->Data(off), chunk);
      if (n == 0) {
        pool->Free(off);
      } else {
        ++slib_->rx_copy_ships_;
        Nqe nqe = MakeNqe(NqeOp::kRecvData, c2->vm_id, c2->vm_qset, c2->vm_sock, 0, off,
                          static_cast<uint32_t>(n));
        if (!slib_->EnqueueToVm(*c2, nqe, true)) {
          // Receive ring full at the final hop. The bytes already left the
          // stack and cannot be re-queued, so the stream is broken: free the
          // chunk (no leak, no phantom rx_outstanding) and error the
          // connection instead of silently losing payload.
          pool->Free(off);
          slib_->DeliverFin(*c2, tcp::kConnReset);
          return;
        }
        c2->rx_outstanding += n;
      }
      ShipRecv(sid);
    });
    return;
  }

  // All buffered data shipped: propagate EOF once.
  if (stack_->FinReceived(sid)) slib_->DeliverFin(*c, 0);
}

// ---------------------------------------------------------------------------
// Close
// ---------------------------------------------------------------------------

// close() must flush: queued kSend payloads (and in-flight hugepage copies)
// are handed to the stack before the FIN, exactly like a kernel close() after
// buffered writes.
void ServiceLib::StackTransport::Close(Conn& c) {
  c.close_pending = true;
  if (c.dgram) {
    MaybeFinishCloseDgram(Of(c).usid);
  } else {
    MaybeFinishClose(Of(c).sid);
  }
}

void ServiceLib::StackTransport::MaybeFinishClose(tcp::SocketId sid) {
  StackConn* c = FindBySid(sid);
  if (c == nullptr || !c->close_pending) return;
  if (c->sends_in_flight > 0 || !c->pending_tx.empty()) return;
  slib_->Unlink(*c);
  stack_->SetCallbacks(sid, {});
  stack_->Close(sid);
  by_sid_.erase(sid);
}

// ---------------------------------------------------------------------------
// Datagram (SOCK_DGRAM) path
// ---------------------------------------------------------------------------

void ServiceLib::StackTransport::SocketUdp(const Nqe& nqe) {
  const VmInfo* vm = slib_->FindVm(nqe.vm_id);
  if (vm == nullptr) return;
  udp::SocketId usid = udp_stack_->CreateSocket();
  // Datagrams of this VM use the VM's address; bind an ephemeral port now so
  // an unbound sendto already carries a routable source.
  udp_stack_->Bind(usid, vm->ip, 0);

  auto owned = std::make_unique<StackConn>();
  StackConn& c = *owned;
  static_cast<Conn&>(c) = Requester(nqe);
  c.dgram = true;
  c.usid = usid;
  by_usid_[usid] = std::move(owned);
  slib_->Link(c);
  udp::UdpSocketCallbacks cbs;
  cbs.on_readable = [this, usid] { ShipDgrams(usid); };
  udp_stack_->SetCallbacks(usid, std::move(cbs));
  // RX zero-copy: inbound datagrams land directly in the VM's pool.
  if (slib_->config_.rx_zerocopy) udp_stack_->SetRxChunkAllocator(usid, RxAllocator(nqe.vm_id));
  slib_->Respond(c, NqeOp::kOpResult, NqeOp::kSocketUdp, 0, usid);
}

void ServiceLib::StackTransport::BindUdp(const Nqe& nqe, Conn& c) {
  const VmInfo* vm = slib_->FindVm(c.vm_id);
  if (vm == nullptr) return;
  int r = udp_stack_->Bind(Of(c).usid, vm->ip, shm::AddrPort(nqe.op_data));
  slib_->Respond(c, NqeOp::kOpResult, NqeOp::kBindUdp, r);
}

void ServiceLib::StackTransport::SendTo(const Nqe& nqe, Conn& c) {
  const VmInfo* vm = slib_->FindVm(c.vm_id);
  if (vm == nullptr) return;
  shm::HugepagePool* pool = vm->pool;
  udp::SocketId usid = Of(c).usid;
  uint64_t ptr = nqe.data_ptr;
  uint32_t size = nqe.size;
  uint64_t dst = nqe.op_data;
  ++Of(c).sends_in_flight;

  if (nqe.Op() == NqeOp::kSendToZc) {
    // No hugepage->stack copy (the Table 6 overhead a copy send pays): the
    // UDP stack builds the wire datagram straight from the chunk. The
    // zero-cycle trip through the socket's core preserves FIFO order with
    // copy sends.
    udp_stack_->ChargeOnSocketCore(usid, 0, [this, usid, ptr, size, dst, pool] {
      StackConn* c2 = FindByUsid(usid);
      if (c2 == nullptr) {
        pool->Free(ptr);
        return;
      }
      --c2->sends_in_flight;
      bool handed = false;
      if (udp_stack_->Exists(usid)) {
        handed = udp_stack_->SendToZc(usid, shm::AddrIp(dst), shm::AddrPort(dst),
                                      pool->Data(ptr), size,
                                      MakeZcFreeCallback(*c2, ptr, size, NqeOp::kSendToZc)) >= 0;
      }
      if (!handed) {
        // Datagram lost locally (socket closed / bad destination): ordinary
        // UDP loss, but the chunk and the send credit must unwind.
        pool->Free(ptr);
        slib_->Respond(*c2, NqeOp::kSendToResult, NqeOp::kSendToZc, 0, size);
      }
      MaybeFinishCloseDgram(usid);
    });
    return;
  }
  // Copy from hugepages into the stack on the socket's core (Table 6's
  // overhead), then transmit. UDP never parks data: the credit returns as
  // soon as the datagram is handed to the stack.
  Cycles copy = static_cast<Cycles>(slib_->ce_->costs().hugepage_copy_per_byte * size);
  udp_stack_->ChargeOnSocketCore(usid, copy, [this, usid, ptr, size, dst, pool] {
    StackConn* c2 = FindByUsid(usid);
    if (c2 == nullptr) {
      pool->Free(ptr);
      return;
    }
    --c2->sends_in_flight;
    if (udp_stack_->Exists(usid)) {
      udp_stack_->SendTo(usid, shm::AddrIp(dst), shm::AddrPort(dst), pool->Data(ptr), size);
    }
    pool->Free(ptr);
    slib_->Respond(*c2, NqeOp::kSendToResult, NqeOp::kSendTo, 0, size);
    MaybeFinishCloseDgram(usid);
  });
}

void ServiceLib::StackTransport::ShipDgrams(udp::SocketId usid) {
  StackConn* c = FindByUsid(usid);
  if (c == nullptr || c->ship_pending) return;
  if (c->close_pending) {
    // Stop delivering to a closing guest socket; let the close complete.
    MaybeFinishCloseDgram(usid);
    return;
  }
  const VmInfo* vm = slib_->FindVm(c->vm_id);
  if (vm == nullptr) return;
  shm::HugepagePool* pool = vm->pool;
  const Config& config = slib_->config_;

  uint32_t next = udp_stack_->NextDatagramSize(usid);
  if (udp_stack_->RxQueuedDatagrams(usid) == 0 || c->rx_outstanding >= config.rx_outstanding_cap) {
    return;
  }
  // Zero-copy ship: the front datagram already sits in a chunk of this VM's
  // pool — detach it and forward the handle as kDgramRecvZc.
  if (udp_stack_->FrontDgramPooled(usid)) {
    c->ship_pending = true;
    udp_stack_->ChargeOnSocketCore(usid, 0, [this, usid, pool] {
      StackConn* c2 = FindByUsid(usid);
      if (c2 == nullptr) return;  // UdpStack::Close freed the queued chunks
      c2->ship_pending = false;
      uint64_t handle = 0;
      uint32_t len = 0;
      netsim::IpAddr src_ip = 0;
      uint16_t src_port = 0;
      if (!udp_stack_->Exists(usid) ||
          !udp_stack_->DetachFrontDgram(usid, &handle, &len, &src_ip, &src_port)) {
        ShipDgrams(usid);
        return;
      }
      ++slib_->dgram_zc_ships_;
      Nqe nqe = MakeNqe(NqeOp::kDgramRecvZc, c2->vm_id, c2->vm_qset, c2->vm_sock,
                        shm::PackAddr(src_ip, src_port), handle, len);
      if (slib_->EnqueueToVm(*c2, nqe, true)) {
        c2->rx_outstanding += len;
      } else {
        // Ring full: the datagram is dropped (UDP applies no backpressure);
        // the chunk goes straight back to the pool.
        pool->Free(handle);
      }
      ShipDgrams(usid);
    });
    return;
  }
  uint64_t off = pool->Alloc(next > 0 ? next : 1);
  if (off == shm::HugepagePool::kInvalidOffset) {
    // Pool exhausted. A returning credit re-invokes us, but with no credit
    // outstanding none would come — poll until space frees up.
    if (c->rx_outstanding == 0) {
      slib_->loop_->ScheduleAfter(50 * kMicrosecond, [this, usid] { ShipDgrams(usid); });
    }
    return;
  }
  c->ship_pending = true;
  Cycles copy = static_cast<Cycles>(slib_->ce_->costs().hugepage_copy_per_byte * next);
  udp_stack_->ChargeOnSocketCore(usid, copy, [this, usid, off, next, pool] {
    StackConn* c2 = FindByUsid(usid);
    if (c2 == nullptr) {
      pool->Free(off);
      return;
    }
    c2->ship_pending = false;
    netsim::IpAddr src_ip = 0;
    uint16_t src_port = 0;
    int64_t n = udp_stack_->RecvFrom(usid, pool->Data(off), next, &src_ip, &src_port);
    bool shipped = false;
    if (n >= 0) {
      ++slib_->dgram_copy_ships_;
      Nqe nqe = MakeNqe(NqeOp::kDgramRecv, c2->vm_id, c2->vm_qset, c2->vm_sock,
                        shm::PackAddr(src_ip, src_port), off, static_cast<uint32_t>(n));
      shipped = slib_->EnqueueToVm(*c2, nqe, true);
      if (shipped) c2->rx_outstanding += static_cast<uint64_t>(n);
    }
    // NSM-side receive-ring full means the datagram is dropped (UDP applies
    // no backpressure) — the chunk goes straight back to the pool and no
    // credit accrues. (A drop at CoreEngine's final CE->VM hop can still
    // strand credit, as with TCP kRecvData; both rings are 4K deep, so that
    // needs sustained severe overload.)
    if (!shipped) pool->Free(off);
    ShipDgrams(usid);
  });
}

void ServiceLib::StackTransport::MaybeFinishCloseDgram(udp::SocketId usid) {
  StackConn* c = FindByUsid(usid);
  if (c == nullptr || !c->close_pending) return;
  if (c->sends_in_flight > 0 || c->ship_pending) return;
  slib_->Unlink(*c);
  udp_stack_->Close(usid);
  by_usid_.erase(usid);
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

size_t ServiceLib::StackTransport::DropConns(int vm) {
  const auto mine = [vm](const StackConn& c) { return vm == kAllVms || c.vm_id == vm; };

  // Stream connections. Queued-but-not-yet-admitted TX chunks never reached
  // the stack and free here. Abort tears the socket down synchronously: zc
  // chunks still queued in the send buffer fire their exactly-once free
  // callbacks and pool-backed receive chunks free on rcvbuf destruction.
  std::vector<tcp::SocketId> sids;
  for (auto& [sid, c] : by_sid_) {
    if (mine(*c)) sids.push_back(sid);
  }
  for (tcp::SocketId sid : sids) {
    StackConn* c = FindBySid(sid);
    if (c == nullptr) continue;
    if (const VmInfo* owner = slib_->FindVm(c->vm_id)) {
      for (const PendingTx& tx : c->pending_tx) owner->pool->Free(tx.ptr);
    }
    c->pending_tx.clear();
    stack_->SetCallbacks(sid, {});
    if (stack_->Exists(sid)) {
      // Close() unlinks a listener from the port table (and aborts its
      // unclaimed children); Abort() RSTs a live connection.
      if (c->listener) {
        stack_->Close(sid);
      } else {
        stack_->Abort(sid);
      }
    }
    slib_->Unlink(*c);
    by_sid_.erase(sid);
  }

  // Datagram sockets: UdpStack frees pool-landed queued datagrams through the
  // rx allocator's free hook.
  std::vector<udp::SocketId> usids;
  for (auto& [usid, c] : by_usid_) {
    if (mine(*c)) usids.push_back(usid);
  }
  for (udp::SocketId usid : usids) {
    StackConn* c = FindByUsid(usid);
    if (c == nullptr) continue;
    udp_stack_->Close(usid);
    slib_->Unlink(*c);
    by_usid_.erase(usid);
  }
  return sids.size() + usids.size();
}

}  // namespace netkernel::core
