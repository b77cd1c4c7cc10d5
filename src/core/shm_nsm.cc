// Copyright (c) NetKernel reproduction authors.
// ServiceLib's pool-copy transport: the shared-memory NSM (paper §6.4). When
// two colocated VMs of the same user talk to each other, this NSM bypasses
// TCP entirely and copies message chunks between the two VMs' hugepage
// regions. It rides the same NQE driver as the stack-backed NSMs, so
// applications are oblivious.

#include <cstring>
#include <deque>

#include "src/core/servicelib.h"
#include "src/udpstack/udp_types.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

class ServiceLib::PoolCopyTransport final : public ServiceLib::Transport {
 public:
  void Socket(const Nqe& nqe) override;
  void SocketUdp(const Nqe& nqe) override;
  void AcceptLink(const Nqe& nqe) override;
  void Bind(const Nqe& nqe, Conn& c) override;
  void Listen(const Nqe& nqe, Conn& c) override;
  void Connect(const Nqe& nqe, Conn& c) override;
  void Send(const Nqe& nqe, Conn& c) override;
  void Close(Conn& c) override;
  void ResumeRecv(Conn& c) override;
  size_t DropConns(int vm) override;

 private:
  struct PendingChunk {
    uint64_t ptr = 0;  // in the sender's pool
    uint32_t size = 0;
    // Arrived as kSendZc: answer with kSendZcComplete when the chunk frees
    // (for this NSM that is when the pool-to-pool copy lands — its transport
    // IS the copy, so "transmit complete" and "delivered" coincide).
    bool zc = false;
  };
  struct Endpoint : Conn {
    uint64_t ep_id = 0;
    uint64_t peer = 0;  // peer ep id (0 = none, or gone)
    int32_t peer_err = 0;  // why the peer went (0 = closed), for the link-time FIN
    netsim::IpAddr bound_ip = 0;
    uint16_t bound_port = 0;
    bool listening = false;
    std::deque<PendingChunk> pending;  // waiting for peer pool space / link
    bool copy_pending = false;
  };

  static Endpoint& Of(Conn& c) { return static_cast<Endpoint&>(c); }
  static uint64_t ListenKey(netsim::IpAddr ip, uint16_t port) {
    return (static_cast<uint64_t>(ip) << 16) | port;
  }
  Endpoint* FindByEp(uint64_t ep_id);
  Endpoint& NewEndpoint();
  void TryConnect(uint64_t ep_id, uint64_t addr, int attempt);
  // Copies queued chunks from `src_ep_id`'s VM pool into the peer VM's pool
  // and raises kRecvData events — the whole "network stack" of this NSM.
  void PumpCopy(uint64_t src_ep_id);
  // A queued chunk whose destination is gone or broken: the bytes are
  // dropped, as a send into a reset TCP connection would be, and the
  // guest's send credit returns.
  void DropChunk(const Endpoint& src, const PendingChunk& chunk, shm::HugepagePool* pool);
  void MaybeFinishClose(uint64_t ep_id);
  // `ep_id`'s peer went away (closed, or reset with `err`): FIN the guest
  // once linked and drop whatever it still had queued toward the peer.
  void PeerGone(uint64_t ep_id, int32_t err);

  std::unordered_map<uint64_t, std::unique_ptr<Endpoint>> eps_;
  std::unordered_map<uint64_t, uint64_t> listeners_;  // ListenKey -> ep id
  uint64_t next_ep_ = 1;
};

std::unique_ptr<ServiceLib::Transport> ServiceLib::PoolCopy() {
  return std::make_unique<PoolCopyTransport>();
}

ServiceLib::PoolCopyTransport::Endpoint* ServiceLib::PoolCopyTransport::FindByEp(uint64_t ep_id) {
  auto it = eps_.find(ep_id);
  return it == eps_.end() ? nullptr : it->second.get();
}

ServiceLib::PoolCopyTransport::Endpoint& ServiceLib::PoolCopyTransport::NewEndpoint() {
  auto ep = std::make_unique<Endpoint>();
  ep->ep_id = next_ep_++;
  Endpoint& ref = *ep;
  eps_[ref.ep_id] = std::move(ep);
  return ref;
}

void ServiceLib::PoolCopyTransport::Socket(const Nqe& nqe) {
  Endpoint& ep = NewEndpoint();
  static_cast<Conn&>(ep) = Requester(nqe);
  slib_->Link(ep);
  slib_->Respond(ep, NqeOp::kOpResult, NqeOp::kSocket, 0, ep.ep_id);
}

void ServiceLib::PoolCopyTransport::Bind(const Nqe& nqe, Conn& c) {
  Endpoint& ep = Of(c);
  ep.bound_ip = shm::AddrIp(nqe.op_data);
  if (ep.bound_ip == 0) {
    if (const VmInfo* vm = slib_->FindVm(ep.vm_id)) ep.bound_ip = vm->ip;
  }
  ep.bound_port = shm::AddrPort(nqe.op_data);
  slib_->Respond(ep, NqeOp::kOpResult, NqeOp::kBind, 0);
}

void ServiceLib::PoolCopyTransport::Listen(const Nqe&, Conn& c) {
  Endpoint& ep = Of(c);
  ep.listening = true;
  listeners_[ListenKey(ep.bound_ip, ep.bound_port)] = ep.ep_id;
  slib_->Respond(ep, NqeOp::kOpResult, NqeOp::kListen, 0);
}

void ServiceLib::PoolCopyTransport::Connect(const Nqe& nqe, Conn& c) {
  TryConnect(Of(c).ep_id, nqe.op_data, 0);
}

// Resolves a connect against the listener table, retrying for a grace period
// (the TCP path tolerates connect-before-listen via SYN retransmission; the
// shared-memory path must offer the same semantics).
void ServiceLib::PoolCopyTransport::TryConnect(uint64_t ep_id, uint64_t addr, int attempt) {
  Endpoint* ep = FindByEp(ep_id);
  if (ep == nullptr) return;
  auto lit = listeners_.find(ListenKey(shm::AddrIp(addr), shm::AddrPort(addr)));
  Endpoint* listener = lit == listeners_.end() ? nullptr : FindByEp(lit->second);
  if (listener == nullptr) {
    if (attempt < 6) {
      slib_->loop_->ScheduleAfter((1 + attempt) * 5 * kMillisecond, [this, ep_id, addr, attempt] {
        TryConnect(ep_id, addr, attempt + 1);
      });
    } else {
      slib_->Respond(*ep, NqeOp::kConnectResult, NqeOp::kConnect, tcp::kConnRefused);
    }
    return;
  }
  // Create the server-side endpoint and hand it to the listener's VM.
  Endpoint& child = NewEndpoint();
  child.vm_id = listener->vm_id;
  child.vm_qset = listener->vm_qset;
  child.nsm_qset = listener->nsm_qset;
  child.peer = ep->ep_id;
  ep->peer = child.ep_id;
  Nqe acc = MakeNqe(NqeOp::kAcceptedConn, listener->vm_id, listener->vm_qset,
                    listener->vm_sock, child.ep_id);
  slib_->EnqueueToVm(*listener, acc, false);
  slib_->Respond(*ep, NqeOp::kConnectResult, NqeOp::kConnect, 0);
  PumpCopy(ep->ep_id);  // data may already be queued
}

void ServiceLib::PoolCopyTransport::AcceptLink(const Nqe& nqe) {
  Endpoint* child = FindByEp(nqe.op_data);
  if (child == nullptr) return;
  child->vm_id = nqe.vm_id;
  child->vm_qset = nqe.queue_set;
  child->vm_sock = nqe.vm_sock;
  slib_->Link(*child);
  slib_->ReplayOrphanSends(*child);
  if (child->peer == 0) {
    // The connecting side went away before the guest accepted.
    slib_->DeliverFin(*child, child->peer_err);
    return;
  }
  PumpCopy(child->peer);  // the peer may have queued data
}

void ServiceLib::PoolCopyTransport::Send(const Nqe& nqe, Conn& c) {
  Of(c).pending.push_back(PendingChunk{nqe.data_ptr, nqe.size, nqe.Op() == NqeOp::kSendZc});
  PumpCopy(Of(c).ep_id);
}

void ServiceLib::PoolCopyTransport::ResumeRecv(Conn& c) {
  if (Of(c).peer != 0) PumpCopy(Of(c).peer);
}

void ServiceLib::PoolCopyTransport::PumpCopy(uint64_t src_ep_id) {
  Endpoint* src = FindByEp(src_ep_id);
  if (src == nullptr || src->copy_pending || src->pending.empty()) return;
  const VmInfo* svm = slib_->FindVm(src->vm_id);
  if (svm == nullptr) return;
  shm::HugepagePool* spool = svm->pool;
  Endpoint* dst = FindByEp(src->peer);
  if (dst == nullptr || dst->fin_sent_to_vm) {
    // Peer gone, or its stream already broken: nothing queued can land.
    while (!src->pending.empty()) {
      PendingChunk chunk = src->pending.front();
      src->pending.pop_front();
      DropChunk(*src, chunk, spool);
    }
    MaybeFinishClose(src_ep_id);
    return;
  }
  if (!dst->linked) return;
  const Config& config = slib_->config_;
  if (dst->rx_outstanding >= config.rx_outstanding_cap) return;  // credit wait
  const VmInfo* dvm = slib_->FindVm(dst->vm_id);
  if (dvm == nullptr) return;
  shm::HugepagePool* dpool = dvm->pool;

  PendingChunk chunk = src->pending.front();
  uint64_t doff = dpool->Alloc(chunk.size);
  if (doff == shm::HugepagePool::kInvalidOffset) return;  // retried on credit
  src->pending.pop_front();
  src->copy_pending = true;

  sim::CpuCore* core = slib_->cores_[src->ep_id % slib_->cores_.size()];
  Cycles copy = static_cast<Cycles>(slib_->ce_->costs().hugepage_copy_per_byte * chunk.size);
  core->Charge(copy, [this, src_ep_id, chunk, doff, spool, dpool] {
    Endpoint* src2 = FindByEp(src_ep_id);
    if (src2 == nullptr) {
      // Endpoint torn down mid-copy (eviction or shutdown): unwind both
      // sides — the landing chunk and the still-allocated source chunk.
      dpool->Free(doff);
      if (spool->IsAllocated(chunk.ptr)) spool->Free(chunk.ptr);
      return;
    }
    src2->copy_pending = false;
    Endpoint* dst2 = FindByEp(src2->peer);
    if (dst2 == nullptr || dst2->fin_sent_to_vm) {
      dpool->Free(doff);
      DropChunk(*src2, chunk, spool);
      PumpCopy(src_ep_id);
      return;
    }
    std::memcpy(dpool->Data(doff), spool->Data(chunk.ptr), chunk.size);
    slib_->bytes_copied_ += chunk.size;
    spool->Free(chunk.ptr);
    if (chunk.zc) {
      // Zero-copy credit return: op_data carries the freed bytes; the status
      // rides in `size` (0 here — the chunk was delivered).
      slib_->Respond(*src2, NqeOp::kSendZcComplete, NqeOp::kSendZc, 0, chunk.size);
    } else {
      slib_->Respond(*src2, NqeOp::kSendResult, NqeOp::kSend, 0, chunk.size);
    }
    Nqe rx = MakeNqe(NqeOp::kRecvData, dst2->vm_id, dst2->vm_qset, dst2->vm_sock, 0, doff,
                     chunk.size);
    if (slib_->EnqueueToVm(*dst2, rx, true)) {
      dst2->rx_outstanding += chunk.size;
    } else {
      // Receive ring full at the final hop: the copied bytes cannot be
      // re-queued, so the stream is broken — free the landing chunk and
      // error the receiver (as the stack-backed transport does).
      dpool->Free(doff);
      slib_->DeliverFin(*dst2, tcp::kConnReset);
    }
    PumpCopy(src_ep_id);
    MaybeFinishClose(src_ep_id);
  });
}

void ServiceLib::PoolCopyTransport::DropChunk(const Endpoint& src, const PendingChunk& chunk,
                                              shm::HugepagePool* pool) {
  if (pool->IsAllocated(chunk.ptr)) pool->Free(chunk.ptr);
  if (chunk.zc) {
    slib_->Respond(src, NqeOp::kSendZcComplete, NqeOp::kSendZc, tcp::kConnReset, chunk.size);
  } else {
    slib_->Respond(src, NqeOp::kSendResult, NqeOp::kSend, 0, chunk.size);
  }
}

// Flush-aware close: queued chunks are copied to the peer first.
void ServiceLib::PoolCopyTransport::Close(Conn& c) {
  c.close_pending = true;
  MaybeFinishClose(Of(c).ep_id);
}

void ServiceLib::PoolCopyTransport::MaybeFinishClose(uint64_t ep_id) {
  Endpoint* ep = FindByEp(ep_id);
  if (ep == nullptr || !ep->close_pending) return;
  if (ep->copy_pending || !ep->pending.empty()) return;
  uint64_t peer_id = ep->peer;
  if (ep->listening) listeners_.erase(ListenKey(ep->bound_ip, ep->bound_port));
  slib_->Unlink(*ep);
  eps_.erase(ep_id);
  if (peer_id != 0) PeerGone(peer_id, 0);
}

void ServiceLib::PoolCopyTransport::PeerGone(uint64_t ep_id, int32_t err) {
  Endpoint* ep = FindByEp(ep_id);
  if (ep == nullptr) return;
  ep->peer = 0;
  ep->peer_err = err;
  if (ep->linked) slib_->DeliverFin(*ep, err);  // else: on the accept link
  PumpCopy(ep_id);
}

// ---------------------------------------------------------------------------
// Datagram verbs: this NSM carries no datagram transport
// ---------------------------------------------------------------------------

void ServiceLib::PoolCopyTransport::SocketUdp(const Nqe& nqe) {
  // Fail the socket creation so the guest's SocketDgram returns an error
  // instead of blocking on a completion that would never come. With no
  // datagram socket linked, ServiceLib refuses every other datagram verb.
  slib_->Respond(Requester(nqe), NqeOp::kOpResult, NqeOp::kSocketUdp, udp::kBadSocket);
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

size_t ServiceLib::PoolCopyTransport::DropConns(int vm) {
  // Queued copy chunks return to their pools, listener entries unlink and
  // peers get a reset-FIN. In-flight copies unwind in their completion lambda
  // (source endpoint gone -> both chunks free through the captured pools).
  std::vector<uint64_t> victims;
  for (auto& [id, ep] : eps_) {
    if (vm == kAllVms || ep->vm_id == vm) victims.push_back(id);
  }
  for (uint64_t id : victims) {
    Endpoint* ep = FindByEp(id);
    if (ep == nullptr) continue;
    if (const VmInfo* owner = slib_->FindVm(ep->vm_id)) {
      for (const PendingChunk& chunk : ep->pending) {
        if (owner->pool->IsAllocated(chunk.ptr)) owner->pool->Free(chunk.ptr);
      }
    }
    if (ep->listening) listeners_.erase(ListenKey(ep->bound_ip, ep->bound_port));
    uint64_t peer_id = ep->peer;
    slib_->Unlink(*ep);
    eps_.erase(id);
    if (peer_id != 0) PeerGone(peer_id, tcp::kConnReset);
  }
  return victims.size();
}

}  // namespace netkernel::core
