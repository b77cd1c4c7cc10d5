// Copyright (c) NetKernel reproduction authors.

#include "src/core/shm_nsm.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/guard/nqe_validator.h"
#include "src/udpstack/udp_types.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

ShmServiceLib::ShmServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce,
                             shm::NkDevice* dev, std::vector<sim::CpuCore*> cores, Config config)
    : loop_(loop),
      nsm_id_(nsm_id),
      ce_(ce),
      dev_(dev),
      cores_(std::move(cores)),
      config_(config),
      drain_scheduled_(static_cast<size_t>(dev->num_queue_sets()), false),
      doorbell_(loop, ce, nsm_id, config.coalesce_wakeups) {
  NK_CHECK(!cores_.empty());
  dev_->SetWakeCallback([this] { OnDeviceWake(); });
}

ShmServiceLib::ShmServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce,
                             shm::NkDevice* dev, std::vector<sim::CpuCore*> cores)
    : ShmServiceLib(loop, nsm_id, ce, dev, std::move(cores), Config()) {}

void ShmServiceLib::AttachVm(uint8_t vm_id, shm::HugepagePool* pool, netsim::IpAddr vm_ip) {
  vms_[vm_id] = VmInfo{pool, vm_ip};
}

ShmServiceLib::Endpoint* ShmServiceLib::FindByVm(uint8_t vm_id, uint32_t vm_sock) {
  auto it = by_vm_.find(VmKey(vm_id, vm_sock));
  return it == by_vm_.end() ? nullptr : it->second;
}

ShmServiceLib::Endpoint* ShmServiceLib::FindByEp(uint64_t ep_id) {
  auto it = eps_.find(ep_id);
  return it == eps_.end() ? nullptr : it->second.get();
}

void ShmServiceLib::EnqueueToVm(const Endpoint& ep, Nqe nqe, bool receive_ring) {
  nqe.vm_id = ep.vm_id;
  nqe.queue_set = ep.vm_qset;
  nqe.vm_sock = ep.vm_sock;
  int qs = ep.nsm_qset < dev_->num_queue_sets() ? ep.nsm_qset : 0;
  shm::QueueSet& q = dev_->queue_set(qs);
  if (!(receive_ring ? q.receive : q.completion).TryEnqueue(nqe)) {
    ++nqes_dropped_;  // severe overload; never lose an NQE without counting
  }
  doorbell_.Ring();
}

void ShmServiceLib::Respond(const Endpoint& ep, NqeOp op, NqeOp orig, int32_t result,
                            uint64_t op_data) {
  Nqe nqe = MakeNqe(op, ep.vm_id, ep.vm_qset, ep.vm_sock, op_data, 0,
                    static_cast<uint32_t>(result));
  nqe.reserved[0] = static_cast<uint8_t>(orig);
  EnqueueToVm(ep, nqe, false);
}

void ShmServiceLib::OnDeviceWake() {
  for (int qs = 0; qs < dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev_->queue_set(qs);
    if (!q.job.Empty() || !q.send.Empty()) ProcessQueueSet(qs);
  }
}

void ShmServiceLib::ProcessQueueSet(int qs) {
  if (drain_scheduled_[qs]) return;
  drain_scheduled_[qs] = true;
  shm::QueueSet& q = dev_->queue_set(qs);
  // Send ring first: a close() must not overtake the data (see ServiceLib).
  Nqe buf[128];
  size_t n = q.send.DequeueBatch(buf, 64);
  n += q.job.DequeueBatch(buf + n, 64);
  if (n == 0) {
    drain_scheduled_[qs] = false;
    return;
  }
  std::vector<Nqe> nqes(buf, buf + n);
  sim::CpuCore* core = cores_[qs % cores_.size()];
  core->Charge(config_.costs.servicelib_translate * static_cast<Cycles>(n),
               [this, qs, nqes = std::move(nqes)]() mutable {
                 for (Nqe& nqe : nqes) {
                   nqe.reserved[2] = static_cast<uint8_t>(qs);
                   Dispatch(nqe);
                 }
                 drain_scheduled_[qs] = false;
                 shm::QueueSet& q2 = dev_->queue_set(qs);
                 if (!q2.job.Empty() || !q2.send.Empty()) ProcessQueueSet(qs);
               });
}

void ShmServiceLib::Dispatch(const Nqe& nqe) {
  // nkguard boundary: only guest->NSM request verbs may dispatch (the
  // CoreEngine validator already refuses everything else at ring-consume
  // time; this is defense in depth for harnesses that bypass the switch).
  if (!guard::IsGuestToNsmOp(nqe.Op())) {
    ++guard_drops_;
    return;
  }
  switch (nqe.Op()) {
    case NqeOp::kSocket: {
      auto ep = std::make_unique<Endpoint>();
      ep->ep_id = next_ep_++;
      ep->vm_id = nqe.vm_id;
      ep->vm_qset = nqe.queue_set;
      ep->vm_sock = nqe.vm_sock;
      ep->nsm_qset = nqe.reserved[2];
      ep->linked = true;
      Endpoint& ref = *ep;
      eps_[ref.ep_id] = std::move(ep);
      by_vm_[VmKey(ref.vm_id, ref.vm_sock)] = &ref;
      Respond(ref, NqeOp::kOpResult, NqeOp::kSocket, 0, ref.ep_id);
      return;
    }
    case NqeOp::kSocketUdp: {
      // The shared-memory NSM carries no datagram transport; fail the socket
      // creation so the guest's SocketDgram returns an error instead of
      // blocking on a completion that would never come.
      Endpoint tmp;
      tmp.vm_id = nqe.vm_id;
      tmp.vm_qset = nqe.queue_set;
      tmp.vm_sock = nqe.vm_sock;
      tmp.nsm_qset = nqe.reserved[2];
      Respond(tmp, NqeOp::kOpResult, NqeOp::kSocketUdp, udp::kBadSocket);
      return;
    }
    case NqeOp::kAccept: {
      Endpoint* child = FindByEp(nqe.op_data);
      if (child == nullptr) return;
      child->vm_id = nqe.vm_id;
      child->vm_qset = nqe.queue_set;
      child->vm_sock = nqe.vm_sock;
      child->linked = true;
      by_vm_[VmKey(child->vm_id, child->vm_sock)] = child;
      auto oit = orphan_sends_.find(VmKey(child->vm_id, child->vm_sock));
      if (oit != orphan_sends_.end()) {
        for (const Nqe& send_nqe : oit->second) {
          child->pending.push_back(PendingChunk{send_nqe.data_ptr, send_nqe.size,
                                                send_nqe.Op() == NqeOp::kSendZc});
        }
        orphan_sends_.erase(oit);
        PumpCopy(child->ep_id);
      }
      Endpoint* peer = FindByEp(child->peer);
      if (peer != nullptr) PumpCopy(peer->ep_id);  // peer may have queued data
      return;
    }
    default:
      break;  // per-socket verbs: resolved against the endpoint table below
  }

  Endpoint* ep = FindByVm(nqe.vm_id, nqe.vm_sock);
  if (ep == nullptr) {
    if (nqe.Op() == NqeOp::kSend || nqe.Op() == NqeOp::kSendZc) {
      orphan_sends_[VmKey(nqe.vm_id, nqe.vm_sock)].push_back(nqe);
    } else {
      // A datagram send naming no socket: CoreEngine forwards it here so the
      // NSM side releases its payload chunk.
      FreeNqeChunk(nqe);
    }
    return;
  }
  switch (nqe.Op()) {
    case NqeOp::kBind: {
      ep->bound_ip = shm::AddrIp(nqe.op_data);
      if (ep->bound_ip == 0) ep->bound_ip = vms_[ep->vm_id].ip;
      ep->bound_port = shm::AddrPort(nqe.op_data);
      Respond(*ep, NqeOp::kOpResult, NqeOp::kBind, 0);
      return;
    }
    case NqeOp::kListen: {
      ep->listening = true;
      uint64_t key = (static_cast<uint64_t>(ep->bound_ip) << 16) | ep->bound_port;
      listeners_[key] = ep->ep_id;
      Respond(*ep, NqeOp::kOpResult, NqeOp::kListen, 0);
      return;
    }
    case NqeOp::kConnect: {
      TryConnect(ep->ep_id, nqe.op_data, 0);
      return;
    }
    case NqeOp::kSend:
    case NqeOp::kSendZc: {
      ep->pending.push_back(
          PendingChunk{nqe.data_ptr, nqe.size, nqe.Op() == NqeOp::kSendZc});
      PumpCopy(ep->ep_id);
      return;
    }
    case NqeOp::kClose: {
      // Flush-aware close: queued chunks are copied to the peer first.
      ep->close_pending = true;
      MaybeFinishClose(ep->ep_id);
      return;
    }
    case NqeOp::kSendTo:
    case NqeOp::kSendToZc:
      // No datagram transport here (kSocketUdp fails), so a stray datagram
      // send cannot be delivered — but its payload chunk must not strand.
      FreeNqeChunk(nqe);
      Respond(*ep, NqeOp::kOpResult, nqe.Op(), udp::kBadSocket);
      return;
    case NqeOp::kBindUdp:
    case NqeOp::kRecvFrom:
      // Datagram verbs with no transport behind them get a benign kOpResult.
      Respond(*ep, NqeOp::kOpResult, nqe.Op(), 0);
      return;
    default:
      return;  // handled or excluded before the endpoint lookup
  }
}

void ShmServiceLib::FreeNqeChunk(const Nqe& nqe) {
  if (!guard::CarriesGuestChunk(nqe.Op())) return;
  auto vit = vms_.find(nqe.vm_id);
  if (vit != vms_.end() && vit->second.pool->IsAllocated(nqe.data_ptr)) {
    vit->second.pool->Free(nqe.data_ptr);
  }
}

// Resolves a connect against the listener table, retrying for a grace period
// (the TCP path tolerates connect-before-listen via SYN retransmission; the
// shared-memory path must offer the same semantics).
void ShmServiceLib::TryConnect(uint64_t ep_id, uint64_t addr, int attempt) {
  Endpoint* ep = FindByEp(ep_id);
  if (ep == nullptr) return;
  uint64_t key =
      (static_cast<uint64_t>(shm::AddrIp(addr)) << 16) | shm::AddrPort(addr);
  auto lit = listeners_.find(key);
  Endpoint* listener = lit == listeners_.end() ? nullptr : FindByEp(lit->second);
  if (listener == nullptr) {
    if (attempt < 6) {
      loop_->ScheduleAfter((1 + attempt) * 5 * kMillisecond,
                           [this, ep_id, addr, attempt] { TryConnect(ep_id, addr, attempt + 1); });
    } else {
      Respond(*ep, NqeOp::kConnectResult, NqeOp::kConnect, tcp::kConnRefused);
    }
    return;
  }
  // Create the server-side endpoint and hand it to the listener's VM.
  auto child = std::make_unique<Endpoint>();
  child->ep_id = next_ep_++;
  child->vm_id = listener->vm_id;
  child->vm_qset = listener->vm_qset;
  child->nsm_qset = listener->nsm_qset;
  child->peer = ep->ep_id;
  ep->peer = child->ep_id;
  uint64_t child_id = child->ep_id;
  eps_[child_id] = std::move(child);
  Nqe acc = MakeNqe(NqeOp::kAcceptedConn, listener->vm_id, listener->vm_qset,
                    listener->vm_sock, child_id);
  EnqueueToVm(*listener, acc, false);
  Respond(*ep, NqeOp::kConnectResult, NqeOp::kConnect, 0);
  PumpCopy(ep->ep_id);  // data may already be queued
}

// Copies queued chunks from `src` endpoint's VM pool into the peer VM's pool
// and raises kRecvData events — the whole "network stack" of this NSM.
void ShmServiceLib::PumpCopy(uint64_t src_ep_id) {
  Endpoint* src = FindByEp(src_ep_id);
  if (src == nullptr || src->copy_pending || src->pending.empty()) return;
  Endpoint* dst = FindByEp(src->peer);
  if (dst == nullptr || !dst->linked) return;
  if (dst->rx_outstanding >= config_.rx_outstanding_cap) return;  // credit wait

  auto svit = vms_.find(src->vm_id);
  auto dvit = vms_.find(dst->vm_id);
  if (svit == vms_.end() || dvit == vms_.end()) return;
  shm::HugepagePool* spool = svit->second.pool;
  shm::HugepagePool* dpool = dvit->second.pool;

  PendingChunk chunk = src->pending.front();
  uint64_t doff = dpool->Alloc(chunk.size);
  if (doff == shm::HugepagePool::kInvalidOffset) return;  // retried on credit
  src->pending.pop_front();
  src->copy_pending = true;

  sim::CpuCore* core = cores_[src->ep_id % cores_.size()];
  Cycles copy = static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * chunk.size);
  core->Charge(copy, [this, src_ep_id, chunk, doff, spool, dpool] {
    Endpoint* src2 = FindByEp(src_ep_id);
    if (src2 == nullptr) {
      // Endpoint torn down mid-copy (DetachVm): unwind both sides — the
      // destination landing chunk and the still-allocated source chunk.
      dpool->Free(doff);
      if (spool->IsAllocated(chunk.ptr)) spool->Free(chunk.ptr);
      return;
    }
    src2->copy_pending = false;
    Endpoint* dst2 = FindByEp(src2->peer);
    if (dst2 == nullptr) {
      dpool->Free(doff);
      spool->Free(chunk.ptr);
      return;
    }
    std::memcpy(dpool->Data(doff), spool->Data(chunk.ptr), chunk.size);
    bytes_copied_ += chunk.size;
    spool->Free(chunk.ptr);
    if (chunk.zc) {
      // Zero-copy credit return: op_data carries the freed bytes; the status
      // rides in `size` (0 here — the chunk was delivered).
      Respond(*src2, NqeOp::kSendZcComplete, NqeOp::kSendZc, 0, chunk.size);
    } else {
      Respond(*src2, NqeOp::kSendResult, NqeOp::kSend, 0, chunk.size);
    }
    Nqe rx = MakeNqe(NqeOp::kRecvData, dst2->vm_id, dst2->vm_qset, dst2->vm_sock, 0, doff,
                     chunk.size);
    EnqueueToVm(*dst2, rx, true);
    dst2->rx_outstanding += chunk.size;
    PumpCopy(src_ep_id);
    MaybeFinishClose(src_ep_id);
  });
}

void ShmServiceLib::MaybeFinishClose(uint64_t ep_id) {
  Endpoint* ep = FindByEp(ep_id);
  if (ep == nullptr || !ep->close_pending) return;
  if (ep->copy_pending || !ep->pending.empty()) return;
  uint64_t peer_id = ep->peer;
  uint64_t key = (static_cast<uint64_t>(ep->bound_ip) << 16) | ep->bound_port;
  if (ep->listening) listeners_.erase(key);
  by_vm_.erase(VmKey(ep->vm_id, ep->vm_sock));
  eps_.erase(ep_id);
  if (peer_id != 0) DeliverFin(peer_id, 0);
}

void ShmServiceLib::DetachVm(uint8_t vm_id) {
  auto vit = vms_.find(vm_id);
  if (vit == vms_.end()) return;
  shm::HugepagePool* pool = vit->second.pool;

  // 1. Close the VM's endpoints: queued copy chunks return to its pool,
  //    listener entries unlink, peers get a reset-FIN. In-flight copies
  //    unwind in their completion lambda (src endpoint gone -> both chunks
  //    free through the captured pool pointers).
  std::vector<uint64_t> victims;
  for (auto& [id, ep] : eps_) {
    if (ep->vm_id == vm_id) victims.push_back(id);
  }
  for (uint64_t id : victims) {
    Endpoint* ep = FindByEp(id);
    if (ep == nullptr) continue;
    for (const PendingChunk& chunk : ep->pending) {
      if (pool->IsAllocated(chunk.ptr)) pool->Free(chunk.ptr);
    }
    ep->pending.clear();
    if (ep->listening) {
      listeners_.erase((static_cast<uint64_t>(ep->bound_ip) << 16) | ep->bound_port);
    }
    uint64_t peer_id = ep->peer;
    by_vm_.erase(VmKey(ep->vm_id, ep->vm_sock));
    eps_.erase(id);
    if (peer_id != 0) DeliverFin(peer_id, tcp::kConnReset);
  }

  // 2. Sweep the VM's NQEs out of the shared device rings; co-tenant NQEs
  //    re-enqueue in order (full drain guarantees they fit).
  Nqe nqe;
  for (int qs = 0; qs < dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev_->queue_set(qs);
    const auto sweep = [&](shm::SpscRing<Nqe>& ring, auto reclaim) {
      std::vector<Nqe> keep;
      while (ring.TryDequeue(&nqe)) {
        if (nqe.vm_id == vm_id) {
          ++guard_drops_;
          reclaim(nqe);
        } else {
          keep.push_back(nqe);
        }
      }
      for (const Nqe& k : keep) NK_CHECK(ring.TryEnqueue(k));
    };
    sweep(q.send, [&](const Nqe& n) { FreeNqeChunk(n); });
    sweep(q.job, [&](const Nqe& n) { FreeNqeChunk(n); });
    sweep(q.receive, [&](const Nqe& n) {
      if (shm::CarriesRxChunk(n.Op()) && pool->IsAllocated(n.data_ptr)) {
        pool->Free(n.data_ptr);
      }
    });
    sweep(q.completion, [&](const Nqe&) {});
  }

  // 3. Orphan sends parked for an accept-link that will never arrive.
  for (auto it = orphan_sends_.begin(); it != orphan_sends_.end();) {
    if (static_cast<uint8_t>(it->first >> 32) == vm_id) {
      for (const Nqe& orphan : it->second) FreeNqeChunk(orphan);
      it = orphan_sends_.erase(it);
    } else {
      ++it;
    }
  }

  vms_.erase(vit);
}

void ShmServiceLib::OnRecvCredit(uint8_t vm_id, uint32_t vm_sock, uint32_t bytes) {
  Endpoint* ep = FindByVm(vm_id, vm_sock);
  if (ep == nullptr) return;
  ep->rx_outstanding = ep->rx_outstanding > bytes ? ep->rx_outstanding - bytes : 0;
  if (ep->peer != 0) PumpCopy(ep->peer);
}

void ShmServiceLib::DeliverFin(uint64_t ep_id, int32_t err) {
  Endpoint* ep = FindByEp(ep_id);
  if (ep == nullptr || ep->fin_sent_to_vm) return;
  ep->peer = 0;
  ep->fin_sent_to_vm = true;
  if (!ep->linked) return;
  Nqe fin = MakeNqe(NqeOp::kFinReceived, ep->vm_id, ep->vm_qset, ep->vm_sock, 0, 0,
                    static_cast<uint32_t>(err));
  EnqueueToVm(*ep, fin, true);
}

}  // namespace netkernel::core
