// Copyright (c) NetKernel reproduction authors.

#include "src/core/servicelib.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/common/check.h"
#include "src/guard/nqe_validator.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

ServiceLib::ServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
                       tcp::TcpStack* stack, udp::UdpStack* udp_stack, Config config)
    : loop_(loop),
      nsm_id_(nsm_id),
      ce_(ce),
      dev_(dev),
      stack_(stack),
      udp_stack_(udp_stack),
      config_(config),
      drain_scheduled_(static_cast<size_t>(dev->num_queue_sets()), false),
      doorbell_(loop, ce, nsm_id, config.coalesce_wakeups),
      recorder_(loop, "nsm" + std::to_string(nsm_id) + ".svc") {
  dev_->SetWakeCallback([this] { OnDeviceWake(); });
}

ServiceLib::ServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
                       tcp::TcpStack* stack, udp::UdpStack* udp_stack)
    : ServiceLib(loop, nsm_id, ce, dev, stack, udp_stack, Config()) {}

ServiceLib::~ServiceLib() { *alive_ = false; }

void ServiceLib::AttachVm(uint8_t vm_id, shm::HugepagePool* pool, netsim::IpAddr vm_ip) {
  VmInfo info;
  info.pool = pool;
  info.ip = vm_ip;
  // RX zero-copy: the stacks draw this VM's receive storage straight from its
  // hugepage pool, so ShipRecv/ShipDgrams can detach and forward the chunk
  // the stack already owns. The callbacks outlive arbitrary teardown orders
  // (they sit inside TcpStack receive buffers), hence the liveness token and
  // the re-resolution of the pool through vms_.
  info.rx_allocator = std::make_shared<tcp::ChunkAllocator>();
  info.rx_allocator->alloc = [this, alive = alive_, vm_id](uint32_t size, uint64_t* handle,
                                                           uint8_t** data, uint32_t* cap) {
    if (!*alive) return false;
    auto it = vms_.find(vm_id);
    // An evicted (quarantined) VM must not grow its footprint: refusing the
    // alloc makes the stack fall back to its own buffering, and the eviction
    // sweep has already reclaimed what the pool held.
    if (it == vms_.end() || it->second.evicted) return false;
    shm::HugepagePool* p = it->second.pool;
    uint32_t want = std::min<uint32_t>(size > 0 ? size : 1, shm::HugepagePool::kMaxChunk);
    uint64_t off = p->Alloc(want);
    if (off == shm::HugepagePool::kInvalidOffset) return false;
    *handle = off;
    *data = p->Data(off);
    *cap = p->ChunkCapacity(off);
    return true;
  };
  info.rx_allocator->free = [this, alive = alive_, vm_id](uint64_t handle) {
    if (!*alive) return;
    auto it = vms_.find(vm_id);
    if (it != vms_.end()) it->second.pool->Free(handle);
  };
  vms_[vm_id] = std::move(info);
}

void ServiceLib::DetachVm(uint8_t vm_id) { vms_.erase(vm_id); }

void ServiceLib::SetVmCcFactory(uint8_t vm_id, tcp::CcFactory factory) {
  auto it = vms_.find(vm_id);
  NK_CHECK(it != vms_.end());
  it->second.cc_factory = std::move(factory);
}

ServiceLib::Conn* ServiceLib::FindByVm(uint8_t vm_id, uint32_t vm_sock) {
  auto it = by_vm_.find(VmKey(vm_id, vm_sock));
  return it == by_vm_.end() ? nullptr : it->second;
}

ServiceLib::Conn* ServiceLib::FindBySid(tcp::SocketId sid) {
  auto it = by_sid_.find(sid);
  return it == by_sid_.end() ? nullptr : it->second.get();
}

ServiceLib::Conn* ServiceLib::FindByUsid(udp::SocketId usid) {
  auto it = by_usid_.find(usid);
  return it == by_usid_.end() ? nullptr : it->second.get();
}

ServiceLib::Conn& ServiceLib::NewConn(uint8_t vm_id, uint8_t vm_qset, uint32_t vm_sock) {
  auto c = std::make_unique<Conn>();
  c->vm_id = vm_id;
  c->vm_qset = vm_qset;
  c->vm_sock = vm_sock;
  Conn& ref = *c;
  // Ownership keyed by stack socket id; caller fills sid before indexing.
  pending_owner_ = std::move(c);
  return ref;
}

// ---------------------------------------------------------------------------
// NSM -> VM NQE emission
// ---------------------------------------------------------------------------

bool ServiceLib::EnqueueToVm(const Conn& c, Nqe nqe, bool receive_ring) {
  nqe.vm_id = c.vm_id;
  nqe.queue_set = c.vm_qset;
  nqe.vm_sock = c.vm_sock;
  int qs = c.nsm_qset < dev_->num_queue_sets() ? c.nsm_qset : 0;
  // T3 lifecycle stamp: a completion produced synchronously inside a traced
  // dispatch inherits the request's trace id before it hits the ring.
  if (tracer_ != nullptr && !receive_ring) {
    Cycles tc = tracer_->TagCompletion(&nqe);
    if (tc != 0) stack_->core(qs % stack_->num_cores())->AccountOnly(tc);
  }
  shm::QueueSet& q = dev_->queue_set(qs);
  bool ok = (receive_ring ? q.receive : q.completion).TryEnqueue(nqe);
  if (!ok) {
    // Severe overload: the NSM-side ring (4K deep) is full. The caller owns
    // any referenced chunk; the loss itself must never be silent.
    ++nqes_dropped_;
    recorder_.Record(obs::FlightEventType::kRingFullDrop, nqe.vm_id, nqe.queue_set,
                     nqe.op, nqe.vm_sock, receive_ring ? 1 : 0);
    return false;
  }
  doorbell_.Ring();
  return true;
}

void ServiceLib::Respond(const Conn& c, NqeOp op, NqeOp orig, int32_t result, uint64_t op_data) {
  Nqe nqe = MakeNqe(op, c.vm_id, c.vm_qset, c.vm_sock, op_data, 0,
                    static_cast<uint32_t>(result));
  nqe.reserved[0] = static_cast<uint8_t>(orig);
  EnqueueToVm(c, nqe, false);
}

// ---------------------------------------------------------------------------
// Inbound dispatch
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Liveness heartbeat
// ---------------------------------------------------------------------------

void ServiceLib::StartHeartbeat(SimTime period) {
  NK_CHECK(period > 0);
  heartbeat_period_ = period;
  heartbeat_timer_.Cancel();
  ScheduleHeartbeat();
}

void ServiceLib::StopHeartbeat() {
  heartbeat_period_ = 0;
  heartbeat_timer_.Cancel();
}

void ServiceLib::ScheduleHeartbeat() {
  if (shutdown_ || wedged_ || heartbeat_period_ == 0) return;
  heartbeat_timer_ = loop_->ScheduleAfter(heartbeat_period_, [this] {
    if (shutdown_ || wedged_ || heartbeat_period_ == 0) return;
    ce_->HandleControlMessage(
        {static_cast<uint32_t>(CeOp::kHeartbeat), nsm_id_});
    ++heartbeats_sent_;
    ScheduleHeartbeat();
  });
}

void ServiceLib::Wedge() {
  wedged_ = true;
  heartbeat_timer_.Cancel();
}

void ServiceLib::OnDeviceWake() {
  if (shutdown_ || wedged_) return;
  for (int qs = 0; qs < dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev_->queue_set(qs);
    if (!q.job.Empty() || !q.send.Empty()) ProcessQueueSet(qs);
  }
}

void ServiceLib::ProcessQueueSet(int qs) {
  if (shutdown_ || wedged_ || drain_scheduled_[qs]) return;
  drain_scheduled_[qs] = true;

  shm::QueueSet& q = dev_->queue_set(qs);
  // The send ring drains before the job ring so a close() issued right after
  // a send() cannot overtake the data (the guest wrote them in that order).
  Nqe buf[128];
  size_t n = q.send.DequeueBatch(buf, 64);
  n += q.job.DequeueBatch(buf + n, 64);
  if (n == 0) {
    drain_scheduled_[qs] = false;
    return;
  }
  nqes_processed_ += n;

  std::vector<Nqe> nqes(buf, buf + n);
  int core_idx = qs % stack_->num_cores();
  Cycles cost = config_.costs.servicelib_translate * static_cast<Cycles>(n);
  stack_->core(core_idx)->Charge(cost, [this, qs, nqes = std::move(nqes)]() mutable {
    if (shutdown_) {
      // Shutdown raced this in-flight batch: the NQEs were already pulled off
      // the rings, so the ring drain missed them — unwind their chunks here.
      for (const Nqe& nqe : nqes) FreeNqeChunk(nqe);
      drain_scheduled_[qs] = false;
      return;
    }
    for (Nqe& nqe : nqes) {
      if (shutdown_) {
        // A dispatched NQE triggered Shutdown mid-batch: the connection maps
        // were already cleared, so the rest of the batch must unwind, not
        // dispatch against freed state.
        FreeNqeChunk(nqe);
        continue;
      }
      nqe.reserved[2] = static_cast<uint8_t>(qs);  // processing queue set
      if (tracer_ != nullptr) {
        // T2 lifecycle stamp; the dispatch scope lets a synchronous
        // completion inherit the trace id in EnqueueToVm (T3).
        Cycles tc = tracer_->BeginDispatch(nqe);
        if (tc != 0) stack_->core(qs % stack_->num_cores())->AccountOnly(tc);
        Dispatch(nqe);
        tracer_->EndDispatch();
      } else {
        Dispatch(nqe);
      }
    }
    drain_scheduled_[qs] = false;
    shm::QueueSet& q2 = dev_->queue_set(qs);
    if (!q2.job.Empty() || !q2.send.Empty()) ProcessQueueSet(qs);
  });
}

void ServiceLib::Dispatch(const Nqe& nqe) {
  // nkguard boundary: only guest->NSM request verbs may dispatch. The
  // CoreEngine validator already refuses everything else at ring-consume
  // time, so anything that still lands here (a harness bypassing the switch,
  // a rehome race) is dropped and counted rather than poking stack state.
  if (!guard::IsGuestToNsmOp(nqe.Op())) {
    ++guard_drops_;
    return;
  }
  // A quarantined VM's in-flight stragglers unwind their payload chunks into
  // its still-reachable pool instead of dispatching against torn-down state.
  auto evit = vms_.find(nqe.vm_id);
  if (evit != vms_.end() && evit->second.evicted) {
    ++guard_drops_;
    FreeNqeChunk(nqe);
    return;
  }
  switch (nqe.Op()) {
    case NqeOp::kSocket:
      DoSocket(nqe);
      return;
    case NqeOp::kSocketUdp:
      DoSocketUdp(nqe);
      return;
    case NqeOp::kAccept:
      DoAcceptLink(nqe);
      return;
    default:
      break;  // per-socket verbs: resolved against the conn table below
  }
  Conn* c = FindByVm(nqe.vm_id, nqe.vm_sock);
  if (c == nullptr) {
    // A send can overtake its socket's accept-link NQE (they travel on
    // different rings); park it until the link arrives.
    if (nqe.Op() == NqeOp::kSend || nqe.Op() == NqeOp::kSendZc) {
      orphan_sends_[VmKey(nqe.vm_id, nqe.vm_sock)].push_back(nqe);
    } else if (guard::CarriesGuestChunk(nqe.Op())) {
      // A datagram send whose socket already closed (a kClose overtook it
      // through the job ring): the datagram is lost — UDP loses datagrams —
      // but its payload chunk must go back to the pool.
      auto vit = vms_.find(nqe.vm_id);
      if (vit != vms_.end()) vit->second.pool->Free(nqe.data_ptr);
    }
    return;
  }
  switch (nqe.Op()) {
    case NqeOp::kBind:
      DoBind(nqe, *c);
      break;
    case NqeOp::kBindUdp:
      DoBindUdp(nqe, *c);
      break;
    case NqeOp::kListen:
      DoListen(nqe, *c);
      break;
    case NqeOp::kConnect:
      DoConnect(nqe, *c);
      break;
    case NqeOp::kSend:
      DoSend(nqe, *c);
      break;
    case NqeOp::kSendZc:
      DoSendZc(nqe, *c);
      break;
    case NqeOp::kSendTo:
      DoSendTo(nqe, *c);
      break;
    case NqeOp::kSendToZc:
      DoSendToZc(nqe, *c);
      break;
    case NqeOp::kRecvFrom:
      // Datagram receive credit: the guest consumed op_data bytes.
      c->rx_outstanding = c->rx_outstanding > nqe.op_data ? c->rx_outstanding - nqe.op_data : 0;
      if (c->dgram) ShipDgrams(c->usid);
      break;
    case NqeOp::kClose:
      if (c->dgram) {
        DoCloseDgram(*c);
      } else {
        DoClose(*c);
      }
      break;
    default:
      break;  // handled or excluded before the conn lookup
  }
}

void ServiceLib::DoSocket(const Nqe& nqe) {
  auto vit = vms_.find(nqe.vm_id);
  if (vit == vms_.end()) return;
  tcp::SocketId sid = stack_->CreateSocket();
  if (vit->second.cc_factory) {
    stack_->SetCongestionControl(sid, vit->second.cc_factory());
  }
  // RX zero-copy: inbound payload lands in the VM's pool; listeners pass the
  // allocator on to accepted children inside the stack.
  if (config_.rx_zerocopy) stack_->SetRxChunkAllocator(sid, vit->second.rx_allocator);
  // Connections of this VM use the VM's address (the NSM's vNIC answers for
  // every address of the VMs it serves).
  stack_->Bind(sid, vit->second.ip, 0);

  Conn& c = NewConn(nqe.vm_id, nqe.queue_set, nqe.vm_sock);
  c.sid = sid;
  c.linked = true;
  c.nsm_qset = nqe.reserved[2];
  by_sid_[sid] = std::move(pending_owner_);
  by_vm_[VmKey(c.vm_id, c.vm_sock)] = by_sid_[sid].get();
  Respond(c, NqeOp::kOpResult, NqeOp::kSocket, 0, sid);
}

void ServiceLib::DoBind(const Nqe& nqe, Conn& c) {
  auto vit = vms_.find(c.vm_id);
  if (vit == vms_.end()) return;
  int r = stack_->Bind(c.sid, vit->second.ip, shm::AddrPort(nqe.op_data));
  Respond(c, NqeOp::kOpResult, NqeOp::kBind, r);
}

void ServiceLib::DoListen(const Nqe& nqe, Conn& c) {
  int backlog = static_cast<int>(nqe.op_data);
  bool reuseport = nqe.reserved[1] != 0;
  int r = stack_->Listen(c.sid, backlog, reuseport);
  if (r == 0) {
    c.listener = true;
    tcp::SocketId lsid = c.sid;
    tcp::SocketCallbacks cbs;
    cbs.on_acceptable = [this, lsid] { AutoAccept(lsid); };
    stack_->SetCallbacks(lsid, std::move(cbs));
  }
  Respond(c, NqeOp::kOpResult, NqeOp::kListen, r);
}

void ServiceLib::DoConnect(const Nqe& nqe, Conn& c) {
  tcp::SocketId sid = c.sid;
  tcp::SocketCallbacks cbs;
  cbs.on_connect = [this, sid](int err) {
    Conn* c2 = FindBySid(sid);
    if (c2 == nullptr) return;
    Respond(*c2, NqeOp::kConnectResult, NqeOp::kConnect, err);
    if (err == 0) InstallDataCallbacks(*c2);
  };
  cbs.on_error = [this, sid](int err) {
    Conn* c2 = FindBySid(sid);
    if (c2 == nullptr || c2->fin_sent_to_vm) return;
    c2->fin_sent_to_vm = true;
    Nqe fin = MakeNqe(NqeOp::kFinReceived, 0, 0, 0, 0, 0, static_cast<uint32_t>(err));
    EnqueueToVm(*c2, fin, true);
  };
  stack_->SetCallbacks(sid, std::move(cbs));
  stack_->Connect(sid, shm::AddrIp(nqe.op_data), shm::AddrPort(nqe.op_data));
}

void ServiceLib::AutoAccept(tcp::SocketId listener_sid) {
  Conn* l = FindBySid(listener_sid);
  if (l == nullptr) return;
  for (;;) {
    tcp::SocketId cid = stack_->Accept(listener_sid);
    if (cid == tcp::kInvalidSocket) break;
    Conn& c = NewConn(l->vm_id, l->vm_qset, 0);
    c.sid = cid;
    c.nsm_qset = l->nsm_qset;
    by_sid_[cid] = std::move(pending_owner_);
    auto vit = vms_.find(l->vm_id);
    if (vit != vms_.end() && vit->second.cc_factory) {
      stack_->SetCongestionControl(cid, vit->second.cc_factory());
    }
    // Tell GuestLib about the new connection; the NSM socket id rides in
    // op_data and the guest answers with a kAccept link NQE (Fig 6).
    Nqe nqe = MakeNqe(NqeOp::kAcceptedConn, l->vm_id, l->vm_qset, l->vm_sock, cid);
    EnqueueToVm(*l, nqe, false);
  }
}

void ServiceLib::DoAcceptLink(const Nqe& nqe) {
  tcp::SocketId sid = static_cast<tcp::SocketId>(nqe.op_data);
  Conn* c = FindBySid(sid);
  if (c == nullptr || !stack_->Exists(sid)) {
    // Connection reset before the guest accepted it: signal EOF.
    Conn tmp;
    tmp.vm_id = nqe.vm_id;
    tmp.vm_qset = nqe.queue_set;
    tmp.vm_sock = nqe.vm_sock;
    tmp.nsm_qset = nqe.reserved[2];
    Nqe fin = MakeNqe(NqeOp::kFinReceived, 0, 0, 0, 0, 0,
                      static_cast<uint32_t>(tcp::kConnReset));
    EnqueueToVm(tmp, fin, true);
    return;
  }
  c->vm_id = nqe.vm_id;
  c->vm_qset = nqe.queue_set;
  c->vm_sock = nqe.vm_sock;
  c->linked = true;
  by_vm_[VmKey(c->vm_id, c->vm_sock)] = c;
  InstallDataCallbacks(*c);
  // Replay any sends that overtook this link NQE.
  auto oit = orphan_sends_.find(VmKey(c->vm_id, c->vm_sock));
  if (oit != orphan_sends_.end()) {
    std::vector<Nqe> orphans = std::move(oit->second);
    orphan_sends_.erase(oit);
    for (const Nqe& send_nqe : orphans) {
      if (send_nqe.Op() == NqeOp::kSendZc) {
        DoSendZc(send_nqe, *c);
      } else {
        DoSend(send_nqe, *c);
      }
    }
  }
  ShipRecv(sid);  // data may have arrived before the link
}

void ServiceLib::InstallDataCallbacks(Conn& c) {
  tcp::SocketId sid = c.sid;
  tcp::SocketCallbacks cbs;
  cbs.on_readable = [this, sid] { ShipRecv(sid); };
  cbs.on_writable = [this, sid] {
    Conn* c2 = FindBySid(sid);
    if (c2 != nullptr) DrainPendingTx(*c2);
  };
  cbs.on_error = [this, sid](int err) {
    Conn* c2 = FindBySid(sid);
    if (c2 == nullptr || c2->fin_sent_to_vm) return;
    c2->fin_sent_to_vm = true;
    Nqe fin = MakeNqe(NqeOp::kFinReceived, 0, 0, 0, 0, 0, static_cast<uint32_t>(err));
    EnqueueToVm(*c2, fin, true);
  };
  stack_->SetCallbacks(sid, std::move(cbs));
}

// ---------------------------------------------------------------------------
// Send path: hugepages -> stack
// ---------------------------------------------------------------------------

void ServiceLib::DoSend(const Nqe& nqe, Conn& c) {
  auto vit = vms_.find(c.vm_id);
  if (vit == vms_.end()) return;
  shm::HugepagePool* pool = vit->second.pool;
  tcp::SocketId sid = c.sid;
  uint64_t ptr = nqe.data_ptr;
  uint32_t size = nqe.size;

  // The copy from hugepages into the stack's socket buffer happens on the
  // connection's stack core (this is the overhead Table 6 quantifies; the
  // paper's planned zerocopy would remove it).
  Cycles copy = static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * size);
  ++c.sends_in_flight;
  stack_->ChargeOnSocketCore(sid, copy, [this, sid, ptr, size, pool] {
    Conn* c2 = FindBySid(sid);
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

// ---------------------------------------------------------------------------
// Zero-copy send path: the stack transmits straight from the hugepage chunk
// ---------------------------------------------------------------------------

std::function<void()> ServiceLib::MakeZcFreeCallback(const Conn& c, uint64_t ptr,
                                                     uint32_t size) {
  // The callback lives inside the TcpStack send buffer and can fire on ACK,
  // on connection teardown, or during stack destruction — potentially after
  // this ServiceLib, the Conn, or the VM's pool are gone. It therefore
  // carries the liveness token and re-resolves the pool through vms_.
  const uint8_t vm_id = c.vm_id;
  const uint8_t vm_qset = c.vm_qset;
  const uint8_t nsm_qset = c.nsm_qset;
  const uint32_t vm_sock = c.vm_sock;
  return [this, alive = alive_, vm_id, vm_qset, nsm_qset, vm_sock, ptr, size] {
    if (!*alive) return;
    auto vit = vms_.find(vm_id);
    if (vit == vms_.end()) return;  // VM detached; its pool may be gone too
    vit->second.pool->Free(ptr);
    recorder_.Record(obs::FlightEventType::kZcChunkFree, vm_id, vm_qset,
                     static_cast<uint8_t>(NqeOp::kSendZc), vm_sock, size);
    // Return the send credit. Status 0 covers both outcomes — on a teardown
    // with unacked bytes the guest also receives the error FIN, which is
    // what reports the broken stream.
    Conn tmp;
    tmp.vm_id = vm_id;
    tmp.vm_qset = vm_qset;
    tmp.nsm_qset = nsm_qset;
    tmp.vm_sock = vm_sock;
    Nqe nqe = MakeNqe(NqeOp::kSendZcComplete, vm_id, vm_qset, vm_sock, size);
    nqe.reserved[0] = static_cast<uint8_t>(NqeOp::kSendZc);
    EnqueueToVm(tmp, nqe, false);
  };
}

void ServiceLib::FailZcTx(const Conn& c, uint64_t ptr, uint32_t size) {
  auto vit = vms_.find(c.vm_id);
  if (vit != vms_.end()) vit->second.pool->Free(ptr);
  Nqe nqe = MakeNqe(NqeOp::kSendZcComplete, c.vm_id, c.vm_qset, c.vm_sock, size, 0,
                    static_cast<uint32_t>(tcp::kConnReset));
  nqe.reserved[0] = static_cast<uint8_t>(NqeOp::kSendZc);
  EnqueueToVm(c, nqe, false);
}

void ServiceLib::DoSendZc(const Nqe& nqe, Conn& c) {
  // No hugepage->stack copy (the Table 6 overhead DoSend pays): only the
  // zero-cycle trip through the socket's core, which preserves FIFO ordering
  // with any legacy kSend copies still in flight on that core.
  auto vit = vms_.find(c.vm_id);
  if (vit == vms_.end()) return;
  shm::HugepagePool* pool = vit->second.pool;
  tcp::SocketId sid = c.sid;
  uint64_t ptr = nqe.data_ptr;
  uint32_t size = nqe.size;
  ++c.sends_in_flight;
  stack_->ChargeOnSocketCore(sid, 0, [this, sid, ptr, size, pool] {
    Conn* c2 = FindBySid(sid);
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

void ServiceLib::DrainPendingTx(Conn& c) {
  auto vit = vms_.find(c.vm_id);
  if (vit == vms_.end()) return;
  shm::HugepagePool* pool = vit->second.pool;
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
                          MakeZcFreeCallback(c, tx.ptr, tx.size))) {
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
    Respond(c, NqeOp::kSendResult, NqeOp::kSend, 0, tx.size);
    c.pending_tx.pop_front();
  }
  MaybeFinishClose(c.sid);
}

// ---------------------------------------------------------------------------
// Receive path: stack -> hugepages -> kRecvData
// ---------------------------------------------------------------------------

void ServiceLib::ShipRecv(tcp::SocketId sid) {
  Conn* c = FindBySid(sid);
  if (c == nullptr || !c->linked || c->ship_pending) return;
  auto vit = vms_.find(c->vm_id);
  if (vit == vms_.end()) return;
  shm::HugepagePool* pool = vit->second.pool;

  uint64_t avail = stack_->RecvAvailable(sid);
  if (avail > 0 && c->rx_outstanding < config_.rx_outstanding_cap) {
    // Zero-copy ship: the front of the stack's receive buffer already IS a
    // chunk of this VM's pool (landed there at segment arrival) — detach it
    // and forward the handle. No rcvbuf->hugepage copy, no fresh allocation;
    // the last per-byte touch on the RX path is gone (§7.8). The chunk may
    // overshoot the outstanding cap by at most one chunk (64 KB).
    if (stack_->RxDetachable(sid)) {
      c->ship_pending = true;
      stack_->ChargeOnSocketCore(sid, 0, [this, sid, pool] {
        Conn* c2 = FindBySid(sid);
        if (c2 == nullptr) return;  // rcvbuf teardown frees its own chunks
        c2->ship_pending = false;
        tcp::DetachedChunk chunk;
        if (!stack_->Exists(sid) || !stack_->RecvZcDetach(sid, &chunk)) {
          ShipRecv(sid);
          return;
        }
        ++rx_zc_ships_;
        Nqe nqe = MakeNqe(NqeOp::kRecvData, c2->vm_id, c2->vm_qset, c2->vm_sock, 0,
                          chunk.handle, chunk.size);
        if (EnqueueToVm(*c2, nqe, true)) {
          c2->rx_outstanding += chunk.size;
        } else {
          // Ring full at the final hop: the detached bytes cannot be
          // re-queued, so the stream is broken (same as the copy path).
          pool->Free(chunk.handle);
          if (!c2->fin_sent_to_vm) {
            c2->fin_sent_to_vm = true;
            DeliverErrorFin(sid);
          }
          return;
        }
        ShipRecv(sid);
      });
      return;
    }
    // Copy fallback: the front chunk is heap-backed (the pool was exhausted
    // when the segment landed) or partially consumed — stage it through a
    // fresh pool chunk with the classic per-byte copy.
    uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
        {shm::HugepagePool::kMaxChunk, avail, config_.rx_outstanding_cap - c->rx_outstanding}));
    uint64_t off = pool->Alloc(chunk);
    if (off == shm::HugepagePool::kInvalidOffset) return;  // resumes on credit
    c->ship_pending = true;
    Cycles copy = static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * chunk);
    stack_->ChargeOnSocketCore(sid, copy, [this, sid, off, chunk, pool] {
      Conn* c2 = FindBySid(sid);
      if (c2 == nullptr) {
        pool->Free(off);
        return;
      }
      c2->ship_pending = false;
      uint64_t n = stack_->Recv(sid, pool->Data(off), chunk);
      if (n == 0) {
        pool->Free(off);
      } else {
        ++rx_copy_ships_;
        Nqe nqe = MakeNqe(NqeOp::kRecvData, c2->vm_id, c2->vm_qset, c2->vm_sock, 0, off,
                          static_cast<uint32_t>(n));
        if (EnqueueToVm(*c2, nqe, true)) {
          c2->rx_outstanding += n;
        } else {
          // Receive ring full at the final hop. The bytes already left the
          // stack and cannot be re-queued, so the stream is broken: free the
          // chunk (no leak, no phantom rx_outstanding) and error the
          // connection instead of silently losing payload.
          pool->Free(off);
          if (!c2->fin_sent_to_vm) {
            c2->fin_sent_to_vm = true;
            DeliverErrorFin(sid);
          }
          return;
        }
      }
      ShipRecv(sid);
    });
    return;
  }

  // All buffered data shipped: propagate EOF once.
  if (stack_->FinReceived(sid) && !c->fin_sent_to_vm) {
    c->fin_sent_to_vm = true;
    Nqe fin = MakeNqe(NqeOp::kFinReceived, c->vm_id, c->vm_qset, c->vm_sock, 0, 0, 0);
    EnqueueToVm(*c, fin, true);
  }
}

// Delivers the stream-broken error FIN for a connection whose kRecvData was
// lost to a full ring, retrying until the ring drains enough to carry it.
void ServiceLib::DeliverErrorFin(tcp::SocketId sid) {
  Conn* c = FindBySid(sid);
  if (c == nullptr) return;
  Nqe fin = MakeNqe(NqeOp::kFinReceived, 0, 0, 0, 0, 0,
                    static_cast<uint32_t>(tcp::kConnReset));
  if (!EnqueueToVm(*c, fin, true)) {
    loop_->ScheduleAfter(50 * kMicrosecond, [this, sid] { DeliverErrorFin(sid); });
  }
}

void ServiceLib::OnRecvCredit(uint8_t vm_id, uint32_t vm_sock, uint32_t bytes) {
  Conn* c = FindByVm(vm_id, vm_sock);
  if (c == nullptr) return;
  c->rx_outstanding = c->rx_outstanding > bytes ? c->rx_outstanding - bytes : 0;
  ShipRecv(c->sid);
}

// ---------------------------------------------------------------------------
// Close
// ---------------------------------------------------------------------------

// close() must flush: queued kSend payloads (and in-flight hugepage copies)
// are handed to the stack before the FIN, exactly like a kernel close() after
// buffered writes.
void ServiceLib::DoClose(Conn& c) {
  c.close_pending = true;
  MaybeFinishClose(c.sid);
}

void ServiceLib::MaybeFinishClose(tcp::SocketId sid) {
  Conn* c = FindBySid(sid);
  if (c == nullptr || !c->close_pending) return;
  if (c->sends_in_flight > 0 || !c->pending_tx.empty()) return;
  by_vm_.erase(VmKey(c->vm_id, c->vm_sock));
  stack_->SetCallbacks(sid, {});
  stack_->Close(sid);
  by_sid_.erase(sid);
}

// ---------------------------------------------------------------------------
// Datagram (SOCK_DGRAM) path
// ---------------------------------------------------------------------------

void ServiceLib::DoSocketUdp(const Nqe& nqe) {
  auto vit = vms_.find(nqe.vm_id);
  if (vit == vms_.end()) return;
  Conn tmp;
  tmp.vm_id = nqe.vm_id;
  tmp.vm_qset = nqe.queue_set;
  tmp.vm_sock = nqe.vm_sock;
  tmp.nsm_qset = nqe.reserved[2];
  if (udp_stack_ == nullptr) {
    Respond(tmp, NqeOp::kOpResult, NqeOp::kSocketUdp, udp::kBadSocket);
    return;
  }
  udp::SocketId usid = udp_stack_->CreateSocket();
  // Datagrams of this VM use the VM's address; bind an ephemeral port now so
  // an unbound sendto already carries a routable source.
  udp_stack_->Bind(usid, vit->second.ip, 0);

  Conn& c = NewConn(nqe.vm_id, nqe.queue_set, nqe.vm_sock);
  c.dgram = true;
  c.usid = usid;
  c.linked = true;
  c.nsm_qset = nqe.reserved[2];
  by_usid_[usid] = std::move(pending_owner_);
  by_vm_[VmKey(c.vm_id, c.vm_sock)] = by_usid_[usid].get();
  udp::UdpSocketCallbacks cbs;
  cbs.on_readable = [this, usid] { ShipDgrams(usid); };
  udp_stack_->SetCallbacks(usid, std::move(cbs));
  // RX zero-copy: inbound datagrams land directly in the VM's pool.
  if (config_.rx_zerocopy) {
    udp_stack_->SetRxChunkAllocator(usid, vit->second.rx_allocator);
  }
  Respond(c, NqeOp::kOpResult, NqeOp::kSocketUdp, 0, usid);
}

void ServiceLib::DoBindUdp(const Nqe& nqe, Conn& c) {
  auto vit = vms_.find(c.vm_id);
  if (vit == vms_.end() || udp_stack_ == nullptr) return;
  int r = udp_stack_->Bind(c.usid, vit->second.ip, shm::AddrPort(nqe.op_data));
  Respond(c, NqeOp::kOpResult, NqeOp::kBindUdp, r);
}

void ServiceLib::DoSendTo(const Nqe& nqe, Conn& c) {
  auto vit = vms_.find(c.vm_id);
  if (vit == vms_.end() || udp_stack_ == nullptr) return;
  shm::HugepagePool* pool = vit->second.pool;
  udp::SocketId usid = c.usid;
  uint64_t ptr = nqe.data_ptr;
  uint32_t size = nqe.size;
  uint64_t dst = nqe.op_data;

  // Copy from hugepages into the stack on the socket's core (Table 6's
  // overhead), then transmit. UDP never parks data: the credit returns as
  // soon as the datagram is handed to the stack.
  Cycles copy = static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * size);
  ++c.sends_in_flight;
  udp_stack_->ChargeOnSocketCore(usid, copy, [this, usid, ptr, size, dst, pool] {
    Conn* c2 = FindByUsid(usid);
    if (c2 == nullptr) {
      pool->Free(ptr);
      return;
    }
    --c2->sends_in_flight;
    if (udp_stack_->Exists(usid)) {
      udp_stack_->SendTo(usid, shm::AddrIp(dst), shm::AddrPort(dst), pool->Data(ptr), size);
    }
    pool->Free(ptr);
    Respond(*c2, NqeOp::kSendToResult, NqeOp::kSendTo, 0, size);
    MaybeFinishCloseDgram(usid);
  });
}

std::function<void()> ServiceLib::MakeDgramZcFreeCallback(const Conn& c, uint64_t ptr,
                                                          uint32_t size) {
  // Fires when the UDP stack commits the wire datagram (skb owns the bytes).
  // Same teardown hazards as the stream variant: liveness token + pool
  // re-resolution through vms_.
  const uint8_t vm_id = c.vm_id;
  const uint8_t vm_qset = c.vm_qset;
  const uint8_t nsm_qset = c.nsm_qset;
  const uint32_t vm_sock = c.vm_sock;
  return [this, alive = alive_, vm_id, vm_qset, nsm_qset, vm_sock, ptr, size] {
    if (!*alive) return;
    auto vit = vms_.find(vm_id);
    if (vit == vms_.end()) return;
    vit->second.pool->Free(ptr);
    recorder_.Record(obs::FlightEventType::kZcChunkFree, vm_id, vm_qset,
                     static_cast<uint8_t>(NqeOp::kSendToZc), vm_sock, size);
    Conn tmp;
    tmp.vm_id = vm_id;
    tmp.vm_qset = vm_qset;
    tmp.nsm_qset = nsm_qset;
    tmp.vm_sock = vm_sock;
    Nqe nqe = MakeNqe(NqeOp::kSendToResult, vm_id, vm_qset, vm_sock, size);
    nqe.reserved[0] = static_cast<uint8_t>(NqeOp::kSendToZc);
    EnqueueToVm(tmp, nqe, false);
  };
}

void ServiceLib::DoSendToZc(const Nqe& nqe, Conn& c) {
  auto vit = vms_.find(c.vm_id);
  if (vit == vms_.end() || udp_stack_ == nullptr) return;
  shm::HugepagePool* pool = vit->second.pool;
  udp::SocketId usid = c.usid;
  uint64_t ptr = nqe.data_ptr;
  uint32_t size = nqe.size;
  uint64_t dst = nqe.op_data;

  // No hugepage->stack copy (the Table 6 overhead DoSendTo pays): the UDP
  // stack builds the wire datagram straight from the chunk. The zero-cycle
  // trip through the socket's core preserves FIFO order with copy sends.
  ++c.sends_in_flight;
  udp_stack_->ChargeOnSocketCore(usid, 0, [this, usid, ptr, size, dst, pool] {
    Conn* c2 = FindByUsid(usid);
    if (c2 == nullptr) {
      pool->Free(ptr);
      return;
    }
    --c2->sends_in_flight;
    bool handed = false;
    if (udp_stack_->Exists(usid)) {
      handed = udp_stack_->SendToZc(usid, shm::AddrIp(dst), shm::AddrPort(dst),
                                    pool->Data(ptr), size,
                                    MakeDgramZcFreeCallback(*c2, ptr, size)) >= 0;
    }
    if (!handed) {
      // Datagram lost locally (socket closed / bad destination): ordinary
      // UDP loss, but the chunk and the send credit must unwind.
      pool->Free(ptr);
      Respond(*c2, NqeOp::kSendToResult, NqeOp::kSendToZc, 0, size);
    }
    MaybeFinishCloseDgram(usid);
  });
}

void ServiceLib::FreeNqeChunk(const Nqe& nqe) {
  if (!guard::CarriesGuestChunk(nqe.Op())) return;
  auto vit = vms_.find(nqe.vm_id);
  if (vit != vms_.end() && vit->second.pool->IsAllocated(nqe.data_ptr)) {
    vit->second.pool->Free(nqe.data_ptr);
    recorder_.Record(obs::FlightEventType::kShutdownDrain, nqe.vm_id, nqe.queue_set,
                     nqe.op, nqe.vm_sock, nqe.size);
  }
}

void ServiceLib::ShipDgrams(udp::SocketId usid) {
  Conn* c = FindByUsid(usid);
  if (c == nullptr || c->ship_pending || udp_stack_ == nullptr) return;
  if (c->close_pending) {
    // Stop delivering to a closing guest socket; let the close complete.
    MaybeFinishCloseDgram(usid);
    return;
  }
  auto vit = vms_.find(c->vm_id);
  if (vit == vms_.end()) return;
  shm::HugepagePool* pool = vit->second.pool;

  uint32_t next = udp_stack_->NextDatagramSize(usid);
  if (udp_stack_->RxQueuedDatagrams(usid) == 0 || c->rx_outstanding >= config_.rx_outstanding_cap) {
    return;
  }
  // Zero-copy ship: the front datagram already sits in a chunk of this VM's
  // pool — detach it and forward the handle as kDgramRecvZc.
  if (udp_stack_->FrontDgramPooled(usid)) {
    c->ship_pending = true;
    udp_stack_->ChargeOnSocketCore(usid, 0, [this, usid, pool] {
      Conn* c2 = FindByUsid(usid);
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
      ++dgram_zc_ships_;
      Nqe nqe = MakeNqe(NqeOp::kDgramRecvZc, c2->vm_id, c2->vm_qset, c2->vm_sock,
                        shm::PackAddr(src_ip, src_port), handle, len);
      if (EnqueueToVm(*c2, nqe, true)) {
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
      loop_->ScheduleAfter(50 * kMicrosecond, [this, usid] { ShipDgrams(usid); });
    }
    return;
  }
  c->ship_pending = true;
  Cycles copy = static_cast<Cycles>(config_.costs.hugepage_copy_per_byte * next);
  udp_stack_->ChargeOnSocketCore(usid, copy, [this, usid, off, next, pool] {
    Conn* c2 = FindByUsid(usid);
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
      ++dgram_copy_ships_;
      Nqe nqe = MakeNqe(NqeOp::kDgramRecv, c2->vm_id, c2->vm_qset, c2->vm_sock,
                        shm::PackAddr(src_ip, src_port), off, static_cast<uint32_t>(n));
      shipped = EnqueueToVm(*c2, nqe, true);
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

void ServiceLib::DoCloseDgram(Conn& c) {
  c.close_pending = true;
  MaybeFinishCloseDgram(c.usid);
}

void ServiceLib::MaybeFinishCloseDgram(udp::SocketId usid) {
  Conn* c = FindByUsid(usid);
  if (c == nullptr || !c->close_pending) return;
  if (c->sends_in_flight > 0 || c->ship_pending) return;
  by_vm_.erase(VmKey(c->vm_id, c->vm_sock));
  if (udp_stack_ != nullptr) udp_stack_->Close(usid);
  by_usid_.erase(usid);
}

// ---------------------------------------------------------------------------
// NSM death with recoverable accounting
// ---------------------------------------------------------------------------

void ServiceLib::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  StopHeartbeat();

  // 1. Abort every connection. Abort tears the socket down synchronously:
  //    zc chunks still queued in the send buffer fire their exactly-once free
  //    callbacks (pool free + kSendZcComplete into the dead rings, harmless),
  //    and pool-backed receive chunks free on rcvbuf destruction.
  std::vector<tcp::SocketId> sids;
  sids.reserve(by_sid_.size());
  for (auto& [sid, conn] : by_sid_) sids.push_back(sid);
  for (tcp::SocketId sid : sids) {
    Conn* c = FindBySid(sid);
    if (c == nullptr) continue;
    // Queued-but-not-yet-admitted TX chunks never reached the stack.
    auto vit = vms_.find(c->vm_id);
    for (const PendingTx& tx : c->pending_tx) {
      if (vit != vms_.end()) vit->second.pool->Free(tx.ptr);
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
  }

  // 2. Close every datagram socket: UdpStack frees pool-landed datagrams
  //    still queued through the allocator.
  std::vector<udp::SocketId> usids;
  usids.reserve(by_usid_.size());
  for (auto& [usid, conn] : by_usid_) usids.push_back(usid);
  if (udp_stack_ != nullptr) {
    for (udp::SocketId usid : usids) udp_stack_->Close(usid);
  }

  // 3. Drain the now-unreachable device rings. VM->NSM rings may hold sends
  //    whose chunks the guest already handed over; NSM->VM rings may hold
  //    receive data we shipped that the guest will never see. Either way the
  //    chunk's owner of record is this NSM — return them to the pools.
  Nqe nqe;
  for (int qs = 0; qs < dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev_->queue_set(qs);
    while (q.send.TryDequeue(&nqe)) FreeNqeChunk(nqe);
    while (q.job.TryDequeue(&nqe)) FreeNqeChunk(nqe);
    while (q.receive.TryDequeue(&nqe)) {
      if (shm::CarriesRxChunk(nqe.Op())) {
        auto vit = vms_.find(nqe.vm_id);
        if (vit != vms_.end() && vit->second.pool->IsAllocated(nqe.data_ptr)) {
          vit->second.pool->Free(nqe.data_ptr);
        }
      }
    }
    while (q.completion.TryDequeue(&nqe)) {
    }
  }

  // 4. Orphan sends parked for an accept-link that will never arrive.
  for (auto& [key, orphans] : orphan_sends_) {
    for (const Nqe& orphan : orphans) FreeNqeChunk(orphan);
  }
  orphan_sends_.clear();

  by_vm_.clear();
  by_sid_.clear();
  by_usid_.clear();
}

// ---------------------------------------------------------------------------
// nkguard quarantine: per-VM eviction
// ---------------------------------------------------------------------------

void ServiceLib::EvictVm(uint8_t vm_id) {
  auto vmit = vms_.find(vm_id);
  if (vmit == vms_.end() || vmit->second.evicted) return;
  // Mark first: any callback fired by the teardown below (rx allocator
  // alloc, zc frees) sees the eviction and refuses to grow new state.
  vmit->second.evicted = true;
  shm::HugepagePool* pool = vmit->second.pool;

  // 1. Abort the VM's stream connections (Shutdown step 1, scoped to one
  //    VM): queued-but-unadmitted TX chunks free here; zc chunks still in
  //    the stack's send buffer fire their exactly-once free callbacks.
  std::vector<tcp::SocketId> sids;
  for (auto& [sid, conn] : by_sid_) {
    if (conn->vm_id == vm_id) sids.push_back(sid);
  }
  for (tcp::SocketId sid : sids) {
    Conn* c = FindBySid(sid);
    if (c == nullptr) continue;
    for (const PendingTx& tx : c->pending_tx) pool->Free(tx.ptr);
    c->pending_tx.clear();
    stack_->SetCallbacks(sid, {});
    if (stack_->Exists(sid)) {
      if (c->listener) {
        stack_->Close(sid);
      } else {
        stack_->Abort(sid);
      }
    }
    by_vm_.erase(VmKey(vm_id, c->vm_sock));
    by_sid_.erase(sid);
  }

  // 2. Close the VM's datagram sockets: UdpStack frees pool-landed queued
  //    datagrams through the rx allocator's free hook.
  std::vector<udp::SocketId> usids;
  for (auto& [usid, conn] : by_usid_) {
    if (conn->vm_id == vm_id) usids.push_back(usid);
  }
  for (udp::SocketId usid : usids) {
    Conn* c = FindByUsid(usid);
    if (c == nullptr) continue;
    if (udp_stack_ != nullptr) udp_stack_->Close(usid);
    by_vm_.erase(VmKey(vm_id, c->vm_sock));
    by_usid_.erase(usid);
  }

  // 3. Sweep the VM's NQEs out of the (shared) device rings, returning
  //    payload chunks to its pool; co-tenant NQEs are re-enqueued in order.
  //    The single-threaded DES makes the consumer-side drain-and-refill
  //    safe, and a full drain guarantees the re-enqueues fit.
  Nqe nqe;
  for (int qs = 0; qs < dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev_->queue_set(qs);
    const auto sweep = [&](shm::SpscRing<Nqe>& ring, auto reclaim) {
      std::vector<Nqe> keep;
      while (ring.TryDequeue(&nqe)) {
        if (nqe.vm_id == vm_id) {
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
    sweep(q.completion, [&](const Nqe& n) {
      // A completion still carrying its (unconsumed) chunk owns it.
      if (n.reserved[1] == shm::kNqeFlagChunkUnconsumed && pool->IsAllocated(n.data_ptr)) {
        pool->Free(n.data_ptr);
      }
    });
  }

  // 4. Orphan sends parked for an accept-link that will never arrive.
  for (auto it = orphan_sends_.begin(); it != orphan_sends_.end();) {
    if (static_cast<uint8_t>(it->first >> 32) == vm_id) {
      for (const Nqe& orphan : it->second) FreeNqeChunk(orphan);
      it = orphan_sends_.erase(it);
    } else {
      ++it;
    }
  }

  recorder_.Record(obs::FlightEventType::kShutdownDrain, vm_id, 0, 0, 0,
                   sids.size() + usids.size());
}

}  // namespace netkernel::core
