// Copyright (c) NetKernel reproduction authors.
// The NSM-side NQE driver. The transports live in stack_transport.cc
// (TcpStack/UdpStack NSMs) and shm_nsm.cc (the shared-memory NSM).

#include "src/core/servicelib.h"

#include <string>

#include "src/common/check.h"
#include "src/guard/nqe_validator.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

ServiceLib::ServiceLib(sim::EventLoop* loop, uint8_t nsm_id, CoreEngine* ce, shm::NkDevice* dev,
                       std::vector<sim::CpuCore*> cores, std::unique_ptr<Transport> transport,
                       Config config)
    : loop_(loop),
      nsm_id_(nsm_id),
      ce_(ce),
      dev_(dev),
      cores_(std::move(cores)),
      config_(config),
      drain_scheduled_(static_cast<size_t>(dev->num_queue_sets()), false),
      batches_(static_cast<size_t>(dev->num_queue_sets())),
      doorbell_(loop, ce, nsm_id),
      recorder_(loop, "nsm" + std::to_string(nsm_id) + ".svc"),
      transport_(std::move(transport)) {
  NK_CHECK(!cores_.empty() && transport_ != nullptr);
  transport_->slib_ = this;
  dev_->SetWakeCallback([this] { OnDeviceWake(); });
}

ServiceLib::~ServiceLib() = default;

void ServiceLib::AttachVm(uint8_t vm_id, shm::HugepagePool* pool, netsim::IpAddr vm_ip) {
  VmInfo info;
  info.pool = pool;
  info.ip = vm_ip;
  vms_[vm_id] = std::move(info);
}

void ServiceLib::SetVmCcFactory(uint8_t vm_id, tcp::CcFactory factory) {
  VmInfo* vm = FindVm(vm_id);
  NK_CHECK(vm != nullptr);
  vm->cc_factory = std::move(factory);
}

ServiceLib::VmInfo* ServiceLib::FindVm(uint8_t vm_id) {
  auto it = vms_.find(vm_id);
  return it == vms_.end() ? nullptr : &it->second;
}

ServiceLib::Conn* ServiceLib::FindByVm(uint8_t vm_id, uint32_t vm_sock) {
  auto it = by_vm_.find(VmKey(vm_id, vm_sock));
  return it == by_vm_.end() ? nullptr : it->second;
}

void ServiceLib::Link(Conn& c) {
  c.linked = true;
  by_vm_[VmKey(c.vm_id, c.vm_sock)] = &c;
}

void ServiceLib::Unlink(const Conn& c) {
  auto it = by_vm_.find(VmKey(c.vm_id, c.vm_sock));
  if (it != by_vm_.end() && it->second == &c) by_vm_.erase(it);
}

ServiceLib::Conn ServiceLib::Requester(const Nqe& nqe) {
  Conn c;
  c.vm_id = nqe.vm_id;
  c.vm_qset = nqe.queue_set;
  c.vm_sock = nqe.vm_sock;
  c.nsm_qset = nqe.reserved[2];
  return c;
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
    if (tc != 0) cores_[static_cast<size_t>(qs) % cores_.size()]->AccountOnly(tc);
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

void ServiceLib::DeliverFin(Conn& c, int32_t err) {
  if (c.fin_sent_to_vm) return;
  c.fin_sent_to_vm = true;
  Nqe fin = MakeNqe(NqeOp::kFinReceived, 0, 0, 0, 0, 0, static_cast<uint32_t>(err));
  if (EnqueueToVm(c, fin, true)) return;
  // A lost FIN would leave the guest's socket waiting forever: retry on the
  // routing identity alone (the connection itself may close meanwhile) until
  // the ring drains, the VM is evicted or the NSM shuts down.
  Conn to = c;
  to.fin_sent_to_vm = false;
  loop_->ScheduleAfter(50 * kMicrosecond, [this, to, err]() mutable {
    const VmInfo* vm = FindVm(to.vm_id);
    if (!shutdown_ && vm != nullptr && !vm->evicted) DeliverFin(to, err);
  });
}

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

// ---------------------------------------------------------------------------
// Inbound dispatch
// ---------------------------------------------------------------------------

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
  // A batch takes at most 64 sends, though: while more remain queued, a
  // kClose whose socket still has one waits for a later batch. Taken now, it
  // would unlink the socket ahead of its last sends, which would then park
  // as orphans forever.
  Nqe buf[128];
  size_t n = q.send.DequeueBatch(buf, 64);
  if (q.send.Empty()) {
    n += q.job.DequeueBatch(buf + n, 64);
  } else {
    for (size_t taken = 0; taken < 64 && q.job.Peek(&buf[n]); ++taken, ++n) {
      const Nqe& job = buf[n];
      const auto same_socket = [&job](const Nqe& s) {
        return s.vm_id == job.vm_id && s.vm_sock == job.vm_sock;
      };
      if (job.Op() == NqeOp::kClose && q.send.AnyQueued(same_socket)) break;
      q.job.TryDequeue(&buf[n]);
    }
  }
  if (n == 0) {
    drain_scheduled_[qs] = false;
    return;
  }
  nqes_processed_ += n;

  // drain_scheduled_ keeps this queue set to one batch in flight, so its
  // buffer is free again by the time the next batch is taken.
  batches_[qs].assign(buf, buf + n);
  sim::CpuCore* core = cores_[static_cast<size_t>(qs) % cores_.size()];
  Cycles cost = ce_->costs().servicelib_translate * static_cast<Cycles>(n);
  core->Charge(cost, [this, qs, core] {
    for (Nqe& nqe : batches_[qs]) {
      if (shutdown_) {
        // Shutdown raced this in-flight batch (or a dispatched NQE triggered
        // it mid-batch): the NQEs were already pulled off the rings, so the
        // ring drain missed them — unwind their chunks instead of
        // dispatching against cleared connection state.
        DrainNqeChunk(nqe);
        continue;
      }
      nqe.reserved[2] = static_cast<uint8_t>(qs);  // processing queue set
      if (tracer_ != nullptr) {
        // T2 lifecycle stamp; the dispatch scope lets a synchronous
        // completion inherit the trace id in EnqueueToVm (T3).
        Cycles tc = tracer_->BeginDispatch(nqe);
        if (tc != 0) core->AccountOnly(tc);
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
  // a rehome race) is dropped and counted rather than poking transport state.
  if (!guard::IsGuestToNsmOp(nqe.Op())) {
    ++guard_drops_;
    return;
  }
  // A quarantined VM's in-flight stragglers unwind their payload chunks into
  // its still-reachable pool instead of building state for a torn-down VM.
  const VmInfo* vm = FindVm(nqe.vm_id);
  if (vm != nullptr && vm->evicted) {
    ++guard_drops_;
    DrainNqeChunk(nqe);
    return;
  }
  // Per-socket verbs act on the connection linked under the guest handle. A
  // verb of one socket kind aimed at a socket of the other (a datagram send
  // naming a stream handle, a connect on a datagram socket) would act on
  // transport state that is not there, so it is refused the way CoreEngine
  // answers a verb it cannot route.
  Conn* c = FindByVm(nqe.vm_id, nqe.vm_sock);
  const shm::SockKind kind = shm::FindOpTraits(nqe.op)->kind;
  if (c != nullptr && kind != shm::SockKind::kAny &&
      c->dgram != (kind == shm::SockKind::kDgram)) {
    ++guard_drops_;
    Nqe err;
    if (shm::BuildErrorCompletion(nqe, nqe.vm_id, tcp::kNotConnected, &err) &&
        !EnqueueToVm(Requester(nqe), err, false)) {
      FreeNqeChunk(nqe);  // the guest will never see the chunk come back
    }
    return;
  }
  switch (nqe.Op()) {
    case NqeOp::kSocket:
      transport_->Socket(nqe);
      return;
    case NqeOp::kSocketUdp:
      transport_->SocketUdp(nqe);
      return;
    case NqeOp::kAccept:
      transport_->AcceptLink(nqe);
      return;
    case NqeOp::kBind:
      if (c != nullptr) transport_->Bind(nqe, *c);
      return;
    case NqeOp::kBindUdp:
      if (c != nullptr) transport_->BindUdp(nqe, *c);
      return;
    case NqeOp::kListen:
      if (c != nullptr) transport_->Listen(nqe, *c);
      return;
    case NqeOp::kConnect:
      if (c != nullptr) transport_->Connect(nqe, *c);
      return;
    case NqeOp::kSend:
    case NqeOp::kSendZc:
      if (c != nullptr) {
        transport_->Send(nqe, *c);
      } else {
        // A send can overtake its socket's accept-link NQE (they travel on
        // different rings); park it until the link arrives.
        orphan_sends_[VmKey(nqe.vm_id, nqe.vm_sock)].push_back(nqe);
      }
      return;
    case NqeOp::kSendTo:
    case NqeOp::kSendToZc:
      if (c != nullptr) {
        transport_->SendTo(nqe, *c);
      } else {
        // A datagram send whose socket already closed (a kClose overtook it
        // through the job ring) or never existed (CoreEngine forwards those
        // statelessly): the datagram is lost, as UDP loses datagrams, but its
        // payload chunk goes back to the pool.
        FreeNqeChunk(nqe);
      }
      return;
    case NqeOp::kRecvFrom:
      // Datagram receive credit: the guest consumed op_data bytes.
      if (c != nullptr) Credit(*c, nqe.op_data);
      return;
    case NqeOp::kClose:
      if (c != nullptr) {
        transport_->Close(*c);
      } else {
        // The guest closed a handle this NSM never linked (say, its
        // connection died with a failed-over NSM and a send raced the error
        // FIN here): whatever was parked for it can never be linked now.
        auto it = orphan_sends_.find(VmKey(nqe.vm_id, nqe.vm_sock));
        if (it == orphan_sends_.end()) return;
        for (const Nqe& orphan : it->second) FreeNqeChunk(orphan);
        orphan_sends_.erase(it);
      }
      return;
    case NqeOp::kInvalid:
    case NqeOp::kOpResult:
    case NqeOp::kConnectResult:
    case NqeOp::kAcceptedConn:
    case NqeOp::kSendResult:
    case NqeOp::kRecvData:
    case NqeOp::kFinReceived:
    case NqeOp::kSendToResult:
    case NqeOp::kDgramRecv:
    case NqeOp::kSendZcComplete:
    case NqeOp::kDgramRecvZc:
    case NqeOp::kNsmRehomed:
      return;  // not guest->NSM ops: the prefilter above dropped them
  }
}

void ServiceLib::Transport::BindUdp(const Nqe&, Conn&) {
  NK_CHECK_MSG(false, "datagram verb on a transport that links no datagram socket");
}

void ServiceLib::Transport::SendTo(const Nqe&, Conn&) {
  NK_CHECK_MSG(false, "datagram verb on a transport that links no datagram socket");
}

void ServiceLib::ReplayOrphanSends(Conn& c) {
  auto it = orphan_sends_.find(VmKey(c.vm_id, c.vm_sock));
  if (it == orphan_sends_.end()) return;
  std::vector<Nqe> orphans = std::move(it->second);
  orphan_sends_.erase(it);
  for (const Nqe& nqe : orphans) transport_->Send(nqe, c);
}

void ServiceLib::Credit(Conn& c, uint64_t bytes) {
  c.rx_outstanding = c.rx_outstanding > bytes ? c.rx_outstanding - bytes : 0;
  transport_->ResumeRecv(c);
}

void ServiceLib::OnRecvCredit(uint8_t vm_id, uint32_t vm_sock, uint32_t bytes) {
  if (Conn* c = FindByVm(vm_id, vm_sock)) Credit(*c, bytes);
}

bool ServiceLib::FreeNqeChunk(const Nqe& nqe) {
  if (!guard::CarriesGuestChunk(nqe.Op())) return false;
  const VmInfo* vm = FindVm(nqe.vm_id);
  if (vm == nullptr || !vm->pool->IsAllocated(nqe.data_ptr)) return false;
  vm->pool->Free(nqe.data_ptr);
  return true;
}

void ServiceLib::DrainNqeChunk(const Nqe& nqe) {
  if (!FreeNqeChunk(nqe)) return;
  recorder_.Record(obs::FlightEventType::kShutdownDrain, nqe.vm_id, nqe.queue_set, nqe.op,
                   nqe.vm_sock, nqe.size);
}

// ---------------------------------------------------------------------------
// Teardown: NSM death (Shutdown) and nkguard quarantine (EvictVm)
// ---------------------------------------------------------------------------

void ServiceLib::Teardown(int vm) {
  const auto mine = [vm](const Nqe& n) { return vm == kAllVms || n.vm_id == vm; };

  // 1. The transport drops the connections (aborts, closes, peer resets);
  //    chunks they held return to their pools.
  const size_t conns = transport_->DropConns(vm);

  // 2. Sweep the NQEs out of the device rings. Guest->NSM rings may hold
  //    sends whose chunks the guest already handed over; NSM->VM rings may
  //    hold receive data (or an unconsumed completion chunk) the guest will
  //    never see. Either way this NSM is the chunk's owner of record, so it
  //    returns them to the pools. Co-tenant NQEs are re-enqueued in order:
  //    the single-threaded DES makes the consumer-side drain-and-refill safe,
  //    and a full drain guarantees the re-enqueues fit.
  const auto free_shipped = [this](const Nqe& n) {
    if (!shm::CarriesRxChunk(n.Op()) && n.reserved[1] != shm::kNqeFlagChunkUnconsumed) return;
    const VmInfo* owner = FindVm(n.vm_id);
    if (owner != nullptr && owner->pool->IsAllocated(n.data_ptr)) owner->pool->Free(n.data_ptr);
  };
  const auto free_request = [this](const Nqe& n) { DrainNqeChunk(n); };
  Nqe nqe;
  for (int qs = 0; qs < dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev_->queue_set(qs);
    const auto sweep = [&](shm::SpscRing<Nqe>& ring, const auto& reclaim) {
      std::vector<Nqe> keep;
      while (ring.TryDequeue(&nqe)) {
        if (mine(nqe)) {
          reclaim(nqe);
        } else {
          keep.push_back(nqe);
        }
      }
      for (const Nqe& k : keep) NK_CHECK(ring.TryEnqueue(k));
    };
    sweep(q.send, free_request);
    sweep(q.job, free_request);
    sweep(q.receive, free_shipped);
    sweep(q.completion, free_shipped);
  }

  // 3. Orphan sends parked for an accept-link that will never arrive.
  for (auto it = orphan_sends_.begin(); it != orphan_sends_.end();) {
    if (vm == kAllVms || static_cast<uint8_t>(it->first >> 32) == vm) {
      for (const Nqe& orphan : it->second) DrainNqeChunk(orphan);
      it = orphan_sends_.erase(it);
    } else {
      ++it;
    }
  }

  recorder_.Record(obs::FlightEventType::kShutdownDrain, vm == kAllVms ? 0 : vm, 0, 0, 0,
                   conns);
}

void ServiceLib::EvictVm(uint8_t vm_id) {
  VmInfo* vm = FindVm(vm_id);
  if (vm == nullptr || vm->evicted) return;
  // Mark first: any callback fired by the teardown (rx allocator alloc, zc
  // frees) sees the eviction and refuses to grow new state.
  vm->evicted = true;
  Teardown(vm_id);
}

void ServiceLib::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  StopHeartbeat();
  Teardown(kAllVms);
}

}  // namespace netkernel::core
