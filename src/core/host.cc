// Copyright (c) NetKernel reproduction authors.

#include "src/core/host.h"

#include <algorithm>

#include "src/common/check.h"

namespace netkernel::core {

Host::Host(sim::EventLoop* loop, netsim::Fabric* fabric, std::string name, Options options)
    : loop_(loop), fabric_(fabric), name_(std::move(name)), options_(options) {
  const int shards = options_.ce.shards > 1 ? options_.ce.shards : 1;
  for (int i = 0; i < shards; ++i) {
    ce_cores_.push_back(
        std::make_unique<sim::CpuCore>(loop_, name_ + ".ce" + std::to_string(i)));
  }
  std::vector<sim::CpuCore*> core_ptrs;
  core_ptrs.reserve(ce_cores_.size());
  for (auto& c : ce_cores_) core_ptrs.push_back(c.get());
  tracer_ = std::make_unique<obs::Tracer>(loop_);
  ce_ = std::make_unique<CoreEngine>(loop_, std::move(core_ptrs), options_.ce);
  ce_->SetTracer(tracer_.get());
  failover_recorder_ = std::make_unique<obs::FlightRecorder>(loop_, name_ + ".failover");
  // nkguard: when GuardPolicy::kQuarantine trips inside a shard, finish the
  // job host-side — deregister the offender and evict its NSM state. The
  // callback fires from a deferred event, never mid-poll.
  ce_->SetQuarantineCallback([this](uint8_t vm_id) {
    for (auto& vm : vms_) {
      if (vm->id() == vm_id) {
        QuarantineVm(vm.get());
        return;
      }
    }
  });
}

Nsm* Host::CreateNsm(const std::string& name, int vcpus, NsmKind kind,
                     tcp::TcpStackConfig stack_config) {
  NK_CHECK(vcpus >= 1);
  auto nsm = std::make_unique<Nsm>();
  nsm->name_ = name;
  nsm->id_ = next_nsm_id_++;
  nsm->kind_ = kind;
  for (int i = 0; i < vcpus; ++i) {
    nsm->cores_.push_back(
        std::make_unique<sim::CpuCore>(loop_, name + ".vcpu" + std::to_string(i)));
  }
  nsm->dev_ = std::make_unique<shm::NkDevice>(name + ".nkdev", vcpus);
  ce_->RegisterNsmDevice(nsm->id_, nsm->dev_.get());

  std::vector<sim::CpuCore*> core_ptrs;
  for (auto& c : nsm->cores_) core_ptrs.push_back(c.get());

  // The NSM kind picks the transport; everything else is the same driver.
  std::unique_ptr<ServiceLib::Transport> transport;
  if (kind == NsmKind::kShm) {
    // No network stack at all: pure hugepage-to-hugepage copying.
    transport = ServiceLib::PoolCopy();
  } else {
    stack_config.name = name + ".stack";
    if (kind == NsmKind::kFairShare) {
      stack_config.ecn = true;  // VM-level window uses DCTCP-style marking
    }
    if (kind == NsmKind::kMtcp) {
      stack_config.profile = tcp::MtcpProfile();
      stack_config.per_core_tables = true;
    }
    netsim::HostPort port = fabric_->AddHost(name + ".vnic", fabric_->AllocIp(), options_.port);
    nsm->vnic_ = port.nic;
    nsm->down_link_ = port.down;
    if (kind == NsmKind::kFairShare) {
      // The NSM schedules its VMs' aggregates onto the vNIC with per-VM DRR
      // (it owns the last hop, so VM-level fairness is directly enforceable).
      port.nic->EnableFairEgress(loop_, options_.port.bandwidth);
    }
    udp::UdpStackConfig udp_config;
    udp_config.name = name + ".udp";
    udp_config.profile = stack_config.profile;
    nsm->stack_ =
        std::make_unique<tcp::TcpStack>(loop_, port.nic, core_ptrs, std::move(stack_config));
    nsm->udp_stack_ =
        std::make_unique<udp::UdpStack>(loop_, port.nic, core_ptrs, std::move(udp_config));
    // The TCP stack owns the vNIC softirq; it demuxes UDP packets over.
    udp::UdpStack* udp_raw = nsm->udp_stack_.get();
    nsm->stack_->SetRawPacketHandler(
        [udp_raw](netsim::Packet pkt) { udp_raw->OnPacket(std::move(pkt)); });
    transport = ServiceLib::StackBacked(nsm->stack_.get(), nsm->udp_stack_.get());
  }
  nsm->slib_ = std::make_unique<ServiceLib>(loop_, nsm->id_, ce_.get(), nsm->dev_.get(),
                                            core_ptrs, std::move(transport), options_.servicelib);
  nsm->slib_->SetTracer(tracer_.get());
  nsms_.push_back(std::move(nsm));
  return nsms_.back().get();
}

Vm* Host::CreateNetkernelVm(const std::string& name, int vcpus, Nsm* nsm,
                            uint64_t hugepage_bytes) {
  NK_CHECK(vcpus >= 1 && nsm != nullptr);
  auto vm = std::make_unique<Vm>();
  vm->name_ = name;
  vm->id_ = next_vm_id_++;
  vm->ip_ = fabric_->AllocIp();
  vm->nsm_ = nsm;
  for (int i = 0; i < vcpus; ++i) {
    vm->cores_.push_back(
        std::make_unique<sim::CpuCore>(loop_, name + ".vcpu" + std::to_string(i)));
  }
  vm->dev_ = std::make_unique<shm::NkDevice>(name + ".nkdev", vcpus);
  vm->pool_ = std::make_unique<shm::HugepagePool>(hugepage_bytes);
  ce_->RegisterVmDevice(vm->id_, vm->dev_.get());
  ce_->AssignVmToNsm(vm->id_, nsm->id_);
  // nkguard: hand the validator this VM's pool so chunk ownership, replay
  // and datagram credit checks apply to everything it submits.
  ce_->validator().RegisterVmPool(vm->id_, vm->pool_.get());

  std::vector<sim::CpuCore*> core_ptrs;
  for (auto& c : vm->cores_) core_ptrs.push_back(c.get());
  vm->guestlib_ = std::make_unique<GuestLib>(loop_, vm->id_, ce_.get(), vm->dev_.get(),
                                             vm->pool_.get(), core_ptrs, options_.guestlib);
  vm->guestlib_->SetTracer(tracer_.get());

  AttachVm(vm.get(), nsm, vm->ip_);
  // Receive credits fan out to every NSM this VM has attached to (a credit
  // for an unknown connection is a no-op), so switching NSMs mid-flight
  // cannot strand in-flight receive windows.
  Vm* vm_ptr = vm.get();
  const uint8_t vm_id = vm->id_;
  vm->guestlib_->SetRecvCreditCallback([vm_ptr, vm_id](uint32_t sock, uint32_t bytes) {
    for (Nsm* n : vm_ptr->attached_nsms_) n->slib_->OnRecvCredit(vm_id, sock, bytes);
  });

  vms_.push_back(std::move(vm));
  return vms_.back().get();
}

Vm* Host::CreateBaselineVm(const std::string& name, int vcpus,
                           tcp::TcpStackConfig stack_config) {
  NK_CHECK(vcpus >= 1);
  auto vm = std::make_unique<Vm>();
  vm->name_ = name;
  vm->id_ = next_vm_id_++;
  vm->ip_ = fabric_->AllocIp();
  for (int i = 0; i < vcpus; ++i) {
    vm->cores_.push_back(
        std::make_unique<sim::CpuCore>(loop_, name + ".vcpu" + std::to_string(i)));
  }
  netsim::HostPort port = fabric_->AddHost(name + ".vnic", vm->ip_, options_.port);
  vm->vnic_ = port.nic;
  std::vector<sim::CpuCore*> core_ptrs;
  for (auto& c : vm->cores_) core_ptrs.push_back(c.get());
  stack_config.name = name + ".stack";
  udp::UdpStackConfig udp_config;
  udp_config.name = name + ".udp";
  udp_config.profile = stack_config.profile;
  vm->stack_ =
      std::make_unique<tcp::TcpStack>(loop_, port.nic, core_ptrs, std::move(stack_config));
  vm->udp_stack_ =
      std::make_unique<udp::UdpStack>(loop_, port.nic, core_ptrs, std::move(udp_config));
  udp::UdpStack* udp_raw = vm->udp_stack_.get();
  vm->stack_->SetRawPacketHandler(
      [udp_raw](netsim::Packet pkt) { udp_raw->OnPacket(std::move(pkt)); });
  vm->baseline_ =
      std::make_unique<BaselineSocketApi>(loop_, vm->stack_.get(), vm->udp_stack_.get());
  vms_.push_back(std::move(vm));
  return vms_.back().get();
}

void Host::BuildMetricsRegistry(obs::MetricsRegistry* registry) const {
  // Sources are lazy std::functions over live stats structs: registration is
  // cheap and export always reads current values. A fresh registry is built
  // per dump (see DumpMetrics) so VM/NSM churn can never leave stale or
  // duplicate names behind.
  for (int i = 0; i < ce_->num_shards(); ++i) {
    const CoreEngineShard* shard = &ce_->shard(i);
    const std::string p = "ce.shard" + std::to_string(i) + ".";
    registry->RegisterCounters(p, kCoreEngineCounters, [shard] { return shard->stats(); });
    const obs::FlightRecorder* rec = &shard->recorder();
    registry->RegisterCounter(p + "flight_events", [rec] { return double(rec->total_recorded()); },
                              "datapath events captured by the flight recorder");
  }
  const CoreEngine* ce = ce_.get();
  for (const auto& vm : vms_) {
    if (!vm->netkernel_mode()) continue;
    const uint8_t id = vm->id_;
    registry->RegisterCounters("ce.vm" + std::to_string(id) + ".", kPerVmCounters,
                               [ce, id] { return ce->VmStats(id); });

    const GuestLib* g = vm->guestlib_.get();
    const std::string gp = "vm" + std::to_string(id) + ".guest.";
    registry->RegisterCounter(gp + "nqes_sent", [g] { return double(g->nqes_sent()); });
    registry->RegisterCounter(gp + "nqes_received", [g] { return double(g->nqes_received()); });
    registry->RegisterCounter(gp + "send_credit_reclaims",
                              [g] { return double(g->send_credit_reclaims()); });
    registry->RegisterCounter(gp + "zc_sends", [g] { return double(g->zc_sends()); });
    registry->RegisterCounter(gp + "zc_completions", [g] { return double(g->zc_completions()); });
    registry->RegisterCounter(gp + "dgram_zc_sends", [g] { return double(g->dgram_zc_sends()); });
    registry->RegisterCounter(gp + "dgram_zc_completions",
                              [g] { return double(g->dgram_zc_completions()); });
    registry->RegisterCounter(gp + "dgram_zc_recvs", [g] { return double(g->dgram_zc_recvs()); });
    registry->RegisterCounter(gp + "nsm_rehomes", [g] { return double(g->nsm_rehomes()); },
                              "kNsmRehomed notifications applied by this guest");
    registry->RegisterCounter(gp + "reconnects_required",
                              [g] { return double(g->reconnects_required()); },
                              "stream sockets errored by NSM-teardown FINs");
    registry->RegisterCounter(gp + "guard_bad_frees",
                              [g] { return double(g->guard_bad_frees()); },
                              "inbound chunk frees refused (bad offset or double free)");

    // Per-VM validator verdicts (nkguard).
    registry->RegisterCounters("guard.vm" + std::to_string(id) + ".", guard::kGuardVmCounters,
                               [ce, id] { return ce->validator().VmStats(id); });
  }
  for (const auto& nsm : nsms_) {
    const std::string np = "nsm" + std::to_string(nsm->id_) + ".";
    if (nsm->stack_ != nullptr) {
      const tcp::TcpStack* t = nsm->stack_.get();
      registry->RegisterCounters(np + "tcp.", tcp::kTcpStackCounters, [t] { return t->stats(); });
    }
    if (nsm->udp_stack_ != nullptr) {
      const udp::UdpStack* u = nsm->udp_stack_.get();
      registry->RegisterCounters(np + "udp.", udp::kUdpStackCounters, [u] { return u->stats(); });
    }
    const ServiceLib* sl = nsm->slib_.get();
    const std::string sp = np + "svc.";
    registry->RegisterCounter(sp + "nqes_processed", [sl] { return double(sl->nqes_processed()); });
    registry->RegisterCounter(sp + "nqes_dropped", [sl] { return double(sl->nqes_dropped()); },
                              "NSM->VM NQEs lost to a full NSM-side ring");
    registry->RegisterCounter(sp + "rx_zc_ships", [sl] { return double(sl->rx_zc_ships()); });
    registry->RegisterCounter(sp + "rx_copy_ships", [sl] { return double(sl->rx_copy_ships()); });
    registry->RegisterCounter(sp + "dgram_zc_ships", [sl] { return double(sl->dgram_zc_ships()); });
    registry->RegisterCounter(sp + "dgram_copy_ships",
                              [sl] { return double(sl->dgram_copy_ships()); });
    registry->RegisterCounter(sp + "bytes_copied", [sl] { return double(sl->bytes_copied()); },
                              "hugepage-to-hugepage payload bytes copied");
    registry->RegisterCounter(sp + "doorbells", [sl] { return double(sl->doorbells()); });
    registry->RegisterCounter(sp + "doorbells_coalesced",
                              [sl] { return double(sl->doorbells_coalesced()); });
    registry->RegisterCounter(sp + "heartbeats_sent", [sl] { return double(sl->heartbeats_sent()); },
                              "liveness beacons this NSM sent to CoreEngine");
    registry->RegisterCounter(sp + "flight_events",
                              [sl] { return double(sl->recorder().total_recorded()); });
    registry->RegisterCounter(sp + "guard_drops", [sl] { return double(sl->guard_drops()); },
                              "NQEs refused by the NSM-side guard prefilter or evictions");
  }
  // nkguard validator surface (guard.* namespace, aggregate over all VMs).
  const guard::NqeValidator* validator = &ce_->validator();
  registry->RegisterCounters("guard.", guard::kGuardCounters,
                             [validator] { return validator->stats(); });
  // Failover controller surface (ce.* namespace: failover acts on the switch).
  const FailoverStats* fs = &failover_stats_;
  registry->RegisterCounters("ce.", kFailoverCounters, [fs] { return *fs; });
  registry->RegisterHistogram("ce.failover_blackout_us", &blackout_us_,
                              "per-failover blackout: silent time before replacement (us)");
  tracer_->RegisterInto(registry);
}

std::string Host::DumpMetrics() const {
  obs::MetricsRegistry registry;
  BuildMetricsRegistry(&registry);
  return registry.PrometheusText();
}

std::string Host::DumpMetricsJson() const {
  obs::MetricsRegistry registry;
  BuildMetricsRegistry(&registry);
  return registry.Json();
}

std::string Host::DumpFlightRecorder(size_t last_k) const {
  std::vector<const obs::FlightRecorder*> recorders = ce_->FlightRecorders();
  for (const auto& nsm : nsms_) recorders.push_back(&nsm->slib_->recorder());
  recorders.push_back(failover_recorder_.get());
  return obs::FlightRecorder::DumpMerged(recorders, last_k);
}

PerVmStats Host::VmNkStats(const Vm* vm) const { return ce_->VmStats(vm->id()); }

void Host::SwitchNsm(Vm* vm, Nsm* nsm) {
  NK_CHECK(vm->netkernel_mode());
  ce_->AssignVmToNsm(vm->id(), nsm->id());
  if (vm->ip_per_nsm_.count(nsm) == 0) {  // else attached: re-map new sockets only
    // An alias address per vNIC-backed NSM keeps return traffic routable:
    // connections created while assigned to this NSM bind the alias, and the
    // fabric steers the alias to this NSM's vNIC.
    AttachVm(vm, nsm, nsm->pool_copy() ? vm->ip_ : fabric_->AllocIp());
  }
  vm->nsm_ = nsm;
}

void Host::AttachVm(Vm* vm, Nsm* nsm, netsim::IpAddr ip) {
  const uint8_t vm_id = vm->id_;
  nsm->slib_->AttachVm(vm_id, vm->pool_.get(), ip);
  // Packets for this address terminate at the NSM's vNIC (AddRoute
  // overwrites a previous NSM's route).
  if (!nsm->pool_copy()) fabric_->AddRoute(ip, nsm->down_link_);
  if (nsm->kind_ == NsmKind::kFairShare) {
    std::shared_ptr<tcp::SharedWindowGroup>& group = nsm->groups_[vm_id];
    if (group == nullptr) group = std::make_shared<tcp::SharedWindowGroup>();
    nsm->slib_->SetVmCcFactory(
        vm_id, [group = group] { return std::make_unique<tcp::SharedWindowCc>(group); });
  }
  vm->ip_per_nsm_[nsm] = ip;
  if (std::find(vm->attached_nsms_.begin(), vm->attached_nsms_.end(), nsm) ==
      vm->attached_nsms_.end()) {
    vm->attached_nsms_.push_back(nsm);
  }
}

// ---------------------------------------------------------------------------
// NSM failover controller & rolling live upgrade
// ---------------------------------------------------------------------------

void Host::SetStandbyNsm(Nsm* nsm) { standby_ = nsm; }

void Host::StartFailoverController() {
  failover_running_ = true;
  for (auto& nsm : nsms_) nsm->slib_->StartHeartbeat(kHeartbeatPeriod);
  failover_timer_.Cancel();
  ScheduleFailoverCheck();
}

void Host::StopFailoverController() {
  failover_running_ = false;
  failover_timer_.Cancel();
  for (auto& nsm : nsms_) nsm->slib_->StopHeartbeat();
}

void Host::ScheduleFailoverCheck() {
  if (!failover_running_) return;
  failover_timer_ = loop_->ScheduleAfter(kFailoverCheckPeriod, [this] {
    RunFailoverCheck();
    ScheduleFailoverCheck();
  });
}

void Host::RunFailoverCheck() {
  const SimTime now = loop_->Now();
  const SimTime window = kHeartbeatPeriod + kHeartbeatGrace;
  for (auto& owned : nsms_) {
    Nsm* nsm = owned.get();
    if (nsm == standby_) continue;  // the spare idles by design
    const SimTime last = ce_->NsmLastActivity(nsm->id());
    if (last == 0) continue;  // not registered (already failed over)
    if (now <= last + window) {
      hb_misses_[nsm->id()] = 0;
      continue;
    }
    const int misses = ++hb_misses_[nsm->id()];
    ++failover_stats_.heartbeat_misses;
    failover_recorder_->Record(obs::FlightEventType::kHeartbeatMiss, 0, 0, 0, 0,
                               static_cast<uint64_t>(misses));
    if (misses < kMissThreshold) continue;
    const uint64_t backlog = ce_->NsmBacklog(nsm->id());
    if (backlog > 0) {
      // Silent but with unconsumed ring backlog: the process is wedged
      // (stalled mid-service), not merely a quiet tenant or a dead device.
      ++failover_stats_.wedged_detections;
      failover_recorder_->Record(obs::FlightEventType::kNsmWedged, 0, 0, 0, 0, backlog);
    }
    FailoverNsm(nsm);
  }
}

size_t Host::FailoverNsm(Nsm* sick) {
  NK_CHECK(sick != nullptr);
  // Nowhere to re-home: no standby, or one whose transport cannot carry the
  // sick NSM's VMs (stack-backed vs pool-copy).
  if (standby_ == nullptr || standby_ == sick || standby_->pool_copy() != sick->pool_copy()) {
    return 0;
  }
  Nsm* to = standby_;
  standby_ = nullptr;  // consumed: the spare is promoted to active duty
  const SimTime now = loop_->Now();
  const SimTime last = ce_->NsmLastActivity(sick->id());
  const uint64_t blackout_us = (last == 0 || now <= last) ? 0 : (now - last) / kMicrosecond;

  // Tear the sick NSM out of the switch first so nothing further routes to
  // it. Every established stream connection gets an error FIN toward its
  // guest — each one a reconnect the application owes (counted below).
  const size_t errored = ce_->DeregisterNsmDevice(sick->id());
  failover_stats_.reconnects_required += errored;
  sick->slib_->Shutdown();

  size_t rehomed = 0;
  for (auto& vm : vms_) {
    if (!vm->netkernel_mode() || vm->nsm_ != sick) continue;
    if (vm->quarantined_) {
      vm->nsm_ = to;  // its device is out of the switch: UnquarantineVm attaches
    } else {
      RehomeVm(vm.get(), to);
    }
    ++rehomed;
  }
  ++failover_stats_.nsm_failovers;
  failover_stats_.vms_rehomed += rehomed;
  blackout_us_.Record(blackout_us);
  failover_recorder_->Record(obs::FlightEventType::kNsmFailover, 0, 0, 0, 0, blackout_us);
  hb_misses_.erase(sick->id());
  return rehomed;
}

void Host::RehomeVm(Vm* vm, Nsm* to) {
  ce_->AssignVmToNsm(vm->id(), to->id());
  // Unlike SwitchNsm's alias addressing, failover keeps the VM's original
  // address: the standby's vNIC starts answering for it and the fabric
  // re-points the route. Peers keep talking to the same ip:port across the
  // replacement.
  AttachVm(vm, to, vm->ip_);
  vm->nsm_ = to;
  EmitRehomeNqe(vm, to->id());
}

void Host::QuarantineVm(Vm* vm) {
  NK_CHECK(vm != nullptr);
  if (!vm->netkernel_mode() || vm->quarantined_) return;
  const uint8_t vm_id = vm->id();
  vm->quarantined_ = true;
  // Mark in the validator first: any NQE of this VM still inside a polling
  // round drains as a quarantine drop instead of dispatching.
  ce_->validator().SetQuarantined(vm_id, true);
  // Pull the device out of the switch — co-tenants' DRR slots simply stop
  // seeing this VM. Pending in-switch deliveries toward it unwind through
  // the usual FailVmNqe error path.
  ce_->DeregisterVmDevice(vm_id);
  // Sweep whatever the deregistered rings still hold: nothing polls them
  // until an un-quarantine, and a send-family NQE parked there pins a live
  // hugepage chunk. Each carried chunk unwinds like a CE error completion
  // (unconsumed flag, credit in op_data) so the still-running GuestLib frees
  // it and reclaims the send credit; if the completion ring is full the chunk
  // goes straight back to the pool and only the credit pairing relaxes.
  // Every swept NQE counts as a quarantine drop, as the CE's own drain does.
  for (int qs = 0; qs < vm->dev_->num_queue_sets(); ++qs) {
    shm::QueueSet& q = vm->dev_->queue_set(qs);
    shm::Nqe nqe;
    auto sweep = [&](shm::SpscRing<shm::Nqe>& ring) {
      while (ring.TryDequeue(&nqe)) {
        ce_->validator().CountQuarantineDrop();
        // Only a carries-chunk request pins a chunk; everything else —
        // including any non-op byte off the hostile ring — drains valueless.
        if (!guard::CarriesGuestChunk(nqe.Op()) || !vm->pool_->IsAllocated(nqe.data_ptr)) {
          continue;
        }
        shm::Nqe resp;
        shm::BuildErrorCompletion(nqe, vm_id, kCeNetUnreach, &resp);
        if (!q.completion.TryEnqueue(resp)) vm->pool_->Free(nqe.data_ptr);
      }
    };
    sweep(q.send);
    sweep(q.job);
  }
  vm->dev_->Wake();
  // Every NSM the VM ever attached to evicts its state; in-flight chunks
  // return to the VM's pool, which the VM keeps through the quarantine.
  for (Nsm* n : vm->attached_nsms_) n->slib_->EvictVm(vm_id);
  failover_recorder_->Record(obs::FlightEventType::kVmQuarantined, vm_id, 0, 0, 0,
                             ce_->validator().VmStats(vm_id).rejects);
}

void Host::UnquarantineVm(Vm* vm) {
  NK_CHECK(vm != nullptr);
  if (!vm->netkernel_mode() || !vm->quarantined_) return;
  const uint8_t vm_id = vm->id();
  Nsm* nsm = vm->nsm_;
  NK_CHECK(nsm != nullptr);
  vm->quarantined_ = false;
  // Clear the validator verdict history (violation count resets; the chunk
  // replay ledger stays — generations only move forward) and re-admit.
  ce_->validator().SetQuarantined(vm_id, false);
  ce_->RegisterVmDevice(vm_id, vm->dev_.get());
  // An NSM killed during the quarantine with no failover leaves nothing to
  // re-attach to: the VM returns NSM-less, like the co-tenants that NSM
  // stranded, and its new operations fail until it is switched elsewhere.
  if (!ce_->HasNsm(nsm->id())) return;
  // Re-attach exactly like a failover re-home: same address, fresh NSM-side
  // state, and a kNsmRehomed nudge so the guest replays its datagram
  // sockets. Stream connections died with the eviction and surface to the
  // app as errored FINs / reconnects.
  RehomeVm(vm, nsm);
}

void Host::EmitRehomeNqe(Vm* vm, uint8_t new_nsm_id) {
  // Per-VM event (vm_sock = 0) on the qset-0 completion ring: GuestLib
  // re-issues socket/bind for every datagram socket so the standby rebuilds
  // their state under the same guest handles.
  shm::Nqe nqe = shm::MakeNqe(shm::NqeOp::kNsmRehomed, vm->id(), 0, 0, new_nsm_id);
  if (vm->dev_->queue_set(0).completion.TryEnqueue(nqe)) {
    vm->dev_->Wake();
    return;
  }
  // Completion ring full (guest far behind): retry shortly — the notification
  // must not be lost, or the guest's datagram sockets stay dark forever.
  const uint8_t vm_id = vm->id();
  loop_->ScheduleAfter(5 * kMicrosecond, [this, vm_id, new_nsm_id] {
    for (auto& v : vms_) {
      if (v->id() == vm_id) return EmitRehomeNqe(v.get(), new_nsm_id);
    }
  });
}

}  // namespace netkernel::core
