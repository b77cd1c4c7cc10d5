// Copyright (c) NetKernel reproduction authors.

#include "src/core/coreengine.h"

#include <algorithm>
#include <iterator>

#include "src/common/check.h"

namespace netkernel::core {

using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

// ===========================================================================
// CoreEngine facade: construction, registries, placement, control plane.
// ===========================================================================

CoreEngine::CoreEngine(sim::EventLoop* loop, std::vector<sim::CpuCore*> cores,
                       CoreEngineConfig config)
    : loop_(loop), config_(config), validator_(config.guard) {
  NK_CHECK(!cores.empty());
  // A zero bound would make every destination permanently "full" and stall
  // routing outright; the park needs at least one slot to carry backpressure.
  NK_CHECK(config_.pending_bound >= 1);
  for (size_t i = 0; i < cores.size(); ++i) {
    shards_.push_back(
        std::make_unique<CoreEngineShard>(this, static_cast<int>(i), cores[i]));
  }
}

CeMessage CoreEngine::HandleControlMessage(CeMessage req) {
  // Every refusal breaks out of the switch to the one kError reply.
  const auto ok = [](uint32_t data) { return CeMessage{static_cast<uint32_t>(CeOp::kOk), data}; };
  switch (static_cast<CeOp>(req.ce_op)) {
    case CeOp::kDeregisterVm: {
      uint8_t vm = static_cast<uint8_t>(req.ce_data);
      if (!vms_[vm]) break;
      DeregisterVmDevice(vm);
      return ok(req.ce_data);
    }
    case CeOp::kDeregisterNsm: {
      uint8_t nsm = static_cast<uint8_t>(req.ce_data);
      if (!HasNsm(nsm)) break;
      DeregisterNsmDevice(nsm);
      return ok(req.ce_data);
    }
    case CeOp::kAssignVmToNsm: {
      uint8_t vm = static_cast<uint8_t>(req.ce_data >> 8);
      uint8_t nsm = static_cast<uint8_t>(req.ce_data & 0xff);
      if (!vms_[vm] || !HasNsm(nsm)) break;
      AssignVmToNsm(vm, nsm);
      return ok(req.ce_data);
    }
    case CeOp::kAssignQsetToShard: {
      uint8_t vm = static_cast<uint8_t>(req.ce_data >> 16);
      uint8_t qs = static_cast<uint8_t>(req.ce_data >> 8);
      int shard = static_cast<int>(req.ce_data & 0xff);
      if (!AssignQueueSetToShard(vm, qs, shard)) break;
      return ok(req.ce_data);
    }
    case CeOp::kHeartbeat: {
      uint8_t nsm = static_cast<uint8_t>(req.ce_data);
      if (!HasNsm(nsm)) break;
      RecordNsmHeartbeat(nsm);
      return ok(req.ce_data);
    }
    case CeOp::kQueryVmStatWide: {
      // Two-word read of the 64-bit counter: word 0 returns the low 32 bits,
      // word 1 the high 32 bits.
      uint8_t vm = static_cast<uint8_t>(req.ce_data >> 16);
      uint8_t field = static_cast<uint8_t>(req.ce_data >> 8);
      uint8_t word = static_cast<uint8_t>(req.ce_data & 0xff);
      if (field >= std::size(kPerVmCounters) || word > 1) break;
      uint64_t v = QueryVmStatRaw(vm, static_cast<VmStatField>(field));
      return ok(word == 0 ? static_cast<uint32_t>(v) : static_cast<uint32_t>(v >> 32));
    }
    // ce_op arrives as a raw uint32 from the guest-facing control channel;
    // registration needs a device pointer and uses the direct API below, and
    // malformed values must land on kError, not UB.
    default:
      break;
  }
  return {static_cast<uint32_t>(CeOp::kError), req.ce_data};
}

void CoreEngine::RegisterVmDevice(uint8_t vm_id, shm::NkDevice* dev) {
  NK_CHECK(!vms_[vm_id]);
  vms_[vm_id].emplace().dev = dev;
  // Default placement: hash each queue set over the shards. Explicit
  // AssignQueueSetToShard and work stealing can both move it later.
  const int nqs = dev->num_queue_sets();
  for (int qs = 0; qs < nqs; ++qs) {
    uint16_t key = QsetKey(vm_id, static_cast<uint8_t>(qs));
    int shard = static_cast<int>(HashSpread(key, shards_.size()));
    vm_qset_shard_[key] = shard;
    shards_[static_cast<size_t>(shard)]->AddVmQset(vm_id, static_cast<uint8_t>(qs));
  }
}

void CoreEngine::RegisterNsmDevice(uint8_t nsm_id, shm::NkDevice* dev) {
  NK_CHECK(dev != nullptr && !HasNsm(nsm_id));
  // Registration counts as activity: a fresh NSM gets a full liveness window
  // before its first heartbeat can possibly arrive.
  nsms_[nsm_id] = NsmReg{dev, loop_->Now(), 0};
  // Consecutive queue sets land on consecutive shards, so an NSM with at
  // least num_shards() queue sets keeps every switching core reachable for
  // shard-aligned connection placement.
  const size_t base = HashSpread(nsm_id, shards_.size());
  const int nqs = dev->num_queue_sets();
  for (int qs = 0; qs < nqs; ++qs) {
    int shard = static_cast<int>((base + static_cast<size_t>(qs)) % shards_.size());
    nsm_qset_shard_[QsetKey(nsm_id, static_cast<uint8_t>(qs))] = shard;
    shards_[static_cast<size_t>(shard)]->AddNsmQset(nsm_id, static_cast<uint8_t>(qs));
  }
}

void CoreEngine::DeregisterVmDevice(uint8_t vm_id) {
  VmReg* reg = FindVm(vm_id);
  shm::NkDevice* dev = reg == nullptr ? nullptr : reg->dev;
  for (auto& s : shards_) s->RemoveVm(vm_id, dev);
  if (dev != nullptr) park_cursors_.erase(dev);
  for (auto it = vm_qset_shard_.begin(); it != vm_qset_shard_.end();) {
    it = (it->first >> 8) == vm_id ? vm_qset_shard_.erase(it) : std::next(it);
  }
  // The whole per-VM registry dies with the VM — DRR weight, token buckets,
  // and every shard's deficit/cursor slot — so a re-registered VM id starts
  // fresh instead of inheriting stale scheduler state.
  vms_[vm_id].reset();
}

size_t CoreEngine::DeregisterNsmDevice(uint8_t nsm_id) {
  shm::NkDevice* dev = FindNsm(nsm_id);
  nsms_[nsm_id] = NsmReg{};
  for (auto it = nsm_qset_shard_.begin(); it != nsm_qset_shard_.end();) {
    it = (it->first >> 8) == nsm_id ? nsm_qset_shard_.erase(it) : std::next(it);
  }
  if (dev != nullptr) park_cursors_.erase(dev);
  size_t errored_conns = 0;
  for (auto& s : shards_) errored_conns += s->RemoveNsm(nsm_id, dev);
  return errored_conns;
}

void CoreEngine::AssignVmToNsm(uint8_t vm_id, uint8_t nsm_id) {
  VmReg* reg = FindVm(vm_id);
  NK_CHECK(reg != nullptr);
  NK_CHECK(HasNsm(nsm_id));
  reg->nsm_id = nsm_id;
  reg->has_nsm = true;
}

bool CoreEngine::AssignQueueSetToShard(uint8_t vm_id, uint8_t qset, int shard) {
  VmReg* reg = FindVm(vm_id);
  if (reg == nullptr || reg->dev == nullptr) return false;
  if (shard < 0 || shard >= num_shards()) return false;
  if (static_cast<int>(qset) >= reg->dev->num_queue_sets()) return false;
  auto it = vm_qset_shard_.find(QsetKey(vm_id, qset));
  if (it == vm_qset_shard_.end()) return false;
  CoreEngineShard* from = shards_[static_cast<size_t>(it->second)].get();
  CoreEngineShard* to = shards_[static_cast<size_t>(shard)].get();
  if (from == to) return true;
  if (from->in_flight_total_ > 0) {
    // The owner has a delivery plan in flight: queue the handoff event; it
    // executes at the owner's round boundary, after the plan lands.
    from->pending_handoffs_.push_back({vm_id, qset, shard});
    return true;
  }
  MigrateVmQset(vm_id, qset, from, to);
  return true;
}

namespace {

uint64_t PerVmStats::*VmStatCounter(VmStatField field) {
  const size_t row = static_cast<size_t>(field);
  NK_CHECK(row < std::size(kPerVmCounters));
  return kPerVmCounters[row].field;
}

}  // namespace

uint64_t CoreEngine::QueryVmStatRaw(uint8_t vm_id, VmStatField field) const {
  return VmStats(vm_id).*VmStatCounter(field);
}

void CoreEngine::AddVmStatForTest(uint8_t vm_id, VmStatField field, uint64_t delta) {
  shards_[0]->per_vm_[vm_id].*VmStatCounter(field) += delta;
}

std::vector<const obs::FlightRecorder*> CoreEngine::FlightRecorders() const {
  std::vector<const obs::FlightRecorder*> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(&s->recorder_);
  return out;
}

void CoreEngine::SetVmWeight(uint8_t vm_id, uint32_t weight) {
  VmReg* reg = FindVm(vm_id);
  NK_CHECK(reg != nullptr);
  NK_CHECK(weight >= 1);
  reg->weight = weight;
}

uint32_t CoreEngine::VmWeight(uint8_t vm_id) const { return VmWeightOrDefault(vm_id); }

void CoreEngine::SetVmByteRate(uint8_t vm_id, double bytes_per_sec, double burst_bytes) {
  VmReg* reg = FindVm(vm_id);
  NK_CHECK(reg != nullptr);
  reg->byte_bucket = TokenBucket(bytes_per_sec, burst_bytes);
}

void CoreEngine::SetVmOpRate(uint8_t vm_id, double nqes_per_sec, double burst_nqes) {
  VmReg* reg = FindVm(vm_id);
  NK_CHECK(reg != nullptr);
  reg->op_bucket = TokenBucket(nqes_per_sec, burst_nqes);
}

void CoreEngine::NotifyVmOutbound(uint8_t vm_id, int qset) {
  if (qset >= 0) {
    auto it = vm_qset_shard_.find(QsetKey(vm_id, static_cast<uint8_t>(qset)));
    if (it != vm_qset_shard_.end()) {
      shards_[static_cast<size_t>(it->second)]->ScheduleRound();
      return;
    }
  }
  if (vms_[vm_id]) {
    for (auto& s : shards_) {
      if (s->sched_.count(vm_id) != 0) s->ScheduleRound();
    }
    return;
  }
  // Unknown VM: preserve the single-core semantics (a doorbell always spins
  // the switch) so racing deregistrations cannot strand queued NQEs.
  for (auto& s : shards_) s->ScheduleRound();
}

void CoreEngine::NotifyNsmOutbound(uint8_t nsm_id, int qset) {
  // A doorbell is proof of life: the NSM just produced NQEs, so refresh its
  // liveness stamp even if its heartbeat timer is starved by datapath work.
  NsmReg& nsm = nsms_[nsm_id];
  if (nsm.dev != nullptr) nsm.last_activity = loop_->Now();
  if (qset >= 0) {
    auto it = nsm_qset_shard_.find(QsetKey(nsm_id, static_cast<uint8_t>(qset)));
    if (it != nsm_qset_shard_.end()) {
      shards_[static_cast<size_t>(it->second)]->ScheduleRound();
      return;
    }
  }
  if (nsm.dev != nullptr) {
    for (auto& s : shards_) {
      if (!s->nsm_qsets_[nsm_id].empty()) s->ScheduleRound();
    }
    return;
  }
  for (auto& s : shards_) s->ScheduleRound();
}

void CoreEngine::RecordNsmHeartbeat(uint8_t nsm_id) {
  NsmReg& nsm = nsms_[nsm_id];
  if (nsm.dev == nullptr) return;  // unknown / already deregistered
  nsm.last_activity = loop_->Now();
  ++nsm.heartbeats;
}

SimTime CoreEngine::NsmLastActivity(uint8_t nsm_id) const { return nsms_[nsm_id].last_activity; }

uint64_t CoreEngine::NsmHeartbeats(uint8_t nsm_id) const { return nsms_[nsm_id].heartbeats; }

uint64_t CoreEngine::NsmBacklog(uint8_t nsm_id) const {
  shm::NkDevice* dev = FindNsm(nsm_id);
  if (dev == nullptr) return 0;
  uint64_t total = 0;
  for (int qs = 0; qs < dev->num_queue_sets(); ++qs) {
    shm::QueueSet& q = dev->queue_set(static_cast<uint8_t>(qs));
    total += q.job.Size() + q.send.Size();
  }
  return total;
}

CoreEngineStats CoreEngine::stats() const {
  CoreEngineStats agg;
  for (const auto& s : shards_) AddCounters(kCoreEngineCounters, s->stats_, &agg);
  return agg;
}

PerVmStats CoreEngine::VmStats(uint8_t vm_id) const {
  PerVmStats out;
  for (const auto& s : shards_) AddCounters(kPerVmCounters, s->per_vm_[vm_id], &out);
  return out;
}

size_t CoreEngine::ConnectionTableSize() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->sock_table_.size();
  return n;
}

size_t CoreEngine::ParkedDeliveries() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->parked_total_;
  return n;
}

int CoreEngine::ShardOfVmQset(uint8_t vm_id, uint8_t qset) const {
  auto it = vm_qset_shard_.find(QsetKey(vm_id, qset));
  return it == vm_qset_shard_.end() ? -1 : it->second;
}

int CoreEngine::ShardOfNsmQset(uint8_t nsm_id, uint8_t qset) const {
  auto it = nsm_qset_shard_.find(QsetKey(nsm_id, qset));
  return it == nsm_qset_shard_.end() ? -1 : it->second;
}

// ---------------------------------------------------------------------------
// Cross-shard plumbing: completion handshake, weighted park drain, handoff.
// ---------------------------------------------------------------------------

void CoreEngine::CompleteConnHandshake(const Nqe& nqe, Cycles& cost) {
  const uint64_t key = ConnKey(nqe.vm_id, nqe.vm_sock);
  const auto complete = [&](CoreEngineShard& s) {
    auto it = s.sock_table_.find(key);
    if (it == s.sock_table_.end()) return false;
    if (!it->second.complete) {
      it->second.complete = true;
      cost += config_.costs.ce_table_lookup;
    }
    return true;
  };
  int owner = ShardOfVmQset(nqe.vm_id, nqe.queue_set);
  if (owner >= 0 && complete(*shards_[static_cast<size_t>(owner)])) return;
  // Rare: the entry's queue set migrated mid-handshake. Scan the shards.
  for (auto& s : shards_) {
    if (complete(*s)) return;
  }
}

size_t CoreEngine::DrainParked(shm::NkDevice* dev, std::vector<shm::NkDevice*>& to_wake) {
  const size_t n = shards_.size();
  ParkCursor& pc = park_cursors_[dev];
  size_t delivered = 0;
  size_t idle = 0;  // consecutive shards with nothing parked for `dev`
  // The cursor + spent pair persists across sweeps, so the concatenated
  // delivery stream is exactly the weighted round-robin sequence no matter
  // where a full destination ring cut a sweep off.
  while (idle < n) {
    CoreEngineShard* s = shards_[pc.shard % n].get();
    uint8_t vm = 0;
    if (!s->PeekParkedVm(dev, &vm)) {
      pc.shard = (pc.shard + 1) % n;
      pc.spent = 0;
      ++idle;
      continue;
    }
    const uint32_t w = VmWeightOrDefault(vm);
    if (pc.spent >= w) {  // this visit's weighted quantum is spent
      pc.shard = (pc.shard + 1) % n;
      pc.spent = 0;
      continue;
    }
    if (!s->TryDeliverParkedFront(dev, to_wake)) break;  // ring full: resume here
    ++pc.spent;
    ++delivered;
    idle = 0;
  }
  return delivered;
}

void CoreEngine::MaybeRebalance(CoreEngineShard* victim) {
  if (shards_.size() < 2) return;
  ++victim->rounds_since_rebalance_;
  if (victim->rounds_since_rebalance_ < config_.steal_cooldown_rounds) return;
  if (victim->VmBacklog() < config_.steal_backlog) return;
  // Shedding the only owned queue set would just move the hotspot.
  size_t owned = 0;
  for (const auto& [vm, vs] : victim->sched_) owned += vs.qsets.size();
  if (owned < 2) return;
  CoreEngineShard* thief = nullptr;
  for (auto& s : shards_) {
    if (s.get() == victim) continue;
    if (s->VmBacklog() == 0) {
      thief = s.get();
      break;
    }
  }
  if (thief == nullptr) return;  // nobody idle: every core is already earning
  uint8_t best_vm = 0;
  uint8_t best_qs = 0;
  uint64_t best = 0;
  for (const auto& [vm, vs] : victim->sched_) {
    for (uint8_t qs : vs.qsets) {
      uint64_t b = victim->VmQsetBacklog(vm, qs);
      if (b > best) {
        best = b;
        best_vm = vm;
        best_qs = qs;
      }
    }
  }
  if (best == 0) return;
  victim->rounds_since_rebalance_ = 0;
  MigrateVmQset(best_vm, best_qs, victim, thief);
}

void CoreEngine::MigrateVmQset(uint8_t vm_id, uint8_t qset, CoreEngineShard* from,
                               CoreEngineShard* to) {
  if (from == to) return;
  if (ShardOfVmQset(vm_id, qset) != from->index_) return;  // ownership drifted
  VmReg* reg = FindVm(vm_id);
  if (reg == nullptr) return;
  vm_qset_shard_[QsetKey(vm_id, qset)] = to->index_;
  from->RemoveVmQset(vm_id, qset);
  to->AddVmQset(vm_id, qset);
  // Table entries routed through the queue set travel with it.
  for (auto it = from->sock_table_.begin(); it != from->sock_table_.end();) {
    if (static_cast<uint8_t>(it->first >> 32) == vm_id && it->second.vm_qset == qset) {
      to->sock_table_.emplace(it->first, it->second);
      it = from->sock_table_.erase(it);
    } else {
      ++it;
    }
  }
  // Parked deliveries follow their *producer*. VM->NSM deliveries of the
  // migrating queue set move: their producer is the owning shard, so after
  // the handoff every new NQE of those flows is planned by `to`, and the
  // moved FIFO stays strictly older than anything `to` can produce (`from`
  // has no plan in flight at a round boundary). Toward-VM deliveries stay
  // put: they are produced by the shard polling the connection's NSM queue
  // set, which does not move here — keeping them under that producer's park
  // preserves per-connection receive order.
  for (auto pit = from->parked_.begin(); pit != from->parked_.end();) {
    std::deque<CoreEngineShard::Delivery>& dq = pit->second;
    std::deque<CoreEngineShard::Delivery> keep;
    for (CoreEngineShard::Delivery& d : dq) {
      bool moves = !d.toward_vm && d.nqe.vm_id == vm_id && d.nqe.queue_set == qset;
      if (moves) {
        to->parked_[pit->first].push_back(std::move(d));
        ++to->parked_total_;
        --from->parked_total_;
      } else {
        keep.push_back(std::move(d));
      }
    }
    if (keep.empty()) {
      pit = from->parked_.erase(pit);
    } else {
      pit->second = std::move(keep);
      ++pit;
    }
  }
  ++from->stats_.qset_migrations;
  from->recorder_.Record(obs::FlightEventType::kQsetMigration, vm_id, qset, 0, 0,
                         static_cast<uint64_t>(to->index_));
  if (to->parked_total_ > 0) to->ArmParkRetry();
  to->ScheduleRound();
}

// ===========================================================================
// CoreEngineShard: the per-core datapath.
// ===========================================================================

CoreEngineShard::CoreEngineShard(CoreEngine* engine, int index, sim::CpuCore* core)
    : engine_(engine),
      index_(index),
      core_(core),
      recorder_(engine->loop_, "ce.shard" + std::to_string(index)) {}

void CoreEngineShard::AddVmQset(uint8_t vm_id, uint8_t qset) {
  VmSched& vs = sched_[vm_id];
  if (vs.qsets.empty()) vm_rr_order_.push_back(vm_id);
  if (std::find(vs.qsets.begin(), vs.qsets.end(), qset) == vs.qsets.end()) {
    vs.qsets.push_back(qset);
  }
}

void CoreEngineShard::RemoveVmQset(uint8_t vm_id, uint8_t qset) {
  auto it = sched_.find(vm_id);
  if (it == sched_.end()) return;
  VmSched& vs = it->second;
  vs.qsets.erase(std::remove(vs.qsets.begin(), vs.qsets.end(), qset), vs.qsets.end());
  if (!vs.qsets.empty()) {
    vs.cursor %= static_cast<int>(vs.qsets.size());
    return;
  }
  sched_.erase(it);
  vm_rr_order_.erase(std::remove(vm_rr_order_.begin(), vm_rr_order_.end(), vm_id),
                     vm_rr_order_.end());
  if (vm_rr_cursor_ >= vm_rr_order_.size()) vm_rr_cursor_ = 0;
}

void CoreEngineShard::AddNsmQset(uint8_t nsm_id, uint8_t qset) {
  std::vector<uint8_t>& owned = nsm_qsets_[nsm_id];
  if (owned.empty()) nsm_rr_order_.push_back(nsm_id);
  owned.push_back(qset);
}

void CoreEngineShard::RemoveVm(uint8_t vm_id, shm::NkDevice* dev) {
  // Parked deliveries to the dead device would dangle; the VM is gone, so
  // there is no guest to return completions to — count and discard.
  if (dev != nullptr) PurgePark(dev, /*synthesize_errors=*/false);
  for (auto it = sock_table_.begin(); it != sock_table_.end();) {
    it = (it->first >> 32) == vm_id ? sock_table_.erase(it) : std::next(it);
  }
  sched_.erase(vm_id);
  vm_rr_order_.erase(std::remove(vm_rr_order_.begin(), vm_rr_order_.end(), vm_id),
                     vm_rr_order_.end());
  if (vm_rr_cursor_ >= vm_rr_order_.size()) vm_rr_cursor_ = 0;
  pending_handoffs_.erase(
      std::remove_if(pending_handoffs_.begin(), pending_handoffs_.end(),
                     [vm_id](const PendingHandoff& h) { return h.vm_id == vm_id; }),
      pending_handoffs_.end());
}

size_t CoreEngineShard::RemoveNsm(uint8_t nsm_id, shm::NkDevice* dev) {
  if (!nsm_qsets_[nsm_id].empty() || dev != nullptr) {
    recorder_.Record(obs::FlightEventType::kNsmDeregister, 0, 0, 0, 0, nsm_id);
  }
  nsm_qsets_[nsm_id].clear();
  nsm_rr_order_.erase(std::remove(nsm_rr_order_.begin(), nsm_rr_order_.end(), nsm_id),
                      nsm_rr_order_.end());
  if (nsm_rr_cursor_ >= nsm_rr_order_.size()) nsm_rr_cursor_ = 0;
  // VM->NSM deliveries parked for the dead device will never land: return
  // error completions so guest send credits and hugepage chunks are released.
  if (dev != nullptr) PurgePark(dev, /*synthesize_errors=*/true);

  // Table entries pointing at the dead NSM must not linger. Established
  // connections died with their stack — tell each guest with an error FIN so
  // its socket state unwinds; datagram sockets are stateless at the NSM
  // boundary, so dropping the entry lets the next datagram op re-home to the
  // VM's current NSM.
  std::vector<Delivery> fins;
  for (auto it = sock_table_.begin(); it != sock_table_.end();) {
    if (it->second.nsm_id != nsm_id) {
      ++it;
      continue;
    }
    uint8_t vm_id = static_cast<uint8_t>(it->first >> 32);
    uint32_t vm_sock = static_cast<uint32_t>(it->first);
    CoreEngine::VmReg* reg = engine_->FindVm(vm_id);
    if (!it->second.dgram && reg != nullptr && reg->dev != nullptr) {
      Delivery d;
      d.dst = reg->dev;
      d.qset = it->second.vm_qset < d.dst->num_queue_sets() ? it->second.vm_qset : 0;
      d.ring = shm::RingKind::kReceive;
      d.toward_vm = true;
      d.nqe = MakeNqe(NqeOp::kFinReceived, vm_id, it->second.vm_qset, vm_sock, 0, 0,
                      static_cast<uint32_t>(kCeNetUnreach));
      PlanDelivery(d, fins);
    }
    it = sock_table_.erase(it);
  }
  if (!fins.empty()) DeliverPlan(fins);
  return fins.size();
}

uint64_t CoreEngineShard::VmQsetBacklog(uint8_t vm_id, uint8_t qset) const {
  CoreEngine::VmReg* reg = engine_->FindVm(vm_id);
  if (reg == nullptr || reg->dev == nullptr) return 0;
  if (static_cast<int>(qset) >= reg->dev->num_queue_sets()) return 0;
  shm::QueueSet& q = reg->dev->queue_set(qset);
  return q.job.Size() + q.send.Size();
}

uint64_t CoreEngineShard::VmBacklog() const {
  uint64_t total = 0;
  for (const auto& [vm_id, vs] : sched_) {
    for (uint8_t qs : vs.qsets) total += VmQsetBacklog(vm_id, qs);
  }
  return total;
}

bool CoreEngineShard::OwnedVmHasOutbound(uint8_t vm_id, const VmSched& vs) const {
  for (uint8_t qs : vs.qsets) {
    if (VmQsetBacklog(vm_id, qs) > 0) return true;
  }
  return false;
}

void CoreEngineShard::ExecutePendingHandoffs() {
  if (pending_handoffs_.empty()) return;
  std::vector<PendingHandoff> moves = std::move(pending_handoffs_);
  pending_handoffs_.clear();
  for (const PendingHandoff& h : moves) {
    engine_->MigrateVmQset(h.vm_id, h.qset, this, &engine_->shard(h.to));
  }
}

// ---------------------------------------------------------------------------
// Datapath
// ---------------------------------------------------------------------------

void CoreEngineShard::ScheduleRound() {
  // One round at a time: while a round is queued or its cost is still being
  // charged, a doorbell starts nothing. The round's completion polls again
  // and takes everything that queued meanwhile as one batch.
  if (round_active_) return;
  round_active_ = true;
  engine_->loop_->ScheduleAfter(0, [this] { ProcessRound(); });
}

uint64_t CoreEngineShard::PollVm(uint8_t vm_id, VmSched& vs, uint64_t limit,
                                 std::vector<Delivery>& plan, Cycles& cost, SimTime* retry_at,
                                 bool* send_blocked, bool* job_blocked) {
  CoreEngine::VmReg* reg = engine_->FindVm(vm_id);
  if (reg == nullptr || reg->dev == nullptr || vs.qsets.empty()) return 0;
  uint64_t taken = 0;
  Nqe nqe;
  const int nqs = static_cast<int>(vs.qsets.size());
  guard::NqeValidator& validator = engine_->validator_;
  if (validator.enabled() && validator.IsQuarantined(vm_id)) {
    // Quarantined offender: drain its outbound rings without routing a
    // single NQE, so co-tenants are undisturbed. Between the trip and the
    // host's deregistration this is the VM's entire service. Carried chunks
    // still unwind through the usual reclaim completion — quarantine parks
    // the VM, it must not leak its pool.
    for (uint8_t qsi : vs.qsets) {
      if (static_cast<int>(qsi) >= reg->dev->num_queue_sets()) continue;
      shm::QueueSet& q = reg->dev->queue_set(qsi);
      auto drain = [&](shm::SpscRing<Nqe>& ring) {
        while (ring.TryDequeue(&nqe)) {
          validator.CountQuarantineDrop();
          validator.ScrubGuestFlags(&nqe);
          nqe.vm_id = vm_id;
          nqe.queue_set = qsi;
          Delivery d;
          if (guard::CarriesGuestChunk(nqe.Op()) &&
              validator.ChunkReclaimable(vm_id, nqe) && BuildErrorCompletion(nqe, &d)) {
            PlanDelivery(d, plan);
          }
        }
      };
      drain(q.send);
      drain(q.job);
    }
    return 0;
  }
  for (int i = 0; i < nqs && taken < limit; ++i) {
    // Start each chunk at a rotating queue set: restarting at the first
    // owned set every time would let a saturated one eat the whole deficit
    // while the VM's other owned queue sets starve.
    uint8_t qsi = vs.qsets[static_cast<size_t>((vs.cursor + i) % nqs)];
    if (static_cast<int>(qsi) >= reg->dev->num_queue_sets()) continue;
    shm::QueueSet& q = reg->dev->queue_set(qsi);
    // Send ring before job ring: a close NQE must not overtake the data
    // NQEs the guest enqueued before it.
    for (const bool from_send : {true, false}) {
      bool* blocked = from_send ? send_blocked : job_blocked;
      shm::SpscRing<Nqe>& ring = from_send ? q.send : q.job;
      while (!*blocked && taken < limit && ring.Peek(&nqe)) {
        // nkguard admission on the peeked copy: what routes (and what any
        // reject answers) is the scrubbed, identity-pinned NQE, never raw
        // guest-written ring bytes. A reject consumes the NQE here and still
        // spends deficit + CPU — the offender pays for its own garbage.
        if (!GuardAdmit(&nqe, &ring, from_send, vm_id, qsi, plan, cost)) {
          ++taken;
          continue;
        }
        if (!RouteVmNqe(nqe, from_send, q.send, plan, cost, retry_at)) {
          *blocked = true;
          break;
        }
        ring.TryDequeue(&nqe);
        if (validator.enabled()) validator.CommitGuestNqe(vm_id, nqe);
        // T1 lifecycle stamp (sampled NQEs only); the stamp's modeled cost
        // rides the round's CPU charge like any other switching work.
        if (engine_->tracer_ != nullptr) {
          cost += engine_->tracer_->OnCeDequeue(nqe, static_cast<uint32_t>(index_));
        }
        ++taken;
      }
    }
  }
  vs.cursor = (vs.cursor + 1) % nqs;
  return taken;
}

uint8_t CoreEngineShard::ChooseNsmQset(uint8_t nsm_id, const shm::NkDevice* ndev,
                                       uint64_t key) const {
  const std::vector<uint8_t>& owned = nsm_qsets_[nsm_id];
  if (!owned.empty()) {
    // Shard-aligned placement: the response path comes back on a queue set
    // this shard polls, so the connection's state stays single-writer.
    return owned[CoreEngine::HashSpread(key, owned.size())];
  }
  // This shard owns none of that NSM's queue sets (fewer sets than shards):
  // spread globally; completions cross shards via the facade handshake.
  return static_cast<uint8_t>(
      CoreEngine::HashSpread(key, static_cast<size_t>(ndev->num_queue_sets())));
}

bool CoreEngineShard::GuardAdmit(Nqe* nqe, shm::SpscRing<Nqe>* ring, bool from_send_ring,
                                 uint8_t vm_id, uint8_t qset, std::vector<Delivery>& plan,
                                 Cycles& cost) {
  guard::NqeValidator& validator = engine_->validator_;
  if (!validator.enabled()) return true;
  cost += engine_->config_.costs.ce_guard_check;
  validator.ScrubGuestFlags(nqe);
  guard::Verdict verdict = validator.ValidateGuestNqe(nqe, from_send_ring, vm_id, qset);
  if (verdict == guard::Verdict::kOk) return true;

  // Reject: consume the offending NQE (the caller's peeked copy — now
  // scrubbed and identity-pinned to the polled device — is what the reject
  // path answers; the raw ring bytes go nowhere).
  Nqe raw;
  ring->TryDequeue(&raw);
  recorder_.Record(obs::FlightEventType::kGuardReject, vm_id, qset, nqe->op, nqe->vm_sock,
                   static_cast<uint64_t>(verdict));
  const bool tripped = validator.RecordViolation(vm_id, verdict);
  if (validator.ShouldSynthesizeError()) {
    Delivery d;
    if (BuildErrorCompletion(*nqe, &d)) {
      if (d.nqe.reserved[1] == shm::kNqeFlagChunkUnconsumed &&
          !validator.ChunkReclaimable(vm_id, *nqe)) {
        // The rejected NQE named a chunk the guest does not verifiably own
        // (bogus offset, freed, or an incarnation an accepted submission
        // already consumed). Flagging it would make GuestLib free it — a
        // double free — so the error completion goes back chunkless.
        d.nqe.reserved[1] = 0;
        d.nqe.data_ptr = 0;
        d.nqe.op_data = 0;
      }
      PlanDelivery(d, plan);
    }
  }
  ++stats_.nqes_dropped;
  ++per_vm_[vm_id].dropped;
  if (tripped) {
    recorder_.Record(obs::FlightEventType::kVmQuarantined, vm_id, qset, nqe->op, 0,
                     validator.VmStats(vm_id).rejects);
    if (engine_->quarantine_cb_) {
      // Defer to a fresh event-loop instant: the host callback deregisters
      // the device, which must not happen under this polling round.
      auto cb = engine_->quarantine_cb_;
      engine_->loop_->ScheduleAfter(0, [cb, vm_id] { cb(vm_id); });
    }
  }
  return false;
}

bool CoreEngineShard::RouteVmNqe(const Nqe& nqe, bool from_send_ring,
                                 const shm::SpscRing<Nqe>& send_ring,
                                 std::vector<Delivery>& plan, Cycles& cost,
                                 SimTime* retry_at) {
  CoreEngine::VmReg* reg = engine_->FindVm(nqe.vm_id);
  if (reg == nullptr) return FailVmNqe(nqe, plan);  // racing deregistration
  const SimTime now = engine_->loop_->Now();
  const CoreEngineConfig& config = engine_->config_;
  // Isolation: per-VM egress policing before switching (paper §7.6). The
  // buckets live in the engine-wide registry (shared by the shards, as a
  // real multi-core switch shares its policers via atomics).
  if (!reg->op_bucket.TryConsume(now, 1.0)) {
    SimTime t = reg->op_bucket.NextAvailable(now, 1.0);
    if (*retry_at == kSimTimeNever || t < *retry_at) *retry_at = t;
    ++stats_.throttled_nqes;
    ++per_vm_[nqe.vm_id].throttled;
    return false;
  }
  if (from_send_ring && nqe.size > 0 &&
      !reg->byte_bucket.TryConsume(now, static_cast<double>(nqe.size))) {
    SimTime t = reg->byte_bucket.NextAvailable(now, static_cast<double>(nqe.size));
    if (*retry_at == kSimTimeNever || t < *retry_at) *retry_at = t;
    ++stats_.throttled_nqes;
    ++per_vm_[nqe.vm_id].throttled;
    // The op-bucket token is intentionally kept: conservative policing.
    return false;
  }

  // One socket table for both kinds (§4.3). A new entry maps the socket to
  // the VM's current NSM (Fig 6 steps 1-2); later NQEs follow their entry,
  // so switching the VM's NSM moves only new sockets.
  const uint64_t key = CoreEngine::ConnKey(nqe.vm_id, nqe.vm_sock);
  const NqeOp op = nqe.Op();
  const shm::OpTraits* traits = shm::FindOpTraits(nqe.op);
  const bool dgram_op = traits != nullptr && traits->kind == shm::SockKind::kDgram;
  shm::NkDevice* home = reg->has_nsm ? engine_->FindNsm(reg->nsm_id) : nullptr;
  auto it = sock_table_.find(key);
  if (it != sock_table_.end() && op != NqeOp::kSocketUdp) {
    cost += config.costs.ce_table_lookup;
  } else if (dgram_op && op != NqeOp::kSocketUdp) {
    // A datagram verb whose socket is not (or no longer) in the table: a
    // kClose overtook it, or its NSM was deregistered. Forward it to the
    // VM's current NSM without an entry (re-homing the datagram flow): the
    // NSM side owns the hugepage accounting and must see the NQE to release
    // its payload chunk.
    if (home == nullptr) return FailVmNqe(nqe, plan);
    if (Backpressured(home)) return false;
    Delivery d;
    d.dst = home;
    d.nsm_id = reg->nsm_id;
    d.qset = ChooseNsmQset(reg->nsm_id, home, key);
    d.ring = from_send_ring ? shm::RingKind::kSend : shm::RingKind::kJob;
    d.nqe = nqe;
    PlanDelivery(d, plan);
    ++stats_.dgram_nqes_switched;
    cost += config.costs.ce_table_lookup;
    return true;
  } else {
    // A new socket. kSocketUdp keeps a live entry of the same handle but
    // still pays the insert.
    if (home == nullptr) return FailVmNqe(nqe, plan);  // no NSM to serve it
    if (it == sock_table_.end()) {
      SockEntry e;
      e.nsm_id = reg->nsm_id;
      e.nsm_qset = ChooseNsmQset(reg->nsm_id, home, key);
      e.vm_qset = nqe.queue_set;
      e.dgram = op == NqeOp::kSocketUdp;
      // kAccept announces the guest handle of a connection the NSM already
      // made (Fig 6 step 3), so it has no handshake left either.
      e.complete = e.dgram || op == NqeOp::kAccept;
      it = sock_table_.emplace(key, e).first;
    }
    cost += config.costs.ce_table_insert;
    ++stats_.table_inserts;
  }
  const SockEntry& entry = it->second;

  shm::NkDevice* ndev = engine_->FindNsm(entry.nsm_id);
  if (ndev == nullptr) {
    // NSM vanished between rounds (DeregisterNsmDevice also purges the
    // table, so this is a same-round race): drop the stale mapping so the
    // next op re-homes, and unwind the guest's state.
    sock_table_.erase(it);
    return FailVmNqe(nqe, plan);
  }
  // Backpressure: the NSM's pending queue is at the bound, so the NQE stays
  // in the guest ring. (The token already spent on it is kept — conservative
  // policing, same as the byte-bucket path above.)
  if (Backpressured(ndev)) return false;
  // Sends the guest queued before a stream socket's close may still sit in
  // its send ring (held by the byte bucket, or behind a send for another,
  // backpressured NSM). Delivered first, the close would unlink the
  // connection ahead of its last data, which the NSM would then park as
  // orphans forever.
  if (op == NqeOp::kClose && !entry.dgram && !from_send_ring &&
      send_ring.AnyQueued([&nqe](const Nqe& s) { return s.vm_sock == nqe.vm_sock; })) {
    return false;
  }

  Delivery d;
  d.dst = ndev;
  d.nsm_id = entry.nsm_id;
  d.qset = entry.nsm_qset;
  d.ring = from_send_ring ? shm::RingKind::kSend : shm::RingKind::kJob;
  d.nqe = nqe;
  PlanDelivery(d, plan);
  if (entry.dgram) ++stats_.dgram_nqes_switched;
  if (from_send_ring) stats_.send_bytes_switched += nqe.size;
  if (op == NqeOp::kClose) sock_table_.erase(it);
  return true;
}

bool CoreEngineShard::RouteNsmNqe(const Nqe& nqe, std::vector<Delivery>& plan, Cycles& cost) {
  guard::NqeValidator& validator = engine_->validator_;
  if (validator.enabled() && !validator.ValidateNsmNqe(nqe)) {
    // Defense in depth on the NSM side of the boundary: an op byte that is
    // not a legal NSM->guest verb never reaches a guest ring.
    ++stats_.nqes_dropped;
    recorder_.Record(obs::FlightEventType::kGuardReject, nqe.vm_id, nqe.queue_set, nqe.op,
                     nqe.vm_sock, static_cast<uint64_t>(guard::Verdict::kBadOp));
    return true;  // consume it
  }
  CoreEngine::VmReg* reg = engine_->FindVm(nqe.vm_id);
  if (reg == nullptr || reg->dev == nullptr) {
    // VM gone: nothing to deliver to, but the loss must still be visible.
    ++stats_.nqes_dropped;
    ++per_vm_[nqe.vm_id].dropped;
    return true;  // consume it
  }
  // Backpressure toward the NSM: the VM device's pending queue is at the
  // bound, so the NQE stays in the NSM ring (kRecvData chunks and their
  // receive credits are never lost to switch overload).
  if (Backpressured(reg->dev)) return false;

  auto op = nqe.Op();
  // Fig 6 step 4: the NSM's first response for a connection carries the NSM
  // socket id in op_data; complete the table entry. The entry lives in the
  // shard owning the connection's VM queue set, which may not be the shard
  // polling this NSM queue set — the facade routes the handoff.
  if (op == NqeOp::kOpResult &&
      static_cast<NqeOp>(nqe.reserved[0]) == NqeOp::kSocket) {
    engine_->CompleteConnHandshake(nqe, cost);
  }

  Delivery d;
  d.dst = reg->dev;
  d.qset = nqe.queue_set;
  if (d.qset >= reg->dev->num_queue_sets()) d.qset = 0;
  d.ring = shm::OpRides(op, shm::RingKind::kReceive) ? shm::RingKind::kReceive
                                                      : shm::RingKind::kCompletion;
  d.toward_vm = true;
  d.nqe = nqe;
  PlanDelivery(d, plan);
  if (validator.enabled() &&
      (op == NqeOp::kDgramRecv || op == NqeOp::kDgramRecvZc)) {
    // Feed the datagram credit ledger: this much receive credit may later
    // legitimately come back from the guest via kRecvFrom.
    validator.OnDgramDelivered(nqe.vm_id, nqe.size);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Failure path: error completions instead of silent loss
// ---------------------------------------------------------------------------

bool CoreEngineShard::BuildErrorCompletion(const Nqe& orig, Delivery* out) {
  // Close, accept and recvfrom hold no reclaimable guest state and no guest
  // thread waits on them, so the drop counter is the whole story; a non-op
  // byte off a hostile ring has no row at all and falls out harmlessly.
  if (!shm::BuildErrorCompletion(orig, orig.vm_id, kCeNetUnreach, &out->nqe)) return false;
  CoreEngine::VmReg* reg = engine_->FindVm(orig.vm_id);
  if (reg == nullptr || reg->dev == nullptr) return false;
  out->dst = reg->dev;
  out->qset = orig.queue_set < out->dst->num_queue_sets() ? orig.queue_set : 0;
  out->ring = shm::RingKind::kCompletion;
  out->toward_vm = true;
  return true;
}

bool CoreEngineShard::FailVmNqe(const Nqe& orig, std::vector<Delivery>& plan) {
  ++stats_.nqes_dropped;
  ++per_vm_[orig.vm_id].dropped;
  recorder_.Record(obs::FlightEventType::kErrorCompletion, orig.vm_id, orig.queue_set,
                   orig.op, orig.vm_sock,
                   static_cast<uint64_t>(static_cast<uint32_t>(kCeNetUnreach)));
  Delivery d;
  if (BuildErrorCompletion(orig, &d)) PlanDelivery(d, plan);
  return true;
}

bool CoreEngineShard::Backpressured(shm::NkDevice* dev) const {
  size_t outstanding = 0;
  if (parked_total_ > 0) {
    auto pit = parked_.find(dev);
    if (pit != parked_.end()) outstanding += pit->second.size();
  }
  for (const auto& [d, n] : in_flight_) {
    if (d == dev) {
      outstanding += n;
      break;
    }
  }
  return outstanding >= engine_->config_.pending_bound;
}

void CoreEngineShard::CountInFlight(shm::NkDevice* dev) {
  ++in_flight_total_;
  for (auto& [d, n] : in_flight_) {
    if (d == dev) {
      ++n;
      return;
    }
  }
  in_flight_.emplace_back(dev, 1);
}

void CoreEngineShard::PlanDelivery(const Delivery& d, std::vector<Delivery>& plan) {
  CountInFlight(d.dst);
  plan.push_back(d);
}

bool CoreEngineShard::BehindPark(shm::NkDevice* dev) const {
  if (parked_total_ == 0) return false;
  auto pit = parked_.find(dev);
  return pit != parked_.end() && !pit->second.empty();
}

void CoreEngineShard::ProcessRound() {
  retry_timer_.Cancel();

  const CoreEngineConfig& config = engine_->config_;
  std::vector<Delivery>& plan = plan_;
  plan.clear();
  Cycles cost = 0;
  SimTime retry_at = kSimTimeNever;
  uint64_t total = 0;
  const int batch = config.batch;
  const uint64_t base_quantum = static_cast<uint64_t>(batch);
  Nqe nqe;

  // Poll the owned VM queue sets with weighted deficit round robin (fair
  // sharing, §4.4): each round a VM earns quantum * weight NQEs of service.
  // Spending is interleaved in weight-sized chunks across multiple passes, so
  // when the destination backpressures mid-round, the capacity that WAS
  // available was consumed in proportion to the weights — a single greedy
  // pass would hand it all to whichever VM happened to be polled first. The
  // starting VM rotates across rounds, so no registrant keeps a head-of-line
  // edge.
  const size_t nvm = vm_rr_order_.size();
  std::vector<DrrSlot>& order = drr_order_;
  order.assign(nvm, DrrSlot{});
  for (size_t i = 0; i < nvm; ++i) {
    uint8_t vm_id = vm_rr_order_[(vm_rr_cursor_ + i) % nvm];
    VmSched& vs = sched_[vm_id];
    const uint64_t weight = engine_->VmWeightOrDefault(vm_id);
    const uint64_t quantum = base_quantum * weight;
    // Carry at most one round of unspent deficit: enough to smooth over a
    // throttled round, not enough to let an idle VM hoard a burst.
    vs.deficit = std::min(vs.deficit + quantum, 2 * quantum);
    order[i].vm_id = vm_id;
    order[i].vs = &vs;
    order[i].weight = weight;
  }
  for (bool progress = true; progress;) {
    progress = false;
    for (DrrSlot& s : order) {
      if ((s.send_blocked && s.job_blocked) || s.taken >= s.vs->deficit) continue;
      uint64_t chunk = std::min<uint64_t>(s.weight, s.vs->deficit - s.taken);
      uint64_t got = PollVm(s.vm_id, *s.vs, chunk, plan, cost, &retry_at, &s.send_blocked,
                            &s.job_blocked);
      s.taken += got;
      if (got > 0) progress = true;
    }
  }
  for (DrrSlot& s : order) {
    if (s.taken > 0) {
      s.vs->deficit -= s.taken;
      cost += config.costs.CePerNqe(static_cast<int>(s.taken)) *
              static_cast<Cycles>(s.taken);
      total += s.taken;
    }
    // Classic DRR: an emptied queue forfeits its remaining deficit.
    if (!OwnedVmHasOutbound(s.vm_id, *s.vs)) s.vs->deficit = 0;
  }
  if (nvm > 0) vm_rr_cursor_ = (vm_rr_cursor_ + 1) % nvm;

  // Poll the owned NSM queue sets, rotating the starting NSM for the same
  // reason.
  const size_t nnsm = nsm_rr_order_.size();
  for (size_t i = 0; i < nnsm; ++i) {
    uint8_t nsm_id = nsm_rr_order_[(nsm_rr_cursor_ + i) % nnsm];
    shm::NkDevice* dev = engine_->FindNsm(nsm_id);
    if (dev == nullptr) continue;
    for (uint8_t qsi : nsm_qsets_[nsm_id]) {
      if (static_cast<int>(qsi) >= dev->num_queue_sets()) continue;
      shm::QueueSet& q = dev->queue_set(qsi);
      int n = 0;
      while (n < batch && q.completion.Peek(&nqe)) {
        if (!RouteNsmNqe(nqe, plan, cost)) break;
        q.completion.TryDequeue(&nqe);
        ++n;
      }
      while (n < 2 * batch && q.receive.Peek(&nqe)) {
        if (!RouteNsmNqe(nqe, plan, cost)) break;
        q.receive.TryDequeue(&nqe);
        ++n;
      }
      if (n > 0) {
        cost += config.costs.CePerNqe(n) * static_cast<Cycles>(n);
        total += static_cast<uint64_t>(n);
      }
    }
  }
  if (nnsm > 0) nsm_rr_cursor_ = (nsm_rr_cursor_ + 1) % nnsm;

  if (total == 0 && plan.empty()) {
    // The shard goes idle: the next doorbell or retry starts a round.
    round_active_ = false;
    // No new work this round, but parked deliveries may now fit — retry
    // them directly (the busy-polling CE's next spin would).
    if (parked_total_ > 0) DeliverPlan({});
    // Round boundary: safe point for handoffs. A fully backpressured shard
    // still reaches here, so its backlog can be rebalanced even when it
    // cannot switch a single NQE.
    ExecutePendingHandoffs();
    engine_->MaybeRebalance(this);
    if (retry_at != kSimTimeNever) {
      retry_timer_ = engine_->loop_->Schedule(retry_at, [this] { ScheduleRound(); });
    }
    return;
  }

  ++stats_.rounds;
  stats_.nqes_switched += total;

  // No throttle retry is armed here: the completion below polls again, and
  // its round re-arms one if the bucket still holds NQEs back. plan_ stays
  // untouched until then: no other round starts while this one is charged.
  core_->Charge(cost, [this] {
    DeliverPlan(plan_);
    // This round's plan was the only one in flight, so its deliveries have
    // all landed, parked or dropped: the queue set can move now.
    ExecutePendingHandoffs();
    engine_->MaybeRebalance(this);
    ProcessRound();  // the busy-polling core's next spin
  });
}

// ---------------------------------------------------------------------------
// Delivery: destination rings, backpressure park, doorbells
// ---------------------------------------------------------------------------

bool CoreEngineShard::TryDeliver(const Delivery& d, std::vector<shm::NkDevice*>& to_wake) {
  if (!d.dst->queue_set(d.qset).ring(d.ring).TryEnqueue(d.nqe)) return false;
  PerVmStats& pv = per_vm_[d.nqe.vm_id];
  ++pv.switched;
  // Only chunk-carrying ops count as payload: kFinReceived also rides the
  // receive ring but encodes a negative errno in `size`, which would add
  // ~4 GB of phantom bytes per error FIN.
  const shm::OpTraits* traits = shm::FindOpTraits(d.nqe.op);
  if (traits != nullptr && traits->carries_chunk) pv.bytes += d.nqe.size;
  if (std::find(to_wake.begin(), to_wake.end(), d.dst) == to_wake.end()) {
    to_wake.push_back(d.dst);
  }
  return true;
}

void CoreEngineShard::DropDelivery(const Delivery& d, std::vector<Delivery>& errors) {
  ++stats_.nqes_dropped;
  ++per_vm_[d.nqe.vm_id].dropped;
  recorder_.Record(obs::FlightEventType::kDrop, d.nqe.vm_id, d.nqe.queue_set, d.nqe.op,
                   d.nqe.vm_sock, d.toward_vm ? 1 : 0);
  if (d.toward_vm) return;  // nothing to unwind guest-side from here
  // A VM->NSM NQE died inside the switch: the guest still holds its state
  // (send credit, hugepage chunk, a thread waiting on the control op).
  Delivery err;
  if (BuildErrorCompletion(d.nqe, &err)) errors.push_back(err);
}

void CoreEngineShard::ParkOrDrop(const Delivery& d, std::vector<Delivery>& errors) {
  std::deque<Delivery>& dq = parked_[d.dst];
  if (dq.size() >= engine_->config_.pending_bound) {
    DropDelivery(d, errors);
    return;
  }
  dq.push_back(d);
  ++parked_total_;
  ++stats_.deliveries_deferred;
  ++per_vm_[d.nqe.vm_id].deferred;
  recorder_.Record(obs::FlightEventType::kPark, d.nqe.vm_id, d.nqe.queue_set, d.nqe.op,
                   d.nqe.vm_sock, dq.size());
}

bool CoreEngineShard::PeekParkedVm(shm::NkDevice* dev, uint8_t* vm_id) const {
  auto it = parked_.find(dev);
  if (it == parked_.end() || it->second.empty()) return false;
  *vm_id = it->second.front().nqe.vm_id;
  return true;
}

bool CoreEngineShard::TryDeliverParkedFront(shm::NkDevice* dev,
                                            std::vector<shm::NkDevice*>& to_wake) {
  auto it = parked_.find(dev);
  if (it == parked_.end() || it->second.empty()) return false;
  if (!TryDeliver(it->second.front(), to_wake)) return false;
  it->second.pop_front();
  --parked_total_;
  if (it->second.empty()) parked_.erase(it);
  return true;
}

size_t CoreEngineShard::DeliverPlan(const std::vector<Delivery>& plan) {
  // These deliveries are no longer "in flight": from here each one either
  // lands in a ring, parks, or drops — all of which Backpressured() sees.
  // Every caller counts its entries through PlanDelivery (rounds and
  // deregistration FINs) or manually (PurgePark's synthesized errors), so
  // the decrement is exact — AssignQueueSetToShard's handoff gate relies on
  // that. The map lookup stays defensive against future uncounted plans.
  for (const Delivery& d : plan) {
    for (size_t i = 0; i < in_flight_.size(); ++i) {
      if (in_flight_[i].first != d.dst) continue;
      --in_flight_total_;
      if (--in_flight_[i].second == 0) {
        in_flight_[i] = in_flight_.back();
        in_flight_.pop_back();
      }
      break;
    }
  }

  std::vector<shm::NkDevice*>& to_wake = to_wake_;
  to_wake.clear();
  size_t delivered = 0;

  // Parked deliveries go first: they are older than anything in the plan,
  // and draining them FIFO preserves per-ring NQE order across stalls. The
  // drain goes through the facade so a destination contended by several
  // shards is shared by VM weight, not by whoever retries first.
  if (parked_total_ > 0) {
    std::vector<shm::NkDevice*> devs;
    devs.reserve(parked_.size());
    for (const auto& [dev, dq] : parked_) devs.push_back(dev);
    for (shm::NkDevice* dev : devs) delivered += engine_->DrainParked(dev, to_wake);
  }

  std::vector<Delivery> errors;
  for (const Delivery& d : plan) {
    // The NSM was deregistered while this plan's cost was being charged (an
    // explicit kill or a failover): its driver has drained its rings and
    // ignores later wakes, so the NQE unwinds as a purged park would.
    if (!d.toward_vm && engine_->FindNsm(d.nsm_id) != d.dst) {
      DropDelivery(d, errors);
      continue;
    }
    // Anything already parked for this device must stay ahead of d, or the
    // destination would observe reordered NQEs.
    if (!BehindPark(d.dst) && TryDeliver(d, to_wake)) {
      ++delivered;
      continue;
    }
    ParkOrDrop(d, errors);
  }

  // Error completions synthesized for dropped deliveries. They bypass the
  // bound: each one exists because an NQE was already dropped, so their
  // count is bounded by the drops themselves.
  for (const Delivery& e : errors) {
    if (!BehindPark(e.dst) && TryDeliver(e, to_wake)) {
      ++delivered;
      continue;
    }
    parked_[e.dst].push_back(e);
    ++parked_total_;
    ++stats_.deliveries_deferred;
    ++per_vm_[e.nqe.vm_id].deferred;
    recorder_.Record(obs::FlightEventType::kDeferredDelivery, e.nqe.vm_id,
                     e.nqe.queue_set, e.nqe.op, e.nqe.vm_sock);
  }

  // Wake callbacks only queue work on the loop, so none re-enters this
  // shard's delivery phase while the list is walked.
  for (shm::NkDevice* dev : to_wake) dev->Wake();
  if (parked_total_ > 0) ArmParkRetry();
  return delivered;
}

void CoreEngineShard::ArmParkRetry() {
  if (park_timer_.Pending()) return;
  // The real CE busy-polls; 5 us approximates its next useful spin at the
  // simulator's granularity without melting the event loop.
  park_timer_ = engine_->loop_->ScheduleAfter(5 * kMicrosecond, [this] {
    if (parked_total_ > 0) DeliverPlan({});
    ScheduleRound();
  });
}

void CoreEngineShard::PurgePark(shm::NkDevice* dev, bool synthesize_errors) {
  auto it = parked_.find(dev);
  if (it == parked_.end()) return;
  std::vector<Delivery> errors;
  for (const Delivery& d : it->second) {
    --parked_total_;
    DropDelivery(d, errors);
  }
  parked_.erase(it);
  if (synthesize_errors && !errors.empty()) {
    // Balance DeliverPlan's in-flight decrement for these synthesized
    // completions so the counts of a round being charged stay exact.
    for (const Delivery& e : errors) CountInFlight(e.dst);
    DeliverPlan(errors);
  }
}

}  // namespace netkernel::core
