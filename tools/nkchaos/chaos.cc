// Copyright (c) NetKernel reproduction authors.

#include "tools/nkchaos/chaos.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace netkernel::chaos {

using core::Host;
using core::NkBuf;
using core::NsmKind;
using core::SocketApi;
using core::Vm;
using shm::Nqe;
using shm::NqeOp;

// ---- checker --------------------------------------------------------------

namespace {

std::vector<std::string> Check(const Ledger& l) {
  std::vector<std::string> bad;
  auto fail = [&bad](std::string msg) { bad.push_back(std::move(msg)); };
  auto num = [](uint64_t v) { return std::to_string(v); };
  // Credit pairing: every real zc send retires exactly once, plus the
  // expected phantoms. Teardowns and ring-full drops only ever lose answers.
  auto pair = [&](const std::string& what, uint64_t sends, uint64_t phantoms,
                  uint64_t completions) {
    if (!l.disturbed && sends + phantoms != completions) {
      fail(what + " credit imbalance: " + num(sends) + " sends + " + num(phantoms) +
           " expected phantoms vs " + num(completions) + " completions");
    }
    if (l.disturbed && completions > sends + phantoms) {
      fail(what + " phantom completions: " + num(completions) + " completions for " +
           num(sends) + " sends + " + num(phantoms) + " expected phantoms");
    }
  };

  // Chunk conservation and credit pairing per VM; mutations land on vms[0].
  auto check_vm = [&](const VmLedger& v, uint64_t phantom_zc, uint64_t phantom_dgram_zc) {
    if (v.pool_in_use != 0) {
      fail(v.name + ": pool not empty: " + num(v.pool_in_use) + " bytes leaked");
    }
    if (v.pool_allocs != v.pool_frees) {
      fail(v.name + ": alloc/free imbalance: " + num(v.pool_allocs) + " allocs vs " +
           num(v.pool_frees) + " frees");
    }
    pair(v.name + ": stream zc", v.zc_sends, phantom_zc, v.zc_completions);
    pair(v.name + ": dgram zc", v.dgram_zc_sends, phantom_dgram_zc, v.dgram_zc_completions);
  };
  for (size_t i = 0; i < l.vms.size(); ++i) {
    check_vm(l.vms[i], i == 0 ? l.phantom_zc : 0, i == 0 ? l.phantom_dgram_zc : 0);
  }

  // Guard accounting: every landed violation rejected, nothing legitimate
  // rejected. Under a tripped quarantine the drain consumes attacks without
  // rejecting them, so equality widens to an interval.
  const guard::GuardStats& g = l.guard;
  if (l.guard_policy != guard::GuardPolicy::kQuarantine) {
    if (g.rejects != l.injected_invalid) {
      fail("guard rejects " + num(g.rejects) + " != injected violations " +
           num(l.injected_invalid));
    }
  } else {
    if (g.rejects > l.injected_invalid) {
      fail("guard over-rejected: " + num(g.rejects) + " rejects for " +
           num(l.injected_invalid) + " injected violations");
    }
    if (g.rejects + g.quarantine_drops < l.injected_invalid) {
      fail("attacks vanished unaccounted: " + num(g.rejects) + " rejects + " +
           num(g.quarantine_drops) + " drops < " + num(l.injected_invalid) +
           " injected violations");
    }
  }
  if (g.flags_scrubbed < l.injected_scrub) {
    fail("flag scrubs " + num(g.flags_scrubbed) + " < flag-seeded injections " +
         num(l.injected_scrub));
  }

  // The controller never fails over a healthy NSM (heartbeats ride the
  // control path, so ring backpressure cannot silence them), and every
  // failover re-homes every VM the NSM served.
  if (l.controller_on && !l.nsm_wedged && !l.nsm_killed && l.failovers != 0) {
    fail("spurious failover: " + num(l.failovers) + " failovers of a healthy NSM");
  }
  if (l.vms_rehomed != l.failovers * l.vms.size()) {
    fail(num(l.vms_rehomed) + " VMs re-homed by " + num(l.failovers) + " failovers of " +
         num(l.vms.size()) + " VMs");
  }

  bad.insert(bad.end(), l.failures.begin(), l.failures.end());
  return bad;
}

}  // namespace

std::string Report(const SweepSpec& spec, uint64_t seed, const Ledger& l) {
  const std::vector<std::string> bad = Check(l);
  if (bad.empty()) return {};
  const std::string s = std::to_string(seed);
  std::string out = std::string(spec.name) + ": seed " + s + " FAILED; replay with " +
                    spec.env + "_SEED=" + s + "\n";
  for (const std::string& line : bad) out.append("  ").append(line).append("\n");
  return out + "datapath flight-recorder tail:\n" + l.flight_tail + "\n";
}

// ---- topology -------------------------------------------------------------

Topology::Topology(const TopologySpec& spec) {
  Host::Options opts;
  opts.ce.shards = 2;
  opts.ce.guard = spec.guard;
  if (spec.pending_bound > 0) opts.ce.pending_bound = spec.pending_bound;
  if (spec.kind == NsmKind::kShm) {
    host_ = std::make_unique<Host>(&loop_, &fabric_, "host", opts);
    nsm_ = host_->CreateNsm("shm", 2, spec.kind);
    vms_ = {host_->CreateNetkernelVm("a", 2, nsm_), host_->CreateNetkernelVm("b", 2, nsm_)};
  } else {
    host_ = std::make_unique<Host>(&loop_, &fabric_, "hostA", opts);
    remote_ = std::make_unique<Host>(&loop_, &fabric_, "hostB");
    nsm_ = host_->CreateNsm("nsm", 2, spec.kind);
    vms_ = {host_->CreateNetkernelVm("nk", 2, nsm_)};
    peer_ = remote_->CreateBaselineVm("peer", 2);
  }
  fds_.resize(vms_.size());
  if (spec.standbys) {
    // Both standbys exist before the controller starts, so both heartbeat
    // from t0.
    spares.push_back(host_->CreateNsm("spare1", 2, spec.kind));
    host_->SetStandbyNsm(host_->CreateNsm("spare0", 2, spec.kind));
    host_->StartFailoverController();
  }
}

void Topology::CloseAllAndSettle() {
  for (size_t i = 0; i < vms_.size(); ++i) sim::Spawn(CloseAll(vms_[i], &fds_[i]));
  loop_.Run(loop_.Now() + kSettle);
}

void Topology::Record(Ledger* l) {
  for (Vm* vm : vms_) {
    VmLedger v;
    v.name = vm->name();
    v.pool_in_use = vm->pool()->bytes_in_use();
    v.pool_allocs = vm->pool()->allocs();
    v.pool_frees = vm->pool()->frees();
    v.zc_sends = vm->guestlib()->zc_sends();
    v.zc_completions = vm->guestlib()->zc_completions();
    v.dgram_zc_sends = vm->guestlib()->dgram_zc_sends();
    v.dgram_zc_completions = vm->guestlib()->dgram_zc_completions();
    l->vms.push_back(v);
  }
  l->bytes_copied = nsm_->servicelib()->bytes_copied();
  l->guard = host_->ce().validator().stats();
  l->flight_tail = host_->DumpFlightRecorder(32);
}

// ---- traffic --------------------------------------------------------------

sim::Task<void> ZcStreamSender(Vm* vm, netsim::IpAddr dst, uint16_t port, uint64_t budget,
                               std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (fd < 0) co_return;
  fds->push_back(fd);
  if (0 != co_await api.Connect(cpu, fd, dst, port)) co_return;
  uint64_t sent = 0;
  while (sent < budget) {
    NkBuf loan;
    if (0 != co_await api.AcquireTxBuf(cpu, fd, 8192, &loan)) break;
    loan.size = loan.capacity;
    std::memset(loan.data, 0x5a, loan.size);
    int64_t n = co_await api.SendBuf(cpu, fd, loan);
    if (n <= 0) break;
    sent += static_cast<uint64_t>(n);
  }
}

sim::Task<void> ZcStreamSink(Vm* vm, uint16_t port, std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(vm->num_vcpus() - 1);
  int lfd = co_await api.Socket(cpu);
  if (lfd < 0) co_return;
  fds->push_back(lfd);
  if (0 != co_await api.Bind(cpu, lfd, 0, port)) co_return;
  if (0 != co_await api.Listen(cpu, lfd, 16, false)) co_return;
  int fd = co_await api.Accept(cpu, lfd);
  if (fd < 0) co_return;
  fds->push_back(fd);
  for (;;) {
    NkBuf loan;
    int64_t n = co_await api.RecvBuf(cpu, fd, &loan);
    if (n <= 0) break;
    if (0 != co_await api.ReleaseBuf(cpu, fd, loan)) break;
  }
}

sim::Task<void> CopyStreamSender(Vm* vm, netsim::IpAddr dst, uint16_t port, uint64_t budget,
                                 std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (fd < 0) co_return;
  fds->push_back(fd);
  if (0 != co_await api.Connect(cpu, fd, dst, port)) co_return;
  std::vector<uint8_t> msg(8192, 0x3c);
  for (uint64_t sent = 0; sent < budget;) {
    int64_t n = co_await api.Send(cpu, fd, msg.data(), msg.size());
    if (n <= 0) break;
    sent += static_cast<uint64_t>(n);
  }
}

sim::Task<void> ZcDgramClient(Vm* vm, netsim::IpAddr dst, uint16_t port, int count,
                              std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  if (fd < 0) co_return;
  fds->push_back(fd);
  for (int i = 0; i < count; ++i) {
    NkBuf loan;
    if (0 != co_await api.AcquireTxBuf(cpu, fd, 1500, &loan)) break;
    loan.size = std::min<uint32_t>(loan.capacity, 1500);
    std::memset(loan.data, 0x6c, loan.size);
    if (co_await api.SendToBuf(cpu, fd, dst, port, loan) <= 0) break;
    NkBuf back;
    int64_t r = co_await api.RecvFromBuf(cpu, fd, &back, nullptr, nullptr);
    if (r < 0) break;
    if (0 != co_await api.ReleaseBuf(cpu, fd, back)) break;
  }
}

sim::Task<void> DgramEchoServer(Vm* vm, uint16_t port) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  if (fd < 0) co_return;
  if (0 != co_await api.Bind(cpu, fd, 0, port)) co_return;
  std::vector<uint8_t> buf(4096);
  for (;;) {
    netsim::IpAddr ip = 0;
    uint16_t p = 0;
    int64_t r = co_await api.RecvFrom(cpu, fd, buf.data(), buf.size(), &ip, &p);
    if (r < 0) co_return;
    co_await api.SendTo(cpu, fd, ip, p, buf.data(), static_cast<uint64_t>(r));
  }
}

sim::Task<void> CloseAll(Vm* vm, std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  for (size_t i = fds->size(); i > 0; --i) {
    co_await api.Close(cpu, (*fds)[i - 1]);
  }
}

void StartColocatedTraffic(Topology& topo) {
  Vm* a = topo.vm(0);
  Vm* b = topo.vm(1);
  sim::Spawn(ZcStreamSink(b, 9000, topo.fds(1)));
  sim::Spawn(ZcStreamSink(a, 9001, topo.fds(0)));
  sim::Spawn(ZcStreamSender(a, b->ip(), 9000, 32 * kMiB, topo.fds(0)));
  sim::Spawn(CopyStreamSender(b, a->ip(), 9001, 4 * kMiB, topo.fds(1)));
}

// ---- fault actions ----------------------------------------------------------

void KillNsm(Host& host, core::Nsm* nsm) {
  host.ce().DeregisterNsmDevice(nsm->id());
  nsm->servicelib()->Shutdown();
}

void WedgeCurrentNsm(Topology& topo, Vm* vm) {
  Host& host = topo.host();
  if (host.standby_nsm() == nullptr && !topo.spares.empty()) {
    host.SetStandbyNsm(topo.spares.back());
    topo.spares.pop_back();
  }
  vm->nsm()->servicelib()->Wedge();
}

void MigrateQueueSet(Host& host, Vm* vm, Rng& r) {
  host.ce().AssignQueueSetToShard(vm->id(), static_cast<uint8_t>(r.NextBounded(2)),
                                  static_cast<int>(r.NextBounded(2)));
}

bool StopControllerAndCleanUp(Topology& topo, Vm* vm, Ledger* l) {
  Host& host = topo.host();
  host.StopFailoverController();
  l->controller_on = true;
  l->failovers = host.failover_stats().nsm_failovers;
  l->vms_rehomed = host.failover_stats().vms_rehomed;
  core::Nsm* cur = vm->nsm();
  if (!cur->servicelib()->wedged()) return false;
  KillNsm(host, cur);
  return true;
}

// ---- mutation plan ----------------------------------------------------------

namespace {

// vm_sock handles for injected NQEs live far above anything the guest
// allocates, so a synthesized error completion can never retire a real
// in-flight request.
constexpr uint32_t kFuzzSockBase = 0x7fffff00u;

template <size_t N>
NqeOp Pick(Rng& r, const NqeOp (&ops)[N]) {
  return ops[r.NextBounded(N)];
}

// One seeded attack against the VM's guest-writable rings. Counts what it
// landed into the ledger so the checker can demand exact guard accounting.
void InjectMutation(Host& host, Vm* nk, uint64_t mseed, int k, Ledger* res) {
  Rng r(mseed);
  shm::NkDevice* dev = nk->dev();
  const uint8_t qsi =
      static_cast<uint8_t>(r.NextBounded(static_cast<uint64_t>(dev->num_queue_sets())));
  shm::QueueSet& q = dev->queue_set(qsi);
  const uint32_t sock = kFuzzSockBase + static_cast<uint32_t>(k);
  const bool drop_policy = res->guard_policy == guard::GuardPolicy::kDrop;

  uint64_t category = r.NextBounded(9);
  // kDrop rejects silently — an oversized live send's chunk would never come
  // back (no reclaim completion), so the in-place mutation cannot keep the
  // pool conserved under that policy. Remap it to a chunk forgery instead.
  if (category == 8 && drop_policy) category = 3;
  if (category == 8) {
    // In-place mutation of a live NQE: corrupt a legitimate in-flight send's
    // size field past its chunk's capacity, replaying the ring in order.
    // The kBadChunk reject hands the chunk back (unconsumed flag), so this
    // is the one live mutation that keeps conservation assertable.
    std::vector<Nqe> drained;
    Nqe e;
    while (q.send.TryDequeue(&e)) drained.push_back(e);
    std::vector<size_t> candidates;
    for (size_t i = 0; i < drained.size(); ++i) {
      if (!guard::CarriesGuestChunk(drained[i].Op())) continue;
      if (!nk->pool()->IsAllocated(drained[i].data_ptr)) continue;
      // Skip entries a previous mutation already oversized — they owe
      // exactly one reject, not one per mutation pass.
      if (drained[i].size > nk->pool()->ChunkCapacity(drained[i].data_ptr)) continue;
      candidates.push_back(i);
    }
    if (!candidates.empty()) {
      Nqe& victim = drained[candidates[r.NextBounded(candidates.size())]];
      victim.size = nk->pool()->ChunkCapacity(victim.data_ptr) + 1 +
                    static_cast<uint32_t>(r.NextBounded(4096));
      ++res->injected;
      ++res->injected_invalid;
    }
    for (const Nqe& d : drained) NK_CHECK(q.send.TryEnqueue(d));
    if (!candidates.empty()) host.ce().NotifyVmOutbound(nk->id(), qsi);
    return;
  }

  // Carrier: a benign job op (a zero-byte datagram credit return).
  Nqe nqe = shm::MakeNqe(NqeOp::kRecvFrom, nk->id(), qsi, sock, /*op_data=*/0);
  bool to_send_ring = false;
  bool invalid = true;
  // Rejected zc-send forgeries draw synthesized completions the guest counts
  // against sends it never issued (kSendZcComplete bumps the stream counter
  // regardless of socket; kSendToResult echoing reserved[0]=kSendToZc bumps
  // the datagram one).
  uint64_t phantom_zc = 0;
  uint64_t phantom_dgram_zc = 0;
  switch (category) {
    case 0: {  // NSM-direction op on the job ring
      static constexpr NqeOp kWrongWay[] = {NqeOp::kOpResult, NqeOp::kRecvData,
                                            NqeOp::kSendZcComplete, NqeOp::kAcceptedConn,
                                            NqeOp::kNsmRehomed};
      nqe.SetOp(Pick(r, kWrongWay));
      break;
    }
    case 1: {  // job op (or retired control-plane byte) on the send ring
      static constexpr uint8_t kNotSends[] = {static_cast<uint8_t>(NqeOp::kSocket),
                                              static_cast<uint8_t>(NqeOp::kClose),
                                              static_cast<uint8_t>(NqeOp::kConnect), 66, 65};
      nqe.op = kNotSends[r.NextBounded(sizeof(kNotSends))];
      to_send_ring = true;
      break;
    }
    case 2: {  // non-enumerator op byte (holes in the wire numbering)
      static constexpr uint8_t kHoles[] = {18, 29, 31, 43, 55, 63, 67, 130, 255};
      nqe.op = kHoles[r.NextBounded(sizeof(kHoles))];
      to_send_ring = r.NextBool(0.5);
      break;
    }
    case 3: {  // send op naming a chunk the guest does not own
      static constexpr NqeOp kSends[] = {NqeOp::kSend, NqeOp::kSendZc, NqeOp::kSendTo,
                                         NqeOp::kSendToZc};
      nqe.SetOp(Pick(r, kSends));
      nqe.data_ptr = (1ull << 40) + r.NextBounded(1ull << 20);  // far outside the pool
      nqe.size = 1 + static_cast<uint32_t>(r.NextBounded(8192));
      to_send_ring = true;
      if (!drop_policy) {
        if (nqe.Op() == NqeOp::kSendZc) phantom_zc = 1;
        if (nqe.Op() == NqeOp::kSendToZc) phantom_dgram_zc = 1;
      }
      break;
    }
    case 4:  // forged vm_id (a co-tenant's — or nobody's — identity)
      nqe.vm_id = static_cast<uint8_t>(nk->id() + 1 + r.NextBounded(200));
      break;
    case 5:  // forged queue_set
      nqe.queue_set = static_cast<uint8_t>(qsi + 1 + r.NextBounded(200));
      break;
    case 6:  // datagram credit return far beyond anything delivered
      nqe.SetOp(NqeOp::kRecvFrom);
      nqe.op_data = (1ull << 60) + r.NextBounded(1ull << 20);
      break;
    case 7:  // valid op seeded with garbage infrastructure flag bytes
      nqe.reserved[0] = static_cast<uint8_t>(1 + r.NextBounded(255));
      nqe.reserved[1] = static_cast<uint8_t>(1 + r.NextBounded(255));
      nqe.reserved[2] = static_cast<uint8_t>(1 + r.NextBounded(255));
      invalid = false;
      break;
  }
  shm::SpscRing<Nqe>& ring = to_send_ring ? q.send : q.job;
  if (!ring.TryEnqueue(nqe)) return;  // ring full: the attack never landed
  ++res->injected;
  res->phantom_zc += phantom_zc;
  res->phantom_dgram_zc += phantom_dgram_zc;
  if (invalid) {
    ++res->injected_invalid;
  } else {
    ++res->injected_scrub;
  }
  host.ce().NotifyVmOutbound(nk->id(), qsi);
}

}  // namespace

Ledger RunFuzzIteration(uint64_t seed, NsmKind kind) {
  Rng rng(seed);
  Ledger res;

  // Plan: policy mix (count-heavy so most seeds exercise the full reject
  // accounting; a quarantine slice exercises trip + un-quarantine), optional
  // ring backpressure, and 8..32 attacks inside the chaos window.
  TopologySpec spec;
  spec.kind = kind;
  const uint64_t policy_pick = rng.NextBounded(10);
  if (policy_pick == 7) spec.guard.policy = guard::GuardPolicy::kDrop;
  if (policy_pick >= 8) spec.guard.policy = guard::GuardPolicy::kQuarantine;
  res.guard_policy = spec.guard.policy;
  res.ring_chaos = rng.NextBool(0.25);
  const int attacks = static_cast<int>(8 + rng.NextBounded(25));
  spec.guard.quarantine_threshold = static_cast<uint32_t>(8 + rng.NextBounded(8));
  if (res.ring_chaos) spec.pending_bound = 8 + rng.NextBounded(8);
  Topology topo(spec);
  Vm* target = topo.vm(0);

  apps::StreamStats sink_stats;
  if (kind == NsmKind::kShm) {
    StartColocatedTraffic(topo);
  } else {
    Vm* peer = topo.peer();
    apps::StartStreamSink(peer, 9000, &sink_stats, 1);
    sim::Spawn(ZcStreamSender(target, peer->ip(), 9000, 16 * kMiB, topo.fds(0)));
    sim::Spawn(DgramEchoServer(peer, 5353));
    sim::Spawn(ZcDgramClient(target, peer->ip(), 5353, 1500, topo.fds(0)));
  }

  for (int k = 0; k < attacks; ++k) {
    const SimTime t = (5 + rng.NextBounded(30)) * kMillisecond;
    const uint64_t mseed = seed ^ (0x9e3779b9u * static_cast<uint64_t>(k + 1));
    topo.loop().Schedule(t, [&topo, target, mseed, k, &res] {
      InjectMutation(topo.host(), target, mseed, k, &res);
    });
  }

  topo.RunChaosWindow();
  res.quarantined = target->quarantined();
  if (target->quarantined()) {
    // Operator un-quarantine: downgrade the policy first so attack residue
    // still parked in the rings is rejected-and-counted instead of
    // re-tripping the threshold mid-drain.
    topo.host().ce().validator().set_policy(guard::GuardPolicy::kCount);
    topo.host().UnquarantineVm(target);
  }
  topo.CloseAllAndSettle();
  // Completions can legitimately drop under ring backpressure, and a
  // quarantine round-trip's drain consumes forgeries without answering.
  res.disturbed = res.ring_chaos || res.quarantined;
  topo.Record(&res);
  return res;
}

// ---- sweep ------------------------------------------------------------------

Sweep::Sweep(const SweepSpec& spec, int argc, char** argv)
    : spec_(spec), iters_(spec.default_iters) {
  const std::string env = spec.env;
  if (const char* s = std::getenv((env + "_ITERS").c_str())) {
    iters_ = std::strtoull(s, nullptr, 0);
  }
  if (const char* s = std::getenv((env + "_SEED").c_str())) {
    only_seed_ = std::strtoull(s, nullptr, 0);
    single_ = true;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters_ = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      only_seed_ = std::strtoull(argv[++i], nullptr, 0);
      single_ = true;
    } else {
      usage_error_ = true;
    }
  }
  if (single_) iters_ = 1;
}

void Totals::Add(const Ledger& l) {
  nsm_kills += l.nsm_killed ? 1 : 0;
  ring_chaos_runs += l.ring_chaos ? 1 : 0;
  wedge_runs += l.nsm_wedged ? 1 : 0;
  quarantine_runs += l.quarantined ? 1 : 0;
  controller_runs += l.controller_on ? 1 : 0;
  failovers += l.failovers;
  bytes_copied += l.bytes_copied;
  for (const VmLedger& v : l.vms) {
    zc_sends += v.zc_sends;
    dgram_zc_sends += v.dgram_zc_sends;
  }
  injected += l.injected;
  injected_invalid += l.injected_invalid;
  injected_scrub += l.injected_scrub;
  guard_rejects += l.guard.rejects;
  validating_runs += l.guard.validated > 0 ? 1 : 0;
}

uint64_t Sweep::Run(const std::function<Ledger(uint64_t)>& iteration,
                    const std::function<bool(const std::string&)>& on_failure) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t failed = 0;
  for (uint64_t i = 0; i < iters_; ++i) {
    const uint64_t seed = single_ ? only_seed_ : spec_.base_seed + i;
    const Ledger l = iteration(seed);
    totals_.Add(l);
    const std::string report = Report(spec_, seed, l);
    if (report.empty()) continue;
    ++failed;
    if (!on_failure(report)) break;
  }
  wall_ = std::chrono::steady_clock::now() - start;
  return failed;
}

void Sweep::PrintSummary(const char* fmt, ...) const {
  char line[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(line, sizeof(line), fmt, ap);
  va_end(ap);
  const double ms = std::chrono::duration<double, std::milli>(wall_).count() /
                    static_cast<double>(std::max<unsigned long long>(iters_, 1));
  std::printf("%s\n", line);
  std::fprintf(stderr, "%s: %.1f ms/seed wall\n", spec_.name, ms);
}

}  // namespace netkernel::chaos
