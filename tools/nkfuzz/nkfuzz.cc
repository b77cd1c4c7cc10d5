// Copyright (c) NetKernel reproduction authors.

#include "tools/nkfuzz/nkfuzz.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/netkernel.h"
#include "src/guard/nqe_validator.h"

namespace netkernel::nkfuzz {
namespace {

using core::Host;
using core::NkBuf;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;
using shm::Nqe;
using shm::NqeOp;

// vm_sock handles for injected NQEs live far above anything the guest
// allocates, so a synthesized error completion can never retire a real
// in-flight request.
constexpr uint32_t kFuzzSockBase = 0x7fffff00u;

// ---- workload (the faultinj zc traffic shapes, trimmed) -----------------

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

// ---- mutations ----------------------------------------------------------

template <size_t N>
NqeOp Pick(Rng& r, const NqeOp (&ops)[N]) {
  return ops[r.NextBounded(N)];
}

// One seeded attack against the VM's guest-writable rings. Counts what it
// landed into `res` so the invariants can demand exact guard accounting.
void InjectMutation(Host& host, Vm* nk, uint64_t mseed, int k, FuzzResult* res) {
  Rng r(mseed);
  shm::NkDevice* dev = nk->dev();
  const uint8_t qsi =
      static_cast<uint8_t>(r.NextBounded(static_cast<uint64_t>(dev->num_queue_sets())));
  shm::QueueSet& q = dev->queue_set(qsi);
  const uint32_t sock = kFuzzSockBase + static_cast<uint32_t>(k);

  uint64_t category = r.NextBounded(9);
  // kDrop rejects silently — an oversized live send's chunk would never come
  // back (no reclaim completion), so the in-place mutation cannot keep the
  // pool conserved under that policy. Remap it to a chunk forgery instead.
  if (category == 8 && res->drop_policy) category = 3;
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
  // the datagram one). Tallied here so the pairing invariant carries them.
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
      if (!res->drop_policy) {
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

FuzzResult RunFuzzIteration(uint64_t seed) {
  Rng rng(seed);
  FuzzResult res;

  // Plan: policy mix (count-heavy so most seeds exercise the full reject
  // accounting; a quarantine slice exercises trip + un-quarantine), optional
  // ring backpressure, and 8..32 attacks inside the [5, 35) ms chaos window.
  guard::GuardPolicy policy = guard::GuardPolicy::kCount;
  const uint64_t policy_pick = rng.NextBounded(10);
  if (policy_pick == 7) policy = guard::GuardPolicy::kDrop;
  if (policy_pick >= 8) policy = guard::GuardPolicy::kQuarantine;
  res.drop_policy = policy == guard::GuardPolicy::kDrop;
  res.quarantine_policy = policy == guard::GuardPolicy::kQuarantine;
  const bool tiny_pending = rng.NextBool(0.25);
  res.ring_chaos = tiny_pending;
  const int attacks = static_cast<int>(8 + rng.NextBounded(25));

  Host::ResetIpAllocator();
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host::Options opts;
  opts.ce.shards = 2;
  opts.ce.guard.policy = policy;
  opts.ce.guard.quarantine_threshold = static_cast<uint32_t>(8 + rng.NextBounded(8));
  if (tiny_pending) opts.ce.pending_bound = 8 + rng.NextBounded(8);
  Host host_a(&loop, &fabric, "hostA", opts);
  Host host_b(&loop, &fabric, "hostB");
  Nsm* nsm = host_a.CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* nk = host_a.CreateNetkernelVm("nk", 2, nsm);
  Vm* peer = host_b.CreateBaselineVm("peer", 2);

  auto fds = std::make_shared<std::vector<int>>();
  apps::StreamStats sink_stats;
  apps::StartStreamSink(peer, 9000, &sink_stats, 1);
  sim::Spawn(ZcStreamSender(nk, peer->ip(), 9000, 16 * kMiB, fds.get()));
  sim::Spawn(DgramEchoServer(peer, 5353));
  sim::Spawn(ZcDgramClient(nk, peer->ip(), 5353, 1500, fds.get()));

  for (int k = 0; k < attacks; ++k) {
    const SimTime t = (5 + rng.NextBounded(30)) * kMillisecond;
    const uint64_t mseed = seed ^ (0x9e3779b9u * static_cast<uint64_t>(k + 1));
    loop.Schedule(t, [&host_a, nk, mseed, k, &res] {
      InjectMutation(host_a, nk, mseed, k, &res);
    });
  }

  loop.Run(loop.Now() + 40 * kMillisecond);
  res.vm_quarantined = nk->quarantined();
  if (nk->quarantined()) {
    // Operator un-quarantine: downgrade the policy first so attack residue
    // still parked in the rings is rejected-and-counted instead of
    // re-tripping the threshold mid-drain.
    host_a.ce().validator().set_policy(guard::GuardPolicy::kCount);
    host_a.UnquarantineVm(nk);
  }
  sim::Spawn(CloseAll(nk, fds.get()));
  loop.Run(loop.Now() + 150 * kMillisecond);

  res.pool_in_use = nk->pool()->bytes_in_use();
  res.pool_allocs = nk->pool()->allocs();
  res.pool_frees = nk->pool()->frees();
  res.zc_sends = nk->guestlib()->zc_sends();
  res.zc_completions = nk->guestlib()->zc_completions();
  res.dgram_zc_sends = nk->guestlib()->dgram_zc_sends();
  res.dgram_zc_completions = nk->guestlib()->dgram_zc_completions();
  const guard::GuardStats& gs = host_a.ce().validator().stats();
  res.guard_validated = gs.validated;
  res.guard_rejects = gs.rejects;
  res.guard_quarantine_drops = gs.quarantine_drops;
  res.guard_flags_scrubbed = gs.flags_scrubbed;
  res.flight_tail = host_a.DumpFlightRecorder(32);
  return res;
}

std::vector<std::string> CheckInvariants(const FuzzResult& r) {
  std::vector<std::string> bad;
  auto fail = [&bad](std::string msg) { bad.push_back(std::move(msg)); };
  auto num = [](uint64_t v) { return std::to_string(v); };

  // Chunk conservation: every hugepage chunk freed exactly once (the pool
  // aborts on double free, so empty + balanced IS the exactly-once proof).
  if (r.pool_in_use != 0) fail("pool not empty: " + num(r.pool_in_use) + " bytes leaked");
  if (r.pool_allocs != r.pool_frees) {
    fail("alloc/free imbalance: " + num(r.pool_allocs) + " allocs vs " + num(r.pool_frees) +
         " frees");
  }

  // Credit pairing: every real zc send retires exactly once, plus the
  // expected phantoms (rejected zc forgeries whose synthesized completions
  // the guest cannot tell from a closed socket's late retirement). Exact when
  // completions cannot drop; an inequality under ring backpressure or a
  // quarantine round-trip (the drain consumes forgeries without answering,
  // and the sweep may return chunks pool-directly when the ring is full).
  if (!r.ring_chaos && !r.vm_quarantined) {
    if (r.zc_sends + r.phantom_zc != r.zc_completions) {
      fail("stream zc credit imbalance: " + num(r.zc_sends) + " sends + " +
           num(r.phantom_zc) + " expected phantoms vs " + num(r.zc_completions) +
           " completions");
    }
    if (r.dgram_zc_sends + r.phantom_dgram_zc != r.dgram_zc_completions) {
      fail("dgram zc credit imbalance: " + num(r.dgram_zc_sends) + " sends + " +
           num(r.phantom_dgram_zc) + " expected phantoms vs " +
           num(r.dgram_zc_completions) + " completions");
    }
  } else {
    if (r.zc_completions > r.zc_sends + r.phantom_zc) {
      fail("phantom stream zc completions beyond the expected forgery rejects");
    }
    if (r.dgram_zc_completions > r.dgram_zc_sends + r.phantom_dgram_zc) {
      fail("phantom dgram zc completions beyond the expected forgery rejects");
    }
  }

  // Guard accounting: every landed violation rejected, nothing legitimate
  // rejected. Under a tripped quarantine the drain consumes attacks without
  // rejecting them, so equality widens to an interval.
  if (!r.quarantine_policy) {
    if (r.guard_rejects != r.injected_invalid) {
      fail("guard rejects " + num(r.guard_rejects) + " != injected violations " +
           num(r.injected_invalid));
    }
  } else {
    if (r.guard_rejects > r.injected_invalid) {
      fail("guard over-rejected: " + num(r.guard_rejects) + " rejects for " +
           num(r.injected_invalid) + " injected violations");
    }
    if (r.guard_rejects + r.guard_quarantine_drops < r.injected_invalid) {
      fail("attacks vanished unaccounted: " + num(r.guard_rejects) + " rejects + " +
           num(r.guard_quarantine_drops) + " drops < " + num(r.injected_invalid) +
           " injected violations");
    }
  }
  if (r.guard_flags_scrubbed < r.injected_scrub) {
    fail("flag scrubs " + num(r.guard_flags_scrubbed) + " < flag-seeded injections " +
         num(r.injected_scrub));
  }
  return bad;
}

}  // namespace netkernel::nkfuzz
