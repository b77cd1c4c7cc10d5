// Copyright (c) NetKernel reproduction authors.
// nkguard suite: NqeValidator admission/verdict unit tests, the guest-flag
// scrub regression, policy semantics, and the full quarantine lifecycle on a
// live two-tenant topology (in-flight chunks reclaimed, co-tenant
// undisturbed, un-quarantine re-registers cleanly).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/core/netkernel.h"
#include "src/guard/nqe_validator.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nqe.h"
#include "tools/nkchaos/chaos.h"

namespace netkernel {
namespace {

using core::Host;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;
using guard::GuardConfig;
using guard::GuardPolicy;
using guard::NqeValidator;
using guard::Verdict;
using shm::HugepagePool;
using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;

// ---- admission tables ---------------------------------------------------

TEST(NkGuard, AdmissionTablesPartitionTheOpSpace) {
  const NqeOp send_ops[] = {NqeOp::kSend, NqeOp::kSendZc, NqeOp::kSendTo, NqeOp::kSendToZc};
  const NqeOp job_ops[] = {NqeOp::kSocket,    NqeOp::kBind,    NqeOp::kListen,
                           NqeOp::kConnect,   NqeOp::kAccept,  NqeOp::kClose,
                           NqeOp::kSocketUdp, NqeOp::kBindUdp, NqeOp::kRecvFrom};
  const NqeOp nsm_ops[] = {NqeOp::kOpResult,     NqeOp::kConnectResult, NqeOp::kAcceptedConn,
                           NqeOp::kSendResult,   NqeOp::kRecvData,      NqeOp::kFinReceived,
                           NqeOp::kSendToResult, NqeOp::kDgramRecv,     NqeOp::kSendZcComplete,
                           NqeOp::kDgramRecvZc,  NqeOp::kNsmRehomed};
  for (NqeOp op : send_ops) {
    EXPECT_TRUE(guard::IsSendRingOp(op));
    EXPECT_FALSE(guard::IsJobRingOp(op));
    EXPECT_FALSE(guard::IsNsmToGuestOp(op));
    EXPECT_TRUE(guard::CarriesGuestChunk(op));
  }
  for (NqeOp op : job_ops) {
    EXPECT_TRUE(guard::IsJobRingOp(op));
    EXPECT_FALSE(guard::IsSendRingOp(op));
    EXPECT_FALSE(guard::IsNsmToGuestOp(op));
    EXPECT_FALSE(guard::CarriesGuestChunk(op));
  }
  for (NqeOp op : nsm_ops) {
    EXPECT_TRUE(guard::IsNsmToGuestOp(op));
    EXPECT_FALSE(guard::IsGuestToNsmOp(op));
  }
  EXPECT_EQ(std::size(send_ops) + std::size(job_ops) + std::size(nsm_ops),
            std::size(shm::kOpTraits));

  // All 256 op bytes: a byte with a kOpTraits row is admitted exactly on its
  // own ring; every other byte — kInvalid, the retired 6-9 and 64-66, every
  // hole — has no row and is refused on both guest rings and the NSM side.
  NqeValidator v;
  for (int b = 0; b < 256; ++b) {
    SCOPED_TRACE(::testing::Message() << "op byte " << b);
    const uint8_t byte = static_cast<uint8_t>(b);
    const NqeOp op = static_cast<NqeOp>(byte);
    const shm::OpTraits* t = shm::FindOpTraits(byte);
    const bool send_ring = t != nullptr && t->ring == shm::RingKind::kSend;
    const bool job_ring = t != nullptr && t->ring == shm::RingKind::kJob;
    const bool to_guest = t != nullptr && !t->ToNsm();
    EXPECT_EQ(guard::IsSendRingOp(op), send_ring);
    EXPECT_EQ(guard::IsJobRingOp(op), job_ring);
    EXPECT_EQ(guard::IsNsmToGuestOp(op), to_guest);
    EXPECT_EQ(guard::CarriesGuestChunk(op), send_ring);
    for (bool from_send_ring : {false, true}) {
      Nqe nqe = MakeNqe(op, 1, 0, 7);
      const bool admitted = from_send_ring ? send_ring : job_ring;
      EXPECT_EQ(v.ValidateGuestNqe(&nqe, from_send_ring, 1, 0),
                admitted ? Verdict::kOk : Verdict::kBadOp);
    }
    EXPECT_EQ(v.ValidateNsmNqe(MakeNqe(op, 1, 0, 7)), to_guest);
    if (t != nullptr) {
      EXPECT_EQ(t->op, op);
      EXPECT_NE(shm::NqeOpName(op), "unknown");
    }
  }
  for (uint8_t retired : {0, 6, 7, 8, 9, 64, 65, 66}) {
    EXPECT_EQ(shm::FindOpTraits(retired), nullptr) << int{retired};
  }
}

// ---- flag scrub (satellite: guests cannot seed infrastructure bytes) ----

TEST(NkGuard, ScrubZeroesGuestWrittenFlagBytesButKeepsTraceId) {
  NqeValidator v;
  Nqe nqe = MakeNqe(NqeOp::kRecvFrom, 1, 0, 7);
  nqe.reserved[0] = 0xaa;  // orig-op echo: infrastructure-owned
  nqe.reserved[1] = 0xbb;  // unconsumed-chunk flag: infrastructure-owned
  nqe.reserved[2] = 0xcc;  // NSM processing qset: infrastructure-owned
  shm::SetNqeTraceId(&nqe, 0xbeef);
  EXPECT_TRUE(v.ScrubGuestFlags(&nqe));
  EXPECT_EQ(nqe.reserved[0], 0);
  EXPECT_EQ(nqe.reserved[1], 0);
  EXPECT_EQ(nqe.reserved[2], 0);
  EXPECT_EQ(shm::NqeTraceId(nqe), 0xbeef) << "trace id must survive the scrub";
  EXPECT_EQ(v.stats().flags_scrubbed, 1u);

  // kListen's reserved[1] carries the reuseport flag — the one legitimate
  // guest use of a flag byte.
  Nqe listen = MakeNqe(NqeOp::kListen, 1, 0, 7);
  listen.reserved[1] = 1;
  EXPECT_FALSE(v.ScrubGuestFlags(&listen));
  EXPECT_EQ(listen.reserved[1], 1) << "reuseport flag must survive";
  EXPECT_EQ(v.stats().flags_scrubbed, 1u);

  // Clean NQEs are not counted as scrubbed.
  Nqe clean = MakeNqe(NqeOp::kClose, 1, 0, 7);
  EXPECT_FALSE(v.ScrubGuestFlags(&clean));
  EXPECT_EQ(v.stats().flags_scrubbed, 1u);
}

// ---- per-verdict validation --------------------------------------------

TEST(NkGuard, RejectsOpsOnTheWrongRing) {
  NqeValidator v;
  Nqe wrong_way = MakeNqe(NqeOp::kOpResult, 1, 0, 7);
  EXPECT_EQ(v.ValidateGuestNqe(&wrong_way, /*from_send_ring=*/false, 1, 0), Verdict::kBadOp);
  Nqe job_on_send = MakeNqe(NqeOp::kSocket, 1, 0, 7);
  EXPECT_EQ(v.ValidateGuestNqe(&job_on_send, /*from_send_ring=*/true, 1, 0), Verdict::kBadOp);
  Nqe hole = MakeNqe(static_cast<NqeOp>(130), 1, 0, 7);
  EXPECT_EQ(v.ValidateGuestNqe(&hole, false, 1, 0), Verdict::kBadOp);
  Nqe ok = MakeNqe(NqeOp::kClose, 1, 0, 7);
  EXPECT_EQ(v.ValidateGuestNqe(&ok, false, 1, 0), Verdict::kOk);
}

TEST(NkGuard, ForgedIdentityIsRejectedAndPinnedToTheDevice) {
  NqeValidator v;
  Nqe forged = MakeNqe(NqeOp::kClose, /*vm_id=*/9, /*queue_set=*/3, 7);
  EXPECT_EQ(v.ValidateGuestNqe(&forged, false, /*dev_vm_id=*/1, /*qset=*/0),
            Verdict::kBadIdentity);
  // Corrected in place: any synthesized completion lands on the real
  // offender's rings, and (vm_id, vm_sock)-keyed tables stay unforgeable.
  EXPECT_EQ(forged.vm_id, 1);
  EXPECT_EQ(forged.queue_set, 0);
}

TEST(NkGuard, RejectsChunksTheGuestDoesNotOwn) {
  NqeValidator v;
  HugepagePool pool(1 * kMiB);
  v.RegisterVmPool(1, &pool);

  Nqe outside = MakeNqe(NqeOp::kSend, 1, 0, 7, 0, /*data_ptr=*/1ull << 40, /*size=*/100);
  EXPECT_EQ(v.ValidateGuestNqe(&outside, true, 1, 0), Verdict::kBadChunk);

  const uint64_t chunk = pool.Alloc(4096);
  ASSERT_NE(chunk, HugepagePool::kInvalidOffset);
  Nqe oversize = MakeNqe(NqeOp::kSendZc, 1, 0, 7, 0, chunk, pool.ChunkCapacity(chunk) + 1);
  EXPECT_EQ(v.ValidateGuestNqe(&oversize, true, 1, 0), Verdict::kBadChunk);

  Nqe good = MakeNqe(NqeOp::kSendZc, 1, 0, 7, 0, chunk, 4096);
  EXPECT_EQ(v.ValidateGuestNqe(&good, true, 1, 0), Verdict::kOk);

  // Inside the region but past the carve point: the header there was never
  // written, and the pool's zero-filled backing reads it as not allocated.
  Nqe uncarved =
      MakeNqe(NqeOp::kSend, 1, 0, 7, 0, /*data_ptr=*/pool.region_bytes() / 2, /*size=*/100);
  EXPECT_EQ(v.ValidateGuestNqe(&uncarved, true, 1, 0), Verdict::kBadChunk);

  pool.Free(chunk);
  Nqe freed = MakeNqe(NqeOp::kSend, 1, 0, 7, 0, chunk, 100);
  EXPECT_EQ(v.ValidateGuestNqe(&freed, true, 1, 0), Verdict::kBadChunk);
}

TEST(NkGuard, ValidationIsPureUntilCommitThenReplayIsRefused) {
  NqeValidator v;
  HugepagePool pool(1 * kMiB);
  v.RegisterVmPool(1, &pool);
  const uint64_t chunk = pool.Alloc(4096);
  ASSERT_NE(chunk, HugepagePool::kInvalidOffset);
  Nqe nqe = MakeNqe(NqeOp::kSendZc, 1, 0, 7, 0, chunk, 4096);

  // A throttled NQE stays ring-resident and is re-validated on later polling
  // rounds — validation must not spend the incarnation.
  EXPECT_EQ(v.ValidateGuestNqe(&nqe, true, 1, 0), Verdict::kOk);
  EXPECT_EQ(v.ValidateGuestNqe(&nqe, true, 1, 0), Verdict::kOk);

  v.CommitGuestNqe(1, nqe);  // the actual dequeue spends it
  EXPECT_EQ(v.ValidateGuestNqe(&nqe, true, 1, 0), Verdict::kReplayedChunk);
  EXPECT_FALSE(v.ChunkReclaimable(1, nqe)) << "consumed incarnation is not the guest's";

  // Free + realloc of the same offset is a fresh incarnation, not a replay.
  pool.Free(chunk);
  const uint64_t again = pool.Alloc(4096);
  ASSERT_EQ(again, chunk) << "size-class free list should hand the chunk back";
  Nqe fresh = MakeNqe(NqeOp::kSendZc, 1, 0, 7, 0, again, 4096);
  EXPECT_EQ(v.ValidateGuestNqe(&fresh, true, 1, 0), Verdict::kOk);
  pool.Free(again);
}

TEST(NkGuard, RefusesDatagramCreditBeyondDelivered) {
  NqeValidator v;
  HugepagePool pool(1 * kMiB);
  v.RegisterVmPool(1, &pool);

  Nqe over = MakeNqe(NqeOp::kRecvFrom, 1, 0, 7, /*op_data=*/1);
  EXPECT_EQ(v.ValidateGuestNqe(&over, false, 1, 0), Verdict::kBadCredit)
      << "no delivery yet: any credit return is forged";

  v.OnDgramDelivered(1, 1500);
  Nqe exact = MakeNqe(NqeOp::kRecvFrom, 1, 0, 7, 1500);
  EXPECT_EQ(v.ValidateGuestNqe(&exact, false, 1, 0), Verdict::kOk);
  v.CommitGuestNqe(1, exact);

  Nqe replay = MakeNqe(NqeOp::kRecvFrom, 1, 0, 7, 1500);
  EXPECT_EQ(v.ValidateGuestNqe(&replay, false, 1, 0), Verdict::kBadCredit)
      << "the commit spent the outstanding credit";
}

// ---- policy semantics ---------------------------------------------------

TEST(NkGuard, QuarantinePolicyTripsAtThresholdExactlyOnce) {
  GuardConfig cfg;
  cfg.policy = GuardPolicy::kQuarantine;
  cfg.quarantine_threshold = 3;
  NqeValidator v(cfg);

  EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadOp));
  EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadChunk));
  EXPECT_TRUE(v.RecordViolation(1, Verdict::kBadOp)) << "third strike trips";
  EXPECT_TRUE(v.IsQuarantined(1));
  EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadOp)) << "already quarantined: no re-trip";
  EXPECT_EQ(v.stats().quarantines, 1u);
  EXPECT_EQ(v.stats().rejects, 4u);
  EXPECT_EQ(v.VmStats(1).bad_op, 3u);
  EXPECT_EQ(v.VmStats(1).bad_chunk, 1u);

  // Un-quarantine resets the strike count: re-quarantine needs fresh
  // evidence, not the stale pre-quarantine tally.
  v.SetQuarantined(1, false);
  EXPECT_FALSE(v.IsQuarantined(1));
  EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadOp));
  EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadOp));
  EXPECT_TRUE(v.RecordViolation(1, Verdict::kBadOp));
  EXPECT_EQ(v.stats().quarantines, 2u);

  // Violations are tracked per VM: a co-tenant's count starts at zero.
  v.SetQuarantined(1, false);
  EXPECT_FALSE(v.RecordViolation(2, Verdict::kBadOp));
  EXPECT_FALSE(v.IsQuarantined(2));
}

TEST(NkGuard, CountAndDropPoliciesNeverQuarantine) {
  for (GuardPolicy p : {GuardPolicy::kCount, GuardPolicy::kDrop}) {
    GuardConfig cfg;
    cfg.policy = p;
    cfg.quarantine_threshold = 1;
    NqeValidator v(cfg);
    for (int i = 0; i < 10; ++i) EXPECT_FALSE(v.RecordViolation(1, Verdict::kBadOp));
    EXPECT_FALSE(v.IsQuarantined(1));
    EXPECT_EQ(v.ShouldSynthesizeError(), p != GuardPolicy::kDrop);
  }
}

// ---- quarantine lifecycle on a live topology ----------------------------

sim::Task<void> DgramProbe(Vm* vm, netsim::IpAddr dst, uint16_t port, bool* echoed) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  if (fd < 0) co_return;
  const uint8_t ping[] = "post-quarantine probe";
  if (co_await api.SendTo(cpu, fd, dst, port, ping, sizeof(ping)) <= 0) {
    co_await api.Close(cpu, fd);
    co_return;
  }
  uint8_t buf[64];
  int64_t r = co_await api.RecvFrom(cpu, fd, buf, sizeof(buf), nullptr, nullptr);
  *echoed = r == sizeof(ping) && 0 == std::memcmp(buf, ping, sizeof(ping));
  co_await api.Close(cpu, fd);
}

TEST(NkGuard, QuarantineReclaimsChunksSparesCoTenantAndUnwindsCleanly) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host::Options opts;
  opts.ce.shards = 2;
  Host host_a(&loop, &fabric, "hostA", opts);
  Host host_b(&loop, &fabric, "hostB");
  Nsm* nsm = host_a.CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* offender = host_a.CreateNetkernelVm("offender", 2, nsm);
  Vm* tenant = host_a.CreateNetkernelVm("tenant", 2, nsm);
  Vm* peer = host_b.CreateBaselineVm("peer", 2);

  auto off_fds = std::make_shared<std::vector<int>>();
  auto ten_fds = std::make_shared<std::vector<int>>();
  apps::StreamStats sink_a, sink_b;
  apps::StartStreamSink(peer, 9000, &sink_a, 1);
  apps::StartStreamSink(peer, 9001, &sink_b, 1);
  sim::Spawn(chaos::ZcStreamSender(offender, peer->ip(), 9000, 64 * kMiB, off_fds.get()));
  sim::Spawn(chaos::ZcStreamSender(tenant, peer->ip(), 9001, 64 * kMiB, ten_fds.get()));
  sim::Spawn(chaos::DgramEchoServer(peer, 5353));

  // Let both streams ramp with chunks genuinely in flight, then pull the
  // offender mid-stream (operator-initiated: policy stays kCount — the
  // threshold path is unit-tested above and fuzz-covered).
  loop.Run(loop.Now() + 10 * kMillisecond);
  ASSERT_GT(offender->pool()->chunks_in_use(), 0u) << "no chunks in flight to reclaim";
  host_a.QuarantineVm(offender);
  EXPECT_TRUE(offender->quarantined());
  EXPECT_TRUE(host_a.ce().validator().IsQuarantined(offender->id()));

  // Give the reclaim completions a beat, then measure the co-tenant over a
  // quarantined window: it must keep switching NQEs, and the offender's
  // datapath must be dark.
  loop.Run(loop.Now() + 5 * kMillisecond);
  const uint64_t tenant_before = host_a.ce().VmStats(tenant->id()).switched;
  const uint64_t offender_before = host_a.ce().VmStats(offender->id()).switched;
  const uint64_t sink_before = sink_b.bytes_received;
  loop.Run(loop.Now() + 20 * kMillisecond);
  EXPECT_GT(host_a.ce().VmStats(tenant->id()).switched, tenant_before)
      << "co-tenant stalled while the offender was quarantined";
  EXPECT_GT(sink_b.bytes_received, sink_before);
  EXPECT_EQ(host_a.ce().VmStats(offender->id()).switched, offender_before)
      << "quarantined VM still moved NQEs through the switch";

  // In-flight chunk reclaim: everything the NSM/CE held for the offender
  // came home. The guest-side loan the sender coroutine holds (acquired but
  // not yet submitted) is legitimately still out, so compare against the
  // device rings being idle rather than demanding zero mid-test.
  EXPECT_EQ(host_a.ce().validator().stats().quarantines, 1u);

  // Un-quarantine: the device re-registers, the NSM re-attaches, and fresh
  // traffic flows — proven by a datagram echo round-trip after recovery.
  host_a.UnquarantineVm(offender);
  EXPECT_FALSE(offender->quarantined());
  EXPECT_FALSE(host_a.ce().validator().IsQuarantined(offender->id()));
  bool echoed = false;
  sim::Spawn(DgramProbe(offender, peer->ip(), 5353, &echoed));
  loop.Run(loop.Now() + 20 * kMillisecond);
  EXPECT_TRUE(echoed) << "un-quarantined VM could not complete a datagram round-trip";

  // Full unwind: close everything and assert PR-5 conservation for both
  // tenants — the quarantine round-trip leaked nothing and double-freed
  // nothing (the pool aborts on double free).
  sim::Spawn(chaos::CloseAll(offender, off_fds.get()));
  sim::Spawn(chaos::CloseAll(tenant, ten_fds.get()));
  loop.Run(loop.Now() + 150 * kMillisecond);
  for (Vm* vm : {offender, tenant}) {
    EXPECT_EQ(vm->pool()->bytes_in_use(), 0u) << vm->name() << " leaked chunks";
    EXPECT_EQ(vm->pool()->allocs(), vm->pool()->frees()) << vm->name();
  }
  EXPECT_EQ(host_a.ce().validator().stats().quarantines, 1u);
}

// An attack still queued when the host quarantines its VM is drained by the
// host's own ring sweep, not by a switching round; the sweep must count it,
// or the chaos checker's rejects + quarantine_drops >= violations fails.
TEST(NkGuard, QuarantineSweepCountsWhatItDrains) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host host(&loop, &fabric, "host");
  Nsm* nsm = host.CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* vm = host.CreateNetkernelVm("vm", 1, nsm);
  // An NSM-direction op on the guest's job ring, with no doorbell.
  ASSERT_TRUE(vm->dev()->queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kRecvData, vm->id(), 0, 7)));
  host.QuarantineVm(vm);
  const guard::GuardStats& g = host.ce().validator().stats();
  EXPECT_EQ(g.rejects + g.quarantine_drops, 1u);
}

}  // namespace
}  // namespace netkernel
