// Copyright (c) NetKernel reproduction authors.
// CoreEngine scheduling and overload tests: weighted deficit-round-robin
// fairness under saturation, backpressure parking instead of silent drops,
// error completions that reclaim guest state (send credits, hugepage chunks),
// and NSM deregistration cleanup (table purge + datagram re-homing).
//
// The fairness tests are the §4.4/§7.6 regression: with the old
// registration-order polling loop, the first-registered VM monopolized a
// slow NSM and the others' NQEs were silently dropped at the full ring.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/coreengine.h"
#include "src/core/netkernel.h"
#include "src/shm/nk_device.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"

namespace netkernel::core {
namespace {

using shm::MakeNqe;
using shm::Nqe;
using shm::NkDevice;
using shm::NqeOp;

// ---------------------------------------------------------------------------
// Saturation fairness: two VMs hammer one slow NSM through CoreEngine.
// ---------------------------------------------------------------------------

class SaturationHarness {
 public:
  // `nsm_capacity` keeps the NSM rings shallow so the consumer, not the
  // switch, is the bottleneck; `pending_bound` keeps the park from absorbing
  // the whole backlog, so delivered shares track the DRR schedule.
  SaturationHarness(size_t nsm_capacity = 64, size_t pending_bound = 64)
      : core_(&loop_, "ce"),
        ce_(&loop_, {&core_}, MakeConfig(pending_bound)),
        nsm_dev_("nsm", 1, nsm_capacity),
        vm1_dev_("vm1", 1),
        vm2_dev_("vm2", 1) {
    ce_.RegisterNsmDevice(1, &nsm_dev_);
    ce_.RegisterVmDevice(1, &vm1_dev_);
    ce_.RegisterVmDevice(2, &vm2_dev_);
    ce_.AssignVmToNsm(1, 1);
    ce_.AssignVmToNsm(2, 1);
    // One datagram socket per VM so kSendTo NQEs route by table entry.
    vm1_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 1));
    vm2_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 2, 0, 1));
    ce_.NotifyVmOutbound(1);
    ce_.NotifyVmOutbound(2);
    loop_.Run(loop_.Now() + kMillisecond);
    DrainNsm(nullptr);  // discard the two socket-creation NQEs
  }

  static CoreEngineConfig MakeConfig(size_t pending_bound) {
    CoreEngineConfig c;
    c.pending_bound = pending_bound;
    return c;
  }

  // Tops a VM's send ring up with kSendTo NQEs (saturating offered load).
  void Refill(NkDevice& dev, uint8_t vm_id) {
    auto& ring = dev.queue_set(0).send;
    while (ring.TryEnqueue(MakeNqe(NqeOp::kSendTo, vm_id, 0, 1, 0, 0, 64))) {
    }
    ce_.NotifyVmOutbound(vm_id);
  }

  // Dequeues up to `n` NQEs from the NSM device, tallying by source VM.
  void DrainNsm(std::map<uint8_t, uint64_t>* tally, int n = 1 << 20) {
    Nqe nqe;
    auto& q = nsm_dev_.queue_set(0);
    int taken = 0;
    while (taken < n && (q.send.TryDequeue(&nqe) || q.job.TryDequeue(&nqe))) {
      if (tally != nullptr) ++(*tally)[nqe.vm_id];
      ++taken;
    }
  }

  // Runs the saturated system for `duration`: producers keep both VM rings
  // topped up, a consumer drains the NSM at a slow fixed rate.
  std::map<uint8_t, uint64_t> RunSaturated(SimTime duration) {
    std::map<uint8_t, uint64_t> tally;
    const SimTime end = loop_.Now() + duration;
    for (SimTime t = loop_.Now(); t < end; t += 100 * kMicrosecond) {
      loop_.Schedule(t, [this] {
        Refill(vm1_dev_, 1);
        Refill(vm2_dev_, 2);
      });
    }
    for (SimTime t = loop_.Now(); t < end; t += kMicrosecond) {
      loop_.Schedule(t, [this, &tally] { DrainNsm(&tally, 4); });
    }
    loop_.Run(end);
    return tally;
  }

  sim::EventLoop loop_;
  sim::CpuCore core_;
  CoreEngine ce_;
  NkDevice nsm_dev_;
  NkDevice vm1_dev_;
  NkDevice vm2_dev_;
};

TEST(CeSchedTest, EqualWeightVmsShareSwitchedNqesEqually) {
  SaturationHarness h;
  auto tally = h.RunSaturated(20 * kMillisecond);
  double total = static_cast<double>(tally[1] + tally[2]);
  ASSERT_GT(tally[1], 1000u);
  ASSERT_GT(tally[2], 1000u);
  // Acceptance: 50% +/- 5% each. The pre-fix registration-order loop gave
  // VM1 nearly everything (VM2's deliveries died at the full ring).
  EXPECT_NEAR(static_cast<double>(tally[1]) / total, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(tally[2]) / total, 0.5, 0.05);
  // The switch's own accounting agrees with what the NSM observed.
  PerVmStats s1 = h.ce_.VmStats(1);
  PerVmStats s2 = h.ce_.VmStats(2);
  EXPECT_NEAR(static_cast<double>(s1.switched) / static_cast<double>(s1.switched + s2.switched),
              0.5, 0.05);
}

TEST(CeSchedTest, WeightedVmsSplitTwoToOne) {
  SaturationHarness h;
  h.ce_.SetVmWeight(1, 2);
  auto tally = h.RunSaturated(20 * kMillisecond);
  double total = static_cast<double>(tally[1] + tally[2]);
  ASSERT_GT(tally[1], 1000u);
  ASSERT_GT(tally[2], 1000u);
  // 2:1 split: VM1 should get 66.7% +/- 5%.
  EXPECT_NEAR(static_cast<double>(tally[1]) / total, 2.0 / 3.0, 0.05);
}

TEST(CeSchedTest, RotationSurvivesManyVms) {
  // Five equal VMs on one slow NSM: nobody starves, max/min stays tight.
  sim::EventLoop loop;
  sim::CpuCore core(&loop, "ce");
  CoreEngineConfig cfg;
  cfg.pending_bound = 64;
  CoreEngine ce(&loop, {&core}, cfg);
  NkDevice nsm("nsm", 1, 64);
  ce.RegisterNsmDevice(1, &nsm);
  std::vector<std::unique_ptr<NkDevice>> vms;
  for (uint8_t v = 1; v <= 5; ++v) {
    vms.push_back(std::make_unique<NkDevice>("vm", 1));
    ce.RegisterVmDevice(v, vms.back().get());
    ce.AssignVmToNsm(v, 1);
    vms.back()->queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, v, 0, 1));
    ce.NotifyVmOutbound(v);
  }
  loop.Run(loop.Now() + kMillisecond);
  Nqe nqe;
  while (nsm.queue_set(0).job.TryDequeue(&nqe) || nsm.queue_set(0).send.TryDequeue(&nqe)) {
  }

  std::map<uint8_t, uint64_t> tally;
  const SimTime end = loop.Now() + 20 * kMillisecond;
  for (SimTime t = loop.Now(); t < end; t += 100 * kMicrosecond) {
    loop.Schedule(t, [&] {
      for (uint8_t v = 1; v <= 5; ++v) {
        auto& ring = vms[v - 1]->queue_set(0).send;
        while (ring.TryEnqueue(MakeNqe(NqeOp::kSendTo, v, 0, 1, 0, 0, 64))) {
        }
        ce.NotifyVmOutbound(v);
      }
    });
  }
  for (SimTime t = loop.Now(); t < end; t += kMicrosecond) {
    loop.Schedule(t, [&] {
      auto& q = nsm.queue_set(0);
      Nqe n2;
      for (int i = 0; i < 4 && (q.send.TryDequeue(&n2) || q.job.TryDequeue(&n2)); ++i) {
        ++tally[n2.vm_id];
      }
    });
  }
  loop.Run(end);
  uint64_t mn = UINT64_MAX, mx = 0;
  for (uint8_t v = 1; v <= 5; ++v) {
    mn = std::min(mn, tally[v]);
    mx = std::max(mx, tally[v]);
  }
  ASSERT_GT(mn, 0u);
  EXPECT_LT(static_cast<double>(mx) / static_cast<double>(mn), 1.25);
}

TEST(CeSchedTest, DeliveryOrderAndCursorsHoldBesideIdleAndQuarantinedVms) {
  // VM 1 holds a backlog on both its queue sets beside VM 2, idle, and VM 3,
  // idle and quarantined; VMs 2 and 3 own three queue sets each, so their
  // cursors show in the order a later backlog drains in. A DRR pass skips
  // a VM whose rings ran dry and turns its cursor as the skipped polls
  // would have; the expected string was recorded before that skip existed.
  sim::EventLoop loop;
  sim::CpuCore core(&loop, "ce");
  CoreEngine ce(&loop, {&core});
  NkDevice nsm("nsm", 1);
  ce.RegisterNsmDevice(1, &nsm);
  std::vector<std::unique_ptr<NkDevice>> vms;
  for (uint8_t v = 1; v <= 3; ++v) {
    vms.push_back(std::make_unique<NkDevice>("vm", v == 1 ? 2 : 3));
    ce.RegisterVmDevice(v, vms.back().get());
    ce.AssignVmToNsm(v, 1);
  }
  ce.validator().SetQuarantined(3, true);
  std::string order;
  const auto fill = [&](uint8_t v, int qsets, int per_qset) {
    for (int qs = 0; qs < qsets; ++qs) {
      for (int i = 0; i < per_qset; ++i) {
        ASSERT_TRUE(vms[v - 1]->queue_set(qs).send.TryEnqueue(
            MakeNqe(NqeOp::kSendTo, v, static_cast<uint8_t>(qs), 1, 0, 0, 64)));
      }
    }
    ce.NotifyVmOutbound(v);
  };
  const auto run = [&] {
    loop.Run(loop.Now() + kMillisecond);
    Nqe nqe;
    while (nsm.queue_set(0).send.TryDequeue(&nqe)) {
      order += static_cast<char>('A' + nqe.vm_id - 1);
      order += static_cast<char>('0' + nqe.queue_set);
    }
    order += '|';
  };
  fill(1, 2, 25);  // several rounds of VM 1 alone
  run();
  fill(1, 2, 2);   // then every VM's cursor shows
  fill(2, 3, 2);
  ce.validator().SetQuarantined(3, false);
  fill(3, 3, 2);
  run();
  EXPECT_EQ(order,
            "A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0A1A0"
            "A1A0A1A0A1A0A1A0A1|C0A0B1C1A1B2C2A0B0C0A1B1C1B2C2B0|");
}

// ---------------------------------------------------------------------------
// Error completions: no silent loss, no leaked guest state.
// ---------------------------------------------------------------------------

class CeErrorTest : public ::testing::Test {
 protected:
  CeErrorTest() : core_(&loop_, "ce"), ce_(&loop_, {&core_}), vm_dev_("vm1", 1) {
    ce_.RegisterVmDevice(1, &vm_dev_);
  }

  void RunABit() { loop_.Run(loop_.Now() + kMillisecond); }

  sim::EventLoop loop_;
  sim::CpuCore core_;
  CoreEngine ce_;
  NkDevice vm_dev_;
};

TEST_F(CeErrorTest, SocketBeforeAssignReturnsErrorCompletion) {
  // Regression: an NQE sent before AssignVmToNsm used to vanish silently,
  // leaving the guest thread waiting on a completion forever.
  vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 1, 0, 42));
  ce_.NotifyVmOutbound(1);
  RunABit();
  Nqe got;
  ASSERT_TRUE(vm_dev_.queue_set(0).completion.TryDequeue(&got));
  EXPECT_EQ(got.Op(), NqeOp::kOpResult);
  EXPECT_EQ(got.vm_sock, 42u);
  EXPECT_EQ(static_cast<int32_t>(got.size), kCeNetUnreach);
  EXPECT_EQ(static_cast<NqeOp>(got.reserved[0]), NqeOp::kSocket);
  EXPECT_EQ(ce_.stats().nqes_dropped, 1u);
  EXPECT_EQ(ce_.VmStats(1).dropped, 1u);
}

TEST_F(CeErrorTest, SendBeforeAssignReclaimsCreditAndChunk) {
  // A kSend before any NSM mapping: the error completion must carry the
  // credit (op_data) and flag the unconsumed hugepage chunk (reserved[1]).
  vm_dev_.queue_set(0).send.TryEnqueue(MakeNqe(NqeOp::kSend, 1, 0, 42, 0, 7777, 512));
  ce_.NotifyVmOutbound(1);
  RunABit();
  Nqe got;
  ASSERT_TRUE(vm_dev_.queue_set(0).completion.TryDequeue(&got));
  EXPECT_EQ(got.Op(), NqeOp::kSendResult);
  EXPECT_EQ(got.op_data, 512u);    // send credit to return
  EXPECT_EQ(got.data_ptr, 7777u);  // the chunk to free
  EXPECT_EQ(got.reserved[1], shm::kNqeFlagChunkUnconsumed);
  EXPECT_EQ(static_cast<int32_t>(got.size), kCeNetUnreach);
}

TEST_F(CeErrorTest, SendToAfterNsmDeathReclaimsChunk) {
  NkDevice nsm("nsm", 1);
  ce_.RegisterNsmDevice(1, &nsm);
  ce_.AssignVmToNsm(1, 1);
  vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 9));
  ce_.NotifyVmOutbound(1);
  RunABit();
  EXPECT_EQ(ce_.ConnectionTableSize(), 1u);

  // The NSM dies and nothing replaces it: a queued kSendTo must come back
  // as a flagged kSendToResult, not disappear with the chunk.
  ce_.DeregisterNsmDevice(1);
  EXPECT_EQ(ce_.ConnectionTableSize(), 0u);  // entry purged with the NSM
  vm_dev_.queue_set(0).send.TryEnqueue(
      MakeNqe(NqeOp::kSendTo, 1, 0, 9, shm::PackAddr(1, 80), 5555, 256));
  ce_.NotifyVmOutbound(1);
  RunABit();
  Nqe got;
  ASSERT_TRUE(vm_dev_.queue_set(0).completion.TryDequeue(&got));
  EXPECT_EQ(got.Op(), NqeOp::kSendToResult);
  EXPECT_EQ(got.op_data, 256u);
  EXPECT_EQ(got.data_ptr, 5555u);
  EXPECT_EQ(got.reserved[1], shm::kNqeFlagChunkUnconsumed);
}

TEST_F(CeErrorTest, DeliveryInFlightWhenItsNsmDiesReclaimsChunk) {
  NkDevice nsm("nsm", 1);
  ce_.RegisterNsmDevice(1, &nsm);
  ce_.AssignVmToNsm(1, 1);
  vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 9));
  ce_.NotifyVmOutbound(1);
  RunABit();

  // The round plans the kSendTo and charges its cost; the NSM is
  // deregistered before the charge completes. Its driver has drained its
  // rings by then, so the plan must not land there: the chunk comes back.
  vm_dev_.queue_set(0).send.TryEnqueue(
      MakeNqe(NqeOp::kSendTo, 1, 0, 9, shm::PackAddr(1, 80), 5555, 256));
  ce_.NotifyVmOutbound(1);
  loop_.RunUntilIdleAtNow();
  ce_.DeregisterNsmDevice(1);
  RunABit();
  EXPECT_EQ(nsm.queue_set(0).send.Size(), 0u) << "delivered into a deregistered NSM";
  Nqe got;
  ASSERT_TRUE(vm_dev_.queue_set(0).completion.TryDequeue(&got));
  EXPECT_EQ(got.Op(), NqeOp::kSendToResult);
  EXPECT_EQ(got.data_ptr, 5555u);
  EXPECT_EQ(got.reserved[1], shm::kNqeFlagChunkUnconsumed);
}

// The same, but a fresh device is registered under the dead NSM's id before
// the charge completes: the plan names the old device, so its deliveries drop
// with the flagged error completion and none lands in the new one.
TEST_F(CeErrorTest, DeliveryInFlightWhenItsNsmIdIsReRegisteredDrops) {
  NkDevice old_nsm("nsm-old", 1);
  ce_.RegisterNsmDevice(1, &old_nsm);
  ce_.AssignVmToNsm(1, 1);
  vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 9));
  ce_.NotifyVmOutbound(1);
  RunABit();

  for (uint64_t chunk : {5555u, 6666u}) {
    vm_dev_.queue_set(0).send.TryEnqueue(
        MakeNqe(NqeOp::kSendTo, 1, 0, 9, shm::PackAddr(1, 80), chunk, 256));
  }
  ce_.NotifyVmOutbound(1);
  loop_.RunUntilIdleAtNow();  // the round is planned and being charged
  ce_.DeregisterNsmDevice(1);
  NkDevice new_nsm("nsm-new", 1);
  ce_.RegisterNsmDevice(1, &new_nsm);
  ce_.AssignVmToNsm(1, 1);
  RunABit();
  EXPECT_EQ(old_nsm.queue_set(0).send.Size(), 0u) << "delivered into a deregistered NSM";
  EXPECT_EQ(new_nsm.queue_set(0).send.Size(), 0u) << "a planned delivery crossed to the new NSM";
  for (uint64_t chunk : {5555u, 6666u}) {
    Nqe got;
    ASSERT_TRUE(vm_dev_.queue_set(0).completion.TryDequeue(&got));
    EXPECT_EQ(got.Op(), NqeOp::kSendToResult);
    EXPECT_EQ(static_cast<int32_t>(got.size), kCeNetUnreach);
    EXPECT_EQ(got.data_ptr, chunk);
    EXPECT_EQ(got.reserved[1], shm::kNqeFlagChunkUnconsumed);
  }
  Nqe extra;
  EXPECT_FALSE(vm_dev_.queue_set(0).completion.TryDequeue(&extra));
}

TEST_F(CeErrorTest, DeregisterNsmFinsEstablishedConnections) {
  NkDevice nsm("nsm", 1);
  ce_.RegisterNsmDevice(1, &nsm);
  ce_.AssignVmToNsm(1, 1);
  vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 101));
  ce_.NotifyVmOutbound(1);
  RunABit();
  EXPECT_EQ(ce_.ConnectionTableSize(), 2u);  // one table, both kinds

  const size_t fins = ce_.DeregisterNsmDevice(1);
  // Regression: DeregisterNsmDevice used to leak the table entries of the
  // dead NSM (only DeregisterVmDevice cleaned them).
  EXPECT_EQ(ce_.ConnectionTableSize(), 0u);
  // The stream socket gets an error FIN; the datagram entry goes quietly.
  EXPECT_EQ(fins, 1u);
  Nqe got;
  ASSERT_TRUE(vm_dev_.queue_set(0).receive.TryDequeue(&got));
  EXPECT_EQ(got.Op(), NqeOp::kFinReceived);
  EXPECT_EQ(got.vm_sock, 100u);
  EXPECT_EQ(static_cast<int32_t>(got.size), kCeNetUnreach);
  EXPECT_FALSE(vm_dev_.queue_set(0).receive.TryDequeue(&got));
}

TEST_F(CeErrorTest, DgramSocketRehomesToCurrentNsm) {
  NkDevice nsm1("nsm1", 1);
  ce_.RegisterNsmDevice(1, &nsm1);
  ce_.AssignVmToNsm(1, 1);
  vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 9));
  ce_.NotifyVmOutbound(1);
  RunABit();

  // NSM 1 dies; the operator maps the VM to NSM 2. Datagram traffic for the
  // existing socket must follow (connectionless flows re-home).
  ce_.DeregisterNsmDevice(1);
  NkDevice nsm2("nsm2", 1);
  ce_.RegisterNsmDevice(2, &nsm2);
  ce_.AssignVmToNsm(1, 2);
  vm_dev_.queue_set(0).send.TryEnqueue(
      MakeNqe(NqeOp::kSendTo, 1, 0, 9, shm::PackAddr(1, 80), 0, 64));
  ce_.NotifyVmOutbound(1);
  RunABit();
  Nqe got;
  ASSERT_TRUE(nsm2.queue_set(0).send.TryDequeue(&got));
  EXPECT_EQ(got.Op(), NqeOp::kSendTo);
  EXPECT_EQ(got.vm_sock, 9u);
}

// ---------------------------------------------------------------------------
// Backpressure accounting: every NQE is delivered, parked, queued, or
// counted as dropped — nothing vanishes.
// ---------------------------------------------------------------------------

TEST(CeBackpressureTest, NothingVanishesUnderOverload) {
  sim::EventLoop loop;
  sim::CpuCore core(&loop, "ce");
  CoreEngineConfig cfg;
  cfg.pending_bound = 8;  // tiny park so backpressure engages immediately
  CoreEngine ce(&loop, {&core}, cfg);
  NkDevice nsm("nsm", 1, 16);  // 15-slot rings, nobody draining them
  NkDevice vm("vm", 1);
  ce.RegisterNsmDevice(1, &nsm);
  ce.RegisterVmDevice(1, &vm);
  ce.AssignVmToNsm(1, 1);
  vm.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocketUdp, 1, 0, 1));
  ce.NotifyVmOutbound(1);
  loop.Run(loop.Now() + kMillisecond);
  Nqe nqe;
  while (nsm.queue_set(0).job.TryDequeue(&nqe)) {
  }

  constexpr uint64_t kOffered = 200;
  for (uint64_t i = 0; i < kOffered; ++i) {
    ASSERT_TRUE(vm.queue_set(0).send.TryEnqueue(MakeNqe(NqeOp::kSendTo, 1, 0, 1, 0, i, 64)));
  }
  ce.NotifyVmOutbound(1);
  loop.Run(loop.Now() + 5 * kMillisecond);

  uint64_t at_nsm = nsm.queue_set(0).send.Size();
  uint64_t parked = ce.ParkedDeliveries();
  uint64_t queued = vm.queue_set(0).send.Size();
  // Backpressure holds the overload at the source: nothing was dropped, and
  // the conservation equation closes exactly.
  EXPECT_EQ(ce.stats().nqes_dropped, 0u);
  EXPECT_GT(ce.stats().deliveries_deferred, 0u);
  EXPECT_GT(parked, 0u);
  EXPECT_GT(queued, 0u);
  EXPECT_EQ(at_nsm + parked + queued, kOffered);

  // Kill the NSM: every parked delivery must convert into a counted drop
  // plus a credit/chunk-reclaiming error completion — credits never leak.
  ce.DeregisterNsmDevice(1);
  EXPECT_EQ(ce.ParkedDeliveries(), 0u);
  EXPECT_EQ(ce.stats().nqes_dropped, parked);
  uint64_t reclaimed = 0;
  while (vm.queue_set(0).completion.TryDequeue(&nqe)) {
    if (nqe.Op() == NqeOp::kSendToResult &&
        nqe.reserved[1] == shm::kNqeFlagChunkUnconsumed) {
      ++reclaimed;
    }
  }
  EXPECT_EQ(reclaimed, parked);
}

// ---------------------------------------------------------------------------
// End-to-end: GuestLib recovers credits and chunks when its NSM disappears.
// ---------------------------------------------------------------------------

TEST(CeSchedE2eTest, GuestCreditsRecoveredAfterNsmDeath) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host host(&loop, &fabric, "A");
  Nsm* nsm = host.CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* vm = host.CreateNetkernelVm("vm", 1, nsm);

  int fd = -1;
  int64_t send_result = 0;
  bool done = false;
  std::vector<uint8_t> payload(1024, 0xAB);
  auto driver = [&]() -> sim::Task<void> {
    SocketApi& api = vm->api();
    fd = co_await api.SocketDgram(vm->vcpu(0));
    EXPECT_GE(fd, 0);  // ASSERT would `return`, which a coroutine forbids
    // The NSM dies between socket creation and the send. The send must not
    // hang and must not leak its hugepage chunk or send credit.
    host.ce().DeregisterNsmDevice(nsm->id());
    send_result = co_await api.SendTo(vm->vcpu(0), fd, /*dst_ip=*/1234, /*dst_port=*/80,
                                      payload.data(), payload.size());
    done = true;
  };
  sim::Spawn(driver());
  loop.Run(loop.Now() + kSecond);

  ASSERT_TRUE(done);
  // UDP send succeeds locally (fire and forget) — the switch then rejected
  // it with a flagged error completion, and GuestLib reclaimed everything.
  EXPECT_EQ(send_result, static_cast<int64_t>(payload.size()));
  EXPECT_EQ(vm->guestlib()->send_credit_reclaims(), 1u);
  EXPECT_EQ(host.ce().VmStats(vm->id()).dropped, 1u);
}

}  // namespace
}  // namespace netkernel::core
