// Copyright (c) NetKernel reproduction authors.
// Unit tests for CoreEngine: registration control plane, NQE switching,
// connection table, VM->NSM mapping, and token-bucket isolation.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/coreengine.h"
#include "src/shm/nk_device.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"

namespace netkernel::core {
namespace {

using shm::MakeNqe;
using shm::Nqe;
using shm::NkDevice;
using shm::NqeOp;

class CoreEngineTest : public ::testing::Test {
 protected:
  CoreEngineTest()
      : core_(&loop_, "ce"),
        ce_(&loop_, {&core_}),
        vm_dev_("vm1", 2),
        nsm_dev_("nsm1", 2) {
    ce_.RegisterVmDevice(1, &vm_dev_);
    ce_.RegisterNsmDevice(1, &nsm_dev_);
    ce_.AssignVmToNsm(1, 1);
  }

  // Pushes an NQE into the VM's job queue and runs the loop.
  void SendFromVm(Nqe nqe, int qset = 0, bool send_ring = false) {
    auto& q = vm_dev_.queue_set(qset);
    (send_ring ? q.send : q.job).TryEnqueue(nqe);
    ce_.NotifyVmOutbound(1);
    loop_.Run(loop_.Now() + kMillisecond);
  }

  // Collects everything the NSM device received across its queue sets.
  std::vector<Nqe> DrainNsm() {
    std::vector<Nqe> out;
    Nqe nqe;
    for (int qs = 0; qs < nsm_dev_.num_queue_sets(); ++qs) {
      auto& q = nsm_dev_.queue_set(qs);
      while (q.job.TryDequeue(&nqe)) out.push_back(nqe);
      while (q.send.TryDequeue(&nqe)) out.push_back(nqe);
    }
    return out;
  }

  sim::EventLoop loop_;
  sim::CpuCore core_;
  CoreEngine ce_;
  NkDevice vm_dev_;
  NkDevice nsm_dev_;
};

TEST_F(CoreEngineTest, SwitchesJobNqeToMappedNsm) {
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  auto got = DrainNsm();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].Op(), NqeOp::kSocket);
  EXPECT_EQ(got[0].vm_sock, 100u);
  EXPECT_EQ(ce_.ConnectionTableSize(), 1u);
  EXPECT_EQ(ce_.stats().nqes_switched, 1u);
}

TEST_F(CoreEngineTest, LaterNqesFollowTableEntryQueueSet) {
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  auto first = DrainNsm();
  ASSERT_EQ(first.size(), 1u);
  // A follow-up op for the same socket must land on the same NSM queue set.
  SendFromVm(MakeNqe(NqeOp::kSend, 1, 0, 100, 0, 0, 64), 0, true);
  Nqe nqe;
  bool found_qs0 = nsm_dev_.queue_set(0).send.TryDequeue(&nqe);
  bool found_qs1 = nsm_dev_.queue_set(1).send.TryDequeue(&nqe);
  EXPECT_TRUE(found_qs0 || found_qs1);
  EXPECT_FALSE(found_qs0 && found_qs1);
}

TEST_F(CoreEngineTest, ResponseCompletesTableEntry) {
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  DrainNsm();
  // NSM answers with its socket id in op_data (Fig 6 step 3-4).
  Nqe resp = MakeNqe(NqeOp::kOpResult, 1, 0, 100, /*op_data=*/777);
  resp.reserved[0] = static_cast<uint8_t>(NqeOp::kSocket);
  nsm_dev_.queue_set(0).completion.TryEnqueue(resp);
  ce_.NotifyNsmOutbound(1);
  loop_.Run(loop_.Now() + kMillisecond);
  // Delivered to the VM's completion queue on the originating queue set.
  Nqe got;
  ASSERT_TRUE(vm_dev_.queue_set(0).completion.TryDequeue(&got));
  EXPECT_EQ(got.Op(), NqeOp::kOpResult);
  EXPECT_EQ(got.op_data, 777u);
}

TEST_F(CoreEngineTest, RecvDataGoesToReceiveRing) {
  Nqe rx = MakeNqe(NqeOp::kRecvData, 1, 1, 100, 0, 4096, 512);
  nsm_dev_.queue_set(0).receive.TryEnqueue(rx);
  ce_.NotifyNsmOutbound(1);
  loop_.Run(loop_.Now() + kMillisecond);
  Nqe got;
  EXPECT_FALSE(vm_dev_.queue_set(1).completion.TryDequeue(&got));
  ASSERT_TRUE(vm_dev_.queue_set(1).receive.TryDequeue(&got));
  EXPECT_EQ(got.size, 512u);
}

TEST_F(CoreEngineTest, CloseRemovesTableEntry) {
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  EXPECT_EQ(ce_.ConnectionTableSize(), 1u);
  SendFromVm(MakeNqe(NqeOp::kClose, 1, 0, 100));
  EXPECT_EQ(ce_.ConnectionTableSize(), 0u);
}

TEST_F(CoreEngineTest, AcceptLinkInsertsCompleteEntry) {
  SendFromVm(MakeNqe(NqeOp::kAccept, 1, 0, 200, /*nsm_sock=*/555));
  EXPECT_EQ(ce_.ConnectionTableSize(), 1u);
  auto got = DrainNsm();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].op_data, 555u);
}

TEST_F(CoreEngineTest, SwitchNsmAffectsOnlyNewConnections) {
  NkDevice nsm2("nsm2", 1);
  ce_.RegisterNsmDevice(2, &nsm2);
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  DrainNsm();
  // Re-map the VM; existing socket 100 must keep flowing to NSM 1.
  ce_.AssignVmToNsm(1, 2);
  SendFromVm(MakeNqe(NqeOp::kSend, 1, 0, 100, 0, 0, 64), 0, true);
  EXPECT_EQ(DrainNsm().size(), 1u);  // went to old NSM
  // A new socket goes to NSM 2.
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 101));
  Nqe got;
  ASSERT_TRUE(nsm2.queue_set(0).job.TryDequeue(&got));
  EXPECT_EQ(got.vm_sock, 101u);
}

TEST_F(CoreEngineTest, MultiplexesTwoVmsOntoOneNsm) {
  NkDevice vm2("vm2", 1);
  ce_.RegisterVmDevice(2, &vm2);
  ce_.AssignVmToNsm(2, 1);
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  vm2.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 2, 0, 100));
  ce_.NotifyVmOutbound(2);
  loop_.Run(loop_.Now() + kMillisecond);
  auto got = DrainNsm();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(ce_.ConnectionTableSize(), 2u);  // distinct <vm, sock> keys
}

TEST_F(CoreEngineTest, OpRateLimitThrottlesAndRecovers) {
  ce_.SetVmOpRate(1, /*nqes_per_sec=*/1000.0, /*burst=*/2.0);
  for (int i = 0; i < 6; ++i) {
    vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 1, 0, 100 + i));
  }
  ce_.NotifyVmOutbound(1);
  loop_.Run(loop_.Now() + kMillisecond);
  EXPECT_LE(DrainNsm().size(), 3u);  // burst only
  EXPECT_GT(ce_.stats().throttled_nqes, 0u);
  // After enough virtual time, the rest drain via the retry timer.
  loop_.Run(loop_.Now() + 10 * kMillisecond);
  EXPECT_GE(DrainNsm().size(), 3u);
}

TEST_F(CoreEngineTest, ByteRateLimitAppliesToSendQueue) {
  ce_.SetVmByteRate(1, /*bytes_per_sec=*/1e6, /*burst=*/8192.0);
  ce_.SetVmOpRate(1, 0, 0);  // unlimited ops
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  DrainNsm();
  for (int i = 0; i < 4; ++i) {
    vm_dev_.queue_set(0).send.TryEnqueue(
        MakeNqe(NqeOp::kSend, 1, 0, 100, 0, 0, 8192));
  }
  ce_.NotifyVmOutbound(1);
  loop_.Run(loop_.Now() + kMillisecond);
  size_t passed = DrainNsm().size();
  EXPECT_LT(passed, 4u);  // 32 KB offered, 8 KB burst + ~1 KB accrued
  // ~25 ms later the rest made it through.
  loop_.Run(loop_.Now() + 40 * kMillisecond);
  EXPECT_EQ(passed + DrainNsm().size(), 4u);
}

TEST_F(CoreEngineTest, CloseWaitsForTheSendsTheByteRateHoldsBack) {
  // The byte bucket holds the second send back in the guest's send ring. The
  // close the guest wrote after it must not reach the NSM first, or the NSM
  // would unlink the connection ahead of its last data.
  ce_.SetVmByteRate(1, /*bytes_per_sec=*/1e6, /*burst=*/8192.0);
  ce_.SetVmOpRate(1, 0, 0);  // unlimited ops
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  DrainNsm();
  for (int i = 0; i < 2; ++i) {
    vm_dev_.queue_set(0).send.TryEnqueue(MakeNqe(NqeOp::kSend, 1, 0, 100, 0, 0, 8192));
  }
  SendFromVm(MakeNqe(NqeOp::kClose, 1, 0, 100));
  std::vector<Nqe> got = DrainNsm();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].Op(), NqeOp::kSend);
  loop_.Run(loop_.Now() + 40 * kMillisecond);
  EXPECT_EQ(DrainNsm().size(), 2u);  // the held send, then the close
}

TEST_F(CoreEngineTest, ControlMessagesAreEightBytes) {
  CeMessage resp = ce_.HandleControlMessage(
      {static_cast<uint32_t>(CeOp::kAssignVmToNsm), (1u << 8) | 1u});
  EXPECT_EQ(resp.ce_op, static_cast<uint32_t>(CeOp::kOk));
  resp = ce_.HandleControlMessage({static_cast<uint32_t>(CeOp::kAssignVmToNsm), (9u << 8) | 1u});
  EXPECT_EQ(resp.ce_op, static_cast<uint32_t>(CeOp::kError));  // unknown VM
}

TEST_F(CoreEngineTest, DeregisterVmDropsItsConnections) {
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  EXPECT_EQ(ce_.ConnectionTableSize(), 1u);
  ce_.DeregisterVmDevice(1);
  EXPECT_EQ(ce_.ConnectionTableSize(), 0u);
}

TEST_F(CoreEngineTest, SwitchingChargesTheCeCore) {
  EXPECT_EQ(core_.busy_cycles(), 0u);
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  EXPECT_GT(core_.busy_cycles(), 0u);
}

// A doorbell rung while the shard's round is still being charged starts no
// round of its own: the round's completion polls again and takes everything
// that queued meanwhile as one batch.
TEST_F(CoreEngineTest, NqesArrivingDuringARoundShareTheNextRound) {
  vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  ce_.NotifyVmOutbound(1);
  loop_.RunUntilIdleAtNow();
  ASSERT_TRUE(core_.BusyNow());
  for (uint32_t sock = 101; sock < 116; ++sock) {
    vm_dev_.queue_set(0).job.TryEnqueue(MakeNqe(NqeOp::kSocket, 1, 0, sock));
    ce_.NotifyVmOutbound(1);
    loop_.RunUntilIdleAtNow();
  }
  loop_.Run(loop_.Now() + kMillisecond);
  EXPECT_EQ(ce_.stats().nqes_switched, 16u);
  EXPECT_EQ(ce_.stats().rounds, 2u);
  EXPECT_EQ(DrainNsm().size(), 16u);
}

TEST_F(CoreEngineTest, WakesDestinationDevice) {
  int nsm_wakes = 0;
  nsm_dev_.SetWakeCallback([&] { ++nsm_wakes; });
  SendFromVm(MakeNqe(NqeOp::kSocket, 1, 0, 100));
  EXPECT_EQ(nsm_wakes, 1);
}

}  // namespace
}  // namespace netkernel::core
