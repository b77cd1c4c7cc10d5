// Copyright (c) NetKernel reproduction authors.
// Tests for the shared-memory NSM (use case 4, §6.4): colocated VMs
// exchanging data hugepage-to-hugepage with no TCP processing.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/core/netkernel.h"

namespace netkernel {
namespace {

using core::NsmKind;
using core::SocketApi;
using core::Vm;

class ShmNsmTest : public ::testing::Test {
 protected:
  ShmNsmTest() : fabric_(&loop_), host_(&loop_, &fabric_, "host") {
    nsm_ = host_.CreateNsm("shm", 2, NsmKind::kShm);
    a_ = host_.CreateNetkernelVm("vmA", 1, nsm_);
    b_ = host_.CreateNetkernelVm("vmB", 1, nsm_);
  }

  void Run(SimTime d = 2 * kSecond) { loop_.Run(loop_.Now() + d); }

  sim::EventLoop loop_;
  netsim::Fabric fabric_;
  core::Host host_;
  core::Nsm* nsm_;
  Vm* a_;
  Vm* b_;
};

sim::Task<void> ShmEchoServer(Vm* vm, uint16_t port, int* served) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int lfd = co_await api.Socket(cpu);
  co_await api.Bind(cpu, lfd, 0, port);
  co_await api.Listen(cpu, lfd, 16, false);
  int fd = co_await api.Accept(cpu, lfd);
  std::vector<uint8_t> buf(64 * 1024);
  for (;;) {
    int64_t n = co_await api.Recv(cpu, fd, buf.data(), buf.size());
    if (n <= 0) break;
    co_await api.Send(cpu, fd, buf.data(), static_cast<uint64_t>(n));
  }
  co_await api.Close(cpu, fd);
  ++*served;
}

TEST_F(ShmNsmTest, EchoDataIntegrity) {
  int served = 0;
  bool ok = false;
  sim::Spawn(ShmEchoServer(b_, 9000, &served));
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = a_->api();
    sim::CpuCore* cpu = a_->vcpu(0);
    int fd = co_await api.Socket(cpu);
    if (0 != co_await api.Connect(cpu, fd, b_->ip(), 9000)) co_return;
    Rng rng(3);
    std::vector<uint8_t> data(300000), back(300000);
    for (auto& x : data) x = static_cast<uint8_t>(rng.Next());
    uint64_t sent = 0, got = 0;
    while (got < data.size()) {
      if (sent < data.size()) {
        uint64_t chunk = std::min<uint64_t>(32768, data.size() - sent);
        co_await api.Send(cpu, fd, data.data() + sent, chunk);
        sent += chunk;
      }
      while (got < sent) {
        int64_t n = co_await api.Recv(cpu, fd, back.data() + got, back.size() - got);
        if (n <= 0) co_return;
        got += static_cast<uint64_t>(n);
      }
    }
    co_await api.Close(cpu, fd);
    ok = back == data;
  };
  sim::Spawn(client());
  Run(5 * kSecond);
  EXPECT_TRUE(ok);
  // Every byte crossed the NSM twice (there and back).
  EXPECT_GE(nsm_->shm_servicelib()->bytes_copied(), 600000u);
}

TEST_F(ShmNsmTest, ShmServiceLibIsThePoolCopyNsmsDriver) {
  // One driver for every NSM kind; the historical shared-memory name is
  // non-null exactly for pool-copy NSMs and keeps its config defaults.
  EXPECT_EQ(nsm_->shm_servicelib(), nsm_->servicelib());
  EXPECT_EQ(host_.CreateNsm("kernel", 1, NsmKind::kKernel)->shm_servicelib(), nullptr);
  EXPECT_EQ(core::ShmServiceLib::Config{}.rx_outstanding_cap, 1 * kMiB);
}

TEST_F(ShmNsmTest, ConnectBeforeListenRetries) {
  // The client connects first; the server's listen lands a while later.
  int result = -1;
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = a_->api();
    int fd = co_await api.Socket(a_->vcpu(0));
    result = co_await api.Connect(a_->vcpu(0), fd, b_->ip(), 9100);
  };
  auto late_server = [&]() -> sim::Task<void> {
    co_await sim::Delay(&loop_, 8 * kMillisecond);
    SocketApi& api = b_->api();
    int lfd = co_await api.Socket(b_->vcpu(0));
    co_await api.Bind(b_->vcpu(0), lfd, 0, 9100);
    co_await api.Listen(b_->vcpu(0), lfd, 4, false);
    co_await api.Accept(b_->vcpu(0), lfd);
  };
  sim::Spawn(client());
  sim::Spawn(late_server());
  Run();
  EXPECT_EQ(result, 0);
}

TEST_F(ShmNsmTest, ConnectToNothingEventuallyRefused) {
  int result = 1;
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = a_->api();
    int fd = co_await api.Socket(a_->vcpu(0));
    result = co_await api.Connect(a_->vcpu(0), fd, b_->ip(), 9999);
  };
  sim::Spawn(client());
  Run(5 * kSecond);
  EXPECT_EQ(result, tcp::kConnRefused);
}

TEST_F(ShmNsmTest, CloseDeliversEofAfterData) {
  bool got_data = false, got_eof = false;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = b_->api();
    sim::CpuCore* cpu = b_->vcpu(0);
    int lfd = co_await api.Socket(cpu);
    co_await api.Bind(cpu, lfd, 0, 9000);
    co_await api.Listen(cpu, lfd, 4, false);
    int fd = co_await api.Accept(cpu, lfd);
    uint8_t buf[1024];
    uint64_t total = 0;
    for (;;) {
      int64_t n = co_await api.Recv(cpu, fd, buf, sizeof(buf));
      if (n == 0) {
        got_eof = true;
        break;
      }
      if (n < 0) break;
      total += static_cast<uint64_t>(n);
    }
    got_data = total == 5000;
  };
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = a_->api();
    int fd = co_await api.Socket(a_->vcpu(0));
    co_await api.Connect(a_->vcpu(0), fd, b_->ip(), 9000);
    std::vector<uint8_t> data(5000, 0x9c);
    co_await api.Send(a_->vcpu(0), fd, data.data(), data.size());
    co_await api.Close(a_->vcpu(0), fd);  // close right behind the data
  };
  sim::Spawn(server());
  sim::Spawn(client());
  Run();
  EXPECT_TRUE(got_data);  // close must not race ahead of the payload
  EXPECT_TRUE(got_eof);
}

TEST_F(ShmNsmTest, BackpressureBoundsInFlightBytes) {
  // Receiver accepts but never reads: the sender's progress must stall at
  // the credit cap + send buffer, far below the offered volume.
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = b_->api();
    int lfd = co_await api.Socket(b_->vcpu(0));
    co_await api.Bind(b_->vcpu(0), lfd, 0, 9000);
    co_await api.Listen(b_->vcpu(0), lfd, 4, false);
    co_await api.Accept(b_->vcpu(0), lfd);
  };
  uint64_t pushed = 0;
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = a_->api();
    int fd = co_await api.Socket(a_->vcpu(0));
    co_await api.Connect(a_->vcpu(0), fd, b_->ip(), 9000);
    std::vector<uint8_t> chunk(65536, 2);
    for (int i = 0; i < 2000; ++i) {
      int64_t n = co_await api.Send(a_->vcpu(0), fd, chunk.data(), chunk.size());
      if (n <= 0) break;
      pushed += static_cast<uint64_t>(n);
    }
  };
  sim::Spawn(server());
  sim::Spawn(client());
  Run(3 * kSecond);
  EXPECT_LT(pushed, 16 * kMiB);  // offered 128 MB
  EXPECT_GT(pushed, 1 * kMiB);
}

TEST_F(ShmNsmTest, DatagramSendToUnknownSocketReturnsItsChunk) {
  // CoreEngine forwards a datagram send that names no socket statelessly to
  // the VM's NSM, whose job is then to release the payload chunk.
  shm::HugepagePool* pool = a_->pool();
  for (shm::NqeOp op : {shm::NqeOp::kSendTo, shm::NqeOp::kSendToZc}) {
    SCOPED_TRACE(shm::NqeOpName(op));
    const uint64_t chunk = pool->Alloc(512);
    ASSERT_NE(chunk, shm::HugepagePool::kInvalidOffset);
    ASSERT_TRUE(a_->dev()->queue_set(0).send.TryEnqueue(shm::MakeNqe(
        op, a_->id(), 0, /*vm_sock=*/4242, shm::PackAddr(b_->ip(), 9000), chunk, 512)));
    host_.ce().NotifyVmOutbound(a_->id(), 0);
    Run(10 * kMillisecond);
    EXPECT_EQ(host_.ce().validator().stats().rejects, 0u);
    EXPECT_EQ(pool->bytes_in_use(), 0u);
    EXPECT_EQ(pool->frees(), pool->allocs());
  }
  // An ordinary datagram loss, not a teardown: no shutdown-drain events.
  EXPECT_EQ(nsm_->servicelib()->recorder().total_recorded(), 0u);
}

TEST_F(ShmNsmTest, ThroughputBeatsTcpForLargeMessages) {
  // The §6.4 headline: colocated traffic through the shm NSM outruns the
  // same VMs talking TCP through the vSwitch.
  apps::StreamStats shm_rx, shm_tx;
  apps::StartStreamSink(b_, 9300, &shm_rx);
  apps::StreamConfig cfg;
  cfg.dst_ip = b_->ip();
  cfg.port = 9300;
  cfg.connections = 4;
  cfg.message_size = 8192;
  apps::StartStreamSenders(a_, cfg, &shm_tx);
  Run(100 * kMillisecond);
  uint64_t b0 = shm_rx.bytes_received;
  Run(100 * kMillisecond);
  double shm_gbps = RateOf(shm_rx.bytes_received - b0, 100 * kMillisecond) / kGbps;
  EXPECT_GT(shm_gbps, 60.0);  // paper: ~100G with 2 NSM cores
}

// ---------------------------------------------------------------------------
// The NQE driver on its own: a bare ServiceLib over the pool-copy transport on
// a small device no CoreEngine drains. The test plays CoreEngine's part —
// writing requests into the job/send rings and reading what comes back.
// ---------------------------------------------------------------------------

class ShmDriverTest : public ::testing::Test {
 protected:
  static constexpr uint8_t kA = 1;
  static constexpr uint8_t kB = 2;
  static constexpr netsim::IpAddr kIpB = 0x0a000002;

  explicit ShmDriverTest(size_t ring_capacity = 8)
      : ce_core_(&loop_, "ce"),
        nsm_core_(&loop_, "nsm"),
        ce_(&loop_, {&ce_core_}),
        dev_("drv", 1, ring_capacity),
        pool_a_(kMiB),
        pool_b_(kMiB),
        slib_(&loop_, /*nsm_id=*/1, &ce_, &dev_, {&nsm_core_}, core::ServiceLib::PoolCopy(),
              core::ServiceLib::Config{}) {
    slib_.AttachVm(kA, &pool_a_, 0x0a000001);
    slib_.AttachVm(kB, &pool_b_, kIpB);
  }

  shm::QueueSet& q() { return dev_.queue_set(0); }

  // Hands `nqe` to the driver the way CoreEngine delivers it.
  void Deliver(const shm::Nqe& nqe) {
    shm::SpscRing<shm::Nqe>& ring = guard::IsSendRingOp(nqe.Op()) ? q().send : q().job;
    ASSERT_TRUE(ring.TryEnqueue(nqe));
    dev_.Wake();
  }
  void Run(SimTime d = kMillisecond) { loop_.Run(loop_.Now() + d); }

  // Drains the completion ring; returns the op_data of the last completion
  // of `op` (the NSM-side id a kOpResult or kAcceptedConn carries).
  uint64_t DrainCompletions(shm::NqeOp op = shm::NqeOp::kInvalid) {
    uint64_t last = 0;
    shm::Nqe nqe;
    while (q().completion.TryDequeue(&nqe)) {
      if (nqe.Op() == op) last = nqe.op_data;
    }
    return last;
  }

  // vmA socket 1 connects to vmB's listener (socket 1). Returns the NSM id of
  // the connection vmB is offered (0 if none), not yet accepted.
  uint64_t ConnectUnaccepted() {
    Deliver(shm::MakeNqe(shm::NqeOp::kSocket, kB, 0, 1));
    Deliver(shm::MakeNqe(shm::NqeOp::kBind, kB, 0, 1, shm::PackAddr(kIpB, 9000)));
    Deliver(shm::MakeNqe(shm::NqeOp::kListen, kB, 0, 1, 16));
    Deliver(shm::MakeNqe(shm::NqeOp::kSocket, kA, 0, 1));
    Run();
    DrainCompletions();
    Deliver(shm::MakeNqe(shm::NqeOp::kConnect, kA, 0, 1, shm::PackAddr(kIpB, 9000)));
    Run();
    return DrainCompletions(shm::NqeOp::kAcceptedConn);
  }

  // ...and vmB accepts it as socket 2.
  void Connect() {
    const uint64_t child = ConnectUnaccepted();
    ASSERT_NE(child, 0u);
    Deliver(shm::MakeNqe(shm::NqeOp::kAccept, kB, 0, 2, child));
    Run();
    DrainCompletions();
  }

  // vmA sends `size` bytes on socket 1.
  void SendFromA(uint32_t size) {
    const uint64_t chunk = pool_a_.Alloc(size);
    ASSERT_NE(chunk, shm::HugepagePool::kInvalidOffset);
    Deliver(shm::MakeNqe(shm::NqeOp::kSend, kA, 0, 1, 0, chunk, size));
  }

  sim::EventLoop loop_;
  sim::CpuCore ce_core_;
  sim::CpuCore nsm_core_;
  core::CoreEngine ce_;
  shm::NkDevice dev_;
  shm::HugepagePool pool_a_;
  shm::HugepagePool pool_b_;
  core::ServiceLib slib_;
};

TEST_F(ShmDriverTest, FullReceiveRingBreaksTheStreamWithoutStrandingChunks) {
  // Nobody drains the receive ring: once it fills, a copied chunk cannot be
  // shipped. The landing chunk must go back to the receiver's pool, the
  // stream must break with an error FIN (retried until the ring has room),
  // and the chunks still queued must not land in a broken stream.
  Connect();
  const size_t room = q().receive.capacity();
  for (int i = 0; i < 12; ++i) {
    SendFromA(100);
    Run();
    DrainCompletions();
  }
  Deliver(shm::MakeNqe(shm::NqeOp::kClose, kA, 0, 1));
  Run();
  DrainCompletions();

  EXPECT_GT(slib_.nqes_dropped(), 0u);
  EXPECT_EQ(pool_a_.bytes_in_use(), 0u) << "every sent chunk freed or copied";
  ASSERT_EQ(q().receive.Size(), room);
  // Every landing chunk still allocated is one a queued kRecvData owns.
  std::vector<shm::Nqe> shipped;
  shm::Nqe nqe;
  while (q().receive.TryDequeue(&nqe)) shipped.push_back(nqe);
  uint64_t shipped_bytes = 0;
  for (const shm::Nqe& r : shipped) {
    ASSERT_EQ(r.Op(), shm::NqeOp::kRecvData);
    shipped_bytes += pool_b_.ChunkCapacity(r.data_ptr);
    pool_b_.Free(r.data_ptr);  // the guest consumed it
  }
  EXPECT_EQ(pool_b_.bytes_in_use(), 0u) << "landing chunks stranded";
  EXPECT_GT(shipped_bytes, 0u);

  // With room again, the error FIN lands: exactly one, with an error status.
  Run();
  ASSERT_EQ(q().receive.Size(), 1u);
  ASSERT_TRUE(q().receive.TryDequeue(&nqe));
  EXPECT_EQ(nqe.Op(), shm::NqeOp::kFinReceived);
  EXPECT_EQ(nqe.vm_id, kB);
  EXPECT_EQ(nqe.vm_sock, 2u);
  EXPECT_EQ(static_cast<int32_t>(nqe.size), tcp::kConnReset);
  Run(10 * kMillisecond);
  EXPECT_TRUE(q().receive.Empty());
  EXPECT_EQ(pool_a_.allocs(), pool_a_.frees());
  EXPECT_EQ(pool_b_.allocs(), pool_b_.frees());
}

TEST_F(ShmDriverTest, EvictionUnwindsABatchAlreadyChargedToTheNsmCore) {
  // Quarantine lands while a batch holding a kSend and a kSocket of the
  // evicted VM sits charged on the NSM core. When it runs, the send's chunk
  // must return to the pool (not park as an orphan) and the socket must not
  // be built or answered.
  Deliver(shm::MakeNqe(shm::NqeOp::kSocket, kA, 0, 1));
  Run();
  DrainCompletions();
  const uint64_t chunk = pool_a_.Alloc(128);
  ASSERT_NE(chunk, shm::HugepagePool::kInvalidOffset);
  ASSERT_TRUE(q().send.TryEnqueue(shm::MakeNqe(shm::NqeOp::kSend, kA, 0, 1, 0, chunk, 128)));
  ASSERT_TRUE(q().job.TryEnqueue(shm::MakeNqe(shm::NqeOp::kSocket, kA, 0, 2)));
  dev_.Wake();  // dequeued and charged, not yet dispatched
  ASSERT_TRUE(q().send.Empty());
  slib_.EvictVm(kA);
  Run();
  EXPECT_EQ(slib_.guard_drops(), 2u);
  EXPECT_TRUE(q().completion.Empty()) << "no completion for the evicted VM's socket";
  EXPECT_EQ(pool_a_.bytes_in_use(), 0u);

  // Re-attached, the VM starts clean: nothing parked comes back to life.
  slib_.AttachVm(kA, &pool_a_, 0x0a000001);
  Run(100 * kMillisecond);
  EXPECT_EQ(pool_a_.bytes_in_use(), 0u);
  EXPECT_EQ(pool_a_.allocs(), pool_a_.frees());
}

// The same driver on rings that can queue more than one batch.
class ShmDriverDeepRingTest : public ShmDriverTest {
 protected:
  ShmDriverDeepRingTest() : ShmDriverTest(/*ring_capacity=*/128) {}
};

TEST_F(ShmDriverDeepRingTest, CloseNeverOvertakesTheSendsQueuedBeforeIt) {
  // A batch takes at most 64 NQEs per ring, so both closes are in reach while
  // sends written before them still wait behind the send ring's batch. A send
  // dispatched after its socket's close would park as an orphan forever,
  // whether the NSM never linked the socket (7) or it is live (1).
  Connect();
  const auto send = [this](uint32_t sock) {
    const uint64_t chunk = pool_a_.Alloc(100);
    ASSERT_NE(chunk, shm::HugepagePool::kInvalidOffset);
    ASSERT_TRUE(q().send.TryEnqueue(shm::MakeNqe(shm::NqeOp::kSend, kA, 0, sock, 0, chunk, 100)));
  };
  for (int i = 0; i < 70; ++i) send(7);
  send(1);
  ASSERT_TRUE(q().job.TryEnqueue(shm::MakeNqe(shm::NqeOp::kClose, kA, 0, 7)));
  ASSERT_TRUE(q().job.TryEnqueue(shm::MakeNqe(shm::NqeOp::kClose, kA, 0, 1)));
  dev_.Wake();
  Run(10 * kMillisecond);
  EXPECT_EQ(pool_a_.bytes_in_use(), 0u) << "a send parked behind its socket's close";
  EXPECT_EQ(pool_a_.allocs(), pool_a_.frees());
}

TEST_F(ShmDriverTest, PeerEvictedBeforeTheAcceptReachesTheGuestAsAReset) {
  // vmA is quarantined while vmB still holds its connection un-accepted. The
  // accept link must surface the reset, as the stack-backed transport does,
  // not a clean EOF.
  const uint64_t child = ConnectUnaccepted();
  ASSERT_NE(child, 0u);
  slib_.EvictVm(kA);
  Deliver(shm::MakeNqe(shm::NqeOp::kAccept, kB, 0, 2, child));
  Run();
  shm::Nqe nqe;
  ASSERT_TRUE(q().receive.TryDequeue(&nqe));
  EXPECT_EQ(nqe.Op(), shm::NqeOp::kFinReceived);
  EXPECT_EQ(nqe.vm_id, kB);
  EXPECT_EQ(nqe.vm_sock, 2u);
  EXPECT_EQ(static_cast<int32_t>(nqe.size), tcp::kConnReset);
  EXPECT_TRUE(q().receive.Empty());
}

}  // namespace
}  // namespace netkernel
