// Copyright (c) NetKernel reproduction authors.
// Tests for the shared-memory NSM (use case 4, §6.4): colocated VMs
// exchanging data hugepage-to-hugepage with no TCP processing.

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace netkernel
