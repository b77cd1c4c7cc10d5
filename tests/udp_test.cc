// Copyright (c) NetKernel reproduction authors.
// Unit tests for the UDP datagram subsystem: the udpstack (bind / sendto /
// recvfrom, MTU fragmentation accounting, RX-queue overflow drops), the
// SOCK_DGRAM surface of both SocketApi implementations, and an end-to-end
// memcached-style KV workload running the identical application logic on a
// Baseline VM and a NetKernel VM (the paper's API-transparency story).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/netkernel.h"

namespace netkernel {
namespace {

using core::Host;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;

class UdpTest : public ::testing::Test {
 protected:
  UdpTest() : fabric_(&loop_) {}

  Host& HostA() {
    if (!host_a_) host_a_ = std::make_unique<Host>(&loop_, &fabric_, "hostA");
    return *host_a_;
  }
  Host& HostB() {
    if (!host_b_) host_b_ = std::make_unique<Host>(&loop_, &fabric_, "hostB");
    return *host_b_;
  }

  void Run(SimTime d = 2 * kSecond) { loop_.Run(loop_.Now() + d); }

  sim::EventLoop loop_;
  netsim::Fabric fabric_;
  std::unique_ptr<Host> host_a_, host_b_;
};

// Echoes `n` datagrams back to their senders.
sim::Task<void> UdpEchoServer(Vm* vm, uint16_t port, int n, int* handled) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  if (fd < 0) co_return;
  if (0 != co_await api.Bind(cpu, fd, 0, port)) co_return;
  std::vector<uint8_t> buf(64 * 1024);
  for (int i = 0; i < n; ++i) {
    netsim::IpAddr src_ip = 0;
    uint16_t src_port = 0;
    int64_t r = co_await api.RecvFrom(cpu, fd, buf.data(), buf.size(), &src_ip, &src_port);
    if (r < 0) co_return;
    co_await api.SendTo(cpu, fd, src_ip, src_port, buf.data(), static_cast<uint64_t>(r));
    ++*handled;
  }
  co_await api.Close(cpu, fd);
}

// Sends one datagram of `bytes` and verifies the payload comes back intact.
sim::Task<void> UdpEchoOnce(Vm* vm, netsim::IpAddr ip, uint16_t port, uint32_t bytes,
                            uint64_t seed, bool* ok) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  if (fd < 0) co_return;
  Rng rng(seed);
  std::vector<uint8_t> data(bytes);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  int64_t sent = co_await api.SendTo(cpu, fd, ip, port, data.data(), data.size());
  if (sent != static_cast<int64_t>(bytes)) co_return;
  std::vector<uint8_t> back(bytes + 16);
  netsim::IpAddr src_ip = 0;
  uint16_t src_port = 0;
  int64_t r = co_await api.RecvFrom(cpu, fd, back.data(), back.size(), &src_ip, &src_port);
  back.resize(r < 0 ? 0 : static_cast<size_t>(r));
  *ok = r == static_cast<int64_t>(bytes) && std::equal(data.begin(), data.end(), back.begin()) &&
        src_ip == ip && src_port == port;
  co_await api.Close(cpu, fd);
}

// ---------------------------------------------------------------------------
// udpstack unit tests (through the Baseline VM, which drives it directly)
// ---------------------------------------------------------------------------

TEST_F(UdpTest, BindSendToRecvFromBetweenBaselineVms) {
  Vm* a = HostA().CreateBaselineVm("a", 1);
  Vm* b = HostB().CreateBaselineVm("b", 1);
  int handled = 0;
  bool ok = false;
  sim::Spawn(UdpEchoServer(a, 5353, 1, &handled));
  sim::Spawn(UdpEchoOnce(b, a->ip(), 5353, 512, 1, &ok));
  Run();
  EXPECT_EQ(handled, 1);
  EXPECT_TRUE(ok);
  EXPECT_EQ(a->guest_udp_stack()->stats().datagrams_received, 1u);
  EXPECT_EQ(a->guest_udp_stack()->stats().datagrams_sent, 1u);
}

TEST_F(UdpTest, EphemeralAutoBindOnFirstSendTo) {
  // The client never binds; its first sendto picks an ephemeral port that the
  // server can reply to.
  Vm* a = HostA().CreateBaselineVm("a", 1);
  Vm* b = HostB().CreateBaselineVm("b", 1);
  int handled = 0;
  bool ok = false;
  sim::Spawn(UdpEchoServer(a, 5353, 1, &handled));
  sim::Spawn(UdpEchoOnce(b, a->ip(), 5353, 64, 2, &ok));
  Run();
  EXPECT_TRUE(ok);
}

TEST_F(UdpTest, MtuFragmentationAccountsWireBytes) {
  Vm* a = HostA().CreateBaselineVm("a", 1);
  Vm* b = HostB().CreateBaselineVm("b", 1);
  int handled = 0;
  bool ok = false;
  constexpr uint32_t kBytes = 10000;  // 7 fragments at 1472 payload each
  sim::Spawn(UdpEchoServer(a, 5353, 1, &handled));
  sim::Spawn(UdpEchoOnce(b, a->ip(), 5353, kBytes, 3, &ok));
  Run();
  EXPECT_TRUE(ok);
  const uint32_t frags = udp::FragCount(kBytes);
  EXPECT_EQ(frags, 7u);
  EXPECT_EQ(b->guest_udp_stack()->stats().fragments_sent, frags);
  EXPECT_EQ(a->guest_udp_stack()->stats().fragments_received, frags);
  // The wire carries payload + per-fragment header overhead.
  EXPECT_EQ(udp::WireBytes(kBytes), kBytes + frags * udp::kWireOverheadPerFrag);
}

TEST_F(UdpTest, OversizedDatagramRejected) {
  Vm* a = HostA().CreateBaselineVm("a", 1);
  int result = 0;
  auto task = [&]() -> sim::Task<void> {
    SocketApi& api = a->api();
    int fd = co_await api.SocketDgram(a->vcpu(0));
    std::vector<uint8_t> big(udp::kMaxDatagram + 1);
    result = static_cast<int>(
        co_await api.SendTo(a->vcpu(0), fd, netsim::MakeIp(10, 0, 0, 99), 9, big.data(),
                            big.size()));
  };
  sim::Spawn(task());
  Run();
  EXPECT_EQ(result, udp::kMsgSize);
}

TEST_F(UdpTest, BindConflictReturnsAddrInUse) {
  Vm* a = HostA().CreateBaselineVm("a", 1);
  int r1 = -1, r2 = 0;
  auto task = [&]() -> sim::Task<void> {
    SocketApi& api = a->api();
    int fd1 = co_await api.SocketDgram(a->vcpu(0));
    int fd2 = co_await api.SocketDgram(a->vcpu(0));
    r1 = co_await api.Bind(a->vcpu(0), fd1, 0, 7777);
    r2 = co_await api.Bind(a->vcpu(0), fd2, 0, 7777);
  };
  sim::Spawn(task());
  Run();
  EXPECT_EQ(r1, 0);
  EXPECT_EQ(r2, udp::kAddrInUse);
}

TEST_F(UdpTest, RxQueueOverflowDropsDatagrams) {
  // Nobody reads the bound socket: the per-socket queue must cap out and
  // drop, not grow without bound (UDP applies no backpressure).
  Vm* a = HostA().CreateBaselineVm("a", 1);
  Vm* b = HostB().CreateBaselineVm("b", 1);
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = a->api();
    int fd = co_await api.SocketDgram(a->vcpu(0));
    co_await api.Bind(a->vcpu(0), fd, 0, 5353);
    // ... and never calls RecvFrom.
  };
  auto blaster = [&]() -> sim::Task<void> {
    SocketApi& api = b->api();
    sim::CpuCore* cpu = b->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    std::vector<uint8_t> msg(1024, 0xaa);
    for (int i = 0; i < 1000; ++i) {
      co_await api.SendTo(cpu, fd, a->ip(), 5353, msg.data(), msg.size());
    }
  };
  sim::Spawn(server());
  sim::Spawn(blaster());
  Run(3 * kSecond);
  const udp::UdpStackStats& st = a->guest_udp_stack()->stats();
  EXPECT_GT(st.rx_queue_drops, 0u);
  // Everything that was not dropped sits in the queue, bounded by rcvbuf.
  EXPECT_LE(a->guest_udp_stack()->config().rcvbuf_bytes, 256 * kKiB);
  EXPECT_GT(st.datagrams_received, 0u);
  EXPECT_EQ(st.datagrams_received + st.rx_queue_drops + st.rx_ring_drops, 1000u);
}

TEST_F(UdpTest, UnboundPortDropsAreCounted) {
  Vm* a = HostA().CreateBaselineVm("a", 1);
  Vm* b = HostB().CreateBaselineVm("b", 1);
  auto task = [&]() -> sim::Task<void> {
    SocketApi& api = b->api();
    int fd = co_await api.SocketDgram(b->vcpu(0));
    uint8_t byte = 1;
    co_await api.SendTo(b->vcpu(0), fd, a->ip(), 9999, &byte, 1);
  };
  sim::Spawn(task());
  Run();
  EXPECT_EQ(a->guest_udp_stack()->stats().no_socket_drops, 1u);
}

// ---------------------------------------------------------------------------
// NetKernel datapath: SOCK_DGRAM through GuestLib -> CoreEngine -> ServiceLib
// ---------------------------------------------------------------------------

TEST_F(UdpTest, NkClientToBaselineServer) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  int handled = 0;
  bool ok = false;
  sim::Spawn(UdpEchoServer(base, 5353, 1, &handled));
  sim::Spawn(UdpEchoOnce(nk, base->ip(), 5353, 2048, 4, &ok));
  Run();
  EXPECT_TRUE(ok);
  EXPECT_GT(HostA().ce().stats().dgram_nqes_switched, 0u);
}

TEST_F(UdpTest, BaselineClientToNkServer) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  int handled = 0;
  bool ok = false;
  sim::Spawn(UdpEchoServer(nk, 5353, 1, &handled));
  sim::Spawn(UdpEchoOnce(base, nk->ip(), 5353, 2048, 5, &ok));
  Run();
  EXPECT_EQ(handled, 1);
  EXPECT_TRUE(ok);
  EXPECT_GT(nsm->udp_stack()->stats().datagrams_received, 0u);
}

TEST_F(UdpTest, NkToNkOverSharedNsm) {
  Nsm* nsm = HostA().CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* server = HostA().CreateNetkernelVm("server", 1, nsm);
  Vm* client = HostA().CreateNetkernelVm("client", 1, nsm);
  int handled = 0;
  bool ok = false;
  sim::Spawn(UdpEchoServer(server, 5353, 1, &handled));
  sim::Spawn(UdpEchoOnce(client, server->ip(), 5353, 8192, 6, &ok));
  Run();
  EXPECT_TRUE(ok);
}

TEST_F(UdpTest, HugepagePoolDrainsAfterUdpTraffic) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  int handled = 0;
  bool ok = false;
  sim::Spawn(UdpEchoServer(base, 5353, 1, &handled));
  sim::Spawn(UdpEchoOnce(nk, base->ip(), 5353, 32 * 1024, 7, &ok));
  Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(UdpTest, BurstThenImmediateCloseLeaksNothing) {
  // Close overtaking queued kSendTo NQEs (they ride different rings) must not
  // strand hugepage chunks: CoreEngine forwards the orphans statelessly and
  // ServiceLib frees chunks whose socket is already gone.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  auto burst = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    std::vector<uint8_t> msg(2048, 0x42);
    for (int i = 0; i < 50; ++i) {
      co_await api.SendTo(cpu, fd, base->ip(), 9999, msg.data(), msg.size());
    }
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(burst());
  Run(3 * kSecond);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(UdpTest, CloseUnderIncomingTrafficReleasesThePort) {
  // Closing a UDP socket while datagrams are streaming in must complete and
  // release the NSM-side port binding, even if the close races an in-flight
  // receive shipment.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  // Each open/recv/close cycle samples the race once; large datagrams make
  // the NSM-side hugepage copy long enough that the close regularly lands
  // while a shipment is in flight.
  int failed_rebinds = 0;
  int cycles_done = 0;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    std::vector<uint8_t> buf(64 * 1024);
    for (int i = 0; i < 10; ++i) {
      int fd = co_await api.SocketDgram(cpu);
      int r = co_await api.Bind(cpu, fd, 0, 5353);
      if (r != 0) {
        ++failed_rebinds;
        co_await api.Close(cpu, fd);
        break;  // port stuck: the close leak this test guards against
      }
      co_await api.RecvFrom(cpu, fd, buf.data(), buf.size(), nullptr, nullptr);
      co_await api.Close(cpu, fd);  // races the next datagram's shipment
      co_await sim::Delay(api.loop(), 5 * kMillisecond);
      ++cycles_done;
    }
  };
  auto blaster = [&]() -> sim::Task<void> {
    // Unbounded, unpaced stream: the sender self-paces at its own CPU cost,
    // saturating the NSM core so NQE batches coalesce — that is the regime
    // where a kClose regularly lands while a shipment is in flight.
    SocketApi& api = base->api();
    sim::CpuCore* cpu = base->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    std::vector<uint8_t> msg(60000, 0x77);
    for (;;) {
      co_await api.SendTo(cpu, fd, nk->ip(), 5353, msg.data(), msg.size());
    }
  };
  sim::Spawn(server());
  sim::Spawn(blaster());
  Run(2 * kSecond);
  EXPECT_EQ(failed_rebinds, 0);
  EXPECT_EQ(cycles_done, 10);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

// ---------------------------------------------------------------------------
// NSM datagram RX path: zc shipping, credit accounting, fallback, overflow
// ---------------------------------------------------------------------------

TEST_F(UdpTest, DgramRxShipsDetachedPoolChunks) {
  // With the RX zero-copy datapath on (default), inbound datagrams land in
  // the VM's hugepage pool inside the UDP stack and ship as detached chunks
  // (kDgramRecvZc) — the rcvbuf->hugepage copy path stays idle.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  int handled = 0;
  sim::Spawn(UdpEchoServer(nk, 5353, 20, &handled));
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = base->api();
    sim::CpuCore* cpu = base->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    std::vector<uint8_t> msg(4096, 0x11);
    std::vector<uint8_t> back(8192);
    for (int i = 0; i < 20; ++i) {
      co_await api.SendTo(cpu, fd, nk->ip(), 5353, msg.data(), msg.size());
      co_await api.RecvFrom(cpu, fd, back.data(), back.size(), nullptr, nullptr);
    }
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(client());
  Run();
  EXPECT_EQ(handled, 20);
  EXPECT_GT(nsm->servicelib()->dgram_zc_ships(), 0u);
  EXPECT_EQ(nsm->servicelib()->dgram_copy_ships(), 0u);
  EXPECT_GT(nk->guestlib()->dgram_zc_recvs(), 0u);
  EXPECT_GT(nsm->udp_stack()->stats().rx_zc_landed, 0u);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(UdpTest, DgramRxOutstandingCreditGatesShipping) {
  // A guest that does not read accrues rx_outstanding up to the cap; the NSM
  // stops shipping (surplus stays queued in the UDP stack) until RecvFrom
  // returns credit through the kRecvFrom channel, after which everything
  // drains. Nothing is lost to the pause and nothing leaks.
  core::Host::Options opts;
  opts.servicelib.rx_outstanding_cap = 8 * 1024;  // tiny: ~2 datagrams
  host_a_ = std::make_unique<Host>(&loop_, &fabric_, "hostA", opts);
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);

  constexpr int kCount = 30;
  constexpr uint32_t kSize = 4000;
  int server_fd = -1;
  bool bound = false;
  auto server_bind = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    server_fd = co_await api.SocketDgram(cpu);
    bound = 0 == co_await api.Bind(cpu, server_fd, 0, 5353);
  };
  sim::Spawn(server_bind());
  Run(100 * kMillisecond);
  ASSERT_TRUE(bound);

  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = base->api();
    sim::CpuCore* cpu = base->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    std::vector<uint8_t> msg(kSize, 0x22);
    for (int i = 0; i < kCount; ++i) {
      co_await api.SendTo(cpu, fd, nk->ip(), 5353, msg.data(), msg.size());
      co_await sim::Delay(api.loop(), kMillisecond);
    }
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(client());
  Run(500 * kMillisecond);

  // Shipping stalled at the cap: the guest holds at most cap+one chunk, the
  // surplus is parked in the NSM's UDP stack receive queue.
  udp::SocketId usid = 0;
  for (udp::SocketId id = 1; id < 16; ++id) {
    if (nsm->udp_stack()->Exists(id)) usid = id;
  }
  ASSERT_NE(usid, 0u);
  EXPECT_GT(nsm->udp_stack()->RxQueuedBytes(usid), 0u);

  // Now read everything: each RecvFrom returns credit and un-gates the next
  // shipment. All datagrams arrive despite the tiny cap.
  int got = 0;
  auto reader = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    std::vector<uint8_t> buf(8192);
    for (int i = 0; i < kCount; ++i) {
      int64_t r = co_await api.RecvFrom(cpu, server_fd, buf.data(), buf.size(), nullptr,
                                        nullptr);
      if (r != kSize) break;
      ++got;
    }
    co_await api.Close(cpu, server_fd);
  };
  sim::Spawn(reader());
  Run(2 * kSecond);
  EXPECT_EQ(got, kCount);
  EXPECT_EQ(nsm->udp_stack()->stats().rx_queue_drops, 0u);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(UdpTest, DgramPoolExhaustedFallsBackToCopyShip) {
  // A pool too small for the in-flight window: landing allocations fail
  // (rx_pool_fallbacks counts them), datagrams are held as heap copies, and
  // ShipDgrams moves them with the classic staging copy (dgram_copy_ships).
  // Nothing is lost and the pool conserves.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  // Smallest practical pool: a handful of 4K-class chunks.
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm, 96 * 1024);
  Vm* base = HostB().CreateBaselineVm("base", 1);

  constexpr int kCount = 40;
  constexpr uint32_t kSize = 4000;
  int got = 0;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    co_await api.Bind(cpu, fd, 0, 5353);
    std::vector<uint8_t> buf(8192);
    // Slow reader: the backlog forces the landing pool dry.
    for (int i = 0; i < kCount; ++i) {
      int64_t r = co_await api.RecvFrom(cpu, fd, buf.data(), buf.size(), nullptr, nullptr);
      if (r != kSize) break;
      ++got;
      co_await sim::Delay(api.loop(), 2 * kMillisecond);
    }
    co_await api.Close(cpu, fd);
  };
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = base->api();
    sim::CpuCore* cpu = base->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    std::vector<uint8_t> msg(kSize, 0x33);
    for (int i = 0; i < kCount; ++i) {
      co_await api.SendTo(cpu, fd, nk->ip(), 5353, msg.data(), msg.size());
    }
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(server());
  sim::Spawn(client());
  Run(5 * kSecond);

  EXPECT_EQ(got, kCount);
  // The fallback actually happened and was counted at both layers.
  EXPECT_GT(nsm->udp_stack()->stats().rx_pool_fallbacks, 0u);
  EXPECT_GT(nsm->servicelib()->dgram_copy_ships(), 0u);
  EXPECT_EQ(nsm->udp_stack()->stats().rx_queue_drops, 0u);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(UdpTest, DgramOverflowDropsAtStackAndConservesChunks) {
  // ShipDgrams never overruns the guest: beyond the rx_outstanding cap the
  // surplus queues in the UDP stack, and beyond ITS rcvbuf the datagrams
  // drop (counted) — UDP's no-backpressure contract — without touching any
  // hugepage chunk.
  core::Host::Options opts;
  opts.servicelib.rx_outstanding_cap = 8 * 1024;
  host_a_ = std::make_unique<Host>(&loop_, &fabric_, "hostA", opts);
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);

  bool bound = false;
  bool closed = false;
  auto server_bind = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    bound = 0 == co_await api.Bind(cpu, fd, 0, 5353);
    // Never reads: everything beyond the cap piles up NSM-side. Then close,
    // which must return every landed chunk (guest drx + stack queue).
    co_await sim::Delay(api.loop(), 2 * kSecond);
    closed = 0 == co_await api.Close(cpu, fd);
  };
  auto blaster = [&]() -> sim::Task<void> {
    SocketApi& api = base->api();
    sim::CpuCore* cpu = base->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    std::vector<uint8_t> msg(32 * 1024, 0x44);
    for (int i = 0; i < 40; ++i) {  // ~1.3 MB >> 256 KB stack rcvbuf
      co_await api.SendTo(cpu, fd, nk->ip(), 5353, msg.data(), msg.size());
    }
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(server_bind());
  sim::Spawn(blaster());
  Run(4 * kSecond);

  EXPECT_TRUE(bound);
  EXPECT_TRUE(closed);
  EXPECT_GT(nsm->udp_stack()->stats().rx_queue_drops, 0u);
  // Chunk conservation: overflow drops never touched the pool, and the close
  // unwound every landed chunk — guest-held and stack-queued alike.
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(UdpTest, ShmNsmRejectsDgramSockets) {
  // The shared-memory NSM has no datagram transport; SocketDgram must fail
  // promptly rather than hang on a completion that never comes.
  Nsm* nsm = HostA().CreateNsm("shm", 1, NsmKind::kShm);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  int fd = 0;
  auto task = [&]() -> sim::Task<void> {
    fd = co_await nk->api().SocketDgram(nk->vcpu(0));
  };
  sim::Spawn(task());
  Run();
  EXPECT_EQ(fd, udp::kBadSocket);
}

TEST_F(UdpTest, DgramEpollReadiness) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  bool got = false;
  auto server = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);
    co_await api.Bind(cpu, fd, 0, 5353);
    int ep = api.EpollCreate();
    api.EpollCtl(ep, fd, core::kEpollIn);
    auto evs = co_await api.EpollWait(cpu, ep, 8, 2 * kSecond);
    if (evs.size() == 1 && evs[0].fd == fd && (evs[0].events & core::kEpollIn) != 0) {
      std::vector<uint8_t> buf(256);
      int64_t n = co_await api.RecvFrom(cpu, fd, buf.data(), buf.size(), nullptr, nullptr);
      got = n == 100;
    }
  };
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = base->api();
    int fd = co_await api.SocketDgram(base->vcpu(0));
    std::vector<uint8_t> msg(100, 0x11);
    co_await sim::Delay(api.loop(), 10 * kMillisecond);
    co_await api.SendTo(base->vcpu(0), fd, nk->ip(), 5353, msg.data(), msg.size());
  };
  sim::Spawn(server());
  sim::Spawn(client());
  Run();
  EXPECT_TRUE(got);
}

// ---------------------------------------------------------------------------
// End-to-end: the memcached-style KV workload on both architectures
// ---------------------------------------------------------------------------

struct KvRunResult {
  apps::UdpKvStats server;
  apps::UdpLoadGenStats client;
};

// Runs the identical UdpKvServer + UdpLoadGen pair with the server either on
// a Baseline VM or on a NetKernel VM. Everything else is byte-identical.
KvRunResult RunKvWorkload(bool netkernel_server, bool zerocopy = false) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host host_a(&loop, &fabric, "hostA");
  Host host_b(&loop, &fabric, "hostB");

  Vm* server;
  if (netkernel_server) {
    Nsm* nsm = host_a.CreateNsm("nsm", 1, NsmKind::kKernel);
    server = host_a.CreateNetkernelVm("server", 1, nsm);
  } else {
    server = host_a.CreateBaselineVm("server", 1);
  }
  Vm* client = host_b.CreateBaselineVm("client", 2, [] {
    tcp::TcpStackConfig c;
    c.profile = tcp::SinkProfile();
    return c;
  }());

  KvRunResult res;
  apps::UdpKvServerConfig scfg;
  scfg.port = 11211;
  scfg.zerocopy = zerocopy;
  apps::StartUdpKvServer(server, scfg, &res.server);

  apps::UdpLoadGenConfig lcfg;
  lcfg.server_ip = server->ip();
  lcfg.port = 11211;
  lcfg.rps = 5000;
  lcfg.total_requests = 1000;
  lcfg.value_size = 100;
  lcfg.threads = 1;
  lcfg.seed = 7;
  lcfg.zerocopy = zerocopy;
  apps::StartUdpLoadGen(client, lcfg, &res.client);

  loop.Run(loop.Now() + 10 * kSecond);
  return res;
}

TEST_F(UdpTest, KvWorkloadRunsIdenticallyOnBothArchitectures) {
  KvRunResult baseline = RunKvWorkload(/*netkernel_server=*/false);
  KvRunResult netkernel = RunKvWorkload(/*netkernel_server=*/true);

  // The application is oblivious to where its network stack runs: the same
  // byte-identical request stream is fully served in both placements.
  EXPECT_TRUE(baseline.client.done);
  EXPECT_TRUE(netkernel.client.done);
  EXPECT_EQ(baseline.server.requests, 1000u);
  EXPECT_EQ(netkernel.server.requests, 1000u);
  EXPECT_EQ(baseline.server.requests, netkernel.server.requests);
  EXPECT_EQ(baseline.client.completed, netkernel.client.completed);
  EXPECT_EQ(baseline.client.Lost(), 0u);
  EXPECT_EQ(netkernel.client.Lost(), 0u);
  // The workload exercised both verbs.
  EXPECT_GT(baseline.server.sets, 0u);
  EXPECT_GT(baseline.server.gets, 0u);
  EXPECT_EQ(baseline.server.sets, netkernel.server.sets);
  EXPECT_EQ(baseline.server.gets, netkernel.server.gets);
}

TEST_F(UdpTest, KvWorkloadZerocopyRunsIdenticallyOnBothArchitectures) {
  // The zero-copy datagram surface (AcquireTxBuf/SendToBuf +
  // RecvFromBuf/ReleaseBuf) keeps the same transparency contract: identical
  // app logic, identical results, on the heap-arena Baseline and the
  // hugepage-loaning NetKernel placement.
  KvRunResult baseline = RunKvWorkload(/*netkernel_server=*/false, /*zerocopy=*/true);
  KvRunResult netkernel = RunKvWorkload(/*netkernel_server=*/true, /*zerocopy=*/true);

  EXPECT_TRUE(baseline.client.done);
  EXPECT_TRUE(netkernel.client.done);
  EXPECT_EQ(baseline.server.requests, 1000u);
  EXPECT_EQ(netkernel.server.requests, 1000u);
  EXPECT_EQ(baseline.client.completed, netkernel.client.completed);
  EXPECT_EQ(baseline.client.Lost(), 0u);
  EXPECT_EQ(netkernel.client.Lost(), 0u);
  EXPECT_GT(baseline.server.sets, 0u);
  EXPECT_GT(baseline.server.gets, 0u);
}

}  // namespace
}  // namespace netkernel
