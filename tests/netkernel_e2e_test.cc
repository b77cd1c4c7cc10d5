// Copyright (c) NetKernel reproduction authors.
// End-to-end tests of the NetKernel datapath: GuestLib -> CoreEngine ->
// ServiceLib -> TCP stack -> fabric, exercised through the public SocketApi.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/netkernel.h"

namespace netkernel {
namespace {

using core::Host;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;

class NetkernelE2eTest : public ::testing::Test {
 protected:
  NetkernelE2eTest() : fabric_(&loop_) {}

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

// Runs an echo server that handles `n` connections sequentially.
sim::Task<void> EchoNServer(Vm* vm, uint16_t port, int n, int* handled) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int lfd = co_await api.Socket(cpu);
  co_await api.Bind(cpu, lfd, 0, port);
  co_await api.Listen(cpu, lfd, 64, false);
  for (int i = 0; i < n; ++i) {
    int fd = co_await api.Accept(cpu, lfd);
    if (fd < 0) co_return;
    std::vector<uint8_t> buf(64 * 1024);
    for (;;) {
      int64_t r = co_await api.Recv(cpu, fd, buf.data(), buf.size());
      if (r <= 0) break;
      co_await api.Send(cpu, fd, buf.data(), static_cast<uint64_t>(r));
    }
    co_await api.Close(cpu, fd);
    ++*handled;
  }
}

sim::Task<void> OneEcho(Vm* vm, netsim::IpAddr ip, uint16_t port, uint64_t bytes,
                        uint64_t seed, bool* ok) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (fd < 0) co_return;
  if (0 != co_await api.Connect(cpu, fd, ip, port)) co_return;
  Rng rng(seed);
  std::vector<uint8_t> data(bytes);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  // Echo in 32 KB windows to bound the in-flight data.
  std::vector<uint8_t> back(bytes);
  uint64_t sent = 0, got = 0;
  bool good = true;
  while (got < bytes) {
    if (sent < bytes) {
      uint64_t chunk = std::min<uint64_t>(32 * 1024, bytes - sent);
      if (chunk != static_cast<uint64_t>(
                       co_await api.Send(cpu, fd, data.data() + sent, chunk))) {
        good = false;
        break;
      }
      sent += chunk;
    }
    while (got < sent) {
      int64_t r = co_await api.Recv(cpu, fd, back.data() + got, bytes - got);
      if (r <= 0) {
        good = false;
        break;
      }
      got += static_cast<uint64_t>(r);
    }
    if (!good) break;
  }
  co_await api.Close(cpu, fd);
  *ok = good && got == bytes && back == data;
}

// Busy cycles of a NetKernel VM and of its NSM over one fixed exchange: the
// VM echoes 256 KiB off a Baseline peer, on a host built with `options`.
struct EchoCycles {
  Cycles vm = 0;
  Cycles nsm = 0;
};
EchoCycles FixedEchoCycles(const Host::Options& options) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host host_a(&loop, &fabric, "hostA", options);
  Host host_b(&loop, &fabric, "hostB");
  Nsm* nsm = host_a.CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = host_a.CreateNetkernelVm("nk", 1, nsm);
  Vm* base = host_b.CreateBaselineVm("base", 1);
  int handled = 0;
  bool ok = false;
  sim::Spawn(EchoNServer(base, 7000, 1, &handled));
  sim::Spawn(OneEcho(nk, base->ip(), 7000, 256 * 1024, 4, &ok));
  loop.Run(5 * kSecond);
  EXPECT_TRUE(ok);
  return {nk->TotalBusyCycles(), nsm->TotalBusyCycles()};
}

TEST(NetkernelCostTable, OneTablePricesGuestLibAndServiceLib) {
  // Options::ce.costs is the host's one cost table: the copy cost set there
  // prices GuestLib's copies in the VM and ServiceLib's in the NSM, and the
  // polling window set there is GuestLib's.
  const EchoCycles base = FixedEchoCycles({});
  Host::Options no_copy;
  no_copy.ce.costs.hugepage_copy_per_byte = 0;
  const EchoCycles copy_free = FixedEchoCycles(no_copy);
  EXPECT_LT(copy_free.vm, base.vm);
  EXPECT_LT(copy_free.nsm, base.nsm);
  // With no polling window every inbound batch pays a device wakeup.
  Host::Options no_poll;
  no_poll.ce.costs.guest_poll_period = 0;
  EXPECT_GT(FixedEchoCycles(no_poll).vm, base.vm);
}

TEST_F(NetkernelE2eTest, NkClientToNkServerSameNsm) {
  // Two VMs multiplexed on one kernel NSM, talking through the fabric.
  Nsm* nsm = HostA().CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* server = HostA().CreateNetkernelVm("server", 1, nsm);
  Vm* client = HostA().CreateNetkernelVm("client", 1, nsm);
  int handled = 0;
  bool ok = false;
  sim::Spawn(EchoNServer(server, 7000, 1, &handled));
  sim::Spawn(OneEcho(client, server->ip(), 7000, 256 * 1024, 1, &ok));
  Run(5 * kSecond);
  EXPECT_EQ(handled, 1);
  EXPECT_TRUE(ok);
  EXPECT_GT(HostA().ce().stats().nqes_switched, 10u);
}

TEST_F(NetkernelE2eTest, NkToBaselineAcrossHosts) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  int handled = 0;
  bool ok = false;
  sim::Spawn(EchoNServer(base, 7000, 1, &handled));
  sim::Spawn(OneEcho(nk, base->ip(), 7000, 512 * 1024, 2, &ok));
  Run(5 * kSecond);
  EXPECT_TRUE(ok);
}

TEST_F(NetkernelE2eTest, BaselineToNkServer) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  int handled = 0;
  bool ok = false;
  sim::Spawn(EchoNServer(nk, 7001, 1, &handled));
  sim::Spawn(OneEcho(base, nk->ip(), 7001, 512 * 1024, 3, &ok));
  Run(5 * kSecond);
  EXPECT_TRUE(ok);
}

TEST_F(NetkernelE2eTest, MtcpNsmServesUnmodifiedApp) {
  // Use case 3 (§6.3): the identical application code, now on an mTCP NSM.
  Nsm* nsm = HostA().CreateNsm("mtcp", 1, NsmKind::kMtcp);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  int handled = 0;
  bool ok = false;
  sim::Spawn(EchoNServer(nk, 7002, 1, &handled));
  sim::Spawn(OneEcho(base, nk->ip(), 7002, 256 * 1024, 4, &ok));
  Run(5 * kSecond);
  EXPECT_TRUE(ok);
  EXPECT_GT(nsm->stack()->stats().conns_established, 0u);
}

TEST_F(NetkernelE2eTest, ConnectToClosedPortReturnsError) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  int result = 1;
  auto task = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    int fd = co_await api.Socket(nk->vcpu(0));
    result = co_await api.Connect(nk->vcpu(0), fd, base->ip(), 9999);
  };
  sim::Spawn(task());
  Run();
  EXPECT_EQ(result, tcp::kConnRefused);
}

TEST_F(NetkernelE2eTest, EpollDrivenServerOverGuestLib) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 4, [] {
    tcp::TcpStackConfig c;
    c.profile = tcp::SinkProfile();
    return c;
  }());
  apps::ServerStats sstat;
  apps::EpollServerConfig scfg;
  scfg.port = 8080;
  apps::StartEpollServer(nk, scfg, &sstat);
  apps::LoadGenStats lstat;
  apps::LoadGenConfig lcfg;
  lcfg.server_ip = nk->ip();
  lcfg.port = 8080;
  lcfg.concurrency = 32;
  lcfg.total_requests = 2000;
  apps::StartLoadGen(base, lcfg, &lstat);
  Run(20 * kSecond);
  EXPECT_TRUE(lstat.done);
  EXPECT_EQ(lstat.completed, 2000u);
  EXPECT_EQ(lstat.errors, 0u);
}

TEST_F(NetkernelE2eTest, SendCreditsEnforceBackpressure) {
  // A sender far faster than the receiver must be bounded by send credits +
  // receive-window backpressure, not grow without bound.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  // Server accepts but never reads.
  auto lazy_server = [&]() -> sim::Task<void> {
    SocketApi& api = base->api();
    int lfd = co_await api.Socket(base->vcpu(0));
    co_await api.Bind(base->vcpu(0), lfd, 0, 7000);
    co_await api.Listen(base->vcpu(0), lfd, 16, false);
    co_await api.Accept(base->vcpu(0), lfd);
    // ... and sits on the connection forever.
  };
  uint64_t sent_total = 0;
  auto pusher = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    int fd = co_await api.Socket(nk->vcpu(0));
    co_await api.Connect(nk->vcpu(0), fd, base->ip(), 7000);
    std::vector<uint8_t> chunk(64 * 1024, 1);
    for (int i = 0; i < 1000; ++i) {
      int64_t n = co_await api.Send(nk->vcpu(0), fd, chunk.data(), chunk.size());
      if (n <= 0) break;
      sent_total += static_cast<uint64_t>(n);
    }
  };
  sim::Spawn(lazy_server());
  sim::Spawn(pusher());
  Run(3 * kSecond);
  // Bounded by: guest send credit (4M) + NSM stack sndbuf (4M) + receiver
  // rcvbuf (1M) + modest in-flight slack -- far below the 64 MB offered.
  EXPECT_LT(sent_total, 16 * kMiB);
  EXPECT_GT(sent_total, 2 * kMiB);
}

TEST_F(NetkernelE2eTest, HugepagePoolDrainsBackToIdle) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  int handled = 0;
  bool ok = false;
  sim::Spawn(EchoNServer(base, 7000, 1, &handled));
  sim::Spawn(OneEcho(nk, base->ip(), 7000, 1 * kMiB, 5, &ok));
  Run(5 * kSecond);
  EXPECT_TRUE(ok);
  // All hugepage chunks returned after the transfer completed.
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
}

TEST_F(NetkernelE2eTest, SwitchNsmOnTheFly) {
  // New sockets use the new NSM; the app code never changes (use case 3).
  Nsm* kernel_nsm = HostA().CreateNsm("kernel", 1, NsmKind::kKernel);
  Nsm* mtcp_nsm = HostA().CreateNsm("mtcp", 1, NsmKind::kMtcp);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, kernel_nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  int handled = 0;
  sim::Spawn(EchoNServer(base, 7000, 2, &handled));
  bool ok1 = false, ok2 = false;
  sim::Spawn(OneEcho(nk, base->ip(), 7000, 128 * 1024, 6, &ok1));
  Run(3 * kSecond);
  EXPECT_TRUE(ok1);
  uint64_t kernel_conns = kernel_nsm->stack()->stats().conns_established;
  EXPECT_GT(kernel_conns, 0u);

  HostA().SwitchNsm(nk, mtcp_nsm);
  sim::Spawn(OneEcho(nk, base->ip(), 7000, 128 * 1024, 7, &ok2));
  Run(3 * kSecond);
  EXPECT_TRUE(ok2);
  EXPECT_GT(mtcp_nsm->stack()->stats().conns_established, 0u);
  EXPECT_EQ(kernel_nsm->stack()->stats().conns_established, kernel_conns);
}

TEST_F(NetkernelE2eTest, ListenerOpenedAfterSwitchNsmServesAtTheNewAddress) {
  // The server side of use case 3: SwitchNsm gives the VM an alias address
  // on the vNIC-backed NSM, so a listener opened after the switch is reached
  // at IpOn(new NSM), and the connections it accepts run on that NSM's stack.
  Nsm* kernel_nsm = HostA().CreateNsm("kernel", 1, NsmKind::kKernel);
  Nsm* mtcp_nsm = HostA().CreateNsm("mtcp", 1, NsmKind::kMtcp);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, kernel_nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);

  HostA().SwitchNsm(nk, mtcp_nsm);
  const netsim::IpAddr alias = nk->IpOn(mtcp_nsm);
  EXPECT_NE(alias, nk->IpOn(kernel_nsm));
  int handled = 0;
  bool ok = false;
  sim::Spawn(EchoNServer(nk, 8081, 1, &handled));
  Run(10 * kMillisecond);
  sim::Spawn(OneEcho(base, alias, 8081, 128 * 1024, 9, &ok));
  Run(3 * kSecond);
  EXPECT_TRUE(ok);
  EXPECT_EQ(handled, 1);
  EXPECT_GT(mtcp_nsm->stack()->stats().conns_established, 0u);
  EXPECT_EQ(kernel_nsm->stack()->stats().conns_established, 0u);
}

TEST_F(NetkernelE2eTest, SwitchNsmOntoFairShareInstallsTheVmWindowGroup) {
  // Every attach path (create, switch, failover re-home) wires the same
  // per-NSM state: switching onto a FairShare NSM gives the VM its shared
  // congestion window, and its new connections run under it.
  Nsm* kernel_nsm = HostA().CreateNsm("kernel", 1, NsmKind::kKernel);
  Nsm* fair_nsm = HostA().CreateNsm("fair", 1, NsmKind::kFairShare);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, kernel_nsm);
  Vm* base = HostB().CreateBaselineVm("base", 1);
  EXPECT_EQ(fair_nsm->shared_window_group(nk->id()), nullptr);

  HostA().SwitchNsm(nk, fair_nsm);
  std::shared_ptr<tcp::SharedWindowGroup> group = fair_nsm->shared_window_group(nk->id());
  ASSERT_NE(group, nullptr);
  int handled = 0;
  bool ok = false;
  sim::Spawn(EchoNServer(base, 7000, 1, &handled));
  sim::Spawn(OneEcho(nk, base->ip(), 7000, 128 * 1024, 8, &ok));
  Run(3 * kSecond);
  EXPECT_TRUE(ok);
  EXPECT_GT(fair_nsm->stack()->stats().conns_established, 0u);
  EXPECT_NE(group->cwnd(), tcp::SharedWindowGroup().cwnd()) << "the echo ran under the group";
  // Switching back and forth keeps the one group rather than minting another.
  HostA().SwitchNsm(nk, kernel_nsm);
  HostA().SwitchNsm(nk, fair_nsm);
  EXPECT_EQ(fair_nsm->shared_window_group(nk->id()), group);
}

TEST_F(NetkernelE2eTest, ManyVmsMultiplexOntoOneNsm) {
  // Use case 1 (§6.1): several VMs served by one NSM concurrently.
  Nsm* nsm = HostA().CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* base = HostB().CreateBaselineVm("base", 4, [] {
    tcp::TcpStackConfig c;
    c.profile = tcp::SinkProfile();
    return c;
  }());
  constexpr int kVms = 6;
  std::vector<char> oks(kVms, 0);
  int handled = 0;
  sim::Spawn(EchoNServer(base, 7000, kVms, &handled));
  std::vector<Vm*> vms;
  for (int i = 0; i < kVms; ++i) {
    vms.push_back(HostA().CreateNetkernelVm("vm" + std::to_string(i), 1, nsm));
  }
  std::vector<bool> results(kVms, false);
  static bool flags[16];
  for (int i = 0; i < kVms; ++i) flags[i] = false;
  for (int i = 0; i < kVms; ++i) {
    sim::Spawn(OneEcho(vms[static_cast<size_t>(i)], base->ip(), 7000, 64 * 1024,
                       100 + static_cast<uint64_t>(i), &flags[i]));
  }
  Run(20 * kSecond);
  EXPECT_EQ(handled, kVms);
  for (int i = 0; i < kVms; ++i) EXPECT_TRUE(flags[i]) << "vm " << i;
  (void)results;
}

// ---------------------------------------------------------------------------
// Calls a tenant gets wrong must fail that call, not the shared NSM.
// ---------------------------------------------------------------------------

// Connects `fd`, then connects it again and connects a listening socket; the
// first connection must still echo afterwards.
sim::Task<void> ConnectTwice(Vm* vm, netsim::IpAddr ip, uint16_t port, int* again,
                             int* on_listener, bool* echoed) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (0 != co_await api.Connect(cpu, fd, ip, port)) co_return;
  *again = co_await api.Connect(cpu, fd, ip, port);
  int lfd = co_await api.Socket(cpu);
  co_await api.Bind(cpu, lfd, 0, 7500);
  co_await api.Listen(cpu, lfd, 8, false);
  *on_listener = co_await api.Connect(cpu, lfd, ip, port);
  const uint8_t ping[4] = {'p', 'i', 'n', 'g'};
  uint8_t back[4] = {};
  co_await api.Send(cpu, fd, ping, sizeof(ping));
  int64_t r = co_await api.Recv(cpu, fd, back, sizeof(back));
  *echoed = r == sizeof(back) && std::equal(ping, ping + 4, back);
  co_await api.Close(cpu, lfd);
  co_await api.Close(cpu, fd);
}

TEST_F(NetkernelE2eTest, SecondConnectFailsTheCallNotTheStack) {
  // Under NetKernel the stack belongs to the NSM that every tenant shares,
  // so a connect() on a connected or listening socket must answer with an
  // error, as it does in the VM's own kernel, and leave the live connection
  // alone.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostA().CreateBaselineVm("base", 1);
  Vm* server = HostB().CreateBaselineVm("server", 2);
  int handled = 0;
  sim::Spawn(EchoNServer(server, 7000, 1, &handled));
  sim::Spawn(EchoNServer(server, 7001, 1, &handled));
  int again[2] = {1, 1};
  int on_listener[2] = {1, 1};
  bool echoed[2] = {false, false};
  sim::Spawn(ConnectTwice(nk, server->ip(), 7000, &again[0], &on_listener[0], &echoed[0]));
  sim::Spawn(ConnectTwice(base, server->ip(), 7001, &again[1], &on_listener[1], &echoed[1]));
  Run();
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i == 0 ? "NetKernel" : "Baseline");
    EXPECT_EQ(again[i], tcp::kIsConnected);
    EXPECT_EQ(on_listener[i], tcp::kIsConnected);
    EXPECT_TRUE(echoed[i]) << "the first connection broke";
  }
  EXPECT_EQ(handled, 2);
}

TEST_F(NetkernelE2eTest, ConnectOnADatagramSocketIsNotConnected) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* base = HostA().CreateBaselineVm("base", 1);
  Vm* server = HostB().CreateBaselineVm("server", 1);
  int result[2] = {1, 1};
  auto task = [&](Vm* vm, int* out) -> sim::Task<void> {
    int fd = co_await vm->api().SocketDgram(vm->vcpu(0));
    *out = co_await vm->api().Connect(vm->vcpu(0), fd, server->ip(), 7000);
    co_await vm->api().Close(vm->vcpu(0), fd);
  };
  sim::Spawn(task(nk, &result[0]));
  sim::Spawn(task(base, &result[1]));
  Run();
  EXPECT_EQ(result[0], tcp::kNotConnected) << "NetKernel";
  EXPECT_EQ(result[1], tcp::kNotConnected) << "Baseline";
  EXPECT_EQ(nsm->servicelib()->guard_drops(), 1u);
}

// Enqueues a raw send-family NQE naming guest handle `vm_sock`, with a chunk
// the guest owns, so nkguard admits it: the right ring, a live pool chunk.
void InjectSend(Host& host, Vm* vm, shm::NqeOp op, uint32_t vm_sock, uint64_t dst) {
  const uint64_t chunk = vm->pool()->Alloc(64);
  ASSERT_NE(chunk, shm::HugepagePool::kInvalidOffset);
  ASSERT_TRUE(vm->dev()->queue_set(0).send.TryEnqueue(
      shm::MakeNqe(op, vm->id(), 0, vm_sock, dst, chunk, 64)));
  host.ce().NotifyVmOutbound(vm->id(), 0);
}

TEST_F(NetkernelE2eTest, DatagramSendNamingAStreamSocketIsRefused) {
  // Before the NSM checked socket kinds, the kSendTo raised the stream
  // socket's in-flight send count for good, so its close never finished
  // and the peer never saw EOF.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* server = HostB().CreateBaselineVm("server", 1);
  int handled = 0;
  sim::Spawn(EchoNServer(server, 7000, 1, &handled));
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.Socket(cpu);  // GuestLib numbers handles from 1
    if (0 != co_await api.Connect(cpu, fd, server->ip(), 7000)) co_return;
    InjectSend(HostA(), nk, shm::NqeOp::kSendTo, 1, shm::PackAddr(server->ip(), 7000));
    co_await sim::Delay(&loop_, kMillisecond);
    co_await api.Close(cpu, fd);
  };
  sim::Spawn(client());
  Run();
  EXPECT_EQ(nsm->servicelib()->guard_drops(), 1u);
  EXPECT_EQ(handled, 1) << "the peer never saw EOF";
  // The refusal handed the chunk back with its credit; the guest freed it.
  EXPECT_EQ(nk->guestlib()->send_credit_reclaims(), 1u);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
  EXPECT_EQ(nk->pool()->allocs(), nk->pool()->frees());
}

TEST_F(NetkernelE2eTest, StreamSendNamingADatagramSocketIsRefused) {
  // Before the NSM checked socket kinds, the kSend pinned the datagram
  // socket, so its close never finished and its port stayed bound.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  int rebind = 1;
  auto client = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int fd = co_await api.SocketDgram(cpu);  // GuestLib numbers handles from 1
    if (0 != co_await api.Bind(cpu, fd, 0, 7000)) co_return;
    InjectSend(HostA(), nk, shm::NqeOp::kSend, 1, 0);
    co_await sim::Delay(&loop_, kMillisecond);
    co_await api.Close(cpu, fd);
    co_await sim::Delay(&loop_, kMillisecond);
    int fd2 = co_await api.SocketDgram(cpu);
    rebind = co_await api.Bind(cpu, fd2, 0, 7000);
    co_await api.Close(cpu, fd2);
  };
  sim::Spawn(client());
  Run();
  EXPECT_EQ(nsm->servicelib()->guard_drops(), 1u);
  EXPECT_EQ(rebind, 0) << "the closed socket still holds its port";
  EXPECT_EQ(nk->guestlib()->send_credit_reclaims(), 1u);
  EXPECT_EQ(nk->pool()->bytes_in_use(), 0u);
  EXPECT_EQ(nk->pool()->allocs(), nk->pool()->frees());
}

}  // namespace
}  // namespace netkernel
