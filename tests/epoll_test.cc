// Copyright (c) NetKernel reproduction authors.
// Epoll edge semantics on the SocketApi boundary: zero-timeout polls,
// deadline expiry racing a readiness notification, interest-set removal
// during a blocked wait, and EpollClose waking blocked waiters (the
// EpollRegistry::Destroy fix — instances no longer leak for program life).

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

class EpollTest : public ::testing::Test {
 protected:
  EpollTest() : fabric_(&loop_) {}

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

// Established stream pair helper: returns (server-side fd) on `vm` with
// `peer` connected to it; `peer_fd` receives the client's fd.
sim::Task<int> EstablishPair(Vm* vm, Vm* peer, uint16_t port, int* peer_fd) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int lfd = co_await api.Socket(cpu);
  co_await api.Bind(cpu, lfd, 0, port);
  co_await api.Listen(cpu, lfd, 16, false);

  SocketApi& papi = peer->api();
  sim::CpuCore* pcpu = peer->vcpu(0);
  int cfd = co_await papi.Socket(pcpu);
  co_await papi.Connect(pcpu, cfd, vm->ip(), port);
  *peer_fd = cfd;
  int fd = co_await api.Accept(cpu, lfd);
  co_await api.Close(cpu, lfd);
  co_return fd;
}

TEST_F(EpollTest, ZeroTimeoutPollsWithoutBlocking) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 1);

  bool checked = false;
  auto body = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int peer_fd = -1;
    int fd = co_await EstablishPair(nk, peer, 9000, &peer_fd);
    int ep = api.EpollCreate();
    api.EpollCtl(ep, fd, core::kEpollIn);

    // Nothing readable yet: timeout=0 must return immediately and empty.
    SimTime t0 = api.loop()->Now();
    auto evs = co_await api.EpollWait(cpu, ep, 8, 0);
    EXPECT_TRUE(evs.empty());
    // Immediate = no event-loop sleep beyond the syscall/cpu charges (< 1ms).
    EXPECT_LT(api.loop()->Now() - t0, kMillisecond);

    // Make it readable, then poll again: the event must be reported.
    std::vector<uint8_t> msg(128, 0x42);
    co_await peer->api().Send(peer->vcpu(0), peer_fd, msg.data(), msg.size());
    co_await sim::Delay(api.loop(), 20 * kMillisecond);
    evs = co_await api.EpollWait(cpu, ep, 8, 0);
    EXPECT_EQ(evs.size(), 1u);
    if (!evs.empty()) {
      EXPECT_EQ(evs[0].fd, fd);
      EXPECT_TRUE(evs[0].events & core::kEpollIn);
      checked = true;
    }
  };
  sim::Spawn(body());
  Run();
  EXPECT_TRUE(checked);
}

TEST_F(EpollTest, DeadlineExpiryVsNotifyRace) {
  // Data arrives in the same instant the wait's deadline fires. The waiter
  // must return exactly once — either empty (expiry won) or with the event —
  // and a follow-up zero-timeout poll must surface the event either way.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 1);

  bool checked = false;
  auto body = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int peer_fd = -1;
    int fd = co_await EstablishPair(nk, peer, 9000, &peer_fd);
    int ep = api.EpollCreate();
    api.EpollCtl(ep, fd, core::kEpollIn);

    // The peer's send is scheduled to land around the 50ms deadline; over
    // the simulated fabric "around" is exact enough to exercise the race.
    const SimTime kTimeout = 50 * kMillisecond;
    auto sender = [&]() -> sim::Task<void> {
      co_await sim::Delay(peer->api().loop(), kTimeout);
      std::vector<uint8_t> msg(64, 0x17);
      co_await peer->api().Send(peer->vcpu(0), peer_fd, msg.data(), msg.size());
    };
    sim::Spawn(sender());
    SimTime t0 = api.loop()->Now();
    auto evs = co_await api.EpollWait(cpu, ep, 8, kTimeout);
    // Returned exactly once, at (or just after) the deadline; never hangs.
    EXPECT_GE(api.loop()->Now() - t0, kTimeout - kMillisecond);
    EXPECT_LE(evs.size(), 1u);
    // The data is not lost either way: poll until it shows up.
    for (int i = 0; i < 100 && evs.empty(); ++i) {
      co_await sim::Delay(api.loop(), kMillisecond);
      evs = co_await api.EpollWait(cpu, ep, 8, 0);
    }
    EXPECT_EQ(evs.size(), 1u);
    if (!evs.empty()) {
      EXPECT_EQ(evs[0].fd, fd);
      checked = true;
    }
    // The sender closure lives in this frame: outlive it before returning.
    co_await sim::Delay(api.loop(), 100 * kMillisecond);
  };
  sim::Spawn(body());
  Run();
  EXPECT_TRUE(checked);
}

TEST_F(EpollTest, CtlRemoveDuringBlockedWait) {
  // A waiter is blocked on the only watched fd; the interest is removed
  // mid-wait, then the fd becomes readable. The waiter must NOT report the
  // removed fd — it returns empty at its deadline.
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 1);

  bool checked = false;
  auto body = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int peer_fd = -1;
    int fd = co_await EstablishPair(nk, peer, 9000, &peer_fd);
    int ep = api.EpollCreate();
    api.EpollCtl(ep, fd, core::kEpollIn);

    auto mutator = [&]() -> sim::Task<void> {
      co_await sim::Delay(api.loop(), 10 * kMillisecond);
      api.EpollCtl(ep, fd, 0);  // remove while the waiter is blocked
      std::vector<uint8_t> msg(64, 0x99);
      co_await peer->api().Send(peer->vcpu(0), peer_fd, msg.data(), msg.size());
    };
    sim::Spawn(mutator());
    SimTime t0 = api.loop()->Now();
    auto evs = co_await api.EpollWait(cpu, ep, 8, 100 * kMillisecond);
    EXPECT_TRUE(evs.empty());
    EXPECT_GE(api.loop()->Now() - t0, 100 * kMillisecond - kMillisecond);
    checked = true;
  };
  sim::Spawn(body());
  Run();
  EXPECT_TRUE(checked);
}

TEST_F(EpollTest, EpollCloseWakesBlockedWaiterWithEmptyResult) {
  Nsm* nsm = HostA().CreateNsm("nsm", 1, NsmKind::kKernel);
  Vm* nk = HostA().CreateNetkernelVm("nk", 1, nsm);
  Vm* peer = HostB().CreateBaselineVm("peer", 1);

  bool woke_empty = false;
  bool closed_ok = false;
  auto body = [&]() -> sim::Task<void> {
    SocketApi& api = nk->api();
    sim::CpuCore* cpu = nk->vcpu(0);
    int peer_fd = -1;
    int fd = co_await EstablishPair(nk, peer, 9000, &peer_fd);
    int ep = api.EpollCreate();
    api.EpollCtl(ep, fd, core::kEpollIn);

    auto closer = [&]() -> sim::Task<void> {
      co_await sim::Delay(api.loop(), 10 * kMillisecond);
      closed_ok = api.EpollClose(ep) == 0;
    };
    sim::Spawn(closer());
    SimTime t0 = api.loop()->Now();
    // Infinite timeout: without Destroy waking us, this would hang forever.
    auto evs = co_await api.EpollWait(cpu, ep, 8, -1);
    woke_empty = evs.empty() && (api.loop()->Now() - t0) < kSecond;
    // The instance is gone: further ops fail / return empty.
    EXPECT_EQ(api.EpollCtl(ep, fd, core::kEpollIn), -1);
    EXPECT_EQ(api.EpollClose(ep), -1);
    auto evs2 = co_await api.EpollWait(cpu, ep, 8, 0);
    EXPECT_TRUE(evs2.empty());
  };
  sim::Spawn(body());
  Run();
  EXPECT_TRUE(closed_ok);
  EXPECT_TRUE(woke_empty);
}

TEST_F(EpollTest, BaselineEpollCloseWorksToo) {
  Vm* base = HostA().CreateBaselineVm("base", 1);
  bool ok = false;
  // Both coroutine lambdas live in the test scope (not inside another
  // coroutine's frame), so each closure outlives its spawned coroutine.
  int ep = base->api().EpollCreate();
  auto waiter = [&]() -> sim::Task<void> {
    auto evs = co_await base->api().EpollWait(base->vcpu(0), ep, 8, -1);
    ok = evs.empty();
  };
  auto closer = [&]() -> sim::Task<void> {
    co_await sim::Delay(base->api().loop(), 5 * kMillisecond);
    EXPECT_EQ(base->api().EpollClose(ep), 0);
  };
  sim::Spawn(waiter());
  sim::Spawn(closer());
  Run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace netkernel
