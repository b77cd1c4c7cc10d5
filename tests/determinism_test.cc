// Copyright (c) NetKernel reproduction authors.
// Determinism and datapath property sweeps.
//
// The whole macro evaluation rests on the discrete-event simulation being
// reproducible: identical configurations must produce byte-identical results
// run to run. The property sweep drives the full NetKernel datapath (GuestLib
// -> CoreEngine -> ServiceLib -> stack -> fabric) across NSM kinds and
// message sizes, checking end-to-end payload integrity each time.

#include <gtest/gtest.h>

#include <tuple>

#include "src/common/rng.h"
#include "src/core/netkernel.h"

namespace netkernel {
namespace {

using core::NsmKind;
using core::SocketApi;
using core::Vm;

struct RunResult {
  uint64_t completed = 0;
  uint64_t nqes = 0;
  double mean_latency_us = 0;
  uint64_t events = 0;
  netsim::IpAddr server_ip = 0;
};

RunResult RunWorkload(uint64_t seed) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host host_a(&loop, &fabric, "A");
  core::Host host_b(&loop, &fabric, "B");
  core::Nsm* nsm = host_a.CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* srv = host_a.CreateNetkernelVm("srv", 2, nsm);
  tcp::TcpStackConfig cfg;
  cfg.profile = tcp::SinkProfile();
  Vm* cli = host_b.CreateBaselineVm("cli", 4, cfg);
  apps::ServerStats sstat;
  apps::EpollServerConfig scfg;
  apps::StartEpollServer(srv, scfg, &sstat);
  apps::LoadGenStats lstat;
  apps::LoadGenConfig lcfg;
  lcfg.server_ip = srv->ip();
  lcfg.concurrency = 64;
  lcfg.total_requests = 4000;
  lcfg.seed = seed;
  apps::StartLoadGen(cli, lcfg, &lstat);
  loop.Run(30 * kSecond);
  RunResult r;
  r.completed = lstat.completed;
  r.nqes = host_a.ce().stats().nqes_switched;
  r.mean_latency_us = lstat.latency_us.Mean();
  r.events = loop.events_executed();
  r.server_ip = srv->ip();
  return r;
}

// Back-to-back runs in one process, nothing reset in between: every address
// comes from the run's own fabric, so the second run sees the same server
// address, the same flow hashes and the same event count as the first.
TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  RunResult a = RunWorkload(7);
  RunResult b = RunWorkload(7);
  EXPECT_EQ(a.server_ip, b.server_ip);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.nqes, b.nqes);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.mean_latency_us, b.mean_latency_us);
}

TEST(Determinism, RepeatedRunsAlwaysComplete) {
  // Closed-loop load is seed-independent; the invariant is that repeated
  // full-datapath runs complete every request with no stragglers.
  RunResult a = RunWorkload(7);
  RunResult b = RunWorkload(8);
  EXPECT_EQ(a.completed, 4000u);
  EXPECT_EQ(b.completed, 4000u);
}

// ---------------------------------------------------------------------------
// Datapath property sweep
// ---------------------------------------------------------------------------

struct EchoParams {
  int nsm_kind;  // 0 kernel, 1 mtcp, 2 shm
  uint32_t message_size;
  int vm_cores;
};

class NkDatapathPropertyTest : public ::testing::TestWithParam<EchoParams> {};

sim::Task<void> PropEcho(Vm* vm, netsim::IpAddr ip, uint16_t port, uint32_t msg_size,
                         int rounds, uint64_t seed, bool* ok) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (fd < 0 || 0 != co_await api.Connect(cpu, fd, ip, port)) co_return;
  Rng rng(seed);
  std::vector<uint8_t> out(msg_size), back(msg_size);
  bool good = true;
  for (int r = 0; r < rounds && good; ++r) {
    for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
    if (static_cast<int64_t>(msg_size) !=
        co_await api.Send(cpu, fd, out.data(), msg_size)) {
      good = false;
      break;
    }
    uint64_t got = 0;
    while (got < msg_size) {
      int64_t n = co_await api.Recv(cpu, fd, back.data() + got, msg_size - got);
      if (n <= 0) {
        good = false;
        break;
      }
      got += static_cast<uint64_t>(n);
    }
    good = good && back == out;
  }
  co_await api.Close(cpu, fd);
  *ok = good;
}

sim::Task<void> PropEchoServer(Vm* vm, uint16_t port) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int lfd = co_await api.Socket(cpu);
  co_await api.Bind(cpu, lfd, 0, port);
  co_await api.Listen(cpu, lfd, 16, false);
  int fd = co_await api.Accept(cpu, lfd);
  std::vector<uint8_t> buf(128 * 1024);
  for (;;) {
    int64_t n = co_await api.Recv(cpu, fd, buf.data(), buf.size());
    if (n <= 0) break;
    co_await api.Send(cpu, fd, buf.data(), static_cast<uint64_t>(n));
  }
  co_await api.Close(cpu, fd);
}

TEST_P(NkDatapathPropertyTest, EchoIntegrityAcrossNsmKinds) {
  const EchoParams p = GetParam();
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host host(&loop, &fabric, "host");
  NsmKind kind = p.nsm_kind == 0   ? NsmKind::kKernel
                 : p.nsm_kind == 1 ? NsmKind::kMtcp
                                   : NsmKind::kShm;
  core::Nsm* nsm = host.CreateNsm("nsm", 2, kind);
  Vm* server = host.CreateNetkernelVm("server", p.vm_cores, nsm);
  Vm* client = host.CreateNetkernelVm("client", p.vm_cores, nsm);

  bool ok = false;
  sim::Spawn(PropEchoServer(server, 7000));
  sim::Spawn(PropEcho(client, server->ip(), 7000, p.message_size, 6,
                      1000 + p.message_size, &ok));
  loop.Run(20 * kSecond);
  EXPECT_TRUE(ok) << "kind=" << p.nsm_kind << " msg=" << p.message_size;
}

std::string EchoName(const ::testing::TestParamInfo<EchoParams>& info) {
  const char* kinds[] = {"kernel", "mtcp", "shm"};
  return std::string(kinds[info.param.nsm_kind]) + "_msg" +
         std::to_string(info.param.message_size) + "_c" +
         std::to_string(info.param.vm_cores);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NkDatapathPropertyTest,
    ::testing::Values(EchoParams{0, 1, 1}, EchoParams{0, 63, 1}, EchoParams{0, 64, 1},
                      EchoParams{0, 1448, 1}, EchoParams{0, 65536, 1},
                      EchoParams{0, 100000, 1}, EchoParams{0, 8192, 2},
                      EchoParams{1, 64, 1}, EchoParams{1, 8192, 1},
                      EchoParams{1, 100000, 2}, EchoParams{2, 64, 1},
                      EchoParams{2, 8192, 1}, EchoParams{2, 100000, 2}),
    EchoName);

}  // namespace
}  // namespace netkernel
