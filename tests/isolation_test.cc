// Copyright (c) NetKernel reproduction authors.
// Integration tests for multiplexing + isolation (§6.1, §7.6): several VMs
// sharing one NSM with CoreEngine rate caps, and the FairShare NSM's
// VM-level bandwidth sharing.

#include <gtest/gtest.h>

#include "src/core/netkernel.h"

namespace netkernel {
namespace {

using core::NsmKind;

TEST(IsolationTest, TokenBucketCapsVmThroughput) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host host_a(&loop, &fabric, "A");
  core::Host host_b(&loop, &fabric, "B");
  core::Nsm* nsm = host_a.CreateNsm("nsm", 2, NsmKind::kKernel);
  core::Vm* capped = host_a.CreateNetkernelVm("capped", 1, nsm);
  core::Vm* open_vm = host_a.CreateNetkernelVm("open", 1, nsm);
  host_a.ce().SetVmByteRate(capped->id(), 1e9 / 8, 1e6);  // 1 Gbps

  tcp::TcpStackConfig sink_cfg;
  sink_cfg.profile = tcp::SinkProfile();
  core::Vm* sink = host_b.CreateBaselineVm("sink", 8, sink_cfg);
  apps::StreamStats rx_capped, rx_open, tx1, tx2;
  apps::StartStreamSink(sink, 9001, &rx_capped);
  apps::StartStreamSink(sink, 9002, &rx_open);

  apps::StreamConfig cfg;
  cfg.dst_ip = sink->ip();
  cfg.port = 9001;
  cfg.connections = 4;
  cfg.message_size = 16384;
  apps::StartStreamSenders(capped, cfg, &tx1);
  cfg.port = 9002;
  apps::StartStreamSenders(open_vm, cfg, &tx2);

  loop.Run(200 * kMillisecond);
  uint64_t c0 = rx_capped.bytes_received, o0 = rx_open.bytes_received;
  loop.Run(loop.Now() + 500 * kMillisecond);
  double capped_gbps = RateOf(rx_capped.bytes_received - c0, 500 * kMillisecond) / kGbps;
  double open_gbps = RateOf(rx_open.bytes_received - o0, 500 * kMillisecond) / kGbps;

  EXPECT_LE(capped_gbps, 1.15);  // enforced cap (+ bucket burst tolerance)
  EXPECT_GE(capped_gbps, 0.7);   // but the VM does get its allowance
  EXPECT_GT(open_gbps, 5.0);     // the uncapped VM is not collateral damage
}

TEST(IsolationTest, OpRateCapThrottlesShortConnections) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host host_a(&loop, &fabric, "A");
  core::Host host_b(&loop, &fabric, "B");
  core::Nsm* nsm = host_a.CreateNsm("nsm", 2, NsmKind::kKernel);
  core::Vm* srv = host_a.CreateNetkernelVm("srv", 1, nsm);
  // Cap the server VM at 2000 NQEs/s; a request costs a few outbound NQEs
  // (accept-link, send, close), so well under half the offered rate passes.
  host_a.ce().SetVmOpRate(srv->id(), 2000, 64);

  tcp::TcpStackConfig cli_cfg;
  cli_cfg.profile = tcp::SinkProfile();
  core::Vm* cli = host_b.CreateBaselineVm("cli", 4, cli_cfg);
  apps::ServerStats sstat;
  apps::EpollServerConfig scfg;
  apps::StartEpollServer(srv, scfg, &sstat);
  apps::LoadGenStats lstat;
  apps::LoadGenConfig lcfg;
  lcfg.server_ip = srv->ip();
  lcfg.concurrency = 16;
  lcfg.total_requests = 0;
  lcfg.open_loop_rps = 5000;
  apps::StartLoadGen(cli, lcfg, &lstat);

  loop.Run(2 * kSecond);
  double rps = static_cast<double>(sstat.requests) / 2.0;
  EXPECT_LT(rps, 2000.0);  // NQE policing throttles well below offered 5000/s
  EXPECT_GT(rps, 100.0);
  EXPECT_GT(host_a.ce().stats().throttled_nqes, 0u);
}

TEST(IsolationTest, FairShareNsmSplitsBandwidthByVm) {
  // The §6.2 headline at test scale: B opens 3x the flows but gets ~50%.
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host::Options options_a;
  options_a.port.bandwidth = 10 * kGbps;
  core::Host host_a(&loop, &fabric, "A", options_a);
  core::Host host_b(&loop, &fabric, "B");
  core::Nsm* nsm = host_a.CreateNsm("fair", 2, NsmKind::kFairShare);
  core::Vm* vm_a = host_a.CreateNetkernelVm("vmA", 1, nsm);
  core::Vm* vm_b = host_a.CreateNetkernelVm("vmB", 1, nsm);
  tcp::TcpStackConfig sink_cfg;
  sink_cfg.profile = tcp::SinkProfile();
  core::Vm* sink = host_b.CreateBaselineVm("sink", 8, sink_cfg);

  apps::StreamStats a_rx, b_rx, a_tx, b_tx;
  apps::StartStreamSink(sink, 9001, &a_rx);
  apps::StartStreamSink(sink, 9002, &b_rx);
  apps::StreamConfig cfg;
  cfg.dst_ip = sink->ip();
  cfg.port = 9001;
  cfg.connections = 4;
  cfg.message_size = 16384;
  apps::StartStreamSenders(vm_a, cfg, &a_tx);
  cfg.port = 9002;
  cfg.connections = 12;
  apps::StartStreamSenders(vm_b, cfg, &b_tx);

  loop.Run(300 * kMillisecond);
  uint64_t a0 = a_rx.bytes_received, b0 = b_rx.bytes_received;
  loop.Run(loop.Now() + 700 * kMillisecond);
  double a_bytes = static_cast<double>(a_rx.bytes_received - a0);
  double b_bytes = static_cast<double>(b_rx.bytes_received - b0);
  double a_share = a_bytes / (a_bytes + b_bytes);
  EXPECT_GT(a_share, 0.40);
  EXPECT_LT(a_share, 0.60);
}

TEST(IsolationTest, RoundRobinPollingSharesCoreEngineFairly) {
  // Two VMs hammer CoreEngine with short connections; neither should starve.
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host host_a(&loop, &fabric, "A");
  core::Host host_b(&loop, &fabric, "B");
  core::Nsm* nsm = host_a.CreateNsm("nsm", 4, NsmKind::kKernel);
  core::Vm* vm1 = host_a.CreateNetkernelVm("vm1", 1, nsm);
  core::Vm* vm2 = host_a.CreateNetkernelVm("vm2", 1, nsm);
  tcp::TcpStackConfig cli_cfg;
  cli_cfg.profile = tcp::SinkProfile();
  core::Vm* cli = host_b.CreateBaselineVm("cli", 8, cli_cfg);

  apps::ServerStats s1, s2;
  apps::EpollServerConfig scfg;
  apps::StartEpollServer(vm1, scfg, &s1);
  apps::StartEpollServer(vm2, scfg, &s2);
  apps::LoadGenStats l1, l2;
  apps::LoadGenConfig lcfg;
  lcfg.port = 8080;
  lcfg.concurrency = 200;
  lcfg.total_requests = 0;
  lcfg.server_ip = vm1->ip();
  apps::StartLoadGen(cli, lcfg, &l1);
  lcfg.server_ip = vm2->ip();
  lcfg.seed = 43;
  apps::StartLoadGen(cli, lcfg, &l2);

  loop.Run(2 * kSecond);
  ASSERT_GT(s1.requests, 1000u);
  ASSERT_GT(s2.requests, 1000u);
  double ratio = static_cast<double>(s1.requests) / static_cast<double>(s2.requests);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

}  // namespace
}  // namespace netkernel
