// Copyright (c) NetKernel reproduction authors.
// Ablations of NetKernel's own design choices. Each sets one knob of
// Host::Options::ce: the CE batch, or a field of ce.costs, the host's one
// NetKernel cost table, which CoreEngine, GuestLib and ServiceLib all read.
//
//  A. Hugepage copy cost (the paper's planned zerocopy, §7.8): sweep the
//     per-byte copy cost of the GuestLib/ServiceLib datapath and report
//     1-vCPU 8-stream send throughput. Setting it to 0 is the zerocopy
//     ablation; the gap to the default is exactly Table 6's overhead source.
//  B. CoreEngine polling batch (Fig 11 / §4.6 "batching"): sweep the CE batch
//     size and report short-connection RPS through a 4-vCPU mTCP NSM, where
//     CoreEngine is the bottleneck at high rates.
//  C. Interrupt-driven polling (§4.6): sweep GuestLib's polling window and
//     report mean request latency at moderate load — longer windows save
//     wakeup interrupts; window 0 (pure interrupt) pays one per NQE burst.

#include "bench/harness.h"

using namespace netkernel;

namespace {

// 1-vCPU 8-stream send with the hugepage copy cost overridden on both sides
// of the semantics channel (0 = the cost-knob zerocopy ablation, §7.8).
// `zerocopy_path` instead runs the real NkBuf loaning datapath at the
// default copy cost — the ablation made real, for comparison.
double SendGbpsWithCopyCost(double copy_per_byte, bool zerocopy_path = false) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host::Options opt;
  opt.ce.costs.hugepage_copy_per_byte = copy_per_byte;
  core::Host host_a(&loop, &fabric, "A", opt);
  core::Host host_b(&loop, &fabric, "B");
  core::Nsm* nsm = host_a.CreateNsm("nsm", 1, core::NsmKind::kKernel);
  core::Vm* vm = host_a.CreateNetkernelVm("vm", 1, nsm);
  tcp::TcpStackConfig sink_cfg;
  sink_cfg.profile = tcp::SinkProfile();
  core::Vm* peer = host_b.CreateBaselineVm("peer", 16, sink_cfg);
  apps::StreamStats sink, tx;
  apps::StartStreamSink(peer, 9000, &sink);
  apps::StreamConfig cfg;
  cfg.dst_ip = peer->ip();
  cfg.port = 9000;
  cfg.connections = 8;
  cfg.message_size = 8192;
  cfg.zerocopy = zerocopy_path;
  apps::StartStreamSenders(vm, cfg, &tx);
  loop.Run(20 * kMillisecond);
  uint64_t b0 = sink.bytes_received;
  loop.Run(loop.Now() + 40 * kMillisecond);
  return RateOf(sink.bytes_received - b0, 40 * kMillisecond) / kGbps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  bench::PrintHeader("Ablation A: hugepage copy datapath (zerocopy, §7.8)",
                     "Table 6's overhead source");
  std::printf("%18s %12s\n", "copy (cyc/B)", "send Gbps");
  for (double c : {0.09, 0.045, 0.0}) {
    double gbps = SendGbpsWithCopyCost(c);
    std::printf("%18.3f %12.1f%s\n", c, gbps,
                c == 0.0 ? "   <- zerocopy cost-knob ablation" : "");
    bench::GlobalJson().Add("ablation_copy_cost", "copy_per_byte=" + std::to_string(c),
                            "send_gbps", gbps);
  }
  {
    // The ablation made real: default copy cost, but the NkBuf zero-copy
    // loaning datapath — the app fills chunks in place and the stack
    // transmits from them, so the knob no longer matters.
    double gbps = SendGbpsWithCopyCost(0.09, /*zerocopy_path=*/true);
    std::printf("%18s %12.1f   <- real NkBuf zero-copy datapath\n", "zc path", gbps);
    bench::GlobalJson().Add("ablation_copy_cost", "mode=zc_path", "send_gbps", gbps);
  }
  std::printf("\n");

  bench::PrintHeader("Ablation B: CoreEngine polling batch size (Fig 11 / §4.6)",
                     "CE cycles per NQE fall with batch; RPS through a 4-vCPU mTCP NSM");
  std::printf("%8s %12s\n", "batch", "Krps");
  for (int batch : {1, 4, 16, 64}) {
    sim::EventLoop loop;
    netsim::Fabric fabric(&loop);
    core::Host::Options opt;
    opt.ce.batch = batch;
    core::Host host_a(&loop, &fabric, "A", opt);
    core::Host host_b(&loop, &fabric, "B");
    core::Nsm* nsm = host_a.CreateNsm("nsm", 4, core::NsmKind::kMtcp);
    core::Vm* srv = host_a.CreateNetkernelVm("srv", 4, nsm);
    tcp::TcpStackConfig cli_cfg;
    cli_cfg.profile = tcp::SinkProfile();
    core::Vm* cli = host_b.CreateBaselineVm("cli", 16, cli_cfg);
    apps::ServerStats sstat;
    apps::EpollServerConfig scfg;
    apps::StartEpollServer(srv, scfg, &sstat);
    apps::LoadGenStats lstat;
    apps::LoadGenConfig lcfg;
    lcfg.server_ip = srv->ip();
    lcfg.concurrency = 1000;
    lcfg.total_requests = 150000;
    apps::StartLoadGen(cli, lcfg, &lstat);
    loop.Run(60 * kSecond);
    std::printf("%8d %12.1f\n", batch, lstat.RequestsPerSec() / 1e3);
  }

  std::printf("\n");
  bench::PrintHeader("Ablation C: GuestLib interrupt-driven polling window (§4.6)",
                     "device wakeup interrupts vs polling window");
  std::printf("%14s %14s %16s\n", "window (us)", "mean lat (us)", "RPS (K)");
  for (SimTime window : {SimTime{0}, 5 * kMicrosecond, 20 * kMicrosecond, 80 * kMicrosecond}) {
    sim::EventLoop loop;
    netsim::Fabric fabric(&loop);
    core::Host::Options opt;
    opt.ce.costs.guest_poll_period = window;
    core::Host host_a(&loop, &fabric, "A", opt);
    core::Host host_b(&loop, &fabric, "B");
    core::Nsm* nsm = host_a.CreateNsm("nsm", 1, core::NsmKind::kKernel);
    core::Vm* srv = host_a.CreateNetkernelVm("srv", 1, nsm);
    tcp::TcpStackConfig cli_cfg;
    cli_cfg.profile = tcp::SinkProfile();
    core::Vm* cli = host_b.CreateBaselineVm("cli", 8, cli_cfg);
    apps::ServerStats sstat;
    apps::EpollServerConfig scfg;
    apps::StartEpollServer(srv, scfg, &sstat);
    apps::LoadGenStats lstat;
    apps::LoadGenConfig lcfg;
    lcfg.server_ip = srv->ip();
    lcfg.concurrency = 100;
    lcfg.total_requests = 30000;
    apps::StartLoadGen(cli, lcfg, &lstat);
    loop.Run(30 * kSecond);
    std::printf("%14lld %14.0f %16.1f\n", static_cast<long long>(window / kMicrosecond),
                lstat.latency_us.Mean(), lstat.RequestsPerSec() / 1e3);
  }
  return bench::GlobalJson().Write() ? 0 : 2;
}
