// Copyright (c) NetKernel reproduction authors.
// Use case 2 (§6.2): VM-level fair bandwidth sharing with the FairShare NSM.
//
// A well-behaved VM (4 connections) and a selfish VM (16 connections) share
// a 10G port. With per-flow TCP the selfish VM would take ~80%; the
// FairShare NSM — VM-level shared congestion window + per-VM scheduling at
// the vNIC it owns — splits the port 50/50.

#include <cinttypes>
#include <cstdio>

#include "src/core/netkernel.h"

using namespace netkernel;

int main() {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host::Options options;
  options.port.bandwidth = 10 * kGbps;
  core::Host host(&loop, &fabric, "host", options);
  core::Host peer_host(&loop, &fabric, "peer");

  core::Nsm* nsm = host.CreateNsm("fairshare", 2, core::NsmKind::kFairShare);
  core::Vm* polite = host.CreateNetkernelVm("polite", 1, nsm);
  core::Vm* selfish = host.CreateNetkernelVm("selfish", 1, nsm);

  tcp::TcpStackConfig sink_cfg;
  sink_cfg.profile = tcp::SinkProfile();
  core::Vm* sink = peer_host.CreateBaselineVm("sink", 8, sink_cfg);

  apps::StreamStats polite_rx, selfish_rx, tx1, tx2;
  apps::StartStreamSink(sink, 9001, &polite_rx);
  apps::StartStreamSink(sink, 9002, &selfish_rx);

  apps::StreamConfig cfg;
  cfg.dst_ip = sink->ip();
  cfg.port = 9001;
  cfg.connections = 4;
  cfg.message_size = 16384;
  apps::StartStreamSenders(polite, cfg, &tx1);
  cfg.port = 9002;
  cfg.connections = 16;  // 4x the flows
  apps::StartStreamSenders(selfish, cfg, &tx2);

  loop.Run(300 * kMillisecond);  // converge
  uint64_t p0 = polite_rx.bytes_received, s0 = selfish_rx.bytes_received;
  SimTime t0 = loop.Now();
  loop.Run(loop.Now() + 1 * kSecond);
  SimTime span = loop.Now() - t0;

  double p_gbps = RateOf(polite_rx.bytes_received - p0, span) / kGbps;
  double s_gbps = RateOf(selfish_rx.bytes_received - s0, span) / kGbps;
  std::printf("FairShare NSM on a 10G port:\n");
  std::printf("  polite  VM (4 conns):  %.2f Gbps (%.1f%%)\n", p_gbps,
              100.0 * p_gbps / (p_gbps + s_gbps));
  std::printf("  selfish VM (16 conns): %.2f Gbps (%.1f%%)\n", s_gbps,
              100.0 * s_gbps / (p_gbps + s_gbps));
  std::printf("\nWith per-flow TCP fairness the selfish VM would take ~80%%.\n");
  auto g = nsm->shared_window_group(selfish->id());
  if (g) {
    std::printf("selfish VM's shared window: %.0f KB across %d flows (%.1f KB/flow)\n",
                g->cwnd() / 1e3, g->active_flows(), g->FlowShare() / 1e3);
  }

  // Operators (and guests) read their own isolation counters at runtime over
  // the same 8-byte CE control channel used for registration: two
  // kQueryVmStatWide messages return a 64-bit counter's low and high words.
  std::printf("\nPer-VM CoreEngine counters via CeOp::kQueryVmStatWide:\n");
  for (core::Vm* vm : {polite, selfish}) {
    auto query = [&](core::VmStatField f) {
      const uint32_t sel =
          (static_cast<uint32_t>(vm->id()) << 16) | (static_cast<uint32_t>(f) << 8);
      auto word = [&](uint32_t w) {
        return host.ce()
            .HandleControlMessage({static_cast<uint32_t>(core::CeOp::kQueryVmStatWide), sel | w})
            .ce_data;
      };
      return core::WideVmStat(word(0), word(1));
    };
    std::printf("  %-7s  switched=%" PRIu64 "  bytes=%" PRIu64 " KiB  throttled=%" PRIu64
                "  deferred=%" PRIu64 "  dropped=%" PRIu64 "\n",
                vm->name().c_str(), query(core::VmStatField::kSwitched),
                query(core::VmStatField::kBytes) >> 10, query(core::VmStatField::kThrottled),
                query(core::VmStatField::kDeferred), query(core::VmStatField::kDropped));
  }
  return 0;
}
