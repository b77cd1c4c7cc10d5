// Copyright (c) NetKernel reproduction authors.
// Figure 9 (use case 2, §6.2): VM-level fair bandwidth sharing.
//
// Two VMs share a 10G bottleneck toward one receiver. VM A is well-behaved
// (8 connections); VM B is selfish (8/16/24 connections). With Baseline
// per-flow TCP, B's share grows with its flow count (~50/66/75%). With the
// FairShare NSM — one shared congestion window per VM, each flow limited to
// 1/n of it — the split stays ~50/50 regardless.

#include "bench/harness.h"

using namespace netkernel;

namespace {

struct ShareResult {
  double a_share = 0, b_share = 0;  // % of aggregate goodput at the sink
  // NetKernel only: the same split as CoreEngine's PerVmStats sees it —
  // per-VM switched NQEs and payload bytes — so the fairness claim is
  // checkable at the switch, not just at the receiver.
  double ce_a_bytes_share = 0, ce_b_bytes_share = 0;
  uint64_t ce_a_switched = 0, ce_b_switched = 0;
  uint64_t ce_a_throttled = 0, ce_b_throttled = 0;
};

ShareResult RunShare(bool netkernel, int b_conns) {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  // Both VMs share a single 10G bottleneck. Its placement matches each
  // architecture: NetKernel VM traffic terminates at the NSM's vNIC (a 10G
  // VF, as in §7.6), so the NSM's port is the bottleneck and the receiver is
  // fast; Baseline VMs have independent vNICs, so the shared receiver port
  // is where their flows meet (with a shallow RED queue so per-flow
  // loss-based dynamics engage).
  netsim::Link::Config shared10g;
  shared10g.bandwidth = 10 * kGbps;
  shared10g.queue_limit_bytes = 2 * kMiB;
  netsim::Link::Config fast;

  core::Host::Options options_a;
  options_a.port = netkernel ? shared10g : fast;
  core::Host::Options options_b;
  options_b.port = netkernel ? fast : shared10g;
  core::Host host_a(&loop, &fabric, "A", options_a);
  core::Host host_b(&loop, &fabric, "B", options_b);

  core::Vm *vm_a, *vm_b;
  if (netkernel) {
    core::Nsm* nsm = host_a.CreateNsm("fair", 4, core::NsmKind::kFairShare);
    vm_a = host_a.CreateNetkernelVm("vmA", 2, nsm);
    vm_b = host_a.CreateNetkernelVm("vmB", 2, nsm);
  } else {
    // Baseline VMs share one 10G port: route both through a shared link by
    // giving each VM its own vNIC on the same-speed port (they contend at
    // the receiver's 10G port instead, the classic flow-level battleground).
    vm_a = host_a.CreateBaselineVm("vmA", 2);
    vm_b = host_a.CreateBaselineVm("vmB", 2);
  }
  tcp::TcpStackConfig sink_cfg;
  sink_cfg.profile = tcp::SinkProfile();
  core::Vm* sink_vm = host_b.CreateBaselineVm("sink", 8, sink_cfg);

  apps::StreamStats a_rx, b_rx, a_tx, b_tx;
  apps::StartStreamSink(sink_vm, 9000, &a_rx);
  apps::StartStreamSink(sink_vm, 9001, &b_rx);
  apps::StreamConfig a_cfg;
  a_cfg.dst_ip = sink_vm->ip();
  a_cfg.port = 9000;
  a_cfg.connections = 8;
  a_cfg.message_size = 16384;
  apps::StartStreamSenders(vm_a, a_cfg, &a_tx);
  apps::StreamConfig b_cfg = a_cfg;
  b_cfg.port = 9001;
  b_cfg.connections = b_conns;
  apps::StartStreamSenders(vm_b, b_cfg, &b_tx);

  loop.Run(400 * kMillisecond);  // converge
  uint64_t a0 = a_rx.bytes_received, b0 = b_rx.bytes_received;
  core::PerVmStats pa0, pb0;
  if (netkernel) {
    pa0 = host_a.VmNkStats(vm_a);
    pb0 = host_a.VmNkStats(vm_b);
  }
  loop.Run(loop.Now() + 1500 * kMillisecond);
  double a_bytes = static_cast<double>(a_rx.bytes_received - a0);
  double b_bytes = static_cast<double>(b_rx.bytes_received - b0);
  double total = a_bytes + b_bytes;
  ShareResult r;
  r.a_share = 100.0 * a_bytes / total;
  r.b_share = 100.0 * b_bytes / total;
  if (netkernel) {
    core::PerVmStats pa = host_a.VmNkStats(vm_a);
    core::PerVmStats pb = host_a.VmNkStats(vm_b);
    double ce_a = static_cast<double>(pa.bytes - pa0.bytes);
    double ce_b = static_cast<double>(pb.bytes - pb0.bytes);
    double ce_total = ce_a + ce_b;
    if (ce_total > 0) {
      r.ce_a_bytes_share = 100.0 * ce_a / ce_total;
      r.ce_b_bytes_share = 100.0 * ce_b / ce_total;
    }
    r.ce_a_switched = pa.switched - pa0.switched;
    r.ce_b_switched = pb.switched - pb0.switched;
    r.ce_a_throttled = pa.throttled - pa0.throttled;
    r.ce_b_throttled = pb.throttled - pb0.throttled;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  bench::PrintHeader(
      "Fig 9: bandwidth share of well-behaved VM A (8 conns) vs selfish VM B",
      "paper Fig 9 (Baseline: B grows with flows; NetKernel: 50/50)");
  std::printf("%12s | %22s | %22s | %26s\n", "conn ratio", "Baseline A% / B%",
              "NetKernel A% / B%", "CE PerVmStats A% / B% bytes");
  for (int b_conns : {8, 16, 24}) {
    auto base = RunShare(false, b_conns);
    auto nk = RunShare(true, b_conns);
    std::printf("%9d:8  | %10.1f / %-10.1f | %10.1f / %-10.1f | %12.1f / %-12.1f\n",
                b_conns, base.a_share, base.b_share, nk.a_share, nk.b_share,
                nk.ce_a_bytes_share, nk.ce_b_bytes_share);
    std::printf("%12s | switched A/B: %llu / %llu   throttled A/B: %llu / %llu\n", "",
                static_cast<unsigned long long>(nk.ce_a_switched),
                static_cast<unsigned long long>(nk.ce_b_switched),
                static_cast<unsigned long long>(nk.ce_a_throttled),
                static_cast<unsigned long long>(nk.ce_b_throttled));
    const std::string cfg = "b_conns=" + std::to_string(b_conns);
    bench::GlobalJson().Add("fig09_fair_share", cfg + " mode=base", "a_share_pct",
                            base.a_share);
    bench::GlobalJson().Add("fig09_fair_share", cfg + " mode=nk", "a_share_pct", nk.a_share);
  }
  return bench::GlobalJson().Write() ? 0 : 2;
}
