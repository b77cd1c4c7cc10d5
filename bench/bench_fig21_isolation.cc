// Copyright (c) NetKernel reproduction authors.
// Figure 21 (§7.6): isolation of VMs sharing one NSM via CoreEngine token
// buckets.
//
// Three VMs share a kernel-stack NSM with a 10G VF. VM1 is capped at 1 Gbps,
// VM2 at 500 Mbps, VM3 is uncapped and work-conserving. They arrive/depart:
// VM1 at t=0 (leaves 25s), VM2 at 4.5s (leaves 21s), VM3 at 8s (stays). The
// expected series: VM1 pinned at 1G, VM2 at 0.5G, VM3 soaking up the rest.

#include "bench/harness.h"

using namespace netkernel;

namespace {
constexpr SimTime kBin = 100 * kMillisecond;
constexpr SimTime kEnd = 30 * kSecond;
}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  bench::PrintHeader("Fig 21: per-VM throughput under CoreEngine rate caps (10G NSM)",
                     "paper Fig 21 (caps enforced; VM3 work-conserving)");
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host::Options options_a;
  options_a.port.bandwidth = 10 * kGbps;  // the NSM's 10G VF
  core::Host host_a(&loop, &fabric, "A", options_a);
  core::Host host_b(&loop, &fabric, "B");

  core::Nsm* nsm = host_a.CreateNsm("nsm", 1, core::NsmKind::kKernel);
  core::Vm* vm1 = host_a.CreateNetkernelVm("vm1", 1, nsm);
  core::Vm* vm2 = host_a.CreateNetkernelVm("vm2", 1, nsm);
  core::Vm* vm3 = host_a.CreateNetkernelVm("vm3", 1, nsm);
  // Egress policing at CoreEngine (bytes/s with a small burst).
  host_a.ce().SetVmByteRate(vm1->id(), 1e9 / 8, 2e6);
  host_a.ce().SetVmByteRate(vm2->id(), 0.5e9 / 8, 1e6);

  tcp::TcpStackConfig sink_cfg;
  sink_cfg.profile = tcp::SinkProfile();
  core::Vm* sink = host_b.CreateBaselineVm("sink", 8, sink_cfg);

  apps::StreamStats rx1, rx2, rx3, tx;
  TimeSeries s1(kBin), s2(kBin), s3(kBin);
  rx1.goodput_series = &s1;
  rx2.goodput_series = &s2;
  rx3.goodput_series = &s3;
  apps::StartStreamSink(sink, 9001, &rx1);
  apps::StartStreamSink(sink, 9002, &rx2);
  apps::StartStreamSink(sink, 9003, &rx3);

  auto start_vm = [&](core::Vm* vm, uint16_t port, apps::StreamStats* stats) {
    apps::StreamConfig cfg;
    cfg.dst_ip = sink->ip();
    cfg.port = port;
    cfg.connections = 4;
    cfg.message_size = 16384;
    apps::StartStreamSenders(vm, cfg, stats);
  };

  // Arrivals and departures (departure modeled by pausing via op-rate cap 0
  // would stall retransmits; instead we abort the VM's NQE flow by capping
  // its byte rate to ~0 — the paper's VMs simply stop their workload).
  start_vm(vm1, 9001, &rx1);
  loop.Schedule(4500 * kMillisecond, [&] { start_vm(vm2, 9002, &rx2); });
  loop.Schedule(8 * kSecond, [&] { start_vm(vm3, 9003, &rx3); });
  loop.Schedule(21 * kSecond, [&] { host_a.ce().SetVmByteRate(vm2->id(), 1.0, 1.0); });
  loop.Schedule(25 * kSecond, [&] { host_a.ce().SetVmByteRate(vm1->id(), 1.0, 1.0); });
  loop.Run(kEnd);

  std::printf("%8s %10s %10s %10s   (Gbps per 100ms bin)\n", "t(s)", "VM1", "VM2", "VM3");
  size_t bins = static_cast<size_t>(kEnd / kBin);
  for (size_t i = 0; i < bins; i += 5) {  // print every 0.5s
    auto gbps = [&](TimeSeries& s) { return s.BinValue(i) * 8.0 / ToSeconds(kBin) / 1e9; };
    std::printf("%8.1f %10.2f %10.2f %10.2f\n", ToSeconds(static_cast<SimTime>(i) * kBin),
                gbps(s1), gbps(s2), gbps(s3));
  }

  // The switch's own view of the same run: per-VM service, policing, and
  // loss accounting from CoreEngine::VmStats (nothing is eyeballed).
  std::printf("\nCoreEngine per-VM stats:\n");
  std::printf("%6s %12s %14s %12s %12s %12s\n", "VM", "switched", "bytes", "throttled",
              "deferred", "dropped");
  for (core::Vm* vm : {vm1, vm2, vm3}) {
    core::PerVmStats s = host_a.VmNkStats(vm);
    std::printf("%6s %12llu %14llu %12llu %12llu %12llu\n", vm->name().c_str(),
                static_cast<unsigned long long>(s.switched),
                static_cast<unsigned long long>(s.bytes),
                static_cast<unsigned long long>(s.throttled),
                static_cast<unsigned long long>(s.deferred),
                static_cast<unsigned long long>(s.dropped));
    const std::string cfg = "vm=" + vm->name();
    bench::GlobalJson().Add("fig21_isolation", cfg, "switched",
                            static_cast<double>(s.switched));
    bench::GlobalJson().Add("fig21_isolation", cfg, "throttled",
                            static_cast<double>(s.throttled));
  }
  return bench::GlobalJson().Write() ? 0 : 2;
}
