// Copyright (c) NetKernel reproduction authors.
// UDP request/response rate: a memcached-style UDP key-value server on a
// Baseline VM vs a NetKernel VM (kernel NSM), driven by an open-loop Poisson
// load generator at increasing offered rates.
//
// This is the datagram analogue of the RPS experiments (Fig 17/20): it shows
// the NQE datapath carrying a transport the original evaluation never
// exercised — the same app binary logic, redirected through GuestLib ->
// CoreEngine -> ServiceLib -> UdpStack — and what the redirection costs in
// achieved RPS, latency percentiles, and loss under overload.

#include <cstdio>

#include "bench/harness.h"

namespace netkernel::bench {
namespace {

struct Row {
  double offered_krps = 0;
  double achieved_krps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double loss_pct = 0;
};

Row RunOne(bool netkernel_server, double offered_rps) {
  Testbed tb;
  core::Vm* server = netkernel_server
                         ? tb.MakeNkVm(/*vm_cores=*/1, /*nsm_cores=*/1, core::NsmKind::kKernel)
                         : tb.MakeBaselineVm(1);
  core::Vm* peer = tb.MakePeer(4);

  apps::UdpKvStats sstat;
  apps::UdpKvServerConfig scfg;
  scfg.port = 11211;
  scfg.threads = 1;
  apps::StartUdpKvServer(server, scfg, &sstat);

  constexpr SimTime kWarmup = 200 * kMillisecond;
  constexpr SimTime kWindow = 1 * kSecond;

  apps::UdpLoadGenStats lstat;
  apps::UdpLoadGenConfig lcfg;
  lcfg.server_ip = server->ip();
  lcfg.port = 11211;
  lcfg.rps = offered_rps;
  lcfg.value_size = 100;
  lcfg.threads = 2;
  // Bounded offered load (warmup + window), so a drain phase can separate
  // real losses from requests merely in flight at the measurement cutoff.
  lcfg.total_requests = static_cast<uint64_t>(offered_rps * ToSeconds(kWarmup + kWindow));
  lcfg.measure_from = kWarmup;  // latency percentiles exclude warmup requests
  apps::StartUdpLoadGen(peer, lcfg, &lstat);

  // Warm up, measure a steady-state window, then drain in-flight responses.
  tb.Run(kWarmup);
  uint64_t req0 = sstat.requests;
  SimTime t0 = tb.loop().Now();
  tb.Run(kWindow);
  SimTime span = tb.loop().Now() - t0;
  double achieved = span > 0 ? static_cast<double>(sstat.requests - req0) / ToSeconds(span) : 0;
  tb.Run(500 * kMillisecond);

  Row row;
  row.offered_krps = offered_rps / 1e3;
  row.achieved_krps = achieved / 1e3;
  row.p50_us = lstat.latency_us.Percentile(50);
  row.p99_us = lstat.latency_us.Percentile(99);
  row.loss_pct = lstat.LossRate() * 100.0;
  return row;
}

}  // namespace
}  // namespace netkernel::bench

int main(int argc, char** argv) {
  using namespace netkernel;
  bench::ParseBenchFlags(argc, argv);
  const double kLoadPoints[] = {50e3, 150e3, 300e3, 600e3};

  std::printf("# UDP KV RPS: open-loop Poisson load, 100 B values, 1 server core\n");
  std::printf("%-10s %12s %14s %10s %10s %9s\n", "arch", "offered_kRPS", "achieved_kRPS",
              "p50_us", "p99_us", "loss_pct");
  for (bool nk : {false, true}) {
    for (double rps : kLoadPoints) {
      bench::Row r = bench::RunOne(nk, rps);
      std::printf("%-10s %12.0f %14.1f %10.1f %10.1f %9.2f\n", nk ? "netkernel" : "baseline",
                  r.offered_krps, r.achieved_krps, r.p50_us, r.p99_us, r.loss_pct);
      const std::string cfg = "offered_krps=" + std::to_string(static_cast<int>(rps / 1e3)) +
                              (nk ? " mode=nk" : " mode=base");
      bench::GlobalJson().Add("udp_kv_rps", cfg, "achieved_krps", r.achieved_krps);
      bench::GlobalJson().Add("udp_kv_rps", cfg, "p99_us", r.p99_us);
    }
  }
  return bench::GlobalJson().Write() ? 0 : 2;
}
