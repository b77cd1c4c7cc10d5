// Copyright (c) NetKernel reproduction authors.
// Use case 3 (§6.3): deploying mTCP without any API change.
//
// The same unmodified epoll web server first runs over the kernel-stack NSM,
// then the operator switches the VM to an mTCP NSM on the fly. The
// application never changes — the BSD socket boundary hides the stack — yet
// requests per second jump, exactly the paper's Table 3 story.

#include <cstdio>

#include "src/core/netkernel.h"

using namespace netkernel;

namespace {

double MeasureRps(sim::EventLoop& loop, core::Vm* client, netsim::IpAddr server_ip,
                  uint16_t port, uint64_t requests) {
  apps::LoadGenStats lstat;
  apps::LoadGenConfig cfg;
  cfg.server_ip = server_ip;
  cfg.port = port;
  cfg.concurrency = 200;
  cfg.total_requests = requests;
  apps::StartLoadGen(client, cfg, &lstat);
  loop.Run(loop.Now() + 30 * kSecond);
  return lstat.RequestsPerSec();
}

}  // namespace

int main() {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host host(&loop, &fabric, "host");
  core::Host peer_host(&loop, &fabric, "peer");

  core::Nsm* kernel_nsm = host.CreateNsm("kernel-nsm", 2, core::NsmKind::kKernel);
  core::Nsm* mtcp_nsm = host.CreateNsm("mtcp-nsm", 2, core::NsmKind::kMtcp);
  core::Vm* vm = host.CreateNetkernelVm("web", 2, kernel_nsm);

  tcp::TcpStackConfig cli_cfg;
  cli_cfg.profile = tcp::SinkProfile();
  core::Vm* client = peer_host.CreateBaselineVm("client", 8, cli_cfg);

  // The "application": an unmodified epoll server. It is started twice on
  // different ports purely so each phase has a listener created while the
  // corresponding NSM is active — the code itself is identical.
  apps::ServerStats sstat;
  apps::EpollServerConfig scfg;
  scfg.port = 8080;
  apps::StartEpollServer(vm, scfg, &sstat);
  loop.Run(10 * kMillisecond);

  std::printf("Phase 1: unmodified epoll server on the kernel-stack NSM...\n");
  double kernel_rps = MeasureRps(loop, client, vm->IpOn(kernel_nsm), 8080, 30000);
  std::printf("  kernel NSM: %.0f requests/s\n\n", kernel_rps);

  // SwitchNsm gives the VM an alias address on the mTCP NSM's vNIC, so the
  // phase-2 listener is reached at vm->IpOn(mtcp_nsm), not vm->ip().
  std::printf("Operator switches the VM to the mTCP NSM (no guest change)...\n");
  host.SwitchNsm(vm, mtcp_nsm);
  scfg.port = 8081;
  apps::StartEpollServer(vm, scfg, &sstat);
  loop.Run(loop.Now() + 10 * kMillisecond);

  double mtcp_rps = MeasureRps(loop, client, vm->IpOn(mtcp_nsm), 8081, 60000);
  std::printf("  mTCP NSM:   %.0f requests/s\n\n", mtcp_rps);
  std::printf("Speedup from swapping the infrastructure-side stack: %.2fx\n",
              mtcp_rps / kernel_rps);
  std::printf("(paper Table 3 reports 1.4-1.9x for nginx; the application changed "
              "zero lines)\n");
  return 0;
}
