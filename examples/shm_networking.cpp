// Copyright (c) NetKernel reproduction authors.
// Use case 4 (§6.4): shared-memory networking between colocated VMs.
//
// Two VMs of the same user, on the same host, attach to a shared-memory NSM:
// their "TCP connections" become hugepage-to-hugepage copies with no
// transport processing at all. The application uses plain sockets and has no
// idea — which is precisely why this is impossible without NetKernel (the
// guest stack can't know the peer is colocated; the NSM can).

#include <cstdio>

#include "src/core/netkernel.h"

using namespace netkernel;

namespace {

sim::Task<void> Sink(core::Vm* vm, uint16_t port, uint64_t* received) {
  core::SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int lfd = co_await api.Socket(cpu);
  co_await api.Bind(cpu, lfd, 0, port);
  co_await api.Listen(cpu, lfd, 4, false);
  int fd = co_await api.Accept(cpu, lfd);
  std::vector<uint8_t> buf(64 * 1024);
  for (;;) {
    int64_t n = co_await api.Recv(cpu, fd, buf.data(), buf.size());
    if (n <= 0) break;
    *received += static_cast<uint64_t>(n);
  }
}

sim::Task<void> Blast(core::Vm* vm, netsim::IpAddr dst, uint16_t port, SimTime duration,
                      uint64_t* sent) {
  core::SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  sim::EventLoop* loop = api.loop();
  int fd = co_await api.Socket(cpu);
  if (0 != co_await api.Connect(cpu, fd, dst, port)) co_return;
  std::vector<uint8_t> msg(8192, 0x42);
  SimTime end = loop->Now() + duration;
  while (loop->Now() < end) {
    int64_t n = co_await api.Send(cpu, fd, msg.data(), msg.size());
    if (n <= 0) break;
    *sent += static_cast<uint64_t>(n);
  }
  co_await api.Close(cpu, fd);
}

}  // namespace

int main() {
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  core::Host host(&loop, &fabric, "host");

  // The operator detects both VMs belong to the same user on the same host
  // and serves them with a shared-memory NSM (2 cores).
  core::Nsm* shm_nsm = host.CreateNsm("shm-nsm", 2, core::NsmKind::kShm);
  core::Vm* producer = host.CreateNetkernelVm("producer", 2, shm_nsm);
  core::Vm* consumer = host.CreateNetkernelVm("consumer", 2, shm_nsm);

  uint64_t received = 0, sent = 0;
  sim::Spawn(Sink(consumer, 7000, &received));
  sim::Spawn(Blast(producer, consumer->ip(), 7000, 100 * kMillisecond, &sent));
  loop.Run(500 * kMillisecond);

  double gbps = RateOf(received, 100 * kMillisecond) / kGbps;
  std::printf("colocated VM -> VM over the shared-memory NSM (8KB messages):\n");
  std::printf("  transferred %.1f MB, goodput %.1f Gbps\n", received / 1e6, gbps);
  std::printf("  chunks copied by the NSM: %.1f MB (zero TCP segments on any wire)\n",
              shm_nsm->servicelib()->bytes_copied() / 1e6);
  std::printf("\npaper Fig 10: ~100 Gbps with 7 cores total, ~2x TCP Cubic Baseline\n");
  return 0;
}
