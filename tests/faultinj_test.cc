// Copyright (c) NetKernel reproduction authors.
// Seeded deterministic fault-injection sweeps for the zero-copy ownership
// machinery (chunks, credits, exactly-once free callbacks), run through the
// nkchaos harness (tools/nkchaos/chaos.h), whose checker asserts global
// conservation after every iteration.
//
// The kernel fault plan runs zc stream + datagram traffic in both directions
// between a NetKernel VM and a remote baseline peer, and interleaves:
//   * RST teardown of live NSM-side connections mid-flight,
//   * explicit shard migration of the VM's queue sets,
//   * ring-full backpressure (a tiny CoreEngine pending bound, so deliveries
//     park and drop with error completions),
//   * EpollClose while a guest blocks in EpollWait,
//   * NSM death: DeregisterNsmDevice followed by ServiceLib::Shutdown(),
//   * wedges under the failover controller, with standbys of the NSM's kind.
// It runs on kernel, mTCP and FairShare NSMs.
//
// The shared-memory plan runs two colocated VMs on a pool-copy NSM under
// NSM death, wedges with shared-memory standbys, quarantine/unquarantine
// mid-stream, queue-set migrations and the tiny pending bound.
//
// Replay one seed with NK_FAULTINJ_SEED=<n>; NK_FAULTINJ_ITERS=<n> sets the
// count of every sweep (defaults: 200 kernel-NSM seeds, 20 for the others).

#include <gtest/gtest.h>

#include <vector>

#include "tools/nkchaos/chaos.h"

namespace netkernel {
namespace {

using chaos::Ledger;
using core::Host;
using core::Nsm;
using core::NsmKind;
using core::SocketApi;
using core::Vm;

constexpr uint64_t kBaseSeed = 0x5eedfau;

struct FaultPlan {
  bool tiny_pending_bound = false;  // ring-full backpressure + CE drops
  bool kill_nsm = false;            // deregister + Shutdown mid-run
  SimTime kill_at = 0;
  int rst_count = 0;                // NSM-side aborts
  std::vector<SimTime> rst_at;
  int migrations = 0;               // explicit queue-set shard handoffs
  std::vector<SimTime> migrate_at;
  SimTime epoll_close_at = 0;
  bool controller = false;  // failover controller armed with standby NSMs
  int wedges = 0;           // wedge the VM's CURRENT NSM (chains failovers)
  std::vector<SimTime> wedge_at;
};

FaultPlan MakePlan(Rng& rng) {
  FaultPlan p;
  p.tiny_pending_bound = rng.NextBool(0.3);
  p.kill_nsm = rng.NextBool(0.35);
  p.kill_at = (8 + rng.NextBounded(25)) * kMillisecond;
  p.rst_count = static_cast<int>(1 + rng.NextBounded(3));
  for (int i = 0; i < p.rst_count; ++i) {
    p.rst_at.push_back((5 + rng.NextBounded(30)) * kMillisecond);
  }
  p.migrations = static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < p.migrations; ++i) {
    p.migrate_at.push_back((5 + rng.NextBounded(30)) * kMillisecond);
  }
  p.epoll_close_at = (5 + rng.NextBounded(30)) * kMillisecond;
  // Controller chaos: half the runs arm the failover controller with two
  // standby NSMs. A second wedge after a re-home exercises failover-during-
  // failover; a third can exhaust the standby supply (refused failover +
  // operator cleanup). Wedge times leave >=1ms of detection headroom before
  // the window closes (detection itself needs ~150us plus stack-quiesce
  // time).
  p.controller = rng.NextBool(0.5);
  if (p.controller) {
    p.wedges = static_cast<int>(rng.NextBounded(4));  // 0..3
    for (int i = 0; i < p.wedges; ++i) {
      p.wedge_at.push_back((8 + rng.NextBounded(25)) * kMillisecond);
    }
  }
  return p;
}

// Blocks in EpollWait on an idle fd; only an EpollClose (or the long timeout)
// can wake it. `*returned` proves the close actually released the waiter.
sim::Task<void> EpollWaiter(Vm* vm, int* epfd_out, bool* armed, bool* returned,
                            std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  if (fd < 0) co_return;  // socket op failed under switch chaos: nothing to arm
  fds->push_back(fd);
  int ep = api.EpollCreate();
  *epfd_out = ep;
  *armed = true;
  api.EpollCtl(ep, fd, core::kEpollIn);
  co_await api.EpollWait(cpu, ep, 8, 30 * kSecond);
  *returned = true;
}

Ledger RunIteration(uint64_t seed, NsmKind kind) {
  Rng rng(seed);
  FaultPlan plan = MakePlan(rng);

  chaos::TopologySpec spec;
  spec.kind = kind;
  // Small enough to park/drop data deliveries under load, large enough that
  // the setup-time control burst cannot be spuriously rejected.
  if (plan.tiny_pending_bound) spec.pending_bound = 8 + rng.NextBounded(8);
  spec.standbys = plan.controller;
  chaos::Topology topo(spec);
  sim::EventLoop& loop = topo.loop();
  Host& host = topo.host();
  Nsm* nsm = topo.nsm();
  Vm* nk = topo.vm(0);
  Vm* peer = topo.peer();
  std::vector<int>* fds = topo.fds(0);

  // Traffic: zc stream out, zc stream in, zc datagram ping-pong, and a
  // blocked epoll waiter — every loan flavor is in flight when faults hit.
  apps::StreamStats peer_sink;
  apps::StartStreamSink(peer, 9000, &peer_sink, 1);
  // Budget far above the send-credit window so issuance spans the whole
  // fault window (the sender must keep blocking on returning credits).
  sim::Spawn(chaos::ZcStreamSender(nk, peer->ip(), 9000, 32 * kMiB, fds));
  sim::Spawn(chaos::ZcStreamSink(nk, 9001, fds));
  apps::StreamConfig in_cfg;
  in_cfg.dst_ip = nk->ip();
  in_cfg.port = 9001;
  in_cfg.connections = 1;
  in_cfg.message_size = 8192;
  in_cfg.bytes_limit = 2 * kMiB;
  apps::StreamStats in_stats;
  apps::StartStreamSenders(peer, in_cfg, &in_stats);
  sim::Spawn(chaos::DgramEchoServer(peer, 5353));
  sim::Spawn(chaos::ZcDgramClient(nk, peer->ip(), 5353, 2000, fds));
  Ledger res;
  res.ring_chaos = plan.tiny_pending_bound;
  int epfd = -1;
  bool epoll_armed = false;
  bool epoll_returned = false;
  sim::Spawn(EpollWaiter(nk, &epfd, &epoll_armed, &epoll_returned, fds));

  // Fault schedule. Same-instant events run in schedule order.
  for (SimTime t : plan.rst_at) {
    loop.Schedule(t, [&, seed, t] {
      // Abort a window of NSM-side sockets that exist right now.
      Rng r2(seed ^ static_cast<uint64_t>(t));
      for (int k = 0; k < 4; ++k) {
        tcp::SocketId sid = 1 + static_cast<tcp::SocketId>(r2.NextBounded(10));
        if (nsm->stack()->Exists(sid)) nsm->stack()->Abort(sid);
      }
    });
  }
  for (SimTime t : plan.migrate_at) {
    loop.Schedule(t, [&, seed, t] {
      Rng r2(seed ^ 0x9e37u ^ static_cast<uint64_t>(t));
      chaos::MigrateQueueSet(host, nk, r2);
    });
  }
  loop.Schedule(plan.epoll_close_at, [&] {
    if (epfd >= 0) nk->guestlib()->EpollClose(epfd);
  });
  if (plan.kill_nsm) {
    loop.Schedule(plan.kill_at, [&] {
      // NSM death mid-migration: yank a queue set to the other shard in the
      // same instant the NSM dies, so the deregister races the handoff.
      host.ce().AssignQueueSetToShard(nk->id(), 0, 1);
      chaos::KillNsm(host, nsm);
      res.nsm_killed = true;
    });
  }
  for (SimTime t : plan.wedge_at) {
    loop.Schedule(t, [&] {
      chaos::WedgeCurrentNsm(topo, nk);
      res.nsm_wedged = true;
    });
  }

  topo.RunChaosWindow();
  if (plan.controller && chaos::StopControllerAndCleanUp(topo, nk, &res)) {
    res.nsm_killed = true;
  }
  topo.CloseAllAndSettle();
  // A killed NSM consumes sends without answering (Shutdown drained them,
  // returning the chunks), a wedged NSM's teardown does the same for its
  // rings, and a tiny pending bound can drop completions at full rings.
  res.disturbed = res.nsm_killed || res.ring_chaos || res.nsm_wedged;
  // The EpollClose fault must have released the blocked waiter (its 30 s
  // timeout is far beyond the simulated horizon).
  if (epoll_armed && !epoll_returned) res.failures.push_back("epoll waiter stuck");
  topo.Record(&res);
  return res;
}

bool AddFailure(const std::string& report) {
  ADD_FAILURE() << report;
  return true;  // keep sweeping
}

// The kernel fault plan on an NSM of `kind`, with standbys of the same kind.
void SweepFaultPlan(const char* name, NsmKind kind, uint64_t default_iters) {
  chaos::Sweep sweep({name, "NK_FAULTINJ", kBaseSeed, default_iters});
  sweep.Run([kind](uint64_t seed) { return RunIteration(seed, kind); }, AddFailure);
  const chaos::Totals& t = sweep.totals();
  // The sweep must actually exercise the machinery it guards: zc loans of
  // both flavors flowed, NSMs died, and ring-full backpressure ran (a
  // single-seed replay skips this).
  if (!sweep.single() && sweep.iters() >= 50) {
    EXPECT_GT(t.zc_sends, 0u);
    EXPECT_GT(t.dgram_zc_sends, 0u);
    EXPECT_GT(t.nsm_kills, 0u);
    EXPECT_GT(t.ring_chaos_runs, 0u);
    EXPECT_GT(t.controller_runs, 0u);
    EXPECT_GT(t.wedge_runs, 0u);
    EXPECT_GT(t.failovers, 0u) << "controller chaos never produced a failover";
  }
  sweep.PrintSummary("%s: %llu iterations, %llu NSM kills, %llu ring-chaos runs, "
                     "%llu wedge runs, %llu failovers, "
                     "%llu stream zc sends, %llu dgram zc sends",
                     name, sweep.iters(), t.nsm_kills, t.ring_chaos_runs, t.wedge_runs,
                     t.failovers, t.zc_sends, t.dgram_zc_sends);
}

TEST(FaultInjection, ZcOwnershipConservesAcrossSeededChaos) {
  SweepFaultPlan("faultinj", NsmKind::kKernel, 200);
}

TEST(FaultInjection, MtcpNsmConservesAcrossSeededChaos) {
  SweepFaultPlan("faultinj(mtcp)", NsmKind::kMtcp, 20);
}

TEST(FaultInjection, FairShareNsmConservesAcrossSeededChaos) {
  SweepFaultPlan("faultinj(fairshare)", NsmKind::kFairShare, 20);
}

// ---------------------------------------------------------------------------
// Shared-memory NSM topology
// ---------------------------------------------------------------------------

struct ShmFaultPlan {
  bool tiny_pending_bound = false;
  bool kill_nsm = false;  // deregister + Shutdown the VMs' current NSM
  SimTime kill_at = 0;
  // The quarantined VM may see its NSM fail over (it re-homes on
  // unquarantine) or die outright (it comes back NSM-less).
  bool quarantine = false;
  bool quarantine_a = false;  // else vmB
  SimTime quarantine_at = 0;
  SimTime unquarantine_at = 0;
  std::vector<SimTime> migrate_at;
  bool controller = false;  // failover controller with two shm standbys
  std::vector<SimTime> wedge_at;
};

ShmFaultPlan MakeShmPlan(Rng& rng) {
  ShmFaultPlan p;
  p.tiny_pending_bound = rng.NextBool(0.3);
  p.kill_nsm = rng.NextBool(0.3);
  p.kill_at = (8 + rng.NextBounded(25)) * kMillisecond;
  p.quarantine = rng.NextBool(0.5);
  p.quarantine_a = rng.NextBool(0.5);
  p.quarantine_at = (5 + rng.NextBounded(20)) * kMillisecond;
  p.unquarantine_at = p.quarantine_at + (1 + rng.NextBounded(8)) * kMillisecond;
  const uint64_t migrations = rng.NextBounded(3);
  for (uint64_t i = 0; i < migrations; ++i) {
    p.migrate_at.push_back((5 + rng.NextBounded(30)) * kMillisecond);
  }
  p.controller = rng.NextBool(0.5);
  if (p.controller) {
    const uint64_t wedges = rng.NextBounded(4);  // 0..3
    for (uint64_t i = 0; i < wedges; ++i) {
      p.wedge_at.push_back((8 + rng.NextBounded(25)) * kMillisecond);
    }
  }
  return p;
}

Ledger RunShmIteration(uint64_t seed) {
  Rng rng(seed);
  ShmFaultPlan plan = MakeShmPlan(rng);

  chaos::TopologySpec spec;
  spec.kind = NsmKind::kShm;
  if (plan.tiny_pending_bound) spec.pending_bound = 8 + rng.NextBounded(8);
  spec.standbys = plan.controller;
  chaos::Topology topo(spec);
  sim::EventLoop& loop = topo.loop();
  Host& host = topo.host();
  Vm* a = topo.vm(0);
  Vm* b = topo.vm(1);
  chaos::StartColocatedTraffic(topo);

  Ledger res;
  res.ring_chaos = plan.tiny_pending_bound;
  res.quarantined = plan.quarantine;
  if (plan.kill_nsm) {
    loop.Schedule(plan.kill_at, [&] {
      chaos::KillNsm(host, a->nsm());
      res.nsm_killed = true;
    });
  }
  if (plan.quarantine) {
    Vm* victim = plan.quarantine_a ? a : b;
    loop.Schedule(plan.quarantine_at, [&host, victim] { host.QuarantineVm(victim); });
    loop.Schedule(plan.unquarantine_at, [&host, victim] { host.UnquarantineVm(victim); });
  }
  for (SimTime t : plan.migrate_at) {
    loop.Schedule(t, [&, seed, t] {
      Rng r2(seed ^ 0x5a17u ^ static_cast<uint64_t>(t));
      chaos::MigrateQueueSet(host, r2.NextBool(0.5) ? a : b, r2);
    });
  }
  for (SimTime t : plan.wedge_at) {
    loop.Schedule(t, [&] {
      chaos::WedgeCurrentNsm(topo, a);
      res.nsm_wedged = true;
    });
  }

  topo.RunChaosWindow();
  if (plan.controller) chaos::StopControllerAndCleanUp(topo, a, &res);
  topo.CloseAllAndSettle();
  res.disturbed = res.ring_chaos || res.nsm_killed || res.nsm_wedged || res.quarantined;
  topo.Record(&res);
  return res;
}

TEST(FaultInjection, ShmNsmConservesAcrossSeededChaos) {
  chaos::Sweep sweep({"faultinj(shm)", "NK_FAULTINJ", kBaseSeed, 20});
  sweep.Run(RunShmIteration, AddFailure);
  const chaos::Totals& t = sweep.totals();
  if (!sweep.single() && sweep.iters() >= 20) {
    EXPECT_GT(t.bytes_copied, 0u);
    EXPECT_GT(t.nsm_kills, 0u);
    EXPECT_GT(t.wedge_runs, 0u);
    EXPECT_GT(t.quarantine_runs, 0u);
    EXPECT_GT(t.failovers, 0u) << "controller chaos never produced a failover";
  }
  sweep.PrintSummary("faultinj(shm): %llu iterations, %llu NSM kills, %llu wedge runs, "
                     "%llu quarantine runs, %llu failovers, %llu bytes copied",
                     sweep.iters(), t.nsm_kills, t.wedge_runs, t.quarantine_runs, t.failovers,
                     t.bytes_copied);
}

// The post-mortem path itself: a real iteration's ledger with one leaked
// chunk must report its replay line, the broken invariant and the flight
// tail.
TEST(ChaosReport, FailingSeedPrintsReplayLineAndFlightTail) {
  const chaos::SweepSpec spec = {"faultinj(shm)", "NK_FAULTINJ", kBaseSeed, 20};
  Ledger l = RunShmIteration(kBaseSeed);
  ASSERT_FALSE(l.flight_tail.empty());
  EXPECT_EQ(chaos::Report(spec, kBaseSeed, l), "") << "seed " << kBaseSeed << " is clean";

  l.vms[1].pool_in_use += 8192;
  const std::string report = chaos::Report(spec, kBaseSeed, l);
  const std::string seed = std::to_string(kBaseSeed);
  EXPECT_NE(report.find("faultinj(shm): seed " + seed + " FAILED"), std::string::npos);
  EXPECT_NE(report.find("NK_FAULTINJ_SEED=" + seed), std::string::npos) << report;
  EXPECT_NE(report.find("b: pool not empty: 8192 bytes leaked"), std::string::npos) << report;
  EXPECT_NE(report.find("flight-recorder tail:\n" + l.flight_tail), std::string::npos)
      << report;
}

}  // namespace
}  // namespace netkernel
