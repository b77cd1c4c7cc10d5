// Copyright (c) NetKernel reproduction authors.
// Seeded deterministic fault-injection suite for the zero-copy ownership
// machinery (chunks, credits, exactly-once free callbacks).
//
// Every iteration builds a fresh two-host topology, runs stream + datagram
// zero-copy traffic in both directions, and interleaves faults drawn from a
// seeded Rng:
//   * RST teardown of live NSM-side connections mid-flight,
//   * work-stealing / explicit shard migration of the VM's queue sets,
//   * ring-full backpressure (a tiny CoreEngine pending bound, so deliveries
//     park and drop with error completions),
//   * EpollClose while a guest blocks in EpollWait,
//   * NSM death: DeregisterNsmDevice followed by ServiceLib::Shutdown()
//     (the recoverable-accounting teardown).
// After the run every guest fd is closed and the simulation settles; the
// invariants are then global conservation:
//   * the VM's hugepage pool is empty (every chunk freed exactly once — the
//     pool aborts on double free, so bytes_in_use()==0 plus a clean run IS
//     the exactly-once proof),
//   * pool allocs() == frees(),
//   * zc send credits pair with completions (exact when the NSM survived).
//
// A second topology runs two colocated VMs on a shared-memory NSM (the
// pool-copy transport) under NSM death, wedges with the failover controller
// and shared-memory standbys, quarantine/unquarantine mid-stream, queue-set
// migrations and the tiny pending bound, and asserts the same conservation
// for both VMs' pools.
//
// Determinism: pure DES + seeded Rng, so a failing seed replays exactly.
// The failing seed is printed; replay one seed with NK_FAULTINJ_SEED=<n>,
// change the count of either topology with NK_FAULTINJ_ITERS=<n> (defaults:
// 200 kernel-NSM seeds, and 20 shared-memory seeds, the tier-1 smoke slice).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/netkernel.h"

namespace netkernel {
namespace {

using core::Host;
using core::NkBuf;
using core::Nsm;
using core::NsmKind;
using core::ServiceLib;
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

// The chaos window is [0, 40) ms of simulated time; faults land in [5, 35).
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
  // standby NSMs. Wedges target whatever NSM the VM is on at fire time, so a
  // second wedge after a re-home exercises failover-during-failover; a third
  // wedge can exhaust the standby supply (refused failover + operator
  // cleanup). Wedge times leave >=1ms of detection headroom before the 40ms
  // window closes (detection itself needs ~150us plus stack-quiesce time).
  p.controller = rng.NextBool(0.5);
  if (p.controller) {
    p.wedges = static_cast<int>(rng.NextBounded(4));  // 0..3
    for (int i = 0; i < p.wedges; ++i) {
      p.wedge_at.push_back((8 + rng.NextBounded(25)) * kMillisecond);
    }
  }
  return p;
}

// Streams zc loans at `dst` until the byte budget, an error, or revocation.
sim::Task<void> ZcStreamSender(Vm* vm, netsim::IpAddr dst, uint16_t port, uint64_t budget,
                               std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (fd < 0) co_return;
  fds->push_back(fd);
  if (0 != co_await api.Connect(cpu, fd, dst, port)) co_return;
  uint64_t sent = 0;
  while (sent < budget) {
    NkBuf loan;
    if (0 != co_await api.AcquireTxBuf(cpu, fd, 8192, &loan)) break;
    loan.size = loan.capacity;
    std::memset(loan.data, 0x5a, loan.size);
    int64_t n = co_await api.SendBuf(cpu, fd, loan);
    if (n <= 0) break;
    sent += static_cast<uint64_t>(n);
  }
}

// Drains a connection through RecvBuf/ReleaseBuf loans until EOF or error.
sim::Task<void> ZcStreamSink(Vm* vm, uint16_t port, std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(vm->num_vcpus() - 1);
  int lfd = co_await api.Socket(cpu);
  if (lfd < 0) co_return;
  fds->push_back(lfd);
  if (0 != co_await api.Bind(cpu, lfd, 0, port)) co_return;
  if (0 != co_await api.Listen(cpu, lfd, 16, false)) co_return;
  int fd = co_await api.Accept(cpu, lfd);
  if (fd < 0) co_return;
  fds->push_back(fd);
  for (;;) {
    NkBuf loan;
    int64_t n = co_await api.RecvBuf(cpu, fd, &loan);
    if (n <= 0) break;
    if (0 != co_await api.ReleaseBuf(cpu, fd, loan)) break;
  }
}

// Streams copied sends at `dst` until the byte budget or an error.
sim::Task<void> CopyStreamSender(Vm* vm, netsim::IpAddr dst, uint16_t port, uint64_t budget,
                                 std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.Socket(cpu);
  if (fd < 0) co_return;
  fds->push_back(fd);
  if (0 != co_await api.Connect(cpu, fd, dst, port)) co_return;
  std::vector<uint8_t> msg(8192, 0x3c);
  for (uint64_t sent = 0; sent < budget;) {
    int64_t n = co_await api.Send(cpu, fd, msg.data(), msg.size());
    if (n <= 0) break;
    sent += static_cast<uint64_t>(n);
  }
}

// Zero-copy datagram ping-pong client (the echo peer copies normally).
sim::Task<void> ZcDgramClient(Vm* vm, netsim::IpAddr dst, uint16_t port, int count,
                              std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  if (fd < 0) co_return;
  fds->push_back(fd);
  for (int i = 0; i < count; ++i) {
    NkBuf loan;
    if (0 != co_await api.AcquireTxBuf(cpu, fd, 1500, &loan)) break;
    loan.size = std::min<uint32_t>(loan.capacity, 1500);
    std::memset(loan.data, 0x6c, loan.size);
    if (co_await api.SendToBuf(cpu, fd, dst, port, loan) <= 0) break;
    NkBuf back;
    int64_t r = co_await api.RecvFromBuf(cpu, fd, &back, nullptr, nullptr);
    if (r < 0) break;
    if (0 != co_await api.ReleaseBuf(cpu, fd, back)) break;
  }
}

sim::Task<void> DgramEchoServer(Vm* vm, uint16_t port) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  int fd = co_await api.SocketDgram(cpu);
  if (fd < 0) co_return;
  if (0 != co_await api.Bind(cpu, fd, 0, port)) co_return;
  std::vector<uint8_t> buf(4096);
  for (;;) {
    netsim::IpAddr ip = 0;
    uint16_t p = 0;
    int64_t r = co_await api.RecvFrom(cpu, fd, buf.data(), buf.size(), &ip, &p);
    if (r < 0) co_return;
    co_await api.SendTo(cpu, fd, ip, p, buf.data(), static_cast<uint64_t>(r));
  }
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

// Closes every collected fd, unblocking stuck tasks and revoking loans.
sim::Task<void> CloseAll(Vm* vm, std::vector<int>* fds) {
  SocketApi& api = vm->api();
  sim::CpuCore* cpu = vm->vcpu(0);
  // Close in reverse so data fds go before their listener.
  for (size_t i = fds->size(); i > 0; --i) {
    co_await api.Close(cpu, (*fds)[i - 1]);
  }
}

struct IterationResult {
  // Merged flight-recorder tail (CE shards + ServiceLibs), captured before
  // the topology is torn down: printed next to the failing seed so a broken
  // iteration leaves a datapath post-mortem, not just a replay number.
  std::string flight_tail;
  bool epoll_waiter_returned = false;
  bool epoll_armed = false;
  bool ring_chaos = false;  // tiny pending bound: completions may drop
  bool nsm_killed = false;
  bool nsm_wedged = false;     // at least one wedge fired (controller chaos)
  bool controller_on = false;  // failover controller was armed this run
  uint64_t failovers = 0;      // controller-driven NSM replacements
  uint64_t vms_rehomed = 0;
  uint64_t pool_in_use = 0;
  uint64_t pool_allocs = 0;
  uint64_t pool_frees = 0;
  uint64_t zc_sends = 0;
  uint64_t zc_completions = 0;
  uint64_t credit_reclaims = 0;
  uint64_t dgram_zc_sends = 0;
  uint64_t dgram_zc_completions = 0;
};

IterationResult RunIteration(uint64_t seed) {
  Rng rng(seed);
  FaultPlan plan = MakePlan(rng);

  Host::ResetIpAllocator();
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host::Options opts;
  opts.ce.shards = 2;
  // Small enough to park/drop data deliveries under load, large enough that
  // the setup-time control burst cannot be spuriously rejected.
  if (plan.tiny_pending_bound) opts.ce.pending_bound = 8 + rng.NextBounded(8);
  Host host_a(&loop, &fabric, "hostA", opts);
  Host host_b(&loop, &fabric, "hostB");
  Nsm* nsm = host_a.CreateNsm("nsm", 2, NsmKind::kKernel);
  Vm* nk = host_a.CreateNetkernelVm("nk", 2, nsm);
  Vm* peer = host_b.CreateBaselineVm("peer", 2);

  // Controller chaos: two pre-registered standbys (created before the
  // controller starts so both heartbeat from t0). spare0 is armed now; spare1
  // is re-armed lazily right before a wedge, so a wedge landing after a
  // completed failover finds a fresh standby and chains.
  std::vector<Nsm*> spares;
  if (plan.controller) {
    spares.push_back(host_a.CreateNsm("spare1", 2, NsmKind::kKernel));
    Nsm* spare0 = host_a.CreateNsm("spare0", 2, NsmKind::kKernel);
    host_a.SetStandbyNsm(spare0);
    host_a.StartFailoverController(Host::FailoverConfig());
  }

  auto fds = std::make_shared<std::vector<int>>();

  // Traffic: zc stream out, zc stream in, zc datagram ping-pong, and a
  // blocked epoll waiter — every loan flavor is in flight when faults hit.
  apps::StreamStats peer_sink;
  apps::StartStreamSink(peer, 9000, &peer_sink, 1);
  // Budget far above the send-credit window so issuance spans the whole
  // fault window (the sender must keep blocking on returning credits).
  sim::Spawn(ZcStreamSender(nk, peer->ip(), 9000, 32 * kMiB, fds.get()));
  sim::Spawn(ZcStreamSink(nk, 9001, fds.get()));
  apps::StreamConfig in_cfg;
  in_cfg.dst_ip = nk->ip();
  in_cfg.port = 9001;
  in_cfg.connections = 1;
  in_cfg.message_size = 8192;
  in_cfg.bytes_limit = 2 * kMiB;
  apps::StreamStats in_stats;
  apps::StartStreamSenders(peer, in_cfg, &in_stats);
  sim::Spawn(DgramEchoServer(peer, 5353));
  sim::Spawn(ZcDgramClient(nk, peer->ip(), 5353, 2000, fds.get()));
  IterationResult res;
  res.ring_chaos = plan.tiny_pending_bound;
  int epfd = -1;
  sim::Spawn(EpollWaiter(nk, &epfd, &res.epoll_armed, &res.epoll_waiter_returned, fds.get()));

  // Fault schedule.
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
  for (size_t i = 0; i < plan.migrate_at.size(); ++i) {
    SimTime t = plan.migrate_at[i];
    loop.Schedule(t, [&, seed, t] {
      Rng r2(seed ^ 0x9e37u ^ static_cast<uint64_t>(t));
      host_a.ce().AssignQueueSetToShard(nk->id(), static_cast<uint8_t>(r2.NextBounded(2)),
                                        static_cast<int>(r2.NextBounded(2)));
    });
  }
  loop.Schedule(plan.epoll_close_at, [&] {
    if (epfd >= 0) nk->guestlib()->EpollClose(epfd);
  });
  if (plan.kill_nsm) {
    loop.Schedule(plan.kill_at, [&] {
      // NSM death mid-migration: yank a queue set to the other shard in the
      // same instant the NSM dies, so the deregister races the handoff.
      host_a.ce().AssignQueueSetToShard(nk->id(), 0, 1);
      host_a.ce().DeregisterNsmDevice(nsm->id());
      nsm->servicelib()->Shutdown();
      res.nsm_killed = true;
    });
  }
  for (SimTime t : plan.wedge_at) {
    loop.Schedule(t, [&] {
      // Re-arm a fresh standby if the previous failover consumed it, then
      // wedge whatever NSM the VM is on RIGHT NOW — after a re-home that is
      // the freshly promoted standby, i.e. failover-during-failover.
      if (host_a.standby_nsm() == nullptr && !spares.empty()) {
        host_a.SetStandbyNsm(spares.back());
        spares.pop_back();
      }
      if (nk->nsm()->servicelib() != nullptr) {
        nk->nsm()->servicelib()->Wedge();
        res.nsm_wedged = true;
      }
    });
  }

  // Run the chaos window, close every guest fd, then settle (long enough
  // for retransmission timers and teardown to quiesce).
  loop.Run(loop.Now() + 40 * kMillisecond);
  if (plan.controller) {
    host_a.StopFailoverController();
    res.controller_on = true;
    res.failovers = host_a.failover_stats().nsm_failovers;
    res.vms_rehomed = host_a.failover_stats().vms_rehomed;
    // Operator cleanup: a wedge that found no standby left (supply exhausted)
    // was refused by FailoverNsm and the VM is still parked on a wedged NSM.
    // The operator's only move is the same recoverable-accounting teardown
    // the controller would have used — without it, chunks sitting in the
    // wedged NSM's rings would be reported as leaks below.
    ServiceLib* cur = nk->nsm()->servicelib();
    if (cur != nullptr && cur->wedged()) {
      host_a.ce().DeregisterNsmDevice(nk->nsm()->id());
      cur->Shutdown();
      res.nsm_killed = true;
    }
  }
  sim::Spawn(CloseAll(nk, fds.get()));
  loop.Run(loop.Now() + 150 * kMillisecond);

  res.pool_in_use = nk->pool()->bytes_in_use();
  res.pool_allocs = nk->pool()->allocs();
  res.pool_frees = nk->pool()->frees();
  res.zc_sends = nk->guestlib()->zc_sends();
  res.zc_completions = nk->guestlib()->zc_completions();
  res.credit_reclaims = nk->guestlib()->send_credit_reclaims();
  res.dgram_zc_sends = nk->guestlib()->dgram_zc_sends();
  res.dgram_zc_completions = nk->guestlib()->dgram_zc_completions();
  res.flight_tail = host_a.DumpFlightRecorder(32);
  return res;
}

// Failure-count snapshot of the running test, so a per-seed failure can be
// detected (and its flight-recorder tail printed) without aborting the sweep.
int CurrentFailureParts() {
  const ::testing::TestResult* tr =
      ::testing::UnitTest::GetInstance()->current_test_info()->result();
  return tr->total_part_count();
}

TEST(FaultInjection, ZcOwnershipConservesAcrossSeededChaos) {
  uint64_t iters = 200;
  uint64_t only_seed = 0;
  bool single = false;
  if (const char* s = std::getenv("NK_FAULTINJ_ITERS")) iters = std::strtoull(s, nullptr, 0);
  if (const char* s = std::getenv("NK_FAULTINJ_SEED")) {
    only_seed = std::strtoull(s, nullptr, 0);
    single = true;
    iters = 1;
  }
  uint64_t total_zc_sends = 0, total_dgram_zc = 0, kills = 0, chaos_runs = 0;
  uint64_t wedge_runs = 0, controller_runs = 0, total_failovers = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = single ? only_seed : kBaseSeed + i;
    SCOPED_TRACE(::testing::Message() << "replay with NK_FAULTINJ_SEED=" << seed);
    const int parts_before = CurrentFailureParts();
    IterationResult r = RunIteration(seed);
    total_zc_sends += r.zc_sends;
    total_dgram_zc += r.dgram_zc_sends;
    kills += r.nsm_killed ? 1 : 0;
    chaos_runs += r.ring_chaos ? 1 : 0;
    wedge_runs += r.nsm_wedged ? 1 : 0;
    controller_runs += r.controller_on ? 1 : 0;
    total_failovers += r.failovers;

    // Chunk conservation: every hugepage chunk freed exactly once. (A double
    // free aborts inside HugepagePool, so finishing with an empty pool is
    // the exactly-once proof.)
    EXPECT_EQ(r.pool_in_use, 0u) << "leaked chunks, seed " << seed;
    EXPECT_EQ(r.pool_allocs, r.pool_frees) << "alloc/free imbalance, seed " << seed;

    // Credit conservation. A surviving, un-backpressured NSM answers every
    // zc send with exactly one completion (ACK, teardown free, local fail,
    // or a CE error completion — kSendZcComplete / kSendToResult either
    // way). A killed NSM consumes sends without answering (Shutdown drained
    // them, returning the chunks), a wedged NSM's failover teardown does the
    // same for whatever was parked in its rings, and a tiny pending bound
    // can drop completions at full rings — pairing then relaxes to an
    // inequality.
    if (!r.nsm_killed && !r.ring_chaos && !r.nsm_wedged) {
      EXPECT_EQ(r.zc_sends, r.zc_completions)
          << "stream zc credit imbalance, seed " << seed;
      EXPECT_EQ(r.dgram_zc_sends, r.dgram_zc_completions)
          << "dgram zc credit imbalance, seed " << seed;
    } else {
      EXPECT_LE(r.zc_completions, r.zc_sends) << "phantom completions, seed " << seed;
      EXPECT_LE(r.dgram_zc_completions, r.dgram_zc_sends)
          << "phantom dgram completions, seed " << seed;
    }

    // The EpollClose fault must have released the blocked waiter (its 30 s
    // timeout is far beyond the simulated horizon).
    if (r.epoll_armed) {
      EXPECT_TRUE(r.epoll_waiter_returned) << "epoll waiter stuck, seed " << seed;
    }

    // Controller sanity per seed. No false positives: an armed controller
    // watching a healthy, un-killed NSM must never fail it over (heartbeats
    // keep flowing even under ring backpressure — they ride the control
    // path). And every wedge that found a standby produced a re-home.
    if (r.controller_on && !r.nsm_wedged && !r.nsm_killed) {
      EXPECT_EQ(r.failovers, 0u) << "spurious failover, seed " << seed;
    }
    if (r.failovers > 0) {
      EXPECT_EQ(r.vms_rehomed, r.failovers)
          << "failover without a re-homed VM, seed " << seed;
    }

    // Test hook: force one failure so the post-mortem path itself is
    // verifiable (NK_FAULTINJ_FORCE_FAIL=1 must print the tail below).
    if (std::getenv("NK_FAULTINJ_FORCE_FAIL") != nullptr) {
      ADD_FAILURE() << "forced failure (NK_FAULTINJ_FORCE_FAIL), seed " << seed;
    }

    if (CurrentFailureParts() > parts_before) {
      std::fprintf(stderr,
                   "faultinj: seed %llu FAILED; datapath flight-recorder tail:\n%s\n",
                   static_cast<unsigned long long>(seed), r.flight_tail.c_str());
    }
  }

  // The suite must actually exercise the machinery it guards: zc loans of
  // both flavors flowed, NSMs died, and ring-full backpressure ran (with the
  // default seed range; a single-seed replay skips this).
  if (!single && iters >= 50) {
    EXPECT_GT(total_zc_sends, 0u);
    EXPECT_GT(total_dgram_zc, 0u);
    EXPECT_GT(kills, 0u);
    EXPECT_GT(chaos_runs, 0u);
    EXPECT_GT(controller_runs, 0u);
    EXPECT_GT(wedge_runs, 0u);
    EXPECT_GT(total_failovers, 0u) << "controller chaos never produced a failover";
  }
  const std::chrono::duration<double, std::milli> wall = std::chrono::steady_clock::now() - start;
  std::printf("faultinj: %llu iterations, %llu NSM kills, %llu ring-chaos runs, "
              "%llu wedge runs, %llu failovers, "
              "%llu stream zc sends, %llu dgram zc sends; %.1f ms/iteration wall\n",
              static_cast<unsigned long long>(iters), static_cast<unsigned long long>(kills),
              static_cast<unsigned long long>(chaos_runs),
              static_cast<unsigned long long>(wedge_runs),
              static_cast<unsigned long long>(total_failovers),
              static_cast<unsigned long long>(total_zc_sends),
              static_cast<unsigned long long>(total_dgram_zc),
              wall.count() / static_cast<double>(std::max<uint64_t>(iters, 1)));
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

struct ShmIterationResult {
  std::string flight_tail;
  bool disturbed = false;  // NSM killed/wedged, VM quarantined or ring chaos
  bool controller_on = false;
  bool nsm_killed = false;
  bool nsm_wedged = false;
  bool quarantined = false;
  uint64_t failovers = 0;
  uint64_t vms_rehomed = 0;
  uint64_t bytes_copied = 0;
  uint64_t pool_in_use[2] = {};
  uint64_t pool_allocs[2] = {};
  uint64_t pool_frees[2] = {};
  uint64_t zc_sends = 0;
  uint64_t zc_completions = 0;
};

ShmIterationResult RunShmIteration(uint64_t seed) {
  Rng rng(seed);
  ShmFaultPlan plan = MakeShmPlan(rng);

  Host::ResetIpAllocator();
  sim::EventLoop loop;
  netsim::Fabric fabric(&loop);
  Host::Options opts;
  opts.ce.shards = 2;
  if (plan.tiny_pending_bound) opts.ce.pending_bound = 8 + rng.NextBounded(8);
  Host host(&loop, &fabric, "host", opts);
  Nsm* nsm = host.CreateNsm("shm", 2, NsmKind::kShm);
  Vm* a = host.CreateNetkernelVm("a", 2, nsm);
  Vm* b = host.CreateNetkernelVm("b", 2, nsm);

  std::vector<Nsm*> spares;
  if (plan.controller) {
    spares.push_back(host.CreateNsm("spare1", 2, NsmKind::kShm));
    host.SetStandbyNsm(host.CreateNsm("spare0", 2, NsmKind::kShm));
    host.StartFailoverController(Host::FailoverConfig());
  }

  // Zero-copy loans a -> b, copied sends b -> a; both ends read with loans.
  auto fds_a = std::make_shared<std::vector<int>>();
  auto fds_b = std::make_shared<std::vector<int>>();
  sim::Spawn(ZcStreamSink(b, 9000, fds_b.get()));
  sim::Spawn(ZcStreamSink(a, 9001, fds_a.get()));
  sim::Spawn(ZcStreamSender(a, b->ip(), 9000, 32 * kMiB, fds_a.get()));
  sim::Spawn(CopyStreamSender(b, a->ip(), 9001, 4 * kMiB, fds_b.get()));

  ShmIterationResult res;
  res.controller_on = plan.controller;
  res.quarantined = plan.quarantine;
  if (plan.kill_nsm) {
    loop.Schedule(plan.kill_at, [&] {
      Nsm* cur = a->nsm();
      host.ce().DeregisterNsmDevice(cur->id());
      cur->servicelib()->Shutdown();
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
      Vm* vm = r2.NextBool(0.5) ? a : b;
      host.ce().AssignQueueSetToShard(vm->id(), static_cast<uint8_t>(r2.NextBounded(2)),
                                      static_cast<int>(r2.NextBounded(2)));
    });
  }
  for (SimTime t : plan.wedge_at) {
    loop.Schedule(t, [&] {
      if (host.standby_nsm() == nullptr && !spares.empty()) {
        host.SetStandbyNsm(spares.back());
        spares.pop_back();
      }
      a->nsm()->servicelib()->Wedge();
      res.nsm_wedged = true;
    });
  }

  loop.Run(loop.Now() + 40 * kMillisecond);
  if (plan.controller) {
    host.StopFailoverController();
    res.failovers = host.failover_stats().nsm_failovers;
    res.vms_rehomed = host.failover_stats().vms_rehomed;
    // Operator cleanup of a wedge that found no standby left (see the
    // kernel topology above).
    Nsm* cur = a->nsm();
    if (cur->servicelib()->wedged()) {
      host.ce().DeregisterNsmDevice(cur->id());
      cur->servicelib()->Shutdown();
    }
  }
  sim::Spawn(CloseAll(a, fds_a.get()));
  sim::Spawn(CloseAll(b, fds_b.get()));
  loop.Run(loop.Now() + 150 * kMillisecond);

  res.disturbed = plan.tiny_pending_bound || res.nsm_killed || res.nsm_wedged || plan.quarantine;
  res.bytes_copied = nsm->servicelib()->bytes_copied();
  for (int i = 0; i < 2; ++i) {
    shm::HugepagePool* pool = (i == 0 ? a : b)->pool();
    res.pool_in_use[i] = pool->bytes_in_use();
    res.pool_allocs[i] = pool->allocs();
    res.pool_frees[i] = pool->frees();
  }
  res.zc_sends = a->guestlib()->zc_sends();
  res.zc_completions = a->guestlib()->zc_completions();
  res.flight_tail = host.DumpFlightRecorder(32);
  return res;
}

TEST(FaultInjection, ShmNsmConservesAcrossSeededChaos) {
  uint64_t iters = 20;
  uint64_t only_seed = 0;
  bool single = false;
  if (const char* s = std::getenv("NK_FAULTINJ_ITERS")) iters = std::strtoull(s, nullptr, 0);
  if (const char* s = std::getenv("NK_FAULTINJ_SEED")) {
    only_seed = std::strtoull(s, nullptr, 0);
    single = true;
    iters = 1;
  }
  uint64_t kills = 0, wedges = 0, quarantines = 0, failovers = 0, copied = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = single ? only_seed : kBaseSeed + i;
    SCOPED_TRACE(::testing::Message() << "replay with NK_FAULTINJ_SEED=" << seed);
    const int parts_before = CurrentFailureParts();
    ShmIterationResult r = RunShmIteration(seed);
    kills += r.nsm_killed ? 1 : 0;
    wedges += r.nsm_wedged ? 1 : 0;
    quarantines += r.quarantined ? 1 : 0;
    failovers += r.failovers;
    copied += r.bytes_copied;

    for (int v = 0; v < 2; ++v) {
      const char* name = v == 0 ? "vmA" : "vmB";
      EXPECT_EQ(r.pool_in_use[v], 0u) << name << " leaked chunks, seed " << seed;
      EXPECT_EQ(r.pool_allocs[v], r.pool_frees[v])
          << name << " alloc/free imbalance, seed " << seed;
    }
    // Every zc loan vmA sent is answered exactly once while its NSM serves
    // undisturbed; teardowns and ring-full drops only ever lose answers.
    if (!r.disturbed) {
      EXPECT_EQ(r.zc_sends, r.zc_completions) << "zc credit imbalance, seed " << seed;
    } else {
      EXPECT_LE(r.zc_completions, r.zc_sends) << "phantom completions, seed " << seed;
    }
    if (r.controller_on && !r.nsm_wedged && !r.nsm_killed) {
      EXPECT_EQ(r.failovers, 0u) << "spurious failover, seed " << seed;
    }
    // A failover moves both colocated VMs.
    EXPECT_EQ(r.vms_rehomed, 2 * r.failovers) << "seed " << seed;

    if (CurrentFailureParts() > parts_before) {
      std::fprintf(stderr,
                   "faultinj(shm): seed %llu FAILED; datapath flight-recorder tail:\n%s\n",
                   static_cast<unsigned long long>(seed), r.flight_tail.c_str());
    }
  }
  if (!single && iters >= 20) {
    EXPECT_GT(copied, 0u);
    EXPECT_GT(kills, 0u);
    EXPECT_GT(wedges, 0u);
    EXPECT_GT(quarantines, 0u);
    EXPECT_GT(failovers, 0u) << "controller chaos never produced a failover";
  }
  const std::chrono::duration<double, std::milli> wall = std::chrono::steady_clock::now() - start;
  std::printf("faultinj(shm): %llu iterations, %llu NSM kills, %llu wedge runs, "
              "%llu quarantine runs, %llu failovers, %llu bytes copied; "
              "%.1f ms/iteration wall\n",
              static_cast<unsigned long long>(iters), static_cast<unsigned long long>(kills),
              static_cast<unsigned long long>(wedges),
              static_cast<unsigned long long>(quarantines),
              static_cast<unsigned long long>(failovers),
              static_cast<unsigned long long>(copied),
              wall.count() / static_cast<double>(std::max<uint64_t>(iters, 1)));
}

}  // namespace
}  // namespace netkernel
