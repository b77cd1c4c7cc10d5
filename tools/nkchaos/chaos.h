// Copyright (c) NetKernel reproduction authors.
// nkchaos: the one seeded chaos harness behind every conservation sweep.
//
// A sweep runs many seeded iterations. Each iteration builds a fresh
// topology, starts zero-copy traffic, lands a seeded plan of faults (NSM
// death, wedges with failover onto standbys, queue-set migrations,
// quarantine, ring backpressure) or of mutations (hostile NQEs on the
// guest's live rings), closes every guest fd, settles, and records a
// Ledger. One checker turns the ledger into failure lines:
//   * per VM, the hugepage pool is empty and allocs() == frees() (every
//     chunk freed exactly once: the pool aborts on double free, so an empty
//     pool after a clean run IS the exactly-once proof);
//   * zc send credits pair with completions plus the expected phantom
//     completions of rejected zc forgeries: exact while nothing could drop
//     or swallow a completion, an inequality otherwise;
//   * guard accounting: every landed violation rejected, nothing legitimate
//     rejected, every flag-seeded injection scrubbed;
//   * the failover controller re-homes every VM per failover and never
//     fails over a healthy NSM.
// A failing seed prints one report: the failure lines, the replay line and
// the merged flight-recorder tail.
//
// Front ends (tests/faultinj_test.cc, tests/nqe_fuzz_test.cc and the nkfuzz
// binary) keep only their plan draws, their traffic choice and their
// summary line. Determinism: pure DES plus seeded Rng, so a failing seed
// replays exactly. <ENV>_ITERS widens a sweep and <ENV>_SEED replays one
// seed, where ENV is NK_FAULTINJ or NK_FUZZ; nkfuzz also takes --iters and
// --seed.

#ifndef TOOLS_NKCHAOS_CHAOS_H_
#define TOOLS_NKCHAOS_CHAOS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/netkernel.h"
#include "src/guard/nqe_validator.h"

namespace netkernel::chaos {

// Faults and mutations land in [5, 35) ms of a 40 ms chaos window; every fd
// is then closed and the simulation settles for 150 ms, long enough for
// retransmission timers and teardown to quiesce.
inline constexpr SimTime kChaosWindow = 40 * kMillisecond;
inline constexpr SimTime kSettle = 150 * kMillisecond;

// ---- ledger and checker ---------------------------------------------------

struct VmLedger {
  std::string name;
  uint64_t pool_in_use = 0;
  uint64_t pool_allocs = 0;
  uint64_t pool_frees = 0;
  uint64_t zc_sends = 0;
  uint64_t zc_completions = 0;
  uint64_t dgram_zc_sends = 0;
  uint64_t dgram_zc_completions = 0;
};

// What one iteration did and what it left behind.
struct Ledger {
  bool ring_chaos = false;  // tiny CoreEngine pending bound
  bool nsm_killed = false;
  bool nsm_wedged = false;  // at least one wedge fired
  bool quarantined = false;
  bool controller_on = false;
  uint64_t failovers = 0;
  uint64_t vms_rehomed = 0;
  uint64_t bytes_copied = 0;  // by the NSM the VMs started on
  // Credit pairing is exact only while nothing could drop a completion
  // (ring backpressure) or swallow one (NSM death, wedge, quarantine).
  bool disturbed = false;

  // Mutations landed on vms[0]'s rings. A rejected zc-send forgery draws a
  // synthesized completion for a send the guest never issued; GuestLib
  // cannot tell it from a closed socket's late completion, so the pairing
  // check carries these phantoms explicitly.
  uint64_t injected = 0;
  uint64_t injected_invalid = 0;  // protocol violations: each must be rejected
  uint64_t injected_scrub = 0;    // valid ops seeded with garbage flag bytes
  uint64_t phantom_zc = 0;
  uint64_t phantom_dgram_zc = 0;
  guard::GuardPolicy guard_policy = guard::GuardPolicy::kCount;
  guard::GuardStats guard;

  std::vector<VmLedger> vms;  // the topology's NetKernel VMs
  // Front-end invariants broken during the run, reported with the rest.
  std::vector<std::string> failures;
  // Merged flight-recorder tail (CE shards + ServiceLibs), captured before
  // teardown so a failing seed comes with a datapath post-mortem.
  std::string flight_tail;
};

// ---- topology -------------------------------------------------------------

// Every topology runs a two-shard CoreEngine.
struct TopologySpec {
  core::NsmKind kind = core::NsmKind::kKernel;
  size_t pending_bound = 0;  // 0 keeps the CoreEngine default
  guard::GuardConfig guard;
  // Two standbys of the NSM's kind and a running failover controller. spare0
  // is armed at once; spare1 waits in `spares` for WedgeCurrentNsm.
  bool standbys = false;
};

// A kShm NSM serves two colocated VMs, "a" and "b", on one host. Every other
// kind serves one VM, "nk", whose peer is a baseline VM on a second host.
class Topology {
 public:
  explicit Topology(const TopologySpec& spec);
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  sim::EventLoop& loop() { return loop_; }
  core::Host& host() { return *host_; }
  core::Nsm* nsm() { return nsm_; }  // the NSM the VMs started on
  core::Vm* vm(int i) { return vms_[static_cast<size_t>(i)]; }
  core::Vm* peer() { return peer_; }  // null when colocated
  std::vector<int>* fds(int i) { return &fds_[static_cast<size_t>(i)]; }

  void RunChaosWindow() { loop_.Run(loop_.Now() + kChaosWindow); }
  // Closes every collected guest fd, VM by VM, then settles.
  void CloseAllAndSettle();
  // Fills the ledger's per-VM, guard, bytes-copied and flight-tail fields.
  void Record(Ledger* l);

  std::vector<core::Nsm*> spares;  // standbys not yet armed

 private:
  sim::EventLoop loop_;
  netsim::Fabric fabric_{&loop_};
  std::unique_ptr<core::Host> host_;
  std::unique_ptr<core::Host> remote_;
  core::Nsm* nsm_ = nullptr;
  std::vector<core::Vm*> vms_;
  core::Vm* peer_ = nullptr;
  std::vector<std::vector<int>> fds_;
};

// ---- traffic --------------------------------------------------------------

// Streams 8 KiB zc loans at `dst` until the byte budget, an error, or
// revocation.
sim::Task<void> ZcStreamSender(core::Vm* vm, netsim::IpAddr dst, uint16_t port,
                               uint64_t budget, std::vector<int>* fds);
// Accepts one connection and drains it through RecvBuf/ReleaseBuf loans.
sim::Task<void> ZcStreamSink(core::Vm* vm, uint16_t port, std::vector<int>* fds);
// Streams copied 8 KiB sends at `dst` until the byte budget or an error.
sim::Task<void> CopyStreamSender(core::Vm* vm, netsim::IpAddr dst, uint16_t port,
                                 uint64_t budget, std::vector<int>* fds);
// Zero-copy datagram ping-pong client (the echo peer copies normally).
sim::Task<void> ZcDgramClient(core::Vm* vm, netsim::IpAddr dst, uint16_t port, int count,
                              std::vector<int>* fds);
sim::Task<void> DgramEchoServer(core::Vm* vm, uint16_t port);
// Closes every collected fd, newest first (data fds before their listener),
// unblocking stuck tasks and revoking loans.
sim::Task<void> CloseAll(core::Vm* vm, std::vector<int>* fds);

// The colocated topology's traffic: zc loans a -> b and copied sends b -> a,
// both ends reading with loans.
void StartColocatedTraffic(Topology& topo);

// ---- fault actions ----------------------------------------------------------

// NSM death: the switch forgets the NSM, then its driver tears down with
// recoverable accounting (chunks in its rings go home).
void KillNsm(core::Host& host, core::Nsm* nsm);
// Wedges the NSM `vm` is on right now. A fresh standby is armed first if
// the last failover consumed it, so a wedge after a re-home chains
// failovers and a third wedge can exhaust the supply.
void WedgeCurrentNsm(Topology& topo, core::Vm* vm);
// Hands one of `vm`'s two queue sets to one of two shards, drawn from `r`.
void MigrateQueueSet(core::Host& host, core::Vm* vm, Rng& r);
// After the chaos window: stops the controller and records its stats. A
// wedge that found no standby was refused by FailoverNsm and left `vm` on a
// wedged NSM; the operator's move is the teardown the controller would have
// used, without which chunks in the wedged rings would read as leaks.
// Returns whether that cleanup ran.
bool StopControllerAndCleanUp(Topology& topo, core::Vm* vm, Ledger* l);

// ---- mutation plan ----------------------------------------------------------

// One nkfuzz iteration on a topology of `kind`: a seeded guard policy,
// optional ring backpressure and 8..32 attacks on the first VM's live
// guest-writable rings (wrong-direction ops, non-enumerator bytes, unowned
// chunks, forged identities, credit replays, garbage flag bytes, in-place
// size corruption of in-flight sends), then an operator un-quarantine.
// kKernel runs zc stream + datagram traffic at the remote peer; kShm runs
// StartColocatedTraffic.
Ledger RunFuzzIteration(uint64_t seed, core::NsmKind kind);
// Seed of fuzz iteration i in a sweep.
inline constexpr uint64_t kFuzzBaseSeed = 0xfa220u;

// ---- sweep ------------------------------------------------------------------

// Ledger sums over a sweep, for its gates and summary line.
struct Totals {
  unsigned long long nsm_kills = 0;
  unsigned long long ring_chaos_runs = 0;
  unsigned long long wedge_runs = 0;
  unsigned long long quarantine_runs = 0;
  unsigned long long controller_runs = 0;
  unsigned long long failovers = 0;
  unsigned long long bytes_copied = 0;
  unsigned long long zc_sends = 0;        // every VM's
  unsigned long long dgram_zc_sends = 0;  // every VM's
  unsigned long long injected = 0;
  unsigned long long injected_invalid = 0;
  unsigned long long injected_scrub = 0;
  unsigned long long guard_rejects = 0;
  unsigned long long validating_runs = 0;  // the guard admitted something
  void Add(const Ledger& l);
};

struct SweepSpec {
  const char* name;  // summary and report prefix
  const char* env;   // reads <env>_ITERS and <env>_SEED
  uint64_t base_seed;  // seed of iteration i is base_seed + i
  uint64_t default_iters;
};

class Sweep {
 public:
  // Reads <env>_ITERS and <env>_SEED, then `--iters N` and `--seed S`, which
  // win. A seed means a one-iteration replay.
  explicit Sweep(const SweepSpec& spec, int argc = 0, char** argv = nullptr);

  bool usage_error() const { return usage_error_; }
  unsigned long long iters() const { return iters_; }
  bool single() const { return single_; }
  const Totals& totals() const { return totals_; }

  // Runs every seed, summing each ledger into totals(). Each failing seed's
  // Report goes to `on_failure`, which returns false to stop the sweep.
  // Returns the number of failing seeds.
  uint64_t Run(const std::function<Ledger(uint64_t)>& iteration,
               const std::function<bool(const std::string&)>& on_failure);
  // Prints the summary line on stdout, which stays identical from run to run,
  // and the sweep's wall ms per seed on stderr.
  void PrintSummary(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));

 private:
  SweepSpec spec_;
  unsigned long long iters_;
  uint64_t only_seed_ = 0;
  bool single_ = false;
  bool usage_error_ = false;
  Totals totals_;
  std::chrono::steady_clock::duration wall_{};
};

// The post-mortem block of a failing seed: one line per violated invariant,
// how to replay it and the flight tail. Empty when `l` is clean.
std::string Report(const SweepSpec& spec, uint64_t seed, const Ledger& l);

}  // namespace netkernel::chaos

#endif  // TOOLS_NKCHAOS_CHAOS_H_
