// Copyright (c) NetKernel reproduction authors.
// Assembly of the paper's deployment unit: a physical host running
// CoreEngine on a dedicated core, Network Stack Modules, and guest VMs in
// either NetKernel or Baseline (stack-in-guest) mode. Benchmarks build their
// topologies from these pieces.

#ifndef SRC_CORE_HOST_H_
#define SRC_CORE_HOST_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/counters.h"
#include "src/core/baseline_api.h"
#include "src/core/coreengine.h"
#include "src/core/guestlib.h"
#include "src/core/servicelib.h"
#include "src/netsim/fabric.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tcpstack/stack.h"
#include "src/udpstack/stack.h"

namespace netkernel::core {

enum class NsmKind {
  kKernel,     // Linux-kernel-profile TCP stack NSM
  kMtcp,       // mTCP userspace-profile NSM
  kShm,        // shared-memory NSM (colocated VM traffic, §6.4)
  kFairShare,  // kernel stack + per-VM shared congestion window (§6.2)
};

class Host;

// A Network Stack Module: a VM run by the operator holding a network stack.
class Nsm {
 public:
  const std::string& name() const { return name_; }
  uint8_t id() const { return id_; }
  NsmKind kind() const { return kind_; }
  tcp::TcpStack* stack() { return stack_.get(); }
  udp::UdpStack* udp_stack() { return udp_stack_.get(); }
  // A pool-copy (shared-memory) NSM has no vNIC and no network stack: its
  // driver copies between colocated VMs' pools.
  bool pool_copy() const { return vnic_ == nullptr; }
  // The NSM's NQE driver; every NSM kind has one.
  ServiceLib* servicelib() { return slib_.get(); }
  // The same driver, for pool-copy NSMs only.
  ShmServiceLib* shm_servicelib() { return pool_copy() ? slib_.get() : nullptr; }
  sim::CpuCore* vcpu(int i) { return cores_[i].get(); }
  int num_vcpus() const { return static_cast<int>(cores_.size()); }
  netsim::Link* down_link() { return down_link_; }

  Cycles TotalBusyCycles() const {
    Cycles total = 0;
    for (const auto& c : cores_) total += c->busy_cycles();
    return total;
  }
  void ResetCycleAccounting() {
    for (const auto& c : cores_) c->ResetAccounting();
  }

  // FairShare NSM: the VM-level shared window group (null otherwise).
  std::shared_ptr<tcp::SharedWindowGroup> shared_window_group(uint8_t vm_id) {
    auto it = groups_.find(vm_id);
    return it == groups_.end() ? nullptr : it->second;
  }

 private:
  friend class Host;
  std::string name_;
  uint8_t id_ = 0;
  NsmKind kind_ = NsmKind::kKernel;
  std::vector<std::unique_ptr<sim::CpuCore>> cores_;
  std::unique_ptr<shm::NkDevice> dev_;
  std::unique_ptr<tcp::TcpStack> stack_;
  std::unique_ptr<udp::UdpStack> udp_stack_;
  std::unique_ptr<ServiceLib> slib_;
  netsim::Nic* vnic_ = nullptr;  // null for a pool-copy NSM
  netsim::Link* down_link_ = nullptr;
  // FairShare NSM: one shared window group per VM.
  std::unordered_map<uint8_t, std::shared_ptr<tcp::SharedWindowGroup>> groups_;
};

// A guest VM, in NetKernel mode (GuestLib + NSM) or Baseline mode (own stack).
class Vm {
 public:
  const std::string& name() const { return name_; }
  uint8_t id() const { return id_; }
  netsim::IpAddr ip() const { return ip_; }
  bool netkernel_mode() const { return guestlib_ != nullptr; }

  // The BSD-socket boundary: identical for both modes, so applications are
  // oblivious to where their network stack runs.
  SocketApi& api() { return guestlib_ ? static_cast<SocketApi&>(*guestlib_) : *baseline_; }
  GuestLib* guestlib() { return guestlib_.get(); }
  BaselineSocketApi* baseline() { return baseline_.get(); }
  tcp::TcpStack* guest_stack() { return stack_.get(); }
  udp::UdpStack* guest_udp_stack() { return udp_stack_.get(); }
  Nsm* nsm() { return nsm_; }
  shm::HugepagePool* pool() { return pool_.get(); }
  shm::NkDevice* dev() { return dev_.get(); }
  // nkguard: quarantined VMs are deregistered from the switch (see
  // Host::QuarantineVm) but keep their device, pool and GuestLib.
  bool quarantined() const { return quarantined_; }

  // The address this VM's connections use on a given NSM. Multi-NSM setups
  // (Table 4) give the VM one alias address per NSM so the fabric can route
  // each connection's return traffic to the right NSM vNIC.
  netsim::IpAddr IpOn(const Nsm* nsm) const {
    auto it = ip_per_nsm_.find(nsm);
    return it == ip_per_nsm_.end() ? ip_ : it->second;
  }

  sim::CpuCore* vcpu(int i) { return cores_[i].get(); }
  int num_vcpus() const { return static_cast<int>(cores_.size()); }

  Cycles TotalBusyCycles() const {
    Cycles total = 0;
    for (const auto& c : cores_) total += c->busy_cycles();
    return total;
  }
  void ResetCycleAccounting() {
    for (const auto& c : cores_) c->ResetAccounting();
  }

 private:
  friend class Host;
  std::string name_;
  uint8_t id_ = 0;
  netsim::IpAddr ip_ = 0;
  std::vector<std::unique_ptr<sim::CpuCore>> cores_;
  // NetKernel mode.
  std::unique_ptr<shm::NkDevice> dev_;
  std::unique_ptr<shm::HugepagePool> pool_;
  std::unique_ptr<GuestLib> guestlib_;
  Nsm* nsm_ = nullptr;
  std::vector<Nsm*> attached_nsms_;  // every NSM this VM ever attached to
  std::unordered_map<const Nsm*, netsim::IpAddr> ip_per_nsm_;
  // Baseline mode.
  std::unique_ptr<tcp::TcpStack> stack_;
  std::unique_ptr<udp::UdpStack> udp_stack_;
  std::unique_ptr<BaselineSocketApi> baseline_;
  netsim::Nic* vnic_ = nullptr;
  bool quarantined_ = false;
};

class Host {
 public:
  struct Options {
    netsim::Link::Config port;  // per-vNIC/pNIC link parameters
    // ce.costs is the host's one cost table (the ablation knobs): CoreEngine
    // and every GuestLib and ServiceLib this host creates read it.
    CoreEngineConfig ce;
    GuestLib::Config guestlib;
    ServiceLib::Config servicelib;
  };

  Host(sim::EventLoop* loop, netsim::Fabric* fabric, std::string name, Options options = {});

  CoreEngine& ce() { return *ce_; }
  // CE switching cores: one per shard (Options::ce.shards), named
  // "<host>.ce0", "<host>.ce1", ...
  sim::CpuCore* ce_core(int shard) { return ce_cores_[static_cast<size_t>(shard)].get(); }
  int num_ce_cores() const { return static_cast<int>(ce_cores_.size()); }
  sim::EventLoop* loop() { return loop_; }
  netsim::Fabric* fabric() { return fabric_; }

  // Creates an NSM with `vcpus` cores. `stack_config` tunes the NSM's stack
  // (an mTCP NSM sets its profile and per-core tables, a FairShare NSM ECN).
  Nsm* CreateNsm(const std::string& name, int vcpus, NsmKind kind,
                 tcp::TcpStackConfig stack_config = {});

  // Creates a VM served by `nsm` through NetKernel.
  Vm* CreateNetkernelVm(const std::string& name, int vcpus, Nsm* nsm,
                        uint64_t hugepage_bytes = shm::HugepagePool::kDefaultRegionBytes);

  // Creates a Baseline VM with the TCP stack in the guest.
  Vm* CreateBaselineVm(const std::string& name, int vcpus,
                       tcp::TcpStackConfig stack_config = {});

  // Moves a VM to a different NSM on the fly (new sockets go to `nsm`).
  void SwitchNsm(Vm* vm, Nsm* nsm);

  // ---- NSM failover & rolling live upgrade ----
  static constexpr SimTime kHeartbeatPeriod = 20 * kMicrosecond;  // NSM liveness beacon
  static constexpr SimTime kFailoverCheckPeriod = 25 * kMicrosecond;  // controller poll
  static constexpr SimTime kHeartbeatGrace = 50 * kMicrosecond;  // slack past one beacon
  static constexpr int kMissThreshold = 3;  // consecutive silent checks before failover
  // Controller counters, exported as ce.<name> (failover acts on the switch).
  struct FailoverStats {
    uint64_t nsm_failovers = 0;       // NSMs drained and replaced
    uint64_t heartbeat_misses = 0;    // checks that found an NSM silent
    uint64_t wedged_detections = 0;   // silent NSMs with ring backlog (stalled)
    uint64_t vms_rehomed = 0;         // VMs moved onto the standby
    uint64_t reconnects_required = 0; // stream conns errored with FINs
  };
  static constexpr CounterRow<FailoverStats> kFailoverCounters[] = {
      {"nsm_failovers", &FailoverStats::nsm_failovers,
       "NSMs drained and replaced by the failover controller"},
      {"heartbeat_misses", &FailoverStats::heartbeat_misses,
       "controller checks that found an NSM silent"},
      {"wedged_detections", &FailoverStats::wedged_detections,
       "silent NSMs that still had ring backlog (stalled, not dead)"},
      {"vms_rehomed", &FailoverStats::vms_rehomed, "VMs re-homed onto the standby NSM"},
      {"reconnects_required", &FailoverStats::reconnects_required,
       "stream connections errored with FINs by failovers"},
  };
  static_assert(CoversEveryField(kFailoverCounters),
                "kFailoverCounters must name every FailoverStats field exactly once");

  // Pre-registers the spare NSM failovers re-home onto. Consumed (promoted
  // to active duty) by the first failover; re-arm with a fresh spare for the
  // next rolling-upgrade step. The spare must use the same transport as the
  // NSM it replaces (a shared-memory NSM stands by for shared-memory NSMs).
  void SetStandbyNsm(Nsm* nsm);
  Nsm* standby_nsm() { return standby_; }

  // Starts heartbeats (every kHeartbeatPeriod) on every NSM and polls their
  // health every kFailoverCheckPeriod: an NSM silent (no beacon, no doorbell)
  // for longer than kHeartbeatPeriod + kHeartbeatGrace accrues a miss;
  // kMissThreshold consecutive misses trigger FailoverNsm. Silent-with-backlog
  // is flagged as wedged (stalled process) before the failover.
  void StartFailoverController();
  void StopFailoverController();

  // Drain-and-replace of `sick` onto the registered standby — the rolling
  // live-upgrade primitive, and what the controller calls on detection.
  // Deregisters the sick NSM (erroring its stream connections with FINs),
  // shuts its ServiceLib down, re-homes every VM it served, and notifies
  // each guest with kNsmRehomed. Returns the number of VMs re-homed; no-op
  // (returns 0) without a standby, or with one of the other transport.
  size_t FailoverNsm(Nsm* sick);

  // ---- nkguard quarantine ----
  // Pulls a misbehaving VM out of the datapath without disturbing
  // co-tenants: its device deregisters from the CoreEngine, every NSM it
  // attached to evicts its state (in-flight chunks reclaimed into its
  // still-owned pool), and the validator marks it so any residual ring
  // entries drain unrouted. The VM object, device, pool and GuestLib stay —
  // UnquarantineVm re-registers the device, re-attaches the NSM and replays
  // datagram state through the usual kNsmRehomed path. The CoreEngine
  // triggers this automatically through the quarantine callback when
  // GuardPolicy::kQuarantine trips; tests and operators call it directly.
  void QuarantineVm(Vm* vm);
  void UnquarantineVm(Vm* vm);

  const FailoverStats& failover_stats() const { return failover_stats_; }
  // Per-failover blackout: how long the sick NSM was dark before the standby
  // took over, in microseconds.
  const obs::Histogram& blackout_histogram() const { return blackout_us_; }

  // This VM's slice of the CoreEngine per-VM stats (observability surface
  // for the Fig 9/21 fairness and isolation claims).
  PerVmStats VmNkStats(const Vm* vm) const;

  // ---- Observability (nkobs) ----
  // The host-wide NQE lifecycle tracer. Wired into CoreEngine, every
  // ServiceLib and every GuestLib at creation; disabled until
  // SetTraceSampling() is called with a nonzero interval.
  obs::Tracer& tracer() { return *tracer_; }
  const obs::Tracer& tracer() const { return *tracer_; }
  // 0 disables lifecycle tracing; N samples one in every N guest enqueues.
  void SetTraceSampling(uint32_t sample_every) { tracer_->set_sample_every(sample_every); }

  // Registers every component's live counters into `registry` under stable
  // dotted names: ce.shard<i>.*, ce.vm<id>.*, nsm<id>.{tcp,udp,svc}.*,
  // vm<id>.guest.*, trace.*. Sources are lazy; export reads live values.
  void BuildMetricsRegistry(obs::MetricsRegistry* registry) const;
  // Prometheus text exposition (v0.0.4) of a freshly built registry.
  std::string DumpMetrics() const;
  // Same registry as flat JSON ({"name": value, ...} plus histogram summaries).
  std::string DumpMetricsJson() const;

  // Merged (virtual-time-ordered) tail of every flight recorder on the host:
  // all CoreEngine shards plus every ServiceLib.
  std::string DumpFlightRecorder(size_t last_k = 32) const;

  // Does nothing: each netsim::Fabric numbers its own addresses. Kept only
  // because bench/nkbench/nkbench.cc:898 still calls it, and the benchmark's
  // sources stayed as they were when the allocator moved; delete it once
  // that call is gone.
  static void ResetIpAllocator() {}

 private:
  void ScheduleFailoverCheck();
  void RunFailoverCheck();
  // The one attach path: `nsm`'s driver serves `vm` under `ip`, a vNIC-backed
  // NSM gets the fabric route for `ip`, and a FairShare NSM the VM's shared
  // window group.
  void AttachVm(Vm* vm, Nsm* nsm, netsim::IpAddr ip);
  // Attaches the VM to `to` under its ORIGINAL address (no alias), re-points
  // the fabric route, and notifies the guest with kNsmRehomed.
  void RehomeVm(Vm* vm, Nsm* to);
  void EmitRehomeNqe(Vm* vm, uint8_t new_nsm_id);

  sim::EventLoop* loop_;
  netsim::Fabric* fabric_;
  std::string name_;
  Options options_;
  std::vector<std::unique_ptr<sim::CpuCore>> ce_cores_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<CoreEngine> ce_;
  std::vector<std::unique_ptr<Nsm>> nsms_;
  std::vector<std::unique_ptr<Vm>> vms_;
  uint8_t next_vm_id_ = 1;
  uint8_t next_nsm_id_ = 1;
  // Failover controller state.
  Nsm* standby_ = nullptr;
  bool failover_running_ = false;
  FailoverStats failover_stats_;
  obs::Histogram blackout_us_;
  sim::EventHandle failover_timer_;
  std::unordered_map<uint8_t, int> hb_misses_;
  std::unique_ptr<obs::FlightRecorder> failover_recorder_;
};

}  // namespace netkernel::core

#endif  // SRC_CORE_HOST_H_
