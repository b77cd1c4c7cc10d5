// Copyright (c) NetKernel reproduction authors.
// Shared topology builders and measurement helpers for the per-figure
// benchmark binaries. Every bench reproduces one table or figure of the
// paper's evaluation (§6-§7).

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/netkernel.h"

namespace netkernel::bench {

// ---------------------------------------------------------------------------
// Machine-readable results: `<bench> --json <path>` appends one row per
// reported metric and writes a JSON array on Write(). Future PRs diff these
// BENCH_*.json files to track the perf trajectory.
// ---------------------------------------------------------------------------

class JsonReporter {
 public:
  void Enable(std::string path) { path_ = std::move(path); }
  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& bench, const std::string& config, const std::string& metric,
           double value) {
    if (!enabled()) return;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  {\"bench\": \"%s\", \"config\": \"%s\", \"metric\": \"%s\", "
                  "\"value\": %.6g}",
                  bench.c_str(), config.c_str(), metric.c_str(), value);
    rows_.push_back(buf);
  }

  // Writes the accumulated rows; call once at the end of main().
  bool Write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(), i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string path_;
  std::vector<std::string> rows_;
};

inline JsonReporter& GlobalJson() {
  static JsonReporter reporter;
  return reporter;
}

// Recognizes `--json <path>` (shared by every bench binary); other flags are
// left for the binary itself.
inline void ParseBenchFlags(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) GlobalJson().Enable(argv[i + 1]);
  }
}

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Sharded CoreEngine switching experiment (Fig 11 / Fig 18-19 CE scaling):
// `vm_devs` VM devices with `qsets_per_vm` queue sets each keep their send
// rings saturated with datagram NQEs toward `nsms` NSM devices; consumers
// drain the NSM rings faster than the switch can fill them, so aggregate
// switched NQEs/s is bounded by the CE cores alone. Deterministic (pure DES),
// which is what lets CI gate on the 1-shard vs 4-shard ratio.
// ---------------------------------------------------------------------------

struct CeShardResult {
  double nqes_per_sec = 0;
  uint64_t migrations = 0;
  std::vector<uint64_t> per_shard_switched;
  // Populated when a tracer was attached (see attach_tracer below).
  uint64_t trace_samples_started = 0;
};

// `attach_tracer` attaches an nkobs lifecycle tracer (on the experiment's own
// event loop) sampling 1-in-`trace_sample_every` NQEs (0 = attached but
// disabled): the refiller stamps T0 on every enqueued NQE (standing in for
// GuestLib, which this raw-device experiment bypasses) and the CE shards
// stamp T1, charging the modeled stamp cost into the switch rounds.
// bench_obs_overhead uses this to price tracing against the fig11 switching
// workload.
// `guard` toggles nkguard validation at ring-consume time. Off by default so
// every raw-device experiment stays comparable with pre-guard baselines;
// bench_fig11's guard column runs the same workload both ways and gates the
// overhead (<3% of switched NQEs/s).
inline CeShardResult RunCeShardExperiment(int shards, SimTime window = 10 * kMillisecond,
                                          int vm_devs = 8, int qsets_per_vm = 2, int nsms = 4,
                                          int nsm_qsets = 8, bool attach_tracer = false,
                                          uint32_t trace_sample_every = 0, bool guard = false) {
  using shm::MakeNqe;
  using shm::Nqe;
  using shm::NqeOp;
  sim::EventLoop loop;
  std::vector<std::unique_ptr<sim::CpuCore>> cores;
  std::vector<sim::CpuCore*> core_ptrs;
  for (int i = 0; i < shards; ++i) {
    cores.push_back(std::make_unique<sim::CpuCore>(&loop, "ce" + std::to_string(i)));
    core_ptrs.push_back(cores.back().get());
  }
  core::CoreEngineConfig cfg;
  cfg.batch = 64;            // Fig 11's saturating batch tier
  cfg.pending_bound = 8192;  // the consumer, not the park, absorbs bursts
  cfg.guard.enabled = guard;
  core::CoreEngine ce(&loop, core_ptrs, cfg);
  std::unique_ptr<obs::Tracer> tracer_storage;
  obs::Tracer* tracer = nullptr;
  if (attach_tracer) {
    tracer_storage = std::make_unique<obs::Tracer>(&loop);
    tracer_storage->set_sample_every(trace_sample_every);
    tracer = tracer_storage.get();
    ce.SetTracer(tracer);
  }

  std::vector<std::unique_ptr<shm::NkDevice>> nsm_devs;
  for (int n = 0; n < nsms; ++n) {
    nsm_devs.push_back(
        std::make_unique<shm::NkDevice>("nsm" + std::to_string(n), nsm_qsets));
    ce.RegisterNsmDevice(static_cast<uint8_t>(n + 1), nsm_devs.back().get());
  }
  std::vector<std::unique_ptr<shm::NkDevice>> vm_devs_v;
  for (int v = 0; v < vm_devs; ++v) {
    vm_devs_v.push_back(std::make_unique<shm::NkDevice>("vm" + std::to_string(v),
                                                        qsets_per_vm));
    uint8_t vm_id = static_cast<uint8_t>(v + 1);
    ce.RegisterVmDevice(vm_id, vm_devs_v.back().get());
    ce.AssignVmToNsm(vm_id, static_cast<uint8_t>((v % nsms) + 1));
    // One datagram socket per queue set (vm_sock == queue set id) so every
    // NQE takes the table-lookup switching path.
    for (int qs = 0; qs < qsets_per_vm; ++qs) {
      vm_devs_v.back()->queue_set(qs).job.TryEnqueue(
          MakeNqe(NqeOp::kSocketUdp, vm_id, static_cast<uint8_t>(qs),
                  static_cast<uint32_t>(qs)));
    }
    ce.NotifyVmOutbound(vm_id);
  }
  loop.Run(loop.Now() + kMillisecond);

  Nqe buf[256];
  auto drain_nsms = [&] {
    for (auto& dev : nsm_devs) {
      for (int qs = 0; qs < dev->num_queue_sets(); ++qs) {
        shm::QueueSet& q = dev->queue_set(qs);
        while (q.send.DequeueBatch(buf, 256) > 0) {
        }
        while (q.job.DequeueBatch(buf, 256) > 0) {
        }
      }
    }
  };
  drain_nsms();  // discard socket-creation NQEs

  auto refill = [&] {
    for (int v = 0; v < vm_devs; ++v) {
      uint8_t vm_id = static_cast<uint8_t>(v + 1);
      for (int qs = 0; qs < qsets_per_vm; ++qs) {
        auto& ring = vm_devs_v[static_cast<size_t>(v)]->queue_set(qs).send;
        for (;;) {
          Nqe nqe = MakeNqe(NqeOp::kSendTo, vm_id, static_cast<uint8_t>(qs),
                            static_cast<uint32_t>(qs), 0, 0, 64);
          // T0 stamp, as GuestLib::EnqueueRing would take it (the refiller is
          // the guest here; its own stamp cost is off-core and uncharged).
          if (tracer != nullptr) tracer->OnGuestEnqueue(&nqe);
          if (!ring.TryEnqueue(nqe)) break;
        }
        ce.NotifyVmOutbound(vm_id, qs);
      }
    }
  };

  const SimTime warmup = 2 * kMillisecond;
  const SimTime end = loop.Now() + warmup + window;
  for (SimTime t = loop.Now(); t < end; t += 20 * kMicrosecond) {
    loop.Schedule(t, refill);
  }
  for (SimTime t = loop.Now(); t < end; t += kMicrosecond) {
    loop.Schedule(t, drain_nsms);
  }
  loop.Run(loop.Now() + warmup);
  uint64_t start = ce.stats().nqes_switched;
  SimTime t0 = loop.Now();
  loop.Run(end);
  SimTime span = loop.Now() - t0;

  CeShardResult r;
  uint64_t switched = ce.stats().nqes_switched - start;
  r.nqes_per_sec =
      span > 0 ? static_cast<double>(switched) / (static_cast<double>(span) / kSecond) : 0;
  r.migrations = ce.stats().qset_migrations;
  for (int i = 0; i < ce.num_shards(); ++i) {
    r.per_shard_switched.push_back(ce.shard(i).stats().nqes_switched);
  }
  if (tracer != nullptr) r.trace_samples_started = tracer->samples_started();
  return r;
}

// A two-host testbed mirroring the paper's §7.1 setup: the measured host and
// a peer ("the other testbed machine") that is never the bottleneck.
class Testbed {
 public:
  explicit Testbed(netsim::Link::Config port = {})
      : Testbed(core::Host::Options{port, {}, {}, {}}) {}
  // Full control over the measured host's plumbing (CE shards, GuestLib /
  // ServiceLib ablation knobs such as rx_zerocopy). The peer host keeps the
  // same link config but default plumbing.
  explicit Testbed(core::Host::Options a_options)
      : fabric_(&loop_),
        host_a_(&loop_, &fabric_, "hostA", a_options),
        host_b_(&loop_, &fabric_, "hostB", core::Host::Options{a_options.port, {}, {}, {}}) {}

  sim::EventLoop& loop() { return loop_; }
  netsim::Fabric& fabric() { return fabric_; }
  core::Host& host_a() { return host_a_; }
  core::Host& host_b() { return host_b_; }

  // The measured server/sender VM in NetKernel mode with its NSM.
  core::Vm* MakeNkVm(int vm_cores, int nsm_cores, core::NsmKind kind,
                     tcp::TcpStackConfig cfg = {}) {
    nsm_ = host_a_.CreateNsm("nsm", nsm_cores, kind, std::move(cfg));
    return host_a_.CreateNetkernelVm("vm", vm_cores, nsm_);
  }
  core::Nsm* nsm() { return nsm_; }

  // The measured VM in Baseline mode.
  core::Vm* MakeBaselineVm(int cores, tcp::TcpStackConfig cfg = {}) {
    return host_a_.CreateBaselineVm("vm", cores, std::move(cfg));
  }

  // The peer machine: plenty of cores, sink cost profile.
  core::Vm* MakePeer(int cores = 16) {
    tcp::TcpStackConfig cfg;
    cfg.profile = tcp::SinkProfile();
    return host_b_.CreateBaselineVm("peer", cores, std::move(cfg));
  }

  void Run(SimTime t) { loop_.Run(loop_.Now() + t); }

 private:
  sim::EventLoop loop_;
  netsim::Fabric fabric_;
  core::Host host_a_;
  core::Host host_b_;
  core::Nsm* nsm_ = nullptr;
};

// Measures steady-state receive goodput: warms up for `warmup`, then counts
// sink bytes over `window`. Returns Gbps.
inline double MeasureGoodputGbps(Testbed& tb, const apps::StreamStats& sink, SimTime warmup,
                                 SimTime window) {
  tb.Run(warmup);
  uint64_t b0 = sink.bytes_received;
  SimTime t0 = tb.loop().Now();
  tb.Run(window);
  SimTime span = tb.loop().Now() - t0;
  return span > 0 ? RateOf(sink.bytes_received - b0, span) / kGbps : 0.0;
}

// One row of a send- or receive-throughput experiment (Figs 13-16).
// `measure_send`: the measured VM transmits; otherwise it receives.
struct ThroughputResult {
  double gbps = 0;
  uint64_t retransmits = 0;
};

inline ThroughputResult RunStreamExperiment(bool netkernel, bool measure_send, int vm_cores,
                                            int conns, uint32_t msg_size,
                                            SimTime window = 40 * kMillisecond,
                                            core::NsmKind kind = core::NsmKind::kKernel) {
  Testbed tb;
  core::Vm* vm = netkernel ? tb.MakeNkVm(vm_cores, vm_cores, kind)
                           : tb.MakeBaselineVm(vm_cores);
  core::Vm* peer = tb.MakePeer();
  apps::StreamStats sink_stats, send_stats;
  core::Vm* sender = measure_send ? vm : peer;
  core::Vm* receiver = measure_send ? peer : vm;
  apps::StartStreamSink(receiver, 9000, &sink_stats);
  apps::StreamConfig cfg;
  cfg.dst_ip = receiver->ip();
  cfg.port = 9000;
  cfg.connections = conns;
  cfg.message_size = msg_size;
  apps::StartStreamSenders(sender, cfg, &send_stats);
  ThroughputResult r;
  r.gbps = MeasureGoodputGbps(tb, sink_stats, window / 2, window);
  tcp::TcpStack* st = netkernel ? tb.nsm()->stack() : vm->guest_stack();
  r.retransmits = st->stats().retransmits;
  return r;
}

// One row of a short-connection experiment (Figs 17/20, Tables 3/5).
struct RpsResult {
  double krps = 0;
  uint64_t errors = 0;
  Summary latency_us;
};

inline RpsResult RunRpsExperiment(bool netkernel, core::NsmKind kind, int cores,
                                  uint64_t total_requests, int concurrency, uint32_t msg_size,
                                  Cycles app_cycles = 0, SimTime horizon = 60 * kSecond) {
  Testbed tb;
  core::Vm* vm = netkernel ? tb.MakeNkVm(cores, cores, kind) : tb.MakeBaselineVm(cores);
  core::Vm* peer = tb.MakePeer();
  apps::ServerStats sstat;
  apps::EpollServerConfig scfg;
  scfg.port = 8080;
  scfg.request_size = msg_size;
  scfg.response_size = msg_size;
  scfg.app_cycles_per_request = app_cycles;
  apps::StartEpollServer(vm, scfg, &sstat);
  apps::LoadGenStats lstat;
  apps::LoadGenConfig lcfg;
  lcfg.server_ip = vm->ip();
  lcfg.port = 8080;
  lcfg.concurrency = concurrency;
  lcfg.total_requests = total_requests;
  lcfg.request_size = msg_size;
  lcfg.response_size = msg_size;
  apps::StartLoadGen(peer, lcfg, &lstat);
  tb.Run(horizon);
  RpsResult r;
  r.krps = lstat.RequestsPerSec() / 1e3;
  r.errors = lstat.errors;
  r.latency_us = std::move(lstat.latency_us);
  return r;
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

}  // namespace netkernel::bench

#endif  // BENCH_HARNESS_H_
