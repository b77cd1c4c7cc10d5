// Copyright (c) NetKernel reproduction authors.
// nkbench: one repetition of one NetKernel workload, measured end to end and
// per layer. bench/nkbench/run.py drives it; README.md defines every metric.
//
//   nkbench --workload <rpc_shortconn|udp_kv_mux|stream_bidir|shm_colocated>
//           [--seed N] [--trace-sampling N]
//
// Prints one JSON object on stdout:
//   modeled  virtual-time and charged-cycle metrics plus per-layer counters,
//            identical for identical arguments;
//   wall     the simulator's own wall-clock cost;
//   checks   correctness checks on the workload's outputs;
//   spans    wall-clock spans around the benchmark's own calls.
// Every layer is read from outside, through its public accessors. The load
// generators on the peer host are this file's own code, so a change to
// src/apps cannot change the offered load; the applications on the measured
// VMs are the system's own (apps::StartEpollServer, StartUdpKvServer,
// StartStreamSink/StartStreamSenders).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/netkernel.h"

using namespace netkernel;

namespace {

using Clock = std::chrono::steady_clock;
// Taken during static initialization, as close to process start as this
// process can observe without parsing /proc.
const Clock::time_point kProcessStart = Clock::now();

double MicrosSinceStart() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kProcessStart).count();
}

// Every client slot, stream sender and probe starts after a seeded offset of
// up to this much, so another seed runs another interleaving.
constexpr SimTime kMaxStartOffset = 50 * kMicrosecond;
// Stream workloads count one op per 64 KiB delivered.
constexpr double kStreamOpBytes = 64.0 * 1024;

constexpr uint32_t kSmallMsg = 64;         // RPC request/response and probe size
constexpr uint8_t kRequestFill = 0xa5;
constexpr uint8_t kResponseFill = 0x5a;    // what apps::StartEpollServer answers
constexpr uint8_t kVmStreamFill = 0xc3;    // what apps::StartStreamSenders sends
constexpr uint8_t kPeerStreamFill = 0x3c;
constexpr uint16_t kRpcPort = 8080;
constexpr uint16_t kProbePort = 8081;
constexpr uint16_t kVmSinkPort = 9000;
constexpr uint16_t kPeerSinkPort = 9001;
constexpr uint16_t kKvPort = 11211;

// ---------------------------------------------------------------------------
// Measurement window. EventLoop::Run(t) executes every event at or before t,
// so the window is (t0, t1].
// ---------------------------------------------------------------------------

struct Window {
  SimTime t0 = 0;
  SimTime t1 = 0;
  bool Contains(SimTime t) const { return t > t0 && t <= t1; }
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

// What the benchmark's own code observed about application ops.
struct AppResult {
  double ops = 0;            // completed ops in the window
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t payload_bytes = 0;       // app payload delivered in the window
  std::vector<SimTime> latency_ns;  // per completed request, or per probe
  std::vector<SimTime> late_ns;     // open-loop generator lateness
  // Hugepage bytes the workload may legitimately hold at the end: what its
  // in-flight ops, send buffers and receive windows can pin. A per-op leak
  // outgrows this within the window.
  uint64_t pool_bound_bytes = 0;
  std::map<std::string, double> extra;
  std::vector<Check> checks;

  void Expect(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
  }
};

std::string U(uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Topology: the measured host and, for network workloads, a peer machine that
// is never the bottleneck (16 cores, the cheap receive profile).
// ---------------------------------------------------------------------------

struct Topology {
  Topology() : fabric(&loop), host(&loop, &fabric, "hostA") {}

  void AddPeer() {
    peer_host = std::make_unique<core::Host>(&loop, &fabric, "hostB");
    tcp::TcpStackConfig cfg;
    cfg.profile = tcp::SinkProfile();
    peer = peer_host->CreateBaselineVm("peer", 16, std::move(cfg));
  }

  sim::EventLoop loop;
  netsim::Fabric fabric;
  core::Host host;
  std::unique_ptr<core::Host> peer_host;
  core::Nsm* nsm = nullptr;
  std::vector<core::Vm*> vms;  // the measured VMs
  core::Vm* peer = nullptr;
};

SimTime StartOffset(Rng& rng) { return static_cast<SimTime>(rng.NextBounded(kMaxStartOffset)); }

// ---------------------------------------------------------------------------
// Request accounting (RPC slots and latency probes). A request belongs to the
// window it was due in; one still unanswered after the drain counts as failed.
// ---------------------------------------------------------------------------

enum class Reply { kOk, kShort, kCorrupt };

struct RequestLog {
  const Window* w = nullptr;
  std::vector<SimTime> latency_ns;
  std::vector<SimTime> late_ns;  // open loop: how late the sender ran
  uint64_t attempted = 0;        // due in the window
  uint64_t completed = 0;        // due in the window, answered intact
  uint64_t corrupt = 0;          // whole run: replies whose bytes were wrong
  uint64_t outstanding = 0;      // whole run: issued, not yet answered

  void Issue(SimTime due, SimTime now) {
    ++outstanding;
    if (!w->Contains(due)) return;
    ++attempted;
    late_ns.push_back(now - due);
  }
  void Record(SimTime due, SimTime now, Reply reply) {
    --outstanding;
    if (reply == Reply::kCorrupt) ++corrupt;
    if (reply == Reply::kOk && w->Contains(due)) {
      ++completed;
      latency_ns.push_back(now - due);
    }
  }
  // Due in the window but answered short, corrupt, or not at all.
  uint64_t Failed() const { return attempted - completed; }
};

void AddRequestResult(const RequestLog& log, AppResult* r) {
  r->attempted += log.attempted;
  r->failed += log.Failed();
  r->latency_ns = log.latency_ns;
  r->late_ns = log.late_ns;
  r->Expect("replies_intact", log.corrupt == 0, U(log.corrupt) + " corrupt replies");
}

// Reads one kSmallMsg reply and checks every byte.
sim::Task<Reply> ReadReply(core::SocketApi& api, sim::CpuCore* core, int fd) {
  uint8_t buf[kSmallMsg];
  uint64_t got = 0;
  while (got < kSmallMsg) {
    int64_t n = co_await api.Recv(core, fd, buf + got, kSmallMsg - got);
    if (n <= 0) co_return Reply::kShort;
    got += static_cast<uint64_t>(n);
  }
  for (uint8_t b : buf) {
    if (b != kResponseFill) co_return Reply::kCorrupt;
  }
  co_return Reply::kOk;
}

// One ab-style client slot: connect, send, receive, close, repeat. Closed
// loop: a request is due when its slot becomes free, and its latency runs to
// the last reply byte.
sim::Task<void> RpcSlot(core::Vm* client, sim::CpuCore* core, netsim::IpAddr server,
                        SimTime offset, RequestLog* log) {
  core::SocketApi& api = client->api();
  sim::EventLoop* loop = api.loop();
  co_await sim::Delay(loop, offset);
  const std::vector<uint8_t> req(kSmallMsg, kRequestFill);
  for (;;) {
    const SimTime due = loop->Now();
    log->Issue(due, due);
    Reply reply = Reply::kShort;
    int fd = co_await api.Socket(core);
    if (fd >= 0 && co_await api.Connect(core, fd, server, kRpcPort) == 0) {
      int64_t sent = co_await api.Send(core, fd, req.data(), req.size());
      if (sent == int64_t{kSmallMsg}) reply = co_await ReadReply(api, core, fd);
    }
    log->Record(due, loop->Now(), reply);
    if (fd >= 0) co_await api.Close(core, fd);
    // A failing slot backs off instead of spinning at one virtual instant.
    if (reply != Reply::kOk) co_await sim::Delay(loop, 10 * kMicrosecond);
  }
}

// Latency under load for the stream workloads: an open-loop Poisson stream of
// small requests, pipelined over kProbeConns keepalive connections to the
// system's EpollServer. The rate fixes the probe's own load, so a faster
// datapath cannot raise the probe's share of it; latency runs from the due
// instant. A broken connection ends its probe (the failure checks then fire).
constexpr int kProbeConns = 2;

// Pool bytes one small request may pin: its request, reply and completion
// chunks, with headroom.
constexpr uint64_t kSmallOpPoolBytes = 1024;

sim::Task<void> ProbeReplies(core::SocketApi& api, sim::CpuCore* core, int fd,
                             std::shared_ptr<std::deque<SimTime>> due, RequestLog* log) {
  for (;;) {
    Reply reply = co_await ReadReply(api, core, fd);
    if (due->empty()) {
      ++log->corrupt;  // a reply nobody asked for
      co_return;
    }
    log->Record(due->front(), api.loop()->Now(), reply);
    due->pop_front();
    if (reply != Reply::kOk) co_return;
  }
}

sim::Task<void> ProbeConn(core::Vm* client, sim::CpuCore* core, netsim::IpAddr server,
                          double rate, uint64_t seed, SimTime offset, RequestLog* log) {
  core::SocketApi& api = client->api();
  sim::EventLoop* loop = api.loop();
  co_await sim::Delay(loop, offset);
  int fd = co_await api.Socket(core);
  if (fd < 0) co_return;
  if (co_await api.Connect(core, fd, server, kProbePort) != 0) co_return;
  auto due_fifo = std::make_shared<std::deque<SimTime>>();
  sim::Spawn(ProbeReplies(api, core, fd, due_fifo, log));
  const std::vector<uint8_t> req(kSmallMsg, kRequestFill);
  Rng rng(seed);
  SimTime due = loop->Now();
  for (;;) {
    due += FromSeconds(rng.NextExponential(1.0 / rate));
    if (due > loop->Now()) co_await sim::Delay(loop, due - loop->Now());
    log->Issue(due, loop->Now());
    due_fifo->push_back(due);
    if (co_await api.Send(core, fd, req.data(), req.size()) != int64_t{kSmallMsg}) co_return;
  }
}

// The server is the system's EpollServer (one thread); the client connections
// run on `client` vCPUs first_core, first_core + 1, ...
void StartProbes(core::Vm* server, core::Vm* client, int first_core, double rate, Rng& rng,
                 apps::ServerStats* stats, RequestLog* log) {
  apps::EpollServerConfig cfg;
  cfg.port = kProbePort;
  cfg.request_size = kSmallMsg;
  cfg.response_size = kSmallMsg;
  cfg.keepalive = true;
  cfg.threads = 1;
  apps::StartEpollServer(server, cfg, stats);
  for (int i = 0; i < kProbeConns; ++i) {
    const uint64_t seed = rng.Next();
    sim::Spawn(ProbeConn(client, client->vcpu((first_core + i) % client->num_vcpus()),
                         server->ip(), rate / kProbeConns, seed, StartOffset(rng), log));
  }
}

// ---------------------------------------------------------------------------
// Bulk streams on the peer (the benchmark's own sink and senders).
// ---------------------------------------------------------------------------

struct PeerStreams {
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_sent = 0;
  uint64_t corrupt_reads = 0;
  uint64_t accepted = 0;
  uint64_t connect_failures = 0;
};

sim::Task<void> PeerSinkConn(core::Vm* peer, sim::CpuCore* core, int fd, PeerStreams* s) {
  core::SocketApi& api = peer->api();
  std::vector<uint8_t> buf(64 * 1024);
  static const std::vector<uint8_t> kExpected(64 * 1024, kVmStreamFill);
  for (;;) {
    int64_t n = co_await api.Recv(core, fd, buf.data(), buf.size());
    if (n <= 0) break;
    if (std::memcmp(buf.data(), kExpected.data(), static_cast<size_t>(n)) != 0) {
      ++s->corrupt_reads;
    }
    s->bytes_received += static_cast<uint64_t>(n);
  }
  co_await api.Close(core, fd);
}

sim::Task<void> PeerSink(core::Vm* peer, PeerStreams* s) {
  core::SocketApi& api = peer->api();
  sim::CpuCore* core = peer->vcpu(0);
  int lfd = co_await api.Socket(core);
  NK_CHECK(lfd >= 0);
  NK_CHECK(0 == co_await api.Bind(core, lfd, 0, kPeerSinkPort));
  NK_CHECK(0 == co_await api.Listen(core, lfd, 256, true));
  for (;;) {
    int cfd = co_await api.Accept(core, lfd);
    if (cfd < 0) co_return;
    ++s->accepted;
    sim::CpuCore* conn_core = peer->vcpu(static_cast<int>(s->accepted % 8) + 8);
    sim::Spawn(PeerSinkConn(peer, conn_core, cfd, s));
  }
}

sim::Task<void> PeerSender(core::Vm* peer, sim::CpuCore* core, netsim::IpAddr dst,
                           uint32_t message, SimTime offset, PeerStreams* s) {
  core::SocketApi& api = peer->api();
  co_await sim::Delay(api.loop(), offset);
  int fd = co_await api.Socket(core);
  if (fd < 0 || co_await api.Connect(core, fd, dst, kVmSinkPort) != 0) {
    ++s->connect_failures;
    co_return;
  }
  const std::vector<uint8_t> msg(message, kPeerStreamFill);
  for (;;) {
    int64_t n = co_await api.Send(core, fd, msg.data(), msg.size());
    if (n <= 0) break;
    s->bytes_sent += static_cast<uint64_t>(n);
    ++s->messages_sent;
  }
  co_await api.Close(core, fd);
}

// Senders count a message once its Send() returns, but a Send() blocked on
// credits may already have delivered part of it: "received <= sent" checks
// allow one message per connection in flight.

// Pool bytes one stream connection may pin: a full guest send buffer plus the
// NSM's cap on shipped-but-unconsumed receive bytes.
uint64_t StreamConnPoolBytes(uint64_t rx_outstanding_cap) {
  return core::GuestLib::Config{}.sndbuf_bytes + rx_outstanding_cap;
}

// Starts apps::StartStreamSenders at `at`: the system's own sender, with
// `conns` connections round-robined over the VM's vCPUs.
void ScheduleVmSenders(sim::EventLoop* loop, SimTime at, core::Vm* vm, netsim::IpAddr dst,
                       uint16_t port, int conns, uint32_t message, apps::StreamStats* stats) {
  loop->Schedule(at, [=] {
    apps::StreamConfig cfg;
    cfg.dst_ip = dst;
    cfg.port = port;
    cfg.connections = conns;
    cfg.message_size = message;
    apps::StartStreamSenders(vm, cfg, stats);
  });
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Creates the measured NSM and VMs (and the peer, for network workloads).
  virtual void Build(Topology& t) = 0;
  // Starts the system's apps on the measured VMs and the benchmark's load.
  virtual void Start(Topology& t, Rng& rng) = 0;
  // Called after the loop reached t0 (end = false) and t1 (end = true).
  virtual void OnWindowEdge(bool /*end*/) {}
  // Fills `r` after the window and the drain.
  virtual void Finish(Topology& t, AppResult* r) = 0;

  SimTime warmup = 0;
  SimTime window = 0;
  SimTime drain = 0;
  Window w;
};

// The paper's ab method (Fig 17, Table 5): every request is a whole
// connection lifecycle, so the NSM's control path is the saturated resource.
class RpcShortconn : public Workload {
 public:
  static constexpr int kSlots = 64;

  RpcShortconn() {
    warmup = 20 * kMillisecond;
    window = 100 * kMillisecond;
    drain = 2 * kMillisecond;
  }

  void Build(Topology& t) override {
    t.nsm = t.host.CreateNsm("nsm", 2, core::NsmKind::kKernel);
    t.vms.push_back(t.host.CreateNetkernelVm("vm", 2, t.nsm));
    t.AddPeer();
  }

  void Start(Topology& t, Rng& rng) override {
    apps::EpollServerConfig cfg;
    cfg.port = kRpcPort;
    cfg.request_size = kSmallMsg;
    cfg.response_size = kSmallMsg;
    cfg.keepalive = false;
    apps::StartEpollServer(t.vms[0], cfg, &server_);
    log_.w = &w;
    for (int i = 0; i < kSlots; ++i) {
      sim::Spawn(RpcSlot(t.peer, t.peer->vcpu(i % t.peer->num_vcpus()), t.vms[0]->ip(),
                         StartOffset(rng), &log_));
    }
  }

  void Finish(Topology&, AppResult* r) override {
    r->ops = static_cast<double>(log_.completed);
    r->payload_bytes = log_.completed * 2 * kSmallMsg;
    r->pool_bound_bytes = log_.outstanding * kSmallOpPoolBytes;
    AddRequestResult(log_, r);
  }

 private:
  apps::ServerStats server_;
  RequestLog log_;
};

// Multiplexing (§6.1, Fig 8): four tenants on one NSM core, open-loop
// Poisson load near the knee.
class UdpKvMux : public Workload {
 public:
  static constexpr int kTenants = 4;
  static constexpr int kSocketsPerTenant = 4;
  static constexpr double kRpsPerTenant = 175000;
  static constexpr double kSetFraction = 0.1;
  static constexpr uint64_t kKeySpace = 10000;
  static constexpr uint32_t kValueSize = 100;

  UdpKvMux() {
    warmup = 20 * kMillisecond;
    window = 150 * kMillisecond;
    drain = 5 * kMillisecond;
  }

  void Build(Topology& t) override {
    t.nsm = t.host.CreateNsm("nsm", 1, core::NsmKind::kKernel);
    for (int i = 0; i < kTenants; ++i) {
      t.vms.push_back(t.host.CreateNetkernelVm("tenant" + std::to_string(i), 1, t.nsm));
    }
    t.AddPeer();
  }

  void Start(Topology& t, Rng& rng) override {
    servers_.resize(kTenants);
    for (int i = 0; i < kTenants; ++i) {
      apps::UdpKvServerConfig cfg;
      cfg.port = kKvPort;
      cfg.threads = 1;
      apps::StartUdpKvServer(t.vms[static_cast<size_t>(i)], cfg, &servers_[static_cast<size_t>(i)]);
    }
    log_.w = &w;
    for (int i = 0; i < kTenants; ++i) {
      for (int j = 0; j < kSocketsPerTenant; ++j) {
        sockets_.push_back(std::make_unique<Socket>());
        Socket* s = sockets_.back().get();
        s->seed = rng.Next();
        s->offset = StartOffset(rng);
        sim::Spawn(Sender(t.peer, t.peer->vcpu(i * kSocketsPerTenant + j),
                          t.vms[static_cast<size_t>(i)]->ip(), s));
      }
    }
  }

  void Finish(Topology&, AppResult* r) override {
    r->ops = static_cast<double>(log_.completed);
    r->payload_bytes = payload_bytes_;
    r->pool_bound_bytes = log_.outstanding * kSmallOpPoolBytes;
    AddRequestResult(log_, r);
    uint64_t s_req = 0, s_hits = 0, s_misses = 0, s_sets = 0;
    for (const auto& s : servers_) {
      s_req += s.requests;
      s_hits += s.hits;
      s_misses += s.misses;
      s_sets += s.sets;
    }
    r->Expect("responses_match_requests", unknown_ == 0, U(unknown_) + " unknown request ids");
    // A server thread counts the hit, miss or set before it sends the reply and
    // the request after, so each thread may be one request ahead mid-send.
    const uint64_t served = s_hits + s_misses + s_sets;
    r->Expect("server_counts_add_up", served >= s_req && served - s_req <= kTenants,
              U(s_hits) + "+" + U(s_misses) + "+" + U(s_sets) + " vs " + U(s_req));
    r->Expect("client_within_server",
              hits_ <= s_hits && misses_ <= s_misses && set_acks_ <= s_sets,
              "client " + U(hits_) + "/" + U(misses_) + "/" + U(set_acks_) + ", server " +
                  U(s_hits) + "/" + U(s_misses) + "/" + U(s_sets) + " hits/misses/sets");
    r->extra["hit_ratio"] = hits_ + misses_ > 0 ? double(hits_) / double(hits_ + misses_) : 0.0;
  }

 private:
  struct Pending {
    SimTime due = 0;
    uint64_t key = 0;
    bool is_set = false;
    uint32_t request_bytes = 0;
  };
  struct Socket {
    uint64_t seed = 0;
    SimTime offset = 0;
    std::unordered_map<uint64_t, Pending> pending;
  };

  static uint8_t ValueByte(uint64_t key) { return static_cast<uint8_t>(key % 251 + 1); }

  sim::Task<void> Receiver(core::Vm* peer, sim::CpuCore* core, int fd, Socket* s) {
    core::SocketApi& api = peer->api();
    sim::EventLoop* loop = api.loop();
    uint8_t buf[apps::kUdpKvHeader + kValueSize + 64];
    for (;;) {
      int64_t n = co_await api.RecvFrom(core, fd, buf, sizeof(buf), nullptr, nullptr);
      if (n < 0) co_return;
      if (n < 9) {
        ++log_.corrupt;  // too short to name its request
        continue;
      }
      uint64_t id;
      std::memcpy(&id, buf + 1, sizeof(id));
      auto it = s->pending.find(id);
      if (it == s->pending.end()) {
        ++unknown_;
        continue;
      }
      const Pending p = it->second;
      s->pending.erase(it);
      bool ok;
      if (p.is_set) {
        ++set_acks_;
        ok = n == 9 && buf[0] == 0;
      } else if (buf[0] == 0) {
        ++hits_;
        ok = n == 9 + kValueSize &&
             std::all_of(buf + 9, buf + n, [&](uint8_t b) { return b == ValueByte(p.key); });
      } else {
        ++misses_;
        ok = n == 9 && buf[0] == 1;
      }
      log_.Record(p.due, loop->Now(), ok ? Reply::kOk : Reply::kCorrupt);
      if (ok && w.Contains(p.due)) payload_bytes_ += p.request_bytes + static_cast<uint64_t>(n);
    }
  }

  // Open loop: requests are due on a seeded Poisson schedule regardless of
  // replies; latency is timed from the due instant, so a stalled sender
  // inflates it instead of hiding it.
  sim::Task<void> Sender(core::Vm* peer, sim::CpuCore* core, netsim::IpAddr server, Socket* s) {
    core::SocketApi& api = peer->api();
    sim::EventLoop* loop = api.loop();
    Rng rng(s->seed);
    int fd = co_await api.SocketDgram(core);
    NK_CHECK(fd >= 0);
    sim::Spawn(Receiver(peer, core, fd, s));
    std::vector<uint8_t> req(apps::kUdpKvHeader + kValueSize);
    const double mean_gap_s = kSocketsPerTenant / kRpsPerTenant;
    SimTime due = loop->Now() + s->offset;
    for (;;) {
      due += FromSeconds(rng.NextExponential(mean_gap_s));
      if (due > loop->Now()) co_await sim::Delay(loop, due - loop->Now());
      log_.Issue(due, loop->Now());
      const bool is_set = rng.NextBool(kSetFraction);
      const uint64_t key = rng.NextBounded(kKeySpace);
      const uint64_t id = next_id_++;
      req[0] = is_set ? 1 : 0;
      std::memcpy(req.data() + 1, &id, sizeof(id));
      std::memcpy(req.data() + 9, &key, sizeof(key));
      uint32_t len = apps::kUdpKvHeader;
      if (is_set) {
        std::memset(req.data() + len, ValueByte(key), kValueSize);
        len += kValueSize;
      }
      s->pending[id] = Pending{due, key, is_set, len};
      int64_t sent = co_await api.SendTo(core, fd, server, kKvPort, req.data(), len);
      if (sent != static_cast<int64_t>(len)) {
        s->pending.erase(id);
        log_.Record(due, loop->Now(), Reply::kShort);
      }
    }
  }

  std::vector<apps::UdpKvStats> servers_;
  std::vector<std::unique_ptr<Socket>> sockets_;
  RequestLog log_;
  uint64_t next_id_ = 1;
  uint64_t payload_bytes_ = 0;
  uint64_t hits_ = 0, misses_ = 0, set_acks_ = 0, unknown_ = 0;
};

// The per-byte path (Fig 13-16, Table 6): TX beside RX on one saturated NSM
// core, plus a latency probe through the same NSM. With two streams per
// direction the window-limited flows phase-lock into one of two seed-dependent
// regimes (tx 6.4 or 7.1 Gbps, probe p99 1.35 or 0.82 ms); four per direction
// average that out.
class StreamBidir : public Workload {
 public:
  static constexpr int kStreamsPerDirection = 4;
  static constexpr uint32_t kMessage = 16 * 1024;
  static constexpr double kProbeRate = 10000;

  StreamBidir() {
    warmup = 20 * kMillisecond;
    window = 300 * kMillisecond;
    drain = 5 * kMillisecond;
  }

  void Build(Topology& t) override {
    t.nsm = t.host.CreateNsm("nsm", 1, core::NsmKind::kKernel);
    t.vms.push_back(t.host.CreateNetkernelVm("vm", 1, t.nsm));
    t.AddPeer();
  }

  void Start(Topology& t, Rng& rng) override {
    core::Vm* vm = t.vms[0];
    apps::StartStreamSink(vm, kVmSinkPort, &vm_rx_);
    sim::Spawn(PeerSink(t.peer, &peer_));
    for (int i = 0; i < kStreamsPerDirection; ++i) {
      ScheduleVmSenders(&t.loop, StartOffset(rng), vm, t.peer->ip(), kPeerSinkPort, 1, kMessage,
                        &vm_tx_);
      sim::Spawn(PeerSender(t.peer, t.peer->vcpu(1 + i), vm->ip(), kMessage, StartOffset(rng),
                            &peer_));
    }
    probe_.w = &w;
    StartProbes(vm, t.peer, 1 + kStreamsPerDirection, kProbeRate, rng, &probe_server_, &probe_);
  }

  void OnWindowEdge(bool end) override {
    tx_[end] = peer_.bytes_received;
    rx_[end] = vm_rx_.bytes_received;
    msgs_[end] = vm_tx_.messages + peer_.messages_sent;
  }

  void Finish(Topology&, AppResult* r) override {
    const uint64_t tx = tx_[1] - tx_[0];
    const uint64_t rx = rx_[1] - rx_[0];
    r->payload_bytes = tx + rx;
    r->ops = static_cast<double>(tx + rx) / kStreamOpBytes;
    r->attempted = msgs_[1] - msgs_[0];
    r->failed = peer_.connect_failures;
    r->pool_bound_bytes = 2 * kStreamsPerDirection *
                              StreamConnPoolBytes(core::ServiceLib::Config{}.rx_outstanding_cap) +
                          probe_.outstanding * kSmallOpPoolBytes;
    AddRequestResult(probe_, r);
    r->extra["tx_gbps"] = RateOf(tx, window) / kGbps;
    r->extra["rx_gbps"] = RateOf(rx, window) / kGbps;
    r->Expect("tx_bytes_intact", peer_.corrupt_reads == 0, U(peer_.corrupt_reads) + " bad reads");
    r->Expect("tx_received_le_sent",
              peer_.bytes_received <= vm_tx_.bytes_sent + kStreamsPerDirection * kMessage,
              U(peer_.bytes_received) + " <= " + U(vm_tx_.bytes_sent) + " + in-flight sends");
    r->Expect("rx_received_le_sent",
              vm_rx_.bytes_received <= peer_.bytes_sent + kStreamsPerDirection * kMessage,
              U(vm_rx_.bytes_received) + " <= " + U(peer_.bytes_sent) + " + in-flight sends");
    r->Expect("both_directions_flow", tx > 0 && rx > 0, "tx " + U(tx) + " rx " + U(rx));
    r->Expect("all_streams_connected",
              peer_.accepted == kStreamsPerDirection &&
                  vm_rx_.per_conn_bytes.size() == kStreamsPerDirection,
              U(peer_.accepted) + " + " + U(vm_rx_.per_conn_bytes.size()) + " accepted");
  }

 private:
  apps::StreamStats vm_rx_, vm_tx_;
  apps::ServerStats probe_server_;
  PeerStreams peer_;
  RequestLog probe_;
  uint64_t tx_[2] = {}, rx_[2] = {}, msgs_[2] = {};
};

// Fig 10: two colocated VMs on a shared-memory NSM. No TCP stack runs, so
// CoreEngine and ShmServiceLib are the datapath. With 8 streams the switch
// settles into seed-dependent batching regimes (73 to 80 Gbps); 12 average
// them out and still leave vmA's send buffers (4 MiB per stream) inside its
// 64 MiB hugepage pool.
class ShmColocated : public Workload {
 public:
  static constexpr int kSenderGroups = 6;  // 2 streams each, one per vCPU
  static constexpr uint32_t kMessage = 4 * 1024;
  static constexpr double kProbeRate = 40000;

  ShmColocated() {
    warmup = 10 * kMillisecond;
    window = 50 * kMillisecond;
    drain = 5 * kMillisecond;
  }

  // The probes run between two more 1-vCPU tenants on the same NSM: latency a
  // co-tenant sees while vmA saturates the switch. A probe on vmA or vmB
  // would only measure how long their own bulk ring backlog takes to drain.
  void Build(Topology& t) override {
    t.nsm = t.host.CreateNsm("shm", 2, core::NsmKind::kShm);
    t.vms.push_back(t.host.CreateNetkernelVm("vmA", 2, t.nsm));
    t.vms.push_back(t.host.CreateNetkernelVm("vmB", 2, t.nsm));
    t.vms.push_back(t.host.CreateNetkernelVm("probe_client", 1, t.nsm));
    t.vms.push_back(t.host.CreateNetkernelVm("probe_server", 1, t.nsm));
  }

  void Start(Topology& t, Rng& rng) override {
    core::Vm* a = t.vms[0];
    core::Vm* b = t.vms[1];
    apps::StartStreamSink(b, kVmSinkPort, &rx_);
    for (int i = 0; i < kSenderGroups; ++i) {
      ScheduleVmSenders(&t.loop, StartOffset(rng), a, b->ip(), kVmSinkPort, 2, kMessage, &tx_);
    }
    probe_.w = &w;
    StartProbes(t.vms[3], t.vms[2], 0, kProbeRate, rng, &probe_server_, &probe_);
  }

  void OnWindowEdge(bool end) override {
    bytes_[end] = rx_.bytes_received;
    msgs_[end] = tx_.messages;
  }

  void Finish(Topology&, AppResult* r) override {
    const uint64_t bytes = bytes_[1] - bytes_[0];
    r->payload_bytes = bytes;
    r->ops = static_cast<double>(bytes) / kStreamOpBytes;
    r->attempted = msgs_[1] - msgs_[0];
    r->pool_bound_bytes =
        2 * kSenderGroups * StreamConnPoolBytes(core::ShmServiceLib::Config{}.rx_outstanding_cap) +
        probe_.outstanding * kSmallOpPoolBytes;
    AddRequestResult(probe_, r);
    r->Expect("received_le_sent", rx_.bytes_received <= tx_.bytes_sent + 2 * kSenderGroups * kMessage,
              U(rx_.bytes_received) + " <= " + U(tx_.bytes_sent) + " + in-flight sends");
    r->Expect("stream_flows", bytes > 0, U(bytes) + " bytes in window");
    r->Expect("all_streams_connected", rx_.per_conn_bytes.size() == 2 * kSenderGroups,
              U(rx_.per_conn_bytes.size()) + " accepted");
  }

 private:
  apps::StreamStats rx_, tx_;
  apps::ServerStats probe_server_;
  RequestLog probe_;
  uint64_t bytes_[2] = {}, msgs_[2] = {};
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "rpc_shortconn") return std::make_unique<RpcShortconn>();
  if (name == "udp_kv_mux") return std::make_unique<UdpKvMux>();
  if (name == "stream_bidir") return std::make_unique<StreamBidir>();
  if (name == "shm_colocated") return std::make_unique<ShmColocated>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Per-layer counters, read through public accessors at t0 and t1.
// ---------------------------------------------------------------------------

struct Layers {
  uint64_t events = 0;
  Cycles vm_cycles = 0, ce_cycles = 0, nsm_cycles = 0;
  uint64_t nqes_sent = 0, nqes_received = 0, pool_allocs = 0, pool_alloc_failures = 0;
  uint64_t ce_switched = 0, ce_rounds = 0, ce_inserts = 0, ce_deferred = 0, ce_dropped = 0;
  uint64_t guard_validated = 0, guard_rejects = 0;
  uint64_t slib_processed = 0, doorbells = 0, doorbells_coalesced = 0;
  uint64_t rx_zc = 0, rx_copy = 0, shm_copied = 0;
  uint64_t tcp_segments = 0, tcp_retransmits = 0, tcp_ring_drops = 0;
  uint64_t udp_datagrams = 0, udp_drops = 0, udp_pool_fallbacks = 0;
  uint64_t packets = 0, link_drops = 0;
};

Layers ReadLayers(Topology& t) {
  Layers l;
  l.events = t.loop.events_executed();
  for (core::Vm* vm : t.vms) {
    l.vm_cycles += vm->TotalBusyCycles();
    l.nqes_sent += vm->guestlib()->nqes_sent();
    l.nqes_received += vm->guestlib()->nqes_received();
    l.pool_allocs += vm->pool()->allocs();
    l.pool_alloc_failures += vm->pool()->alloc_failures();
  }
  for (int i = 0; i < t.host.num_ce_cores(); ++i) l.ce_cycles += t.host.ce_core(i)->busy_cycles();
  l.nsm_cycles = t.nsm->TotalBusyCycles();
  const core::CoreEngineStats ce = t.host.ce().stats();
  l.ce_switched = ce.nqes_switched;
  l.ce_rounds = ce.rounds;
  l.ce_inserts = ce.table_inserts;
  l.ce_deferred = ce.deliveries_deferred;
  l.ce_dropped = ce.nqes_dropped;
  const guard::GuardStats& g = t.host.ce().validator().stats();
  l.guard_validated = g.validated;
  l.guard_rejects = g.rejects;
  if (core::ServiceLib* s = t.nsm->servicelib()) {
    l.slib_processed = s->nqes_processed();
    l.doorbells = s->doorbells();
    l.doorbells_coalesced = s->doorbells_coalesced();
    l.rx_zc = s->rx_zc_ships() + s->dgram_zc_ships();
    l.rx_copy = s->rx_copy_ships() + s->dgram_copy_ships();
  }
  if (core::ShmServiceLib* s = t.nsm->shm_servicelib()) {
    l.doorbells = s->doorbells();
    l.doorbells_coalesced = s->doorbells_coalesced();
    l.shm_copied = s->bytes_copied();
  }
  if (tcp::TcpStack* s = t.nsm->stack()) {
    l.tcp_segments = s->stats().segments_sent + s->stats().segments_received;
    l.tcp_retransmits = s->stats().retransmits;
    l.tcp_ring_drops = s->stats().rx_ring_drops;
  }
  if (udp::UdpStack* s = t.nsm->udp_stack()) {
    const udp::UdpStackStats& u = s->stats();
    l.udp_datagrams = u.datagrams_sent + u.datagrams_received;
    l.udp_drops = u.rx_queue_drops + u.no_socket_drops + u.rx_ring_drops;
    l.udp_pool_fallbacks = u.rx_pool_fallbacks;
  }
  for (size_t i = 0; i < t.fabric.num_links(); ++i) {
    l.packets += t.fabric.link(i)->delivered_packets();
    l.link_drops += t.fabric.link(i)->drops();
  }
  return l;
}

// Nearest-rank percentile where `failed` extra samples count as +infinity.
double PercentileUs(std::vector<SimTime> v, uint64_t failed, double p) {
  const uint64_t n = v.size() + failed;
  if (n == 0) return std::nan("");
  std::sort(v.begin(), v.end());
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > v.size()) return INFINITY;
  return static_cast<double>(v[rank - 1]) / kMicrosecond;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string Num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Object(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ", ";
    s += "\"" + k + "\": " + Num(v);
  }
  return s + "}";
}

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
};

// Runs `fn` inside a wall-clock span.
template <typename Fn>
void Timed(std::vector<Span>* spans, const char* name, Fn&& fn) {
  Span s{name, MicrosSinceStart(), 0};
  fn();
  s.end_us = MicrosSinceStart();
  spans->push_back(s);
}

int Usage() {
  std::fprintf(stderr,
               "usage: nkbench --workload <rpc_shortconn|udp_kv_mux|stream_bidir|shm_colocated>"
               " [--seed N] [--trace-sampling N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 1;
  uint32_t trace_every = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      name = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--trace-sampling") {
      trace_every = static_cast<uint32_t>(std::strtoul(argv[i + 1], nullptr, 10));
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();
  std::unique_ptr<Workload> wl = MakeWorkload(name);
  if (wl == nullptr) return Usage();

  std::vector<Span> spans;
  core::Host::ResetIpAllocator();
  Topology t;
  Rng rng(seed);
  wl->w = Window{wl->warmup, wl->warmup + wl->window};

  Timed(&spans, "construct_topology", [&] {
    wl->Build(t);
    if (trace_every > 0) t.host.SetTraceSampling(trace_every);
  });
  Timed(&spans, "start_apps", [&] { wl->Start(t, rng); });
  Timed(&spans, "warmup_run", [&] { t.loop.Run(wl->w.t0); });
  const double setup_s = MicrosSinceStart() / 1e6;
  wl->OnWindowEdge(false);
  const Layers l0 = ReadLayers(t);
  const auto wall0 = Clock::now();
  Timed(&spans, "window_run", [&] { t.loop.Run(wl->w.t1); });
  const double window_wall_us =
      std::chrono::duration<double, std::micro>(Clock::now() - wall0).count();
  wl->OnWindowEdge(true);
  const Layers l1 = ReadLayers(t);

  // Requests due late in the window get their replies during the drain.
  Timed(&spans, "drain_run", [&] { t.loop.Run(wl->w.t1 + wl->drain); });

  AppResult r;
  std::map<std::string, double> m;  // modeled
  std::map<std::string, double> wall;
  Timed(&spans, "collect", [&] {
    wl->Finish(t, &r);

    const double ops = r.ops;
    const double window_s = ToSeconds(wl->window);
    auto per_op = [&](double v) { return v / ops; };
    auto util = [&](Cycles c, int cores) { return double(c) / (kCpuHz * window_s * cores); };
    int vm_vcpus = 0;
    uint64_t chunks_in_use = 0;
    uint64_t bytes_in_use = 0;
    for (core::Vm* vm : t.vms) {
      vm_vcpus += vm->num_vcpus();
      chunks_in_use += vm->pool()->chunks_in_use();
      bytes_in_use += vm->pool()->bytes_in_use();
    }
    const Cycles vm_c = l1.vm_cycles - l0.vm_cycles;
    const Cycles ce_c = l1.ce_cycles - l0.ce_cycles;
    const Cycles nsm_c = l1.nsm_cycles - l0.nsm_cycles;
    const uint64_t events = l1.events - l0.events;

    m["ops"] = ops;
    m["attempted"] = double(r.attempted);
    m["failed"] = double(r.failed);
    m["error_rate"] = r.attempted > 0 ? double(r.failed) / double(r.attempted) : 0.0;
    m["kops_per_s"] = ops / window_s / 1e3;
    m["goodput_gbps"] = RateOf(r.payload_bytes, wl->window) / kGbps;
    m["p50_us"] = PercentileUs(r.latency_ns, r.failed, 50);
    m["p99_us"] = PercentileUs(r.latency_ns, r.failed, 99);
    m["latency_samples"] = double(r.latency_ns.size());
    m["host_cycles_per_op"] = per_op(double(vm_c + ce_c + nsm_c));
    for (const auto& [k, v] : r.extra) m[k] = v;

    m["sim.events_per_op"] = per_op(double(events));
    m["guestlib.vm_util"] = util(vm_c, vm_vcpus);
    m["guestlib.vm_cycles_per_op"] = per_op(double(vm_c));
    m["guestlib.nqes_sent_per_op"] = per_op(double(l1.nqes_sent - l0.nqes_sent));
    m["guestlib.nqes_received_per_op"] = per_op(double(l1.nqes_received - l0.nqes_received));
    m["coreengine.util"] = util(ce_c, t.host.num_ce_cores());
    m["coreengine.cycles_per_op"] = per_op(double(ce_c));
    m["coreengine.nqes_per_op"] = per_op(double(l1.ce_switched - l0.ce_switched));
    m["coreengine.nqes_per_round"] =
        double(l1.ce_switched - l0.ce_switched) / double(l1.ce_rounds - l0.ce_rounds);
    m["coreengine.table_inserts_per_op"] = per_op(double(l1.ce_inserts - l0.ce_inserts));
    m["coreengine.deferred_per_op"] = per_op(double(l1.ce_deferred - l0.ce_deferred));
    m["coreengine.dropped"] = double(l1.ce_dropped);
    m["guard.rejects"] = double(l1.guard_rejects);
    m["guard.validated_per_op"] = per_op(double(l1.guard_validated - l0.guard_validated));
    m["servicelib.nsm_util"] = util(nsm_c, t.nsm->num_vcpus());
    m["servicelib.cycles_per_op"] = per_op(double(nsm_c));
    m["servicelib.nqes_processed_per_op"] = per_op(double(l1.slib_processed - l0.slib_processed));
    const uint64_t rang = l1.doorbells - l0.doorbells;
    const uint64_t saved = l1.doorbells_coalesced - l0.doorbells_coalesced;
    m["servicelib.doorbells_per_op"] = per_op(double(rang));
    m["servicelib.doorbell_coalesce_ratio"] =
        rang + saved > 0 ? double(saved) / double(rang + saved) : 0.0;
    const uint64_t zc = l1.rx_zc - l0.rx_zc;
    const uint64_t copies = l1.rx_copy - l0.rx_copy;
    m["servicelib.rx_zc_ratio"] = zc + copies > 0 ? double(zc) / double(zc + copies) : 0.0;
    m["shm_nsm.bytes_copied_per_op"] = per_op(double(l1.shm_copied - l0.shm_copied));
    m["shm.pool_allocs_per_op"] = per_op(double(l1.pool_allocs - l0.pool_allocs));
    m["shm.pool_in_use_end"] = double(chunks_in_use);
    m["shm.pool_alloc_failures"] = double(l1.pool_alloc_failures - l0.pool_alloc_failures);
    m["tcpstack.segments_per_op"] = per_op(double(l1.tcp_segments - l0.tcp_segments));
    m["tcpstack.retransmits"] = double(l1.tcp_retransmits - l0.tcp_retransmits);
    m["tcpstack.rx_ring_drops"] = double(l1.tcp_ring_drops - l0.tcp_ring_drops);
    m["netsim.packets_per_op"] = per_op(double(l1.packets - l0.packets));
    m["netsim.link_drops"] = double(l1.link_drops - l0.link_drops);
    m["udpstack.datagrams_per_op"] = per_op(double(l1.udp_datagrams - l0.udp_datagrams));
    m["udpstack.drops"] = double(l1.udp_drops - l0.udp_drops);
    m["udpstack.rx_pool_fallbacks"] = double(l1.udp_pool_fallbacks - l0.udp_pool_fallbacks);
    m["apps.generator_late_p99_us"] =
        r.late_ns.empty() ? 0.0 : PercentileUs(r.late_ns, 0, 99);

    if (trace_every > 0) {
      const obs::Tracer& tracer = t.host.tracer();
      const char* stages[obs::kNumTraceDeltas] = {"ring_queueing", "switch", "stack_service",
                                                  "completion"};
      for (int d = 0; d < obs::kNumTraceDeltas; ++d) {
        obs::Histogram h;
        for (uint8_t vm : tracer.TracedVms()) {
          h.Merge(tracer.VmDelta(vm, static_cast<obs::TraceDelta>(d)));
        }
        const std::string p = std::string("trace.") + stages[d];
        m[p + "_p50_us"] = h.Percentile(50) / kMicrosecond;
        m[p + "_p99_us"] = h.Percentile(99) / kMicrosecond;
        m[p + "_samples"] = double(h.Count());
      }
      m["trace.samples"] = double(tracer.samples_completed());
    }

    r.Expect("ops_completed", ops > 0, "ops " + Num(ops));
    r.Expect("no_failed_ops", r.failed == 0, U(r.failed) + " of " + U(r.attempted) + " failed");
    r.Expect("p99_supported", r.latency_ns.size() >= 1000,
             U(r.latency_ns.size()) + " latency samples (p99 needs 1000)");
    r.Expect("coreengine_dropped_zero", l1.ce_dropped == 0, U(l1.ce_dropped) + " NQEs dropped");
    r.Expect("guard_rejects_zero", l1.guard_rejects == 0, U(l1.guard_rejects) + " rejects");
    r.Expect("pool_in_use_bounded", bytes_in_use <= r.pool_bound_bytes,
             U(bytes_in_use) + " bytes in use, bound " + U(r.pool_bound_bytes));

    wall["setup_s"] = setup_s;
    wall["sim.wall_us_per_op"] = window_wall_us / ops;
    wall["sim.wall_ns_per_event"] = window_wall_us * 1e3 / double(events);
  });

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  wall["peak_rss_mb"] = double(ru.ru_maxrss) / 1024.0;

  std::string checks;
  for (const Check& c : r.checks) {
    if (!checks.empty()) checks += ", ";
    checks += "{\"name\": \"" + c.name + "\", \"ok\": " + (c.ok ? "true" : "false") +
              ", \"detail\": \"" + c.detail + "\"}";
  }
  std::string span_json;
  for (const Span& s : spans) {
    if (!span_json.empty()) span_json += ", ";
    span_json += "{\"name\": \"" + s.name + "\", \"start_us\": " + Num(s.start_us) +
                 ", \"end_us\": " + Num(s.end_us) + "}";
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace_sampling\": %u, \"modeled\": %s, "
      "\"wall\": %s, \"checks\": [%s], \"spans\": [%s]}\n",
      name.c_str(), static_cast<unsigned long long>(seed), trace_every, Object(m).c_str(),
      Object(wall).c_str(), checks.c_str(), span_json.c_str());
  return 0;
}
