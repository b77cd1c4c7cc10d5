// Copyright (c) NetKernel reproduction authors.
// TcpStack: a from-scratch TCP implementation over the simulated fabric.
//
// One implementation serves every placement the paper evaluates:
//   * inside the guest VM (Baseline — the "existing architecture"),
//   * inside a kernel-stack NSM (ServiceLib drives it),
//   * inside an mTCP NSM (userspace cost profile, per-core tables).
//
// Protocol features: three-way handshake, sliding-window transfer with TSO
// chunking, cumulative ACKs, out-of-order reassembly, flow control with
// window updates and persist probes, RTT estimation (RFC 6298), RTO and
// triple-dupack fast retransmit with NewReno-style recovery, full close state
// machine, RST handling, listen/accept with backlog and SO_REUSEPORT, and
// pluggable congestion control (Reno/CUBIC/DCTCP/shared-window).
//
// CPU accounting: every operation charges cycles from the stack's CostProfile
// onto one of the CpuCores the stack is pinned to (connections are spread by
// RSS hash). Protocol correctness and performance curves both emerge from the
// same event-driven machinery.
//
// The API is non-blocking and callback-based; coroutine façades for guest
// applications live in src/core/socket_api.h.

#ifndef SRC_TCPSTACK_STACK_H_
#define SRC_TCPSTACK_STACK_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/counters.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/netsim/nic.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"
#include "src/sim/fifo.h"
#include "src/tcpstack/byte_buffer.h"
#include "src/tcpstack/cc.h"
#include "src/tcpstack/cost_model.h"
#include "src/tcpstack/tcp_types.h"

namespace netkernel::tcp {

struct SocketCallbacks {
  std::function<void(int err)> on_connect;  // 0 on success, TcpError otherwise
  std::function<void()> on_readable;        // new data or FIN available
  std::function<void()> on_writable;        // send-buffer space freed
  std::function<void()> on_acceptable;      // listener: connection ready
  std::function<void(int err)> on_error;    // connection reset / aborted
};

struct TcpStackConfig {
  std::string name = "tcp";
  CostProfile profile = KernelProfile();
  // Factory for per-connection congestion control; defaults to CUBIC.
  CcFactory cc_factory;
  // mTCP-style per-core listener/port tables: no shared-lock serialization.
  bool per_core_tables = false;
  uint64_t sndbuf_bytes = 4 * kMiB;
  uint64_t rcvbuf_bytes = 1 * kMiB;
  bool ecn = false;  // send ECN-capable packets (DCTCP)
  SimTime time_wait = 0;  // 2MSL hold; 0 frees immediately (sim default)
};

// Exported as nsm<id>.tcp.<name>.
struct TcpStackStats {
  uint64_t segments_sent = 0;
  uint64_t segments_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t retransmits = 0;
  uint64_t rto_fires = 0;
  uint64_t fast_retransmits = 0;
  uint64_t conns_established = 0;
  uint64_t conns_closed = 0;
  uint64_t rx_ring_drops = 0;
  uint64_t rsts_sent = 0;
};

inline constexpr CounterRow<TcpStackStats> kTcpStackCounters[] = {
    {"segments_sent", &TcpStackStats::segments_sent},
    {"segments_received", &TcpStackStats::segments_received},
    {"bytes_sent", &TcpStackStats::bytes_sent},
    {"bytes_received", &TcpStackStats::bytes_received},
    {"retransmits", &TcpStackStats::retransmits},
    {"rto_fires", &TcpStackStats::rto_fires},
    {"fast_retransmits", &TcpStackStats::fast_retransmits},
    {"conns_established", &TcpStackStats::conns_established},
    {"conns_closed", &TcpStackStats::conns_closed},
    {"rx_ring_drops", &TcpStackStats::rx_ring_drops},
    {"rsts_sent", &TcpStackStats::rsts_sent},
};
static_assert(CoversEveryField(kTcpStackCounters),
              "kTcpStackCounters must name every TcpStackStats field exactly once");

class TcpStack {
 public:
  TcpStack(sim::EventLoop* loop, netsim::Nic* nic, std::vector<sim::CpuCore*> cores,
           TcpStackConfig config);
  ~TcpStack();
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  // ---- Socket API (non-blocking; callbacks signal progress) ----

  SocketId CreateSocket();
  int Bind(SocketId id, IpAddr ip, uint16_t port);
  int Listen(SocketId id, int backlog, bool reuseport = false);
  // Initiates the handshake; on_connect fires when established or failed.
  int Connect(SocketId id, IpAddr dst_ip, uint16_t dst_port);
  // Pops an established connection, or kInvalidSocket if none pending.
  SocketId Accept(SocketId listener);
  // Queues up to `n` bytes (bounded by send-buffer space). Returns queued.
  uint64_t Send(SocketId id, const uint8_t* data, uint64_t n);
  // Queues `n` bytes by reference (zero-copy): the stack transmits — and
  // retransmits — directly from `data`, which must stay valid until
  // `on_freed` fires. It fires exactly once: when the range is ACKed and
  // drops off the send buffer, or when the socket is torn down with it still
  // queued. All-or-nothing: returns false (ownership stays with the caller)
  // when the socket cannot send or send-buffer space is short.
  bool SendZc(SocketId id, const uint8_t* data, uint32_t n, std::function<void()> on_freed);
  // Reads up to `max` bytes of in-order data. Returns bytes read.
  uint64_t Recv(SocketId id, uint8_t* out, uint64_t max);
  // Installs the chunk allocator the socket's receive buffer draws from:
  // inbound payload lands directly in allocator chunks (the NSM passes one
  // backed by the owning VM's hugepage pool), so the consumer can detach and
  // forward them without the rcvbuf->hugepage copy. Install before data
  // arrives (right after CreateSocket / at accept).
  void SetRxChunkAllocator(SocketId id, std::shared_ptr<ChunkAllocator> allocator);
  // True when the front of the receive buffer is a whole allocator chunk.
  bool RxDetachable(SocketId id) const;
  // Zero-copy receive: detaches the front chunk of the receive buffer —
  // ownership of the allocator handle transfers to the caller, no copy. Has
  // the same window-update side effects as Recv. Returns false when the
  // front is heap-backed or partially consumed (use Recv for those bytes).
  bool RecvZcDetach(SocketId id, DetachedChunk* out);
  void Close(SocketId id);
  void Abort(SocketId id);  // RST

  void SetCallbacks(SocketId id, SocketCallbacks cbs);
  // Replaces the connection's congestion control (used by the FairShare NSM).
  void SetCongestionControl(SocketId id, std::unique_ptr<CongestionControl> cc);

  // ---- Introspection ----

  bool Exists(SocketId id) const { return Find(id) != nullptr; }
  TcpState State(SocketId id) const;
  FourTuple Tuple(SocketId id) const;
  uint64_t SendBufSpace(SocketId id) const;
  uint64_t RecvAvailable(SocketId id) const;
  bool FinReceived(SocketId id) const;
  bool HasPendingAccept(SocketId id) const;

  const TcpStackStats& stats() const { return stats_; }
  const TcpStackConfig& config() const { return config_; }
  sim::EventLoop* loop() { return loop_; }
  netsim::Nic* nic() { return nic_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }
  sim::CpuCore* core(int i) { return cores_[i]; }

  // Charges `cycles` on the core owning socket `id`, then runs `fn`. Used by
  // layers above (ServiceLib) whose work shares the stack cores.
  void ChargeOnSocketCore(SocketId id, Cycles cycles, sim::Callback fn);

  // IP-protocol demux: this stack owns the NIC's softirq path; packets whose
  // protocol is not TCP are handed to this handler (e.g. the host's UdpStack).
  void SetRawPacketHandler(std::function<void(netsim::Packet)> handler) {
    raw_packet_handler_ = std::move(handler);
  }

 private:
  struct Sock {
    SocketId id = kInvalidSocket;
    TcpState state = TcpState::kClosed;
    FourTuple tuple;
    int core_idx = 0;
    SocketCallbacks cbs;
    std::unique_ptr<CongestionControl> cc;
    int err = 0;
    bool bound = false;
    bool app_closed = false;

    // Listener state.
    bool listening = false;
    bool reuseport = false;
    int backlog = 0;
    int pending_children = 0;
    sim::Fifo<SocketId> accept_q;
    SocketId parent = kInvalidSocket;

    // Transmit state.
    ByteBuffer sndbuf;
    uint64_t sndbuf_limit = 0;
    SeqNum iss = 0;
    SeqNum snd_una = 0;
    SeqNum snd_nxt = 0;
    uint64_t peer_rwnd = 64 * kKiB;
    bool tx_charge_pending = false;
    uint64_t tsq_outstanding = 0;  // bytes in NIC/qdisc awaiting TX completion
    bool fin_pending = false;
    bool fin_sent = false;
    int dupacks = 0;
    SeqNum recovery_end = 0;
    SimTime srtt = 0;
    SimTime rttvar = 0;
    SimTime rto = 0;
    sim::EventHandle rto_timer;
    sim::EventHandle persist_timer;
    sim::EventHandle time_wait_timer;

    // Receive state.
    ByteBuffer rcvbuf;
    std::shared_ptr<ChunkAllocator> rx_allocator;  // inherited by children
    uint64_t rcvbuf_limit = 0;
    SeqNum irs = 0;
    SeqNum rcv_nxt = 0;
    std::map<SeqNum, SliceList> ooo;  // by reference, like the receive buffer
    uint64_t ooo_bytes = 0;
    bool fin_rcvd = false;
    bool fin_delivered = false;
    uint64_t last_advertised_wnd = 0;
    SimTime last_rx_ts = 0;  // timestamp to echo
  };

  Sock* Find(SocketId id);
  const Sock* Find(SocketId id) const;
  Sock& MustFind(SocketId id);

  // Datapath.
  void OnNicRxNotify();
  void ScheduleRxDrain(SimTime delay);
  void DrainRx();
  void HandleSegment(const Segment& seg, bool ce_marked);
  void HandleSynAtListener(const Segment& seg);
  SocketId DemuxLookupAfterAck(const Segment& seg);
  void HandleEstablishedData(Sock& s, const Segment& seg, bool ce_marked);
  void HandleAck(Sock& s, const Segment& seg);
  void PumpTx(SocketId id);
  // Emits one segment carrying `len` bytes of the send buffer, starting
  // `offset` bytes past its front (no payload when len is 0).
  void EmitSegment(Sock& s, uint8_t flags, SeqNum seq, uint64_t offset, uint32_t len,
                   bool ece = false);
  void SendAck(Sock& s, bool ece);
  void SendRst(const FourTuple& from_tuple, SeqNum seq, SeqNum ack);
  void MaybeSendWindowUpdate(Sock& s, uint64_t before_window);
  uint64_t AdvertisedWindow(const Sock& s) const;

  // Timers.
  void ArmRto(Sock& s);
  void CancelRto(Sock& s);
  void OnRto(SocketId id);
  void ArmPersist(Sock& s);
  void OnPersist(SocketId id);
  void UpdateRtt(Sock& s, SimTime rtt_sample);

  // Lifecycle.
  void EstablishChild(Sock& child);
  void MaybeSendFin(Sock& s);
  void OnFinAcked(Sock& s);
  void EnterTimeWait(Sock& s);
  void DestroySock(SocketId id);
  void FreeTupleAndTeardown(Sock& s);
  void FailConnection(Sock& s, int err);

  // Shared-table lock (kernel profile): serializes across stack cores.
  void ChargeWithSharedLock(int core_idx, Cycles work, sim::Callback fn);

  uint16_t AllocEphemeralPort();
  int RssCore(const FourTuple& tuple) const;

  sim::EventLoop* loop_;
  netsim::Nic* nic_;
  std::vector<sim::CpuCore*> cores_;
  TcpStackConfig config_;
  Rng rng_;
  sim::SimMutex table_lock_;

  // Indexed by SocketId: ids are handed out in sequence from 1 and never
  // reused, and nothing walks the table, so a lookup is one index. A closed
  // socket leaves a null entry.
  std::vector<std::unique_ptr<Sock>> socks_;
  std::unordered_map<FourTuple, SocketId, FourTupleHash> demux_;
  // port -> listeners (reuseport group when >1).
  std::unordered_map<uint16_t, std::vector<SocketId>> listeners_;
  uint16_t next_ephemeral_ = 32768;
  bool rx_drain_scheduled_ = false;
  // DrainRx's buffers, reused call after call: the NIC batch, and per core
  // the batch of segments its Charge will handle. A core's segment vector
  // travels with that Charge and comes back to spare_rx_segs_ once its
  // segments are handled.
  using RxSegs = std::vector<std::pair<SegmentPtr, bool>>;  // (segment, CE mark)
  struct RxBatch {
    Cycles cost = 0;
    RxSegs segs;
  };
  std::vector<netsim::Packet> rx_pkts_;
  std::vector<RxBatch> rx_batches_;
  std::vector<RxSegs> spare_rx_segs_;
  std::function<void(netsim::Packet)> raw_packet_handler_;
  TcpStackStats stats_;
};

}  // namespace netkernel::tcp

#endif  // SRC_TCPSTACK_STACK_H_
