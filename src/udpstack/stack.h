// Copyright (c) NetKernel reproduction authors.
// UdpStack: a connectionless datagram stack over the simulated fabric.
//
// Like TcpStack, one implementation serves every placement the paper's
// architecture allows: inside a guest VM (Baseline) or inside an NSM where
// ServiceLib drives it on behalf of many VMs — the NQE protocol is transport
// agnostic (§4.2), so adding UDP changes no application code.
//
// Protocol features: connectionless sockets keyed by <ip, port> with wildcard
// fallback, ephemeral auto-bind on first send, datagram fragmentation against
// the MTU (wire-byte accounting per fragment; a lost packet loses the whole
// datagram), and a per-socket receive queue with drop-on-overflow — the
// classic UDP "no backpressure, the kernel drops" behaviour that the
// memcached-style workloads exercise.
//
// CPU accounting mirrors TcpStack: every operation charges cycles from the
// stack's CostProfile onto one of the stack's cores (sockets are spread by
// local-port hash).
//
// RX demux: the NIC's softirq path is owned by the host's TcpStack, which
// hands non-TCP packets over via TcpStack::SetRawPacketHandler — the same
// IP-protocol demux a real kernel performs.

#ifndef SRC_UDPSTACK_STACK_H_
#define SRC_UDPSTACK_STACK_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/counters.h"
#include "src/netsim/nic.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"
#include "src/tcpstack/byte_buffer.h"
#include "src/tcpstack/cost_model.h"
#include "src/udpstack/udp_types.h"

namespace netkernel::udp {

struct UdpSocketCallbacks {
  std::function<void()> on_readable;  // a datagram was queued
};

struct UdpStackConfig {
  std::string name = "udp";
  tcp::CostProfile profile = tcp::KernelProfile();
  // Per-socket receive queue cap in bytes; datagrams arriving beyond it are
  // dropped (SO_RCVBUF semantics).
  uint64_t rcvbuf_bytes = 256 * kKiB;
};

// Exported as nsm<id>.udp.<name>.
struct UdpStackStats {
  uint64_t datagrams_sent = 0;
  uint64_t datagrams_received = 0;  // delivered into a socket queue
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t fragments_sent = 0;  // MTU-sized wire fragments
  uint64_t fragments_received = 0;
  uint64_t rx_queue_drops = 0;   // per-socket receive-queue overflow
  uint64_t no_socket_drops = 0;  // no bound socket for the destination
  uint64_t rx_ring_drops = 0;    // owning core backlogged past tcp::kRxBacklogCap
  uint64_t zc_sends = 0;         // SendToZc datagrams (TX straight from chunk)
  uint64_t rx_zc_landed = 0;     // datagrams landed in allocator chunks
  uint64_t rx_pool_fallbacks = 0;  // allocator dry: datagram held as heap copy
};

inline constexpr CounterRow<UdpStackStats> kUdpStackCounters[] = {
    {"datagrams_sent", &UdpStackStats::datagrams_sent},
    {"datagrams_received", &UdpStackStats::datagrams_received},
    {"bytes_sent", &UdpStackStats::bytes_sent},
    {"bytes_received", &UdpStackStats::bytes_received},
    {"fragments_sent", &UdpStackStats::fragments_sent},
    {"fragments_received", &UdpStackStats::fragments_received},
    {"rx_queue_drops", &UdpStackStats::rx_queue_drops},
    {"no_socket_drops", &UdpStackStats::no_socket_drops},
    {"rx_ring_drops", &UdpStackStats::rx_ring_drops},
    {"zc_sends", &UdpStackStats::zc_sends},
    {"rx_zc_landed", &UdpStackStats::rx_zc_landed},
    {"rx_pool_fallbacks", &UdpStackStats::rx_pool_fallbacks},
};
static_assert(CoversEveryField(kUdpStackCounters),
              "kUdpStackCounters must name every UdpStackStats field exactly once");

class UdpStack {
 public:
  UdpStack(sim::EventLoop* loop, netsim::Nic* nic, std::vector<sim::CpuCore*> cores,
           UdpStackConfig config);
  UdpStack(const UdpStack&) = delete;
  UdpStack& operator=(const UdpStack&) = delete;

  // ---- Socket API (non-blocking; on_readable signals arrivals) ----

  SocketId CreateSocket();
  // Binds to <ip, port>. ip 0 binds the wildcard address (datagrams to any
  // local address demux here; outgoing datagrams use the NIC address).
  // port 0 picks an ephemeral port. Rebinding an already-bound socket moves
  // it. Returns 0 or negative UdpError.
  int Bind(SocketId id, IpAddr ip, uint16_t port);
  // Sends one datagram (auto-binds an ephemeral port if unbound). Returns
  // `len` (queued for transmit) or negative UdpError.
  int SendTo(SocketId id, IpAddr dst_ip, uint16_t dst_port, const uint8_t* data, uint32_t len);
  // Zero-copy send: the wire datagram is built straight from `data` when the
  // owning core commits the skb; `on_freed` fires exactly once, at that
  // instant — `data` must stay valid until then. On a negative return the
  // callback is NOT fired (ownership stays with the caller).
  int SendToZc(SocketId id, IpAddr dst_ip, uint16_t dst_port, const uint8_t* data, uint32_t len,
               std::function<void()> on_freed);
  // Pops one queued datagram into `out` (up to `max` bytes; a longer datagram
  // is truncated and the excess discarded, like MSG_TRUNC-less recvfrom).
  // Returns bytes copied, or -1 if the queue is empty.
  int64_t RecvFrom(SocketId id, uint8_t* out, uint64_t max, IpAddr* src_ip, uint16_t* src_port);
  // Installs the chunk allocator this socket's inbound datagrams land in
  // (ServiceLib passes one backed by the owning VM's hugepage pool); when the
  // allocator is dry the datagram is held as a heap copy (counted) and ships
  // through the copy path as before.
  void SetRxChunkAllocator(SocketId id, std::shared_ptr<tcp::ChunkAllocator> allocator);
  // True when the next queued datagram sits in an allocator chunk.
  bool FrontDgramPooled(SocketId id) const;
  // Zero-copy receive: pops the front datagram, transferring ownership of its
  // allocator chunk to the caller (the allocator's free is NOT called).
  // Returns false when the queue is empty or the front entry is heap-backed.
  bool DetachFrontDgram(SocketId id, uint64_t* handle, uint32_t* len, IpAddr* src_ip,
                        uint16_t* src_port);
  void Close(SocketId id);

  void SetCallbacks(SocketId id, UdpSocketCallbacks cbs);

  // ---- Introspection ----

  bool Exists(SocketId id) const { return Find(id) != nullptr; }
  // Payload size of the next queued datagram, or 0 when the queue is empty.
  uint32_t NextDatagramSize(SocketId id) const;
  size_t RxQueuedDatagrams(SocketId id) const;
  uint64_t RxQueuedBytes(SocketId id) const;
  int CoreIndex(SocketId id) const;

  // RX entry point: the host TCP stack's softirq hands over IP packets whose
  // protocol is not TCP (see TcpStack::SetRawPacketHandler).
  void OnPacket(netsim::Packet pkt);

  // Charges `cycles` on the core owning socket `id`, then runs `fn`. Used by
  // ServiceLib, whose hugepage copies share the stack cores.
  void ChargeOnSocketCore(SocketId id, Cycles cycles, sim::Callback fn);

  const UdpStackStats& stats() const { return stats_; }
  const UdpStackConfig& config() const { return config_; }
  sim::EventLoop* loop() { return loop_; }
  netsim::Nic* nic() { return nic_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }

 private:
  // One queued inbound datagram: either the fabric's heap Datagram (classic
  // path / allocator-dry fallback) or an allocator chunk it was landed in.
  struct RxDgram {
    DatagramPtr dgram;  // null when pooled
    bool pooled = false;
    uint64_t handle = 0;
    const uint8_t* data = nullptr;
    uint32_t len = 0;
    IpAddr src_ip = 0;
    uint16_t src_port = 0;

    uint32_t size() const {
      return pooled ? len : static_cast<uint32_t>(dgram->payload.size());
    }
  };
  struct Sock {
    SocketId id = kInvalidSocket;
    bool bound = false;
    IpAddr local_ip = 0;  // 0 = wildcard
    uint16_t local_port = 0;
    int core_idx = 0;
    UdpSocketCallbacks cbs;
    std::deque<RxDgram> rx;
    uint64_t rx_bytes = 0;
    std::shared_ptr<tcp::ChunkAllocator> rx_allocator;
  };

  // Frees a pooled entry's chunk back to its allocator (drop/close paths).
  void ReleaseRxDgram(Sock& s, RxDgram& d);

  static uint64_t BindKey(IpAddr ip, uint16_t port) {
    return (static_cast<uint64_t>(ip) << 16) | port;
  }

  Sock* Find(SocketId id);
  const Sock* Find(SocketId id) const;
  // Demux: exact <dst_ip, port> match, then wildcard <0, port>.
  Sock* Lookup(IpAddr dst_ip, uint16_t dst_port);
  int BindInternal(Sock& s, IpAddr ip, uint16_t port);
  uint16_t AllocEphemeralPort(IpAddr ip);
  void Deliver(const netsim::Packet& pkt);

  sim::EventLoop* loop_;
  netsim::Nic* nic_;
  std::vector<sim::CpuCore*> cores_;
  UdpStackConfig config_;

  // Indexed by SocketId, like TcpStack's: sequential ids, never reused,
  // never walked. A closed socket leaves a null entry.
  std::vector<std::unique_ptr<Sock>> socks_;
  std::unordered_map<uint64_t, SocketId> bindings_;  // <ip, port> -> socket
  uint16_t next_ephemeral_ = 32768;
  UdpStackStats stats_;
};

}  // namespace netkernel::udp

#endif  // SRC_UDPSTACK_STACK_H_
