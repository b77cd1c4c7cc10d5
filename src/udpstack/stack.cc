// Copyright (c) NetKernel reproduction authors.

#include "src/udpstack/stack.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/sim/pool.h"

namespace netkernel::udp {

UdpStack::UdpStack(sim::EventLoop* loop, netsim::Nic* nic, std::vector<sim::CpuCore*> cores,
                   UdpStackConfig config)
    : loop_(loop),
      nic_(nic),
      cores_(std::move(cores)),
      config_(std::move(config)),
      socks_(1) {  // SocketId 0 is kInvalidSocket
  NK_CHECK(!cores_.empty());
}

UdpStack::Sock* UdpStack::Find(SocketId id) {
  return id < socks_.size() ? socks_[id].get() : nullptr;
}

const UdpStack::Sock* UdpStack::Find(SocketId id) const {
  return id < socks_.size() ? socks_[id].get() : nullptr;
}

SocketId UdpStack::CreateSocket() {
  auto s = std::make_unique<Sock>();
  const SocketId id = static_cast<SocketId>(socks_.size());
  s->id = id;
  socks_.push_back(std::move(s));
  return id;
}

uint16_t UdpStack::AllocEphemeralPort(IpAddr ip) {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 65535 ? 32768 : next_ephemeral_ + 1;
    if (bindings_.count(BindKey(ip, port)) == 0 && bindings_.count(BindKey(0, port)) == 0) {
      return port;
    }
  }
  return 0;
}

int UdpStack::BindInternal(Sock& s, IpAddr ip, uint16_t port) {
  if (port == 0) {
    port = AllocEphemeralPort(ip);
    if (port == 0) return kAddrInUse;
  } else if (bindings_.count(BindKey(ip, port)) != 0) {
    return kAddrInUse;
  }
  if (s.bound) bindings_.erase(BindKey(s.local_ip, s.local_port));
  s.bound = true;
  s.local_ip = ip;
  s.local_port = port;
  // Sockets spread over the stack cores by local port (RSS on the UDP flow
  // hash of a connectionless socket degenerates to the destination port).
  s.core_idx = static_cast<int>((port * 0x9e3779b97f4a7c15ULL >> 32) % cores_.size());
  bindings_[BindKey(ip, port)] = s.id;
  return 0;
}

int UdpStack::Bind(SocketId id, IpAddr ip, uint16_t port) {
  Sock* s = Find(id);
  if (s == nullptr) return kBadSocket;
  return BindInternal(*s, ip, port);
}

int UdpStack::SendTo(SocketId id, IpAddr dst_ip, uint16_t dst_port, const uint8_t* data,
                     uint32_t len) {
  Sock* s = Find(id);
  if (s == nullptr) return kBadSocket;
  if (len > kMaxDatagram) return kMsgSize;
  if (!s->bound) {
    int r = BindInternal(*s, 0, 0);
    if (r != 0) return r;
  }

  auto dgram = sim::MakePooled<Datagram>();
  dgram->src_ip = s->local_ip != 0 ? s->local_ip : nic_->ip();
  dgram->dst_ip = dst_ip;
  dgram->src_port = s->local_port;
  dgram->dst_port = dst_port;
  if (len > 0) dgram->payload.assign(data, data + len);

  const uint32_t frags = FragCount(len);
  const tcp::CostProfile& p = config_.profile;
  Cycles cost = p.tx_fixed_per_chunk + p.tx_per_seg * frags +
                static_cast<Cycles>(p.tx_per_byte * len);
  // The datagram hits the wire once the owning core has done the tx work
  // (skb alloc, fragmentation, checksum). It is committed now — closing the
  // socket while the skb sits in the tx path does not claw it back.
  cores_[static_cast<size_t>(s->core_idx)]->Charge(cost, [this, dgram, len, frags] {
    netsim::Packet pkt;
    pkt.src = dgram->src_ip;
    pkt.dst = dgram->dst_ip;
    pkt.wire_bytes = WireBytes(len);
    pkt.protocol = netsim::Protocol::kUdp;
    pkt.flow_hash = (static_cast<uint64_t>(dgram->dst_port) << 16) | dgram->src_port;
    pkt.payload = dgram;
    ++stats_.datagrams_sent;
    stats_.fragments_sent += frags;
    stats_.bytes_sent += len;
    if (nic_ != nullptr) nic_->Transmit(std::move(pkt));
  });
  return static_cast<int>(len);
}

int UdpStack::SendToZc(SocketId id, IpAddr dst_ip, uint16_t dst_port, const uint8_t* data,
                       uint32_t len, std::function<void()> on_freed) {
  Sock* s = Find(id);
  if (s == nullptr) return kBadSocket;
  if (len > kMaxDatagram) return kMsgSize;
  if (!s->bound) {
    int r = BindInternal(*s, 0, 0);
    if (r != 0) return r;
  }
  auto dgram = sim::MakePooled<Datagram>();
  dgram->src_ip = s->local_ip != 0 ? s->local_ip : nic_->ip();
  dgram->dst_ip = dst_ip;
  dgram->src_port = s->local_port;
  dgram->dst_port = dst_port;

  const uint32_t frags = FragCount(len);
  const tcp::CostProfile& p = config_.profile;
  // No payload-touching tx cost: the NIC pulls the frame straight from the
  // caller's chunk (the per-byte copy SendTo pays above is the one this path
  // eliminates). Fixed skb/fragment work remains.
  Cycles cost = p.tx_fixed_per_chunk + p.tx_per_seg * frags;
  ++stats_.zc_sends;
  cores_[static_cast<size_t>(s->core_idx)]->Charge(
      cost, [this, dgram, data, len, frags, on_freed = std::move(on_freed)] {
        // The wire datagram is built from the chunk at commit time (the DMA
        // pull); the chunk is released the moment the skb owns the bytes.
        if (len > 0) dgram->payload.assign(data, data + len);
        if (on_freed) on_freed();
        netsim::Packet pkt;
        pkt.src = dgram->src_ip;
        pkt.dst = dgram->dst_ip;
        pkt.wire_bytes = WireBytes(len);
        pkt.protocol = netsim::Protocol::kUdp;
        pkt.flow_hash = (static_cast<uint64_t>(dgram->dst_port) << 16) | dgram->src_port;
        pkt.payload = dgram;
        ++stats_.datagrams_sent;
        stats_.fragments_sent += frags;
        stats_.bytes_sent += len;
        if (nic_ != nullptr) nic_->Transmit(std::move(pkt));
      });
  return static_cast<int>(len);
}

int64_t UdpStack::RecvFrom(SocketId id, uint8_t* out, uint64_t max, IpAddr* src_ip,
                           uint16_t* src_port) {
  Sock* s = Find(id);
  if (s == nullptr) return kBadSocket;
  if (s->rx.empty()) return -1;
  RxDgram d = std::move(s->rx.front());
  s->rx.pop_front();
  s->rx_bytes -= d.size();
  uint64_t n = std::min<uint64_t>(max, d.size());
  const uint8_t* payload = d.pooled ? d.data : d.dgram->payload.data();
  if (n > 0 && out != nullptr) std::copy_n(payload, n, out);
  if (src_ip != nullptr) *src_ip = d.pooled ? d.src_ip : d.dgram->src_ip;
  if (src_port != nullptr) *src_port = d.pooled ? d.src_port : d.dgram->src_port;
  ReleaseRxDgram(*s, d);
  return static_cast<int64_t>(n);
}

void UdpStack::SetRxChunkAllocator(SocketId id, std::shared_ptr<tcp::ChunkAllocator> allocator) {
  Sock* s = Find(id);
  if (s != nullptr) s->rx_allocator = std::move(allocator);
}

bool UdpStack::FrontDgramPooled(SocketId id) const {
  const Sock* s = Find(id);
  return s != nullptr && !s->rx.empty() && s->rx.front().pooled;
}

bool UdpStack::DetachFrontDgram(SocketId id, uint64_t* handle, uint32_t* len, IpAddr* src_ip,
                                uint16_t* src_port) {
  Sock* s = Find(id);
  if (s == nullptr || s->rx.empty() || !s->rx.front().pooled) return false;
  RxDgram d = std::move(s->rx.front());
  s->rx.pop_front();
  s->rx_bytes -= d.len;
  *handle = d.handle;
  *len = d.len;
  if (src_ip != nullptr) *src_ip = d.src_ip;
  if (src_port != nullptr) *src_port = d.src_port;
  d.pooled = false;  // ownership transfers: do not free the chunk here
  return true;
}

void UdpStack::ReleaseRxDgram(Sock& s, RxDgram& d) {
  if (d.pooled && s.rx_allocator != nullptr) s.rx_allocator->free(d.handle);
  d.pooled = false;
}

void UdpStack::Close(SocketId id) {
  Sock* s = Find(id);
  if (s == nullptr) return;
  for (RxDgram& d : s->rx) ReleaseRxDgram(*s, d);
  if (s->bound) bindings_.erase(BindKey(s->local_ip, s->local_port));
  socks_[id].reset();
}

void UdpStack::SetCallbacks(SocketId id, UdpSocketCallbacks cbs) {
  Sock* s = Find(id);
  if (s != nullptr) s->cbs = std::move(cbs);
}

uint32_t UdpStack::NextDatagramSize(SocketId id) const {
  const Sock* s = Find(id);
  if (s == nullptr || s->rx.empty()) return 0;
  return s->rx.front().size();
}

size_t UdpStack::RxQueuedDatagrams(SocketId id) const {
  const Sock* s = Find(id);
  return s == nullptr ? 0 : s->rx.size();
}

uint64_t UdpStack::RxQueuedBytes(SocketId id) const {
  const Sock* s = Find(id);
  return s == nullptr ? 0 : s->rx_bytes;
}

int UdpStack::CoreIndex(SocketId id) const {
  const Sock* s = Find(id);
  return s == nullptr ? 0 : s->core_idx;
}

void UdpStack::ChargeOnSocketCore(SocketId id, Cycles cycles, sim::Callback fn) {
  cores_[static_cast<size_t>(CoreIndex(id))]->Charge(cycles, std::move(fn));
}

UdpStack::Sock* UdpStack::Lookup(IpAddr dst_ip, uint16_t dst_port) {
  auto it = bindings_.find(BindKey(dst_ip, dst_port));
  if (it == bindings_.end()) it = bindings_.find(BindKey(0, dst_port));
  if (it == bindings_.end()) return nullptr;
  return Find(it->second);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void UdpStack::OnPacket(netsim::Packet pkt) {
  if (pkt.protocol != netsim::Protocol::kUdp || !pkt.payload) return;
  auto dgram = std::static_pointer_cast<const Datagram>(pkt.payload);
  Sock* s = Lookup(dgram->dst_ip, dgram->dst_port);
  if (s == nullptr) {
    // Port unreachable. A real stack answers with ICMP; we just count it
    // (application-level timeouts recover, as with real filtered UDP).
    ++stats_.no_socket_drops;
    return;
  }

  sim::CpuCore* core = cores_[static_cast<size_t>(s->core_idx)];
  const SimTime now = loop_->Now();
  // NIC-ring overflow: the owning core is hopelessly backlogged.
  if (core->IdleAt() - now > tcp::kRxBacklogCap) {
    ++stats_.rx_ring_drops;
    return;
  }

  const uint32_t len = static_cast<uint32_t>(dgram->payload.size());
  const uint32_t frags = FragCount(len);
  const tcp::CostProfile& p = config_.profile;
  // Protocol work per fragment plus payload touching. The softirq's fixed
  // per-batch cost was charged by the host stack that drained the NIC.
  Cycles cost = p.rx_per_seg * frags + static_cast<Cycles>(p.rx_per_byte * len);
  SocketId sid = s->id;
  core->Charge(cost, [this, sid, dgram = std::move(dgram), len, frags] {
    Sock* s2 = Find(sid);
    stats_.fragments_received += frags;
    if (s2 == nullptr) {
      ++stats_.no_socket_drops;
      return;
    }
    // Drop-on-overflow: UDP applies no backpressure; a slow reader loses
    // datagrams at its own receive queue.
    if (s2->rx_bytes + len > config_.rcvbuf_bytes) {
      ++stats_.rx_queue_drops;
      return;
    }
    ++stats_.datagrams_received;
    stats_.bytes_received += len;
    RxDgram entry;
    if (s2->rx_allocator != nullptr) {
      // Zero-copy landing: the datagram goes straight into an allocator chunk
      // (hugepage pool), so the consumer can detach and forward it whole.
      uint64_t handle = 0;
      uint8_t* wdata = nullptr;
      uint32_t cap = 0;
      if (s2->rx_allocator->alloc(len > 0 ? len : 1, &handle, &wdata, &cap) && cap >= len) {
        if (len > 0) std::copy_n(dgram->payload.data(), len, wdata);
        entry.pooled = true;
        entry.handle = handle;
        entry.data = wdata;
        entry.len = len;
        entry.src_ip = dgram->src_ip;
        entry.src_port = dgram->src_port;
        ++stats_.rx_zc_landed;
      } else {
        if (cap > 0) s2->rx_allocator->free(handle);  // too small: return it
        ++stats_.rx_pool_fallbacks;
      }
    }
    if (!entry.pooled) entry.dgram = std::move(dgram);
    s2->rx.push_back(std::move(entry));
    s2->rx_bytes += len;
    if (s2->cbs.on_readable) s2->cbs.on_readable();
  });
}

}  // namespace netkernel::udp
