// Copyright (c) NetKernel reproduction authors.

#include "src/tcpstack/stack.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/sim/pool.h"

namespace netkernel::tcp {

namespace {

constexpr int kMaxSynRetries = 6;
constexpr SimTime kMinRto = 5 * kMillisecond;
constexpr SimTime kMaxRto = 2 * kSecond;
constexpr size_t kRxBatch = 64;  // packets one softirq round takes off the NIC
constexpr BitRate kNicRateHint = 100 * kGbps;  // times TX completions (TSQ release)
constexpr uint64_t kIssSeed = 1;  // seeds the initial sequence numbers

uint64_t SymmetricFlowHash(const FourTuple& t) {
  uint64_t a = (static_cast<uint64_t>(t.local_ip) << 16) ^ t.local_port;
  uint64_t b = (static_cast<uint64_t>(t.remote_ip) << 16) ^ t.remote_port;
  uint64_t h = (a ^ b) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 29);
}

FourTuple Invert(const FourTuple& t) {
  return FourTuple{t.remote_ip, t.remote_port, t.local_ip, t.local_port};
}

uint32_t SegCount(uint32_t payload) {
  return payload == 0 ? 1 : (payload + kMss - 1) / kMss;
}

}  // namespace

TcpStack::TcpStack(sim::EventLoop* loop, netsim::Nic* nic, std::vector<sim::CpuCore*> cores,
                   TcpStackConfig config)
    : loop_(loop),
      nic_(nic),
      cores_(std::move(cores)),
      config_(std::move(config)),
      rng_(kIssSeed),
      table_lock_(loop),
      socks_(1),  // SocketId 0 is kInvalidSocket
      rx_pkts_(kRxBatch),
      rx_batches_(cores_.size()) {
  NK_CHECK(!cores_.empty());
  if (!config_.cc_factory) {
    config_.cc_factory = [] { return std::make_unique<CubicCc>(); };
  }
  if (nic_ != nullptr) {
    nic_->SetRxNotify([this] { OnNicRxNotify(); });
  }
}

TcpStack::~TcpStack() {
  if (nic_ != nullptr) nic_->SetRxNotify(nullptr);
}

// ---------------------------------------------------------------------------
// Socket lifecycle & API
// ---------------------------------------------------------------------------

TcpStack::Sock* TcpStack::Find(SocketId id) {
  return id < socks_.size() ? socks_[id].get() : nullptr;
}

const TcpStack::Sock* TcpStack::Find(SocketId id) const {
  return id < socks_.size() ? socks_[id].get() : nullptr;
}

TcpStack::Sock& TcpStack::MustFind(SocketId id) {
  Sock* s = Find(id);
  NK_CHECK_MSG(s != nullptr, "socket id not found");
  return *s;
}

SocketId TcpStack::CreateSocket() {
  auto sock = std::make_unique<Sock>();
  const SocketId id = static_cast<SocketId>(socks_.size());
  sock->id = id;
  sock->sndbuf_limit = config_.sndbuf_bytes;
  sock->rcvbuf_limit = config_.rcvbuf_bytes;
  sock->cc = config_.cc_factory();
  sock->rto = kMinRto;
  socks_.push_back(std::move(sock));
  return id;
}

int TcpStack::Bind(SocketId id, IpAddr ip, uint16_t port) {
  Sock* s = Find(id);
  if (s == nullptr) return kNotConnected;
  s->tuple.local_ip = ip == 0 ? (nic_ != nullptr ? nic_->ip() : 0) : ip;
  s->tuple.local_port = port;
  s->bound = true;
  return kOk;
}

int TcpStack::Listen(SocketId id, int backlog, bool reuseport) {
  Sock* s = Find(id);
  if (s == nullptr) return kNotConnected;
  NK_CHECK(s->bound);
  auto& group = listeners_[s->tuple.local_port];
  if (!group.empty()) {
    if (!reuseport) return kAddrInUse;
    Sock* first = Find(group.front());
    if (first != nullptr && !first->reuseport) return kAddrInUse;
  }
  s->listening = true;
  s->reuseport = reuseport;
  s->backlog = backlog > 0 ? backlog : 128;
  s->state = TcpState::kListen;
  // Spread reuseport listeners across cores (mTCP pins one per core; the
  // kernel's reuseport groups behave similarly for our purposes).
  s->core_idx = static_cast<int>(group.size()) % static_cast<int>(cores_.size());
  group.push_back(id);
  return kOk;
}

uint16_t TcpStack::AllocEphemeralPort() {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    uint16_t p = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 65535 ? 32768 : next_ephemeral_ + 1;
    if (listeners_.count(p) == 0) return p;
  }
  NK_CHECK_MSG(false, "ephemeral port space exhausted");
  return 0;
}

int TcpStack::RssCore(const FourTuple& tuple) const {
  return static_cast<int>(SymmetricFlowHash(tuple) % cores_.size());
}

int TcpStack::Connect(SocketId id, IpAddr dst_ip, uint16_t dst_port) {
  Sock* s = Find(id);
  if (s == nullptr) return kNotConnected;
  if (s->state != TcpState::kClosed) return kIsConnected;
  if (s->tuple.local_ip == 0) {
    s->tuple.local_ip = nic_ != nullptr ? nic_->ip() : 0;
  }
  if (s->tuple.local_port == 0) {
    s->tuple.local_port = AllocEphemeralPort();
  }
  s->tuple.remote_ip = dst_ip;
  s->tuple.remote_port = dst_port;
  s->core_idx = RssCore(s->tuple);
  s->iss = 1 + rng_.NextBounded(1u << 30);
  s->snd_una = s->iss;
  s->snd_nxt = s->iss + 1;
  s->state = TcpState::kSynSent;
  demux_[s->tuple] = id;

  // Connection setup cost: socket/ephemeral-port tables are shared in the
  // kernel profile and serialize across cores.
  ChargeWithSharedLock(s->core_idx, config_.profile.conn_setup, [this, id] {
    Sock* s2 = Find(id);
    if (s2 == nullptr || s2->state != TcpState::kSynSent) return;
    EmitSegment(*s2, kSyn, s2->iss, 0, 0);
    ArmRto(*s2);
  });
  return kOk;
}

SocketId TcpStack::Accept(SocketId listener) {
  Sock* l = Find(listener);
  if (l == nullptr || !l->listening || l->accept_q.empty()) return kInvalidSocket;
  SocketId child = l->accept_q.front();
  l->accept_q.pop_front();
  cores_[l->core_idx]->Reserve(config_.profile.conn_accept);
  return child;
}

uint64_t TcpStack::Send(SocketId id, const uint8_t* data, uint64_t n) {
  Sock* s = Find(id);
  if (s == nullptr) return 0;
  if (s->state != TcpState::kEstablished && s->state != TcpState::kCloseWait) return 0;
  uint64_t space = s->sndbuf_limit > s->sndbuf.size() ? s->sndbuf_limit - s->sndbuf.size() : 0;
  uint64_t take = std::min(space, n);
  if (take > 0) {
    s->sndbuf.Append(data, take);
    PumpTx(id);
  }
  return take;
}

bool TcpStack::SendZc(SocketId id, const uint8_t* data, uint32_t n,
                      std::function<void()> on_freed) {
  Sock* s = Find(id);
  if (s == nullptr || n == 0) return false;
  if (s->state != TcpState::kEstablished && s->state != TcpState::kCloseWait) return false;
  uint64_t space = s->sndbuf_limit > s->sndbuf.size() ? s->sndbuf_limit - s->sndbuf.size() : 0;
  if (space < n) return false;
  s->sndbuf.AppendExternal(data, n, std::move(on_freed));
  PumpTx(id);
  return true;
}

uint64_t TcpStack::Recv(SocketId id, uint8_t* out, uint64_t max) {
  Sock* s = Find(id);
  if (s == nullptr) return 0;
  uint64_t before = AdvertisedWindow(*s);
  uint64_t n = s->rcvbuf.ReadInto(out, max);
  if (n > 0) MaybeSendWindowUpdate(*s, before);
  return n;
}

void TcpStack::SetRxChunkAllocator(SocketId id, std::shared_ptr<ChunkAllocator> allocator) {
  Sock* s = Find(id);
  if (s == nullptr) return;
  // Installed on a listener, the allocator is inherited by accepted children
  // at SYN time, so even payload riding the handshake's final ACK lands in
  // pool chunks.
  s->rx_allocator = allocator;
  s->rcvbuf.SetChunkAllocator(std::move(allocator));
}

bool TcpStack::RxDetachable(SocketId id) const {
  const Sock* s = Find(id);
  return s != nullptr && s->rcvbuf.FrontDetachable();
}

bool TcpStack::RecvZcDetach(SocketId id, DetachedChunk* out) {
  Sock* s = Find(id);
  if (s == nullptr) return false;
  uint64_t before = AdvertisedWindow(*s);
  if (!s->rcvbuf.DetachFront(out)) return false;
  MaybeSendWindowUpdate(*s, before);
  return true;
}

void TcpStack::Close(SocketId id) {
  Sock* s = Find(id);
  if (s == nullptr) return;
  s->app_closed = true;
  if (s->listening) {
    auto& group = listeners_[s->tuple.local_port];
    group.erase(std::remove(group.begin(), group.end(), id), group.end());
    if (group.empty()) listeners_.erase(s->tuple.local_port);
    // Abort any accepted-but-unclaimed children.
    while (!s->accept_q.empty()) {
      SocketId child = s->accept_q.front();
      s->accept_q.pop_front();
      Abort(child);
    }
    DestroySock(id);
    return;
  }
  switch (s->state) {
    case TcpState::kClosed:
    case TcpState::kSynSent:
      DestroySock(id);
      break;
    case TcpState::kSynRcvd:
    case TcpState::kEstablished:
    case TcpState::kCloseWait:
      s->fin_pending = true;
      PumpTx(id);
      break;
    default:
      break;  // already closing
  }
}

void TcpStack::Abort(SocketId id) {
  Sock* s = Find(id);
  if (s == nullptr) return;
  if (s->state != TcpState::kClosed && s->state != TcpState::kListen &&
      s->state != TcpState::kSynSent) {
    SendRst(s->tuple, s->snd_nxt, s->rcv_nxt);
  }
  FreeTupleAndTeardown(*s);
  DestroySock(id);
}

void TcpStack::SetCallbacks(SocketId id, SocketCallbacks cbs) {
  Sock* s = Find(id);
  if (s != nullptr) s->cbs = std::move(cbs);
}

void TcpStack::SetCongestionControl(SocketId id, std::unique_ptr<CongestionControl> cc) {
  Sock* s = Find(id);
  if (s != nullptr) {
    bool established = s->state == TcpState::kEstablished;
    if (established && s->cc) s->cc->OnCloseConn();
    s->cc = std::move(cc);
    if (established) s->cc->OnConnect();
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

TcpState TcpStack::State(SocketId id) const {
  const Sock* s = Find(id);
  return s == nullptr ? TcpState::kClosed : s->state;
}

FourTuple TcpStack::Tuple(SocketId id) const {
  const Sock* s = Find(id);
  return s == nullptr ? FourTuple{} : s->tuple;
}

uint64_t TcpStack::SendBufSpace(SocketId id) const {
  const Sock* s = Find(id);
  if (s == nullptr) return 0;
  return s->sndbuf_limit > s->sndbuf.size() ? s->sndbuf_limit - s->sndbuf.size() : 0;
}

uint64_t TcpStack::RecvAvailable(SocketId id) const {
  const Sock* s = Find(id);
  return s == nullptr ? 0 : s->rcvbuf.size();
}

bool TcpStack::FinReceived(SocketId id) const {
  const Sock* s = Find(id);
  return s != nullptr && s->fin_rcvd && s->rcvbuf.empty();
}

bool TcpStack::HasPendingAccept(SocketId id) const {
  const Sock* s = Find(id);
  return s != nullptr && !s->accept_q.empty();
}

void TcpStack::ChargeOnSocketCore(SocketId id, Cycles cycles, sim::Callback fn) {
  const Sock* s = Find(id);
  cores_[s == nullptr ? 0 : s->core_idx]->Charge(cycles, std::move(fn));
}

// ---------------------------------------------------------------------------
// Transmit path
// ---------------------------------------------------------------------------

uint64_t TcpStack::AdvertisedWindow(const Sock& s) const {
  uint64_t used = s.rcvbuf.size() + s.ooo_bytes;
  return s.rcvbuf_limit > used ? s.rcvbuf_limit - used : 0;
}

void TcpStack::EmitSegment(Sock& s, uint8_t flags, SeqNum seq, uint64_t offset, uint32_t len,
                           bool ece) {
  auto seg = sim::MakePooled<Segment>();
  seg->tuple = s.tuple;
  seg->flags = flags | (s.state != TcpState::kSynSent ? kAck : 0) | (ece ? kEce : 0);
  seg->seq = seq;
  seg->ack = (seg->flags & kAck) ? s.rcv_nxt : 0;
  seg->rwnd = AdvertisedWindow(s);
  seg->ts = loop_->Now();
  seg->ts_echo = s.last_rx_ts;
  if (len > 0) s.sndbuf.SliceInto(offset, len, &seg->payload);
  s.last_advertised_wnd = seg->rwnd;

  netsim::Packet pkt;
  pkt.src = s.tuple.local_ip;
  pkt.dst = s.tuple.remote_ip;
  pkt.wire_bytes = WireBytes(len);
  pkt.protocol = netsim::Protocol::kTcp;
  pkt.ecn_capable = config_.ecn && len > 0;
  pkt.flow_hash = SymmetricFlowHash(s.tuple);
  pkt.payload = std::move(seg);
  ++stats_.segments_sent;
  stats_.bytes_sent += len;
  if (nic_ != nullptr) nic_->Transmit(std::move(pkt));
}

void TcpStack::SendAck(Sock& s, bool ece) { EmitSegment(s, kAck, s.snd_nxt, 0, 0, ece); }

void TcpStack::SendRst(const FourTuple& from_tuple, SeqNum seq, SeqNum ack) {
  auto seg = sim::MakePooled<Segment>();
  seg->tuple = from_tuple;
  seg->flags = kRst | kAck;
  seg->seq = seq;
  seg->ack = ack;
  netsim::Packet pkt;
  pkt.src = from_tuple.local_ip;
  pkt.dst = from_tuple.remote_ip;
  pkt.wire_bytes = WireBytes(0);
  pkt.protocol = netsim::Protocol::kTcp;
  pkt.flow_hash = SymmetricFlowHash(from_tuple);
  pkt.payload = std::move(seg);
  ++stats_.rsts_sent;
  if (nic_ != nullptr) nic_->Transmit(std::move(pkt));
}

void TcpStack::MaybeSendWindowUpdate(Sock& s, uint64_t before_window) {
  // Avoid silly-window deadlock: when the advertised window was nearly closed
  // and the application's read reopens it, proactively notify the sender.
  uint64_t now_window = AdvertisedWindow(s);
  if (before_window < kMss && now_window >= kMss && s.state != TcpState::kClosed &&
      s.state != TcpState::kListen && s.state != TcpState::kSynSent) {
    SendAck(s, false);
  }
}

void TcpStack::PumpTx(SocketId id) {
  Sock* s = Find(id);
  if (s == nullptr || s->tx_charge_pending) return;
  if (s->state != TcpState::kEstablished && s->state != TcpState::kCloseWait &&
      s->state != TcpState::kFinWait1 && s->state != TcpState::kLastAck) {
    return;
  }
  uint64_t inflight = s->snd_nxt - s->snd_una - (s->fin_sent ? 1 : 0);
  uint64_t unsent = s->sndbuf.size() - inflight;
  if (unsent == 0) {
    MaybeSendFin(*s);
    return;
  }
  uint64_t wnd = std::min<uint64_t>(s->cc->Window(), s->peer_rwnd);
  if (wnd <= inflight) {
    if (s->peer_rwnd == 0) ArmPersist(*s);
    return;
  }
  if (s->tsq_outstanding >= config_.profile.tsq_limit_bytes) {
    return;  // resumed by the TX-completion callback
  }
  // Nagle + GSO tail coalescing: while data is unacknowledged, small writes
  // accumulate into a full TSO chunk (sent at once on the next ACK or when
  // kTsoChunk bytes are buffered). This is what lets a saturated core emit
  // 64 KB chunks regardless of the application's write size.
  if (inflight > 0 && unsent < kTsoChunk && !s->fin_pending) {
    return;  // re-pumped by the next Send() or ACK
  }
  s->tx_charge_pending = true;
  // Two-phase transmit: the chunk is sized when the core actually services
  // this item, so bytes the application writes in the meantime coalesce into
  // one TSO chunk (Linux autocorking). Phase 1 costs nothing; phase 2 charges
  // the per-chunk cost and emits.
  cores_[s->core_idx]->Charge(0, [this, id] {
    Sock* s2 = Find(id);
    if (s2 == nullptr) return;
    if (s2->state == TcpState::kClosed || s2->state == TcpState::kListen) {
      s2->tx_charge_pending = false;
      return;
    }
    uint64_t inflight2 = s2->snd_nxt - s2->snd_una - (s2->fin_sent ? 1 : 0);
    uint64_t unsent2 = s2->sndbuf.size() - inflight2;
    uint64_t wnd2 = std::min<uint64_t>(s2->cc->Window(), s2->peer_rwnd);
    uint64_t window_room = wnd2 > inflight2 ? wnd2 - inflight2 : 0;
    uint64_t tsq_room = config_.profile.tsq_limit_bytes > s2->tsq_outstanding
                            ? config_.profile.tsq_limit_bytes - s2->tsq_outstanding
                            : 0;
    if (inflight2 > 0 && unsent2 < kTsoChunk && !s2->fin_pending) {
      s2->tx_charge_pending = false;  // keep coalescing (Nagle)
      return;
    }
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>({kTsoChunk, unsent2, window_room, tsq_room}));
    if (chunk == 0) {
      s2->tx_charge_pending = false;
      if (unsent2 == 0) MaybeSendFin(*s2);
      if (s2->peer_rwnd == 0 && unsent2 > 0) ArmPersist(*s2);
      return;
    }
    const CostProfile& p = config_.profile;
    Cycles cost = p.tx_fixed_per_chunk + p.tx_per_seg * SegCount(chunk) +
                  static_cast<Cycles>(p.tx_per_byte * chunk);
    cores_[s2->core_idx]->Charge(cost, [this, id, chunk] {
      Sock* s3 = Find(id);
      if (s3 == nullptr) return;
      s3->tx_charge_pending = false;
      if (s3->state == TcpState::kClosed || s3->state == TcpState::kListen) return;
      uint64_t inflight3 = s3->snd_nxt - s3->snd_una - (s3->fin_sent ? 1 : 0);
      uint64_t unsent3 = s3->sndbuf.size() - inflight3;
      uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(chunk, unsent3));
      if (len > 0) {
        EmitSegment(*s3, kAck, s3->snd_nxt, inflight3, len);
        s3->snd_nxt += len;
        ArmRto(*s3);
        // TSQ: hold the socket's qdisc occupancy until the (coalesced) TX
        // completion fires.
        s3->tsq_outstanding += len;
        SimTime completion = TransmitTime(WireBytes(len), kNicRateHint) +
                             config_.profile.tx_completion_delay;
        loop_->ScheduleAfter(completion, [this, id, len] {
          Sock* s4 = Find(id);
          if (s4 == nullptr) return;
          s4->tsq_outstanding = s4->tsq_outstanding > len ? s4->tsq_outstanding - len : 0;
          PumpTx(id);
        });
      }
      PumpTx(id);
    });
  });
}

void TcpStack::MaybeSendFin(Sock& s) {
  if (!s.fin_pending || s.fin_sent) return;
  uint64_t inflight = s.snd_nxt - s.snd_una;
  if (s.sndbuf.size() > inflight) return;  // unsent data remains
  s.fin_sent = true;
  EmitSegment(s, kFin | kAck, s.snd_nxt, 0, 0);
  s.snd_nxt += 1;
  ArmRto(s);
  if (s.state == TcpState::kEstablished || s.state == TcpState::kSynRcvd) {
    s.state = TcpState::kFinWait1;
  } else if (s.state == TcpState::kCloseWait) {
    s.state = TcpState::kLastAck;
  }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void TcpStack::ArmRto(Sock& s) {
  s.rto_timer.Cancel();
  SocketId id = s.id;
  s.rto_timer = loop_->ScheduleAfter(s.rto, [this, id] { OnRto(id); });
}

void TcpStack::CancelRto(Sock& s) { s.rto_timer.Cancel(); }

void TcpStack::UpdateRtt(Sock& s, SimTime rtt) {
  if (rtt <= 0) return;
  if (s.srtt == 0) {
    s.srtt = rtt;
    s.rttvar = rtt / 2;
  } else {
    SimTime err = rtt > s.srtt ? rtt - s.srtt : s.srtt - rtt;
    s.rttvar = (3 * s.rttvar + err) / 4;
    s.srtt = (7 * s.srtt + rtt) / 8;
  }
  s.rto = std::max(kMinRto, s.srtt + 4 * s.rttvar);
  if (s.rto > kMaxRto) s.rto = kMaxRto;
}

void TcpStack::OnRto(SocketId id) {
  Sock* s = Find(id);
  if (s == nullptr) return;
  ++stats_.rto_fires;

  if (s->state == TcpState::kSynSent) {
    if (++s->dupacks > kMaxSynRetries) {  // dupacks reused as retry counter
      FailConnection(*s, kTimedOut);
      return;
    }
    EmitSegment(*s, kSyn, s->iss, 0, 0);
    s->rto = std::min(s->rto * 2, kMaxRto);
    ArmRto(*s);
    return;
  }
  if (s->state == TcpState::kSynRcvd) {
    if (++s->dupacks > kMaxSynRetries) {
      FailConnection(*s, kTimedOut);
      return;
    }
    EmitSegment(*s, kSyn | kAck, s->iss, 0, 0);
    s->rto = std::min(s->rto * 2, kMaxRto);
    ArmRto(*s);
    return;
  }

  uint64_t inflight_data = s->snd_nxt - s->snd_una - (s->fin_sent ? 1 : 0);
  if (inflight_data == 0 && !s->fin_sent) return;

  s->cc->OnTimeout();
  s->recovery_end = s->snd_nxt;
  s->rto = std::min(s->rto * 2, kMaxRto);
  ++stats_.retransmits;

  if (inflight_data > 0) {
    uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(kTsoChunk, inflight_data));
    const CostProfile& p = config_.profile;
    Cycles cost = p.tx_fixed_per_chunk + p.tx_per_seg * SegCount(len) +
                  static_cast<Cycles>(p.tx_per_byte * len);
    SeqNum seq = s->snd_una;
    cores_[s->core_idx]->Charge(cost, [this, id, seq, len] {
      Sock* s2 = Find(id);
      if (s2 == nullptr || seq < s2->snd_una) return;  // already acked meanwhile
      uint32_t len2 = static_cast<uint32_t>(
          std::min<uint64_t>(len, s2->sndbuf.size()));
      if (len2 == 0) return;
      EmitSegment(*s2, kAck, s2->snd_una, 0, len2);
    });
  } else {
    // Only the FIN is outstanding.
    EmitSegment(*s, kFin | kAck, s->snd_nxt - 1, 0, 0);
  }
  ArmRto(*s);
}

void TcpStack::ArmPersist(Sock& s) {
  if (s.persist_timer.Pending()) return;
  SocketId id = s.id;
  SimTime delay = std::max<SimTime>(s.rto, 10 * kMillisecond);
  s.persist_timer = loop_->ScheduleAfter(delay, [this, id] { OnPersist(id); });
}

void TcpStack::OnPersist(SocketId id) {
  Sock* s = Find(id);
  if (s == nullptr) return;
  if (s->peer_rwnd == 0 && !s->sndbuf.empty()) {
    SendAck(*s, false);  // window probe
    ArmPersist(*s);
  }
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void TcpStack::OnNicRxNotify() { ScheduleRxDrain(config_.profile.rx_coalesce_delay); }

void TcpStack::ScheduleRxDrain(SimTime delay) {
  if (rx_drain_scheduled_) return;
  rx_drain_scheduled_ = true;
  loop_->ScheduleAfter(delay, [this] { DrainRx(); });
}

void TcpStack::DrainRx() {
  rx_drain_scheduled_ = false;
  size_t n = nic_->DrainRx(rx_pkts_.data(), rx_pkts_.size());
  if (n == 0) return;

  const CostProfile& p = config_.profile;
  const SimTime now = loop_->Now();

  for (size_t i = 0; i < n; ++i) {
    netsim::Packet& pkt = rx_pkts_[i];
    if (pkt.protocol != netsim::Protocol::kTcp) {
      // IP-protocol demux: the softirq hands non-TCP packets (UDP) to the
      // registered sibling stack sharing this NIC.
      if (raw_packet_handler_) raw_packet_handler_(std::move(pkt));
      continue;
    }
    // Moved out, so the reused batch array keeps no segment alive.
    auto seg = std::static_pointer_cast<const Segment>(std::move(pkt.payload));
    if (!seg) continue;
    int cidx = static_cast<int>(pkt.flow_hash % cores_.size());
    // NIC-ring overflow: the owning core is hopelessly backlogged.
    if (cores_[cidx]->IdleAt() - now > kRxBacklogCap) {
      ++stats_.rx_ring_drops;
      continue;
    }
    RxBatch& b = rx_batches_[cidx];
    uint32_t len = static_cast<uint32_t>(seg->payload.size());
    if (len > 0) {
      b.cost += p.rx_per_seg * SegCount(len) + static_cast<Cycles>(p.rx_per_byte * len);
    } else {
      b.cost += p.rx_per_ack;
    }
    if (b.segs.capacity() == 0 && !spare_rx_segs_.empty()) {
      b.segs = std::move(spare_rx_segs_.back());
      spare_rx_segs_.pop_back();
    }
    b.segs.emplace_back(std::move(seg), pkt.ce_marked);
  }

  for (size_t c = 0; c < rx_batches_.size(); ++c) {
    RxBatch& b = rx_batches_[c];
    if (b.segs.empty()) continue;
    Cycles cost = b.cost + p.rx_irq_fixed;
    b.cost = 0;
    cores_[c]->Charge(cost, [this, segs = std::move(b.segs)]() mutable {
      for (const auto& [seg, ce] : segs) {
        ++stats_.segments_received;
        HandleSegment(*seg, ce);
      }
      segs.clear();
      spare_rx_segs_.push_back(std::move(segs));
    });
  }

  if (nic_->RxPending() > 0) ScheduleRxDrain(p.rx_coalesce_delay);
}

void TcpStack::HandleSegment(const Segment& seg, bool ce_marked) {
  FourTuple local_tuple = Invert(seg.tuple);
  auto it = demux_.find(local_tuple);
  if (it == demux_.end()) {
    if (seg.Has(kSyn) && !seg.Has(kAck)) {
      HandleSynAtListener(seg);
    } else if (!seg.Has(kRst)) {
      SendRst(local_tuple, seg.ack, seg.seq + seg.payload.size());
    }
    return;
  }
  Sock* s = Find(it->second);
  if (s == nullptr) {
    demux_.erase(it);
    return;
  }

  if (seg.Has(kRst)) {
    int err = s->state == TcpState::kSynSent ? kConnRefused : kConnReset;
    FailConnection(*s, err);
    return;
  }
  if (seg.ts > 0) s->last_rx_ts = seg.ts;

  switch (s->state) {
    case TcpState::kSynSent: {
      if (seg.Has(kSyn) && seg.Has(kAck) && seg.ack == s->iss + 1) {
        s->snd_una = seg.ack;
        s->irs = seg.seq;
        s->rcv_nxt = seg.seq + 1;
        s->peer_rwnd = seg.rwnd;
        s->dupacks = 0;
        s->state = TcpState::kEstablished;
        CancelRto(*s);
        UpdateRtt(*s, loop_->Now() - seg.ts_echo);
        SendAck(*s, false);
        s->cc->OnConnect();
        ++stats_.conns_established;
        if (s->cbs.on_connect) s->cbs.on_connect(0);
        PumpTx(s->id);
      }
      return;
    }
    case TcpState::kSynRcvd: {
      if (seg.Has(kAck) && seg.ack == s->iss + 1) {
        s->snd_una = seg.ack;
        s->peer_rwnd = seg.rwnd;
        s->dupacks = 0;
        CancelRto(*s);
        const SocketId id = s->id;
        EstablishChild(*s);
        // EstablishChild aborts (and frees) a child whose listener is gone.
        s = Find(id);
        // Fall through to data handling if the ACK carried payload.
        if (s != nullptr && !seg.payload.empty()) HandleEstablishedData(*s, seg, ce_marked);
      }
      return;
    }
    case TcpState::kTimeWait: {
      if (seg.Has(kFin)) SendAck(*s, false);  // peer retransmitted its FIN
      return;
    }
    case TcpState::kClosed:
    case TcpState::kListen:
      return;
    default:
      HandleEstablishedData(*s, seg, ce_marked);
      return;
  }
}

void TcpStack::HandleSynAtListener(const Segment& seg) {
  FourTuple local_tuple = Invert(seg.tuple);
  auto lit = listeners_.find(local_tuple.local_port);
  if (lit == listeners_.end() || lit->second.empty()) {
    SendRst(local_tuple, 0, seg.seq + 1);
    return;
  }
  // SO_REUSEPORT: pick the group member by flow hash.
  auto& group = lit->second;
  SocketId lid = group[SymmetricFlowHash(local_tuple) % group.size()];
  Sock* l = Find(lid);
  if (l == nullptr) return;
  if (static_cast<int>(l->accept_q.size()) + l->pending_children >= l->backlog) {
    return;  // accept queue full: drop the SYN, client retries
  }

  SocketId cid = CreateSocket();
  Sock& c = MustFind(cid);
  if (l->rx_allocator != nullptr) {
    c.rx_allocator = l->rx_allocator;
    c.rcvbuf.SetChunkAllocator(l->rx_allocator);
  }
  c.tuple = local_tuple;
  c.core_idx = l->reuseport && config_.per_core_tables ? l->core_idx : RssCore(c.tuple);
  c.parent = lid;
  c.state = TcpState::kSynRcvd;
  c.iss = 1 + rng_.NextBounded(1u << 30);
  c.snd_una = c.iss;
  c.snd_nxt = c.iss + 1;
  c.irs = seg.seq;
  c.rcv_nxt = seg.seq + 1;
  c.peer_rwnd = seg.rwnd;
  c.last_rx_ts = seg.ts;
  demux_[c.tuple] = cid;
  ++l->pending_children;

  ChargeWithSharedLock(c.core_idx, config_.profile.conn_setup, [this, cid] {
    Sock* c2 = Find(cid);
    if (c2 == nullptr || c2->state != TcpState::kSynRcvd) return;
    EmitSegment(*c2, kSyn | kAck, c2->iss, 0, 0);
    ArmRto(*c2);
  });
}

void TcpStack::EstablishChild(Sock& child) {
  child.state = TcpState::kEstablished;
  child.cc->OnConnect();
  ++stats_.conns_established;
  UpdateRtt(child, loop_->Now() - child.last_rx_ts);
  Sock* l = Find(child.parent);
  if (l == nullptr || !l->listening) {
    Abort(child.id);
    return;
  }
  if (l->pending_children > 0) --l->pending_children;
  l->accept_q.push_back(child.id);
  if (l->cbs.on_acceptable) l->cbs.on_acceptable();
}

void TcpStack::HandleEstablishedData(Sock& s, const Segment& seg, bool ce_marked) {
  if (seg.Has(kAck)) HandleAck(s, seg);
  // `s` may have been destroyed by a terminal ACK (e.g. LAST_ACK -> CLOSED);
  // re-validate before touching receive state.
  Sock* alive = Find(DemuxLookupAfterAck(seg));
  if (alive == nullptr) return;
  Sock& s2 = *alive;

  uint32_t len = static_cast<uint32_t>(seg.payload.size());
  bool advanced = false;

  if (len > 0) {
    SeqNum seq = seg.seq;
    uint32_t trim = 0;
    uint32_t remaining = len;
    if (seq + remaining <= s2.rcv_nxt) {
      // Entirely duplicate: re-ACK.
      SendAck(s2, ce_marked);
      return;
    }
    if (seq < s2.rcv_nxt) {
      trim = static_cast<uint32_t>(s2.rcv_nxt - seq);
      remaining -= trim;
      seq = s2.rcv_nxt;
    }
    if (seq == s2.rcv_nxt) {
      s2.rcvbuf.Append(seg.payload, trim, remaining);
      s2.rcv_nxt += remaining;
      stats_.bytes_received += remaining;
      advanced = true;
      // Absorb contiguous out-of-order segments.
      while (!s2.ooo.empty()) {
        auto oit = s2.ooo.begin();
        if (oit->first > s2.rcv_nxt) break;
        SeqNum oseq = oit->first;
        const SliceList& opay = oit->second;
        if (oseq + opay.size() > s2.rcv_nxt) {
          uint64_t otrim = s2.rcv_nxt - oseq;
          uint64_t keep = opay.size() - otrim;
          s2.rcvbuf.Append(opay, otrim, keep);
          s2.rcv_nxt += keep;
          stats_.bytes_received += keep;
        }
        s2.ooo_bytes -= opay.size();
        s2.ooo.erase(oit);
      }
    } else {
      // Out of order: hold the segment's slices for reassembly, send a
      // duplicate ACK.
      if (s2.ooo.count(seq) == 0) {
        s2.ooo_bytes += remaining;
        s2.ooo.emplace(seq, seg.payload);
      }
      SendAck(s2, false);
      return;
    }
  }

  // FIN processing once the stream is caught up.
  if (seg.Has(kFin) && !s2.fin_rcvd) {
    SeqNum fin_seq = seg.seq + len;
    if (fin_seq == s2.rcv_nxt) {
      s2.fin_rcvd = true;
      s2.rcv_nxt += 1;
      advanced = true;
      switch (s2.state) {
        case TcpState::kEstablished:
          s2.state = TcpState::kCloseWait;
          break;
        case TcpState::kFinWait1:
          s2.state = TcpState::kClosing;  // simultaneous close
          break;
        case TcpState::kFinWait2: {
          SendAck(s2, false);
          // EnterTimeWait destroys the sock outright when time_wait <= 0;
          // the EOF notification must run off a copy, not the dead sock.
          std::function<void()> on_readable = s2.cbs.on_readable;
          EnterTimeWait(s2);
          if (on_readable) on_readable();
          return;
        }
        default:
          break;
      }
    }
  }

  if (advanced) {
    SendAck(s2, ce_marked);
    if (s2.cbs.on_readable) s2.cbs.on_readable();
  }
}

// Looks the socket back up after ACK processing may have destroyed it.
SocketId TcpStack::DemuxLookupAfterAck(const Segment& seg) {
  auto it = demux_.find(Invert(seg.tuple));
  return it == demux_.end() ? kInvalidSocket : it->second;
}

void TcpStack::HandleAck(Sock& s, const Segment& seg) {
  s.peer_rwnd = seg.rwnd;
  if (seg.ack > s.snd_una && seg.ack <= s.snd_nxt) {
    uint64_t acked = seg.ack - s.snd_una;
    uint64_t data_acked = acked;
    if (s.fin_sent && seg.ack == s.snd_nxt) data_acked -= 1;  // FIN consumed one
    if (data_acked > s.sndbuf.size()) data_acked = s.sndbuf.size();
    s.sndbuf.Drop(data_acked);
    s.snd_una = seg.ack;
    s.dupacks = 0;
    if (seg.ts_echo > 0) UpdateRtt(s, loop_->Now() - seg.ts_echo);
    s.cc->OnAck(acked, s.srtt, seg.Has(kEce));

    bool fin_acked = s.fin_sent && s.snd_una == s.snd_nxt;
    if (s.snd_una == s.snd_nxt) {
      CancelRto(s);
    } else {
      ArmRto(s);
    }
    if (fin_acked) {
      // OnFinAcked can destroy the sock (LAST_ACK -> CLOSED): the id must be
      // read before the call, not from possibly-freed memory after it.
      SocketId sid = s.id;
      OnFinAcked(s);
      if (Find(sid) == nullptr) return;
    }
    if (data_acked > 0 && !s.app_closed && s.cbs.on_writable) s.cbs.on_writable();
    PumpTx(s.id);
  } else if (seg.ack == s.snd_una && seg.payload.empty() && !seg.Has(kSyn) && !seg.Has(kFin) &&
             s.snd_nxt != s.snd_una) {
    if (++s.dupacks == 3 && s.snd_una >= s.recovery_end) {
      // Fast retransmit + NewReno-style recovery.
      ++stats_.fast_retransmits;
      ++stats_.retransmits;
      s.cc->OnLoss();
      s.recovery_end = s.snd_nxt;
      uint64_t inflight_data = s.snd_nxt - s.snd_una - (s.fin_sent ? 1 : 0);
      uint32_t len = static_cast<uint32_t>(
          std::min<uint64_t>({kTsoChunk, inflight_data, s.sndbuf.size()}));
      if (len > 0) {
        SocketId id = s.id;
        SeqNum seq = s.snd_una;
        const CostProfile& p = config_.profile;
        Cycles cost = p.tx_fixed_per_chunk + p.tx_per_seg * SegCount(len) +
                      static_cast<Cycles>(p.tx_per_byte * len);
        cores_[s.core_idx]->Charge(cost, [this, id, seq, len] {
          Sock* s2 = Find(id);
          if (s2 == nullptr || seq < s2->snd_una) return;
          uint32_t len2 =
              static_cast<uint32_t>(std::min<uint64_t>(len, s2->sndbuf.size()));
          if (len2 == 0) return;
          EmitSegment(*s2, kAck, s2->snd_una, 0, len2);
        });
      }
    }
  }
  if (s.peer_rwnd > 0 && s.persist_timer.Pending()) {
    s.persist_timer.Cancel();
    PumpTx(s.id);
  }
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

void TcpStack::OnFinAcked(Sock& s) {
  switch (s.state) {
    case TcpState::kFinWait1:
      s.state = s.fin_rcvd ? TcpState::kTimeWait : TcpState::kFinWait2;
      if (s.state == TcpState::kTimeWait) EnterTimeWait(s);
      break;
    case TcpState::kClosing:
      EnterTimeWait(s);
      break;
    case TcpState::kLastAck:
      FreeTupleAndTeardown(s);
      DestroySock(s.id);
      break;
    default:
      break;
  }
}

void TcpStack::EnterTimeWait(Sock& s) {
  s.state = TcpState::kTimeWait;
  if (config_.time_wait <= 0) {
    FreeTupleAndTeardown(s);
    DestroySock(s.id);
    return;
  }
  SocketId id = s.id;
  s.time_wait_timer = loop_->ScheduleAfter(config_.time_wait, [this, id] {
    Sock* s2 = Find(id);
    if (s2 == nullptr) return;
    FreeTupleAndTeardown(*s2);
    DestroySock(id);
  });
}

void TcpStack::FreeTupleAndTeardown(Sock& s) {
  if (s.tuple.remote_ip != 0 || s.tuple.remote_port != 0) {
    demux_.erase(s.tuple);
  }
  ++stats_.conns_closed;
  if (s.state == TcpState::kEstablished || s.state == TcpState::kFinWait1 ||
      s.state == TcpState::kFinWait2 || s.state == TcpState::kCloseWait ||
      s.state == TcpState::kClosing || s.state == TcpState::kLastAck ||
      s.state == TcpState::kTimeWait) {
    s.cc->OnCloseConn();
  }
  // Socket free + port-table release.
  ChargeWithSharedLock(s.core_idx, config_.profile.conn_teardown, [] {});
  s.state = TcpState::kClosed;
}

void TcpStack::FailConnection(Sock& s, int err) {
  s.err = err;
  bool was_syn_sent = s.state == TcpState::kSynSent;
  FreeTupleAndTeardown(s);
  auto on_connect = s.cbs.on_connect;
  auto on_error = s.cbs.on_error;
  DestroySock(s.id);
  if (was_syn_sent && on_connect) {
    on_connect(err);
  } else if (on_error) {
    on_error(err);
  }
}

void TcpStack::DestroySock(SocketId id) {
  Sock* s = Find(id);
  if (s == nullptr) return;
  s->rto_timer.Cancel();
  s->persist_timer.Cancel();
  s->time_wait_timer.Cancel();
  if (s->tuple.remote_ip != 0 || s->tuple.remote_port != 0) {
    auto it = demux_.find(s->tuple);
    if (it != demux_.end() && it->second == id) demux_.erase(it);
  }
  // Moved out first: the socket's buffers may fire callbacks as they die.
  std::unique_ptr<Sock> doomed = std::move(socks_[id]);
}

void TcpStack::ChargeWithSharedLock(int core_idx, Cycles work, sim::Callback fn) {
  if (config_.per_core_tables) {
    cores_[core_idx]->Charge(work + config_.profile.shared_lock_hold, std::move(fn));
    return;
  }
  table_lock_.Acquire(cores_[core_idx], config_.profile.shared_lock_hold);
  cores_[core_idx]->Charge(work, std::move(fn));
}

}  // namespace netkernel::tcp
