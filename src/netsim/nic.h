// Copyright (c) NetKernel reproduction authors.
// Virtual / physical NIC. TX hands packets to the attached switch (the NIC's
// own serialization is modelled by the egress link). RX queues arriving
// packets and notifies the attached stack on the empty -> non-empty edge, so
// the stack can model interrupt coalescing by draining batches.

#ifndef SRC_NETSIM_NIC_H_
#define SRC_NETSIM_NIC_H_

#include <functional>
#include <map>
#include <cstdio>
#include <string>
#include <utility>

#include "src/common/units.h"
#include "src/netsim/packet.h"
#include "src/netsim/switch.h"
#include "src/sim/event_loop.h"
#include "src/sim/fifo.h"

namespace netkernel::netsim {

class Nic {
 public:
  Nic(std::string name, IpAddr ip) : name_(std::move(name)), ip_(ip) {}
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  const std::string& name() const { return name_; }
  IpAddr ip() const { return ip_; }

  void AttachSwitch(Switch* sw) { switch_ = sw; }

  // Enables per-source deficit-round-robin egress scheduling at `rate`.
  // Used by the FairShare NSM (§6.2): the NSM owns the vNIC, so it can
  // schedule the aggregates of the VMs it serves directly — equal shares of
  // the port regardless of each VM's flow count. Packets are classified by
  // their (pre-stamped) source address; unstamped packets use the NIC's own.
  void EnableFairEgress(sim::EventLoop* loop, BitRate rate) {
    loop_ = loop;
    egress_rate_ = rate;
  }

  // Stack-facing TX: forward out through the switch fabric.
  void Transmit(Packet pkt) {
    if (pkt.src == 0) pkt.src = ip_;
    ++tx_packets_;
    tx_bytes_ += pkt.wire_bytes;
    if (egress_rate_ > 0) {
      // Per-source scheduler queue: ECN-mark when it grows (so DCTCP-style
      // VM windows stabilize against the scheduler, not against drops), and
      // drop-tail only beyond the hard cap.
      uint64_t& backlog = drr_bytes_[pkt.src];
      if (backlog + pkt.wire_bytes > kDrrQueueCap) {
        ++egress_drops_;
        return;
      }
      if (pkt.ecn_capable && backlog >= kDrrEcnThreshold) pkt.ce_marked = true;
      backlog += pkt.wire_bytes;
      drr_queues_[pkt.src].push_back(std::move(pkt));
      ServeEgress();
      return;
    }
    if (switch_ != nullptr) switch_->Forward(std::move(pkt));
  }

  // Link-facing RX: called by the ingress link's sink.
  void Receive(Packet pkt) {
    ++rx_packets_;
    rx_bytes_ += pkt.wire_bytes;
    bool was_empty = rx_queue_.empty();
    rx_queue_.push_back(std::move(pkt));
    if (was_empty && rx_notify_) rx_notify_();
  }

  // Stack-facing RX drain: pops up to `max` packets. Returns count.
  size_t DrainRx(Packet* out, size_t max) {
    size_t n = 0;
    while (n < max && !rx_queue_.empty()) {
      out[n++] = std::move(rx_queue_.front());
      rx_queue_.pop_front();
    }
    return n;
  }

  size_t RxPending() const { return rx_queue_.size(); }

  // Fires when the RX queue transitions empty -> non-empty (the "interrupt").
  void SetRxNotify(std::function<void()> cb) { rx_notify_ = std::move(cb); }

  uint64_t tx_packets() const { return tx_packets_; }
  size_t EgressBacklogPackets() const {
    size_t n = 0;
    for (const auto& [src, q] : drr_queues_) n += q.size();
    return n;
  }
  uint64_t EgressBacklogBytesOf(IpAddr src) const {
    auto it = drr_bytes_.find(src);
    return it == drr_bytes_.end() ? 0 : it->second;
  }
  uint64_t egress_drops() const { return egress_drops_; }
  // Debug: per-source queue composition.
  std::string DumpEgressQueues() const {
    std::string out;
    char buf[128];
    for (const auto& [src, q] : drr_queues_) {
      uint64_t bytes = 0;
      uint32_t mx = 0;
      for (const auto& p : q) {
        bytes += p.wire_bytes;
        mx = p.wire_bytes > mx ? p.wire_bytes : mx;
      }
      auto dit = drr_deficit_.find(src);
      std::snprintf(buf, sizeof(buf), "[src=%u n=%zu bytes=%llu max=%u def=%lld] ", src,
                    q.size(), (unsigned long long)bytes, mx,
                    dit == drr_deficit_.end() ? -1LL : (long long)dit->second);
      out += buf;
    }
    return out;
  }
  uint64_t EgressServedBytesOf(IpAddr src) const {
    auto it = drr_served_.find(src);
    return it == drr_served_.end() ? 0 : it->second;
  }

  uint64_t rx_packets() const { return rx_packets_; }
  uint64_t tx_bytes() const { return tx_bytes_; }
  uint64_t rx_bytes() const { return rx_bytes_; }

 private:
  // Deficit round robin over per-source queues, paced at the egress rate.
  void ServeEgress() {
    if (egress_busy_ || switch_ == nullptr) return;
    // Pick the next non-empty source with deficit, round-robin.
    for (auto it = drr_queues_.begin(); it != drr_queues_.end();) {
      if (it->second.empty()) {
        drr_deficit_.erase(it->first);
        it = drr_queues_.erase(it);
      } else {
        ++it;
      }
    }
    if (drr_queues_.empty()) return;
    // Classic byte-fair DRR: a source keeps transmitting while its deficit
    // covers its head packet; only then does the round move on (rotating
    // after every packet would be packet-fair, which starves sources with
    // small packets against TSO-chunk senders).
    auto it = drr_queues_.find(drr_cursor_);
    if (it == drr_queues_.end() ||
        drr_deficit_[it->first] < static_cast<int64_t>(it->second.front().wire_bytes)) {
      // Rotate (work-conserving: keep topping up until someone can send; a
      // head packet is at most one TSO chunk < one quantum).
      it = drr_queues_.upper_bound(drr_cursor_);
      for (;;) {
        if (it == drr_queues_.end()) it = drr_queues_.begin();
        int64_t& deficit = drr_deficit_[it->first];
        if (deficit < static_cast<int64_t>(it->second.front().wire_bytes)) {
          deficit += kDrrQuantum;
          ++it;
          continue;
        }
        break;
      }
    }
    drr_cursor_ = it->first;
    int64_t& deficit = drr_deficit_[it->first];
    Packet pkt = std::move(it->second.front());
    it->second.pop_front();
    drr_bytes_[it->first] -= pkt.wire_bytes;
    drr_served_[it->first] += pkt.wire_bytes;
    deficit -= static_cast<int64_t>(pkt.wire_bytes);
    if (it->second.empty()) deficit = 0;  // no deficit hoarding while idle
    SimTime tx = TransmitTime(pkt.wire_bytes, egress_rate_);
    egress_busy_ = true;
    switch_->Forward(std::move(pkt));
    loop_->ScheduleAfter(tx, [this] {
      egress_busy_ = false;
      ServeEgress();
    });
  }

  static constexpr int64_t kDrrQuantum = 128 * 1024;
  static constexpr uint64_t kDrrQueueCap = 2 * 1024 * 1024;
  static constexpr uint64_t kDrrEcnThreshold = 512 * 1024;

  std::string name_;
  IpAddr ip_;
  Switch* switch_ = nullptr;
  sim::EventLoop* loop_ = nullptr;
  BitRate egress_rate_ = 0;
  // The map's key order is the DRR visiting order.
  std::map<IpAddr, sim::Fifo<Packet>> drr_queues_;
  std::map<IpAddr, int64_t> drr_deficit_;
  std::map<IpAddr, uint64_t> drr_bytes_;
  std::map<IpAddr, uint64_t> drr_served_;
  uint64_t egress_drops_ = 0;
  IpAddr drr_cursor_ = 0;
  bool egress_busy_ = false;
  sim::Fifo<Packet> rx_queue_;
  std::function<void()> rx_notify_;
  uint64_t tx_packets_ = 0;
  uint64_t rx_packets_ = 0;
  uint64_t tx_bytes_ = 0;
  uint64_t rx_bytes_ = 0;
};

}  // namespace netkernel::netsim

#endif  // SRC_NETSIM_NIC_H_
