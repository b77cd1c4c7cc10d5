// Copyright (c) NetKernel reproduction authors.
// Unidirectional link with finite bandwidth, propagation delay, and a
// drop-tail byte queue with an optional ECN marking threshold. Two links make
// a full-duplex cable. The congestion-control experiments (Fig 9, Fig 21)
// depend on these queues behaving like real switch ports.

#ifndef SRC_NETSIM_LINK_H_
#define SRC_NETSIM_LINK_H_

#include <functional>
#include <string>
#include <utility>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/netsim/packet.h"
#include "src/sim/event_loop.h"

namespace netkernel::netsim {

class Link {
 public:
  struct Config {
    BitRate bandwidth = 100 * kGbps;
    SimTime propagation_delay = 2 * kMicrosecond;
    uint64_t queue_limit_bytes = 16 * kMiB;  // drop-tail beyond this backlog
    uint64_t ecn_threshold_bytes = 0;        // 0 = ECN disabled
  };

  // RED-style early drop: above this fraction of the queue limit, packets
  // are dropped with a probability ramping quadratically to kMaxEarlyDrop.
  // Real switches drop individual MTU packets; our TSO-chunk packets make
  // pure drop-tail too coarse (whole 64KB bursts vanish), which causes
  // flow-capture artifacts. Randomized early drop restores per-flow
  // desynchronization.
  static constexpr double kEarlyDropFraction = 0.8;
  static constexpr double kMaxEarlyDrop = 0.25;

  using DeliverFn = std::function<void(Packet)>;

  Link(sim::EventLoop* loop, std::string name, Config config)
      : loop_(loop), name_(std::move(name)), config_(config) {}
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void SetSink(DeliverFn sink) { sink_ = std::move(sink); }

  // Fault injection for tests: return true to drop the packet.
  void SetDropFn(std::function<bool(const Packet&)> fn) { drop_fn_ = std::move(fn); }
  const Config& config() const { return config_; }
  const std::string& name() const { return name_; }

  // Enqueues a packet for transmission. Drops (and counts) when the backlog
  // exceeds the queue limit. Marks CE when the backlog exceeds the ECN
  // threshold and the packet is ECN-capable.
  void Enqueue(Packet pkt) {
    const SimTime now = loop_->Now();
    if (drop_fn_ && drop_fn_(pkt)) {
      ++drops_;
      dropped_bytes_ += pkt.wire_bytes;
      return;
    }
    const SimTime backlog = busy_until_ > now ? busy_until_ - now : 0;
    const uint64_t backlog_bytes =
        static_cast<uint64_t>(static_cast<double>(backlog) / kSecond * config_.bandwidth / 8.0);
    if (backlog_bytes + pkt.wire_bytes > config_.queue_limit_bytes) {
      ++drops_;
      dropped_bytes_ += pkt.wire_bytes;
      return;
    }
    if (config_.ecn_threshold_bytes > 0 && pkt.ecn_capable &&
        backlog_bytes >= config_.ecn_threshold_bytes) {
      pkt.ce_marked = true;
      ++ce_marks_;
    } else {
      double frac = static_cast<double>(backlog_bytes) /
                    static_cast<double>(config_.queue_limit_bytes);
      if (frac > kEarlyDropFraction) {
        double x = (frac - kEarlyDropFraction) / (1.0 - kEarlyDropFraction);
        if (rng_.NextBool(x * x * kMaxEarlyDrop)) {
          ++drops_;
          dropped_bytes_ += pkt.wire_bytes;
          return;
        }
      }
    }
    const SimTime start = busy_until_ > now ? busy_until_ : now;
    const SimTime tx = TransmitTime(pkt.wire_bytes, config_.bandwidth);
    busy_until_ = start + tx;
    delivered_bytes_ += pkt.wire_bytes;
    ++delivered_packets_;
    const SimTime arrival = busy_until_ + config_.propagation_delay;
    loop_->Schedule(arrival, [this, p = std::move(pkt)]() mutable {
      if (sink_) sink_(std::move(p));
    });
  }

  uint64_t drops() const { return drops_; }
  uint64_t dropped_bytes() const { return dropped_bytes_; }
  uint64_t ce_marks() const { return ce_marks_; }
  uint64_t delivered_bytes() const { return delivered_bytes_; }
  uint64_t delivered_packets() const { return delivered_packets_; }

  // Current queueing backlog in bytes (excludes the packet on the wire).
  uint64_t BacklogBytes() const {
    const SimTime now = loop_->Now();
    const SimTime backlog = busy_until_ > now ? busy_until_ - now : 0;
    return static_cast<uint64_t>(static_cast<double>(backlog) / kSecond * config_.bandwidth / 8.0);
  }

 private:
  sim::EventLoop* loop_;
  std::string name_;
  Config config_;
  DeliverFn sink_;
  std::function<bool(const Packet&)> drop_fn_;
  Rng rng_{0xb10cab1e};
  SimTime busy_until_ = 0;
  uint64_t drops_ = 0;
  uint64_t dropped_bytes_ = 0;
  uint64_t ce_marks_ = 0;
  uint64_t delivered_bytes_ = 0;
  uint64_t delivered_packets_ = 0;
};

}  // namespace netkernel::netsim

#endif  // SRC_NETSIM_LINK_H_
