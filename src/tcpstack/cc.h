// Copyright (c) NetKernel reproduction authors.
// Congestion control algorithms. The stack drives these with ACK/loss/ECN
// events; they answer one question: how many bytes may be in flight.
//
// Reno and CUBIC reproduce standard flow-level fairness (the Baseline in
// Fig 9); DCTCP exercises the ECN path; SharedWindow implements the paper's
// use case 2 — a VM-level congestion window shared by all of a VM's
// connections, each restricted to 1/n of it (Seawall-style fairness §6.2).

#ifndef SRC_TCPSTACK_CC_H_
#define SRC_TCPSTACK_CC_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/units.h"
#include "src/tcpstack/tcp_types.h"

namespace netkernel::tcp {

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual std::string Name() const = 0;
  // Bytes this connection may have unacknowledged in flight.
  virtual uint64_t Window() const = 0;
  virtual void OnAck(uint64_t bytes_acked, SimTime rtt, bool ece) = 0;
  virtual void OnLoss() = 0;     // triple-dupack fast retransmit
  virtual void OnTimeout() = 0;  // RTO fired
  // Lifecycle hooks for window-sharing implementations.
  virtual void OnConnect() {}
  virtual void OnCloseConn() {}
};

using CcFactory = std::function<std::unique_ptr<CongestionControl>()>;

// Classic NewReno-style additive-increase multiplicative-decrease.
class RenoCc : public CongestionControl {
 public:
  explicit RenoCc(uint64_t init_window = 10 * kMss) : cwnd_(init_window) {}

  std::string Name() const override { return "reno"; }
  uint64_t Window() const override { return cwnd_; }

  void OnAck(uint64_t bytes_acked, SimTime /*rtt*/, bool /*ece*/) override {
    if (cwnd_ < ssthresh_) {
      cwnd_ += bytes_acked;  // slow start
    } else {
      cwnd_ += std::max<uint64_t>(1, kMss * bytes_acked / cwnd_);  // AIMD
    }
    cwnd_ = std::min(cwnd_, kMaxWindow);
  }

  void OnLoss() override {
    ssthresh_ = std::max<uint64_t>(cwnd_ / 2, 2 * kMss);
    cwnd_ = ssthresh_;
  }

  void OnTimeout() override {
    ssthresh_ = std::max<uint64_t>(cwnd_ / 2, 2 * kMss);
    cwnd_ = 2 * kMss;
  }

 protected:
  static constexpr uint64_t kMaxWindow = 64 * kMiB;
  uint64_t cwnd_;
  uint64_t ssthresh_ = UINT64_MAX;
};

// CUBIC (the Linux default the paper's Baseline runs).
class CubicCc : public CongestionControl {
 public:
  explicit CubicCc(uint64_t init_window = 10 * kMss) : cwnd_(init_window) {}

  std::string Name() const override { return "cubic"; }
  uint64_t Window() const override { return cwnd_; }

  void OnAck(uint64_t bytes_acked, SimTime rtt, bool ece) override;
  void OnLoss() override;
  void OnTimeout() override;

 private:
  static constexpr uint64_t kMaxWindow = 64 * kMiB;
  static constexpr double kBeta = 0.7;
  static constexpr double kC = 0.4;

  uint64_t cwnd_;
  uint64_t ssthresh_ = UINT64_MAX;
  uint64_t w_max_ = 0;
  double k_ = 0.0;
  SimTime epoch_start_ = -1;
  SimTime now_ = 0;  // advanced by OnAck timestamps via rtt accumulation
  SimTime virtual_clock_ = 0;
};

// DCTCP: ECN-fraction-proportional backoff (needs ECN-marking switches).
class DctcpCc : public CongestionControl {
 public:
  explicit DctcpCc(uint64_t init_window = 10 * kMss, uint64_t init_ssthresh = UINT64_MAX)
      : cwnd_(init_window), ssthresh_(init_ssthresh) {}

  std::string Name() const override { return "dctcp"; }
  uint64_t Window() const override { return cwnd_; }

  void OnAck(uint64_t bytes_acked, SimTime rtt, bool ece) override;
  void OnLoss() override;
  void OnTimeout() override;

  double alpha() const { return alpha_; }

 private:
  static constexpr uint64_t kMaxWindow = 64 * kMiB;
  static constexpr double kG = 1.0 / 16.0;

  uint64_t cwnd_;
  uint64_t ssthresh_;
  double alpha_ = 1.0;
  uint64_t acked_total_ = 0;
  uint64_t acked_ece_ = 0;
  uint64_t window_end_bytes_ = 0;
};

// VM-level shared congestion window (paper §6.2). One SharedWindowGroup
// exists per VM inside the FairShare NSM; every connection of that VM holds a
// SharedWindowCc referencing the group. ACKs from any flow advance the shared
// window; each flow may use at most 1/n of it.
//
// Window dynamics are DCTCP-style (ECN-fraction-proportional backoff): two
// or more VM-level windows on a marking bottleneck converge smoothly to
// equal shares, whereas loss-synchronized AIMD between a handful of
// aggregates oscillates. Drop-based loss still triggers a (suppressed,
// once-per-window) multiplicative decrease so non-ECN bottlenecks work too.
class SharedWindowGroup {
 public:
  // Start in congestion avoidance (low ssthresh): VM-level aggregates that
  // slow-start against each other converge to fairness very slowly, whereas
  // equal additive growth from small windows is fair from the start.
  explicit SharedWindowGroup(uint64_t init_window = 10 * kMss)
      : cc_(init_window, 32 * kMss) {}

  uint64_t cwnd() const { return cc_.Window(); }
  int active_flows() const { return active_flows_; }

  void AddFlow() { ++active_flows_; }
  void RemoveFlow() {
    if (active_flows_ > 0) --active_flows_;
  }

  void OnAck(uint64_t bytes_acked, bool ece) {
    acked_since_backoff_ += bytes_acked;
    cc_.OnAck(bytes_acked, 0, ece);
  }
  // One multiplicative decrease per VM-level congestion event: several flows
  // of the group losing packets in the same window must not stack halvings.
  void OnLoss() {
    if (acked_since_backoff_ < cwnd()) return;
    acked_since_backoff_ = 0;
    cc_.OnLoss();
  }
  void OnTimeout() {
    if (acked_since_backoff_ < cwnd() / 2) return;
    acked_since_backoff_ = 0;
    cc_.OnTimeout();
  }

  // Per-flow share: cwnd / n (at least one MSS so flows are never starved).
  uint64_t FlowShare() const {
    int n = active_flows_ > 0 ? active_flows_ : 1;
    uint64_t share = cwnd() / static_cast<uint64_t>(n);
    return share < kMss ? kMss : share;
  }

 private:
  DctcpCc cc_;
  uint64_t acked_since_backoff_ = UINT64_MAX / 2;  // first loss always counts
  int active_flows_ = 0;
};

class SharedWindowCc : public CongestionControl {
 public:
  explicit SharedWindowCc(std::shared_ptr<SharedWindowGroup> group) : group_(std::move(group)) {}

  std::string Name() const override { return "shared-window"; }
  uint64_t Window() const override { return group_->FlowShare(); }
  void OnAck(uint64_t bytes_acked, SimTime /*rtt*/, bool ece) override {
    group_->OnAck(bytes_acked, ece);
  }
  void OnLoss() override { group_->OnLoss(); }
  void OnTimeout() override { group_->OnTimeout(); }
  void OnConnect() override { group_->AddFlow(); }
  void OnCloseConn() override { group_->RemoveFlow(); }

 private:
  std::shared_ptr<SharedWindowGroup> group_;
};

}  // namespace netkernel::tcp

#endif  // SRC_TCPSTACK_CC_H_
