// Copyright (c) NetKernel reproduction authors.

#include "src/tcpstack/cc.h"

#include <cmath>

namespace netkernel::tcp {

void CubicCc::OnAck(uint64_t bytes_acked, SimTime rtt, bool /*ece*/) {
  virtual_clock_ += rtt > 0 ? rtt / 8 : kMicrosecond;  // monotone proxy clock
  if (cwnd_ < ssthresh_) {
    cwnd_ = std::min(cwnd_ + bytes_acked, kMaxWindow);
    return;
  }
  if (epoch_start_ < 0) {
    epoch_start_ = virtual_clock_;
    if (w_max_ > cwnd_) {
      k_ = std::cbrt(static_cast<double>(w_max_ - cwnd_) / kMss / kC);
    } else {
      k_ = 0.0;
      w_max_ = cwnd_;
    }
  }
  double t = ToSeconds(virtual_clock_ - epoch_start_);
  double target_mss =
      static_cast<double>(w_max_) / kMss + kC * (t - k_) * (t - k_) * (t - k_);
  uint64_t target = static_cast<uint64_t>(target_mss * kMss);
  if (target > cwnd_) {
    // Approach the cubic target over roughly one RTT.
    cwnd_ += std::max<uint64_t>(1, (target - cwnd_) * bytes_acked / (cwnd_ + 1));
  } else {
    cwnd_ += std::max<uint64_t>(1, kMss * bytes_acked / (100 * cwnd_ / kMss + 1));
  }
  cwnd_ = std::min(cwnd_, kMaxWindow);
}

void CubicCc::OnLoss() {
  w_max_ = cwnd_;
  cwnd_ = std::max<uint64_t>(static_cast<uint64_t>(static_cast<double>(cwnd_) * kBeta), 2 * kMss);
  ssthresh_ = cwnd_;
  epoch_start_ = -1;
}

void CubicCc::OnTimeout() {
  w_max_ = cwnd_;
  ssthresh_ = std::max<uint64_t>(cwnd_ / 2, 2 * kMss);
  cwnd_ = 2 * kMss;
  epoch_start_ = -1;
}

void DctcpCc::OnAck(uint64_t bytes_acked, SimTime /*rtt*/, bool ece) {
  acked_total_ += bytes_acked;
  if (ece) acked_ece_ += bytes_acked;

  if (cwnd_ < ssthresh_ && !ece) {
    cwnd_ = std::min(cwnd_ + bytes_acked, kMaxWindow);
  } else if (!ece) {
    cwnd_ += std::max<uint64_t>(1, kMss * bytes_acked / cwnd_);
    cwnd_ = std::min(cwnd_, kMaxWindow);
  }

  // Once per window of data: update alpha and, if marks were seen, back off
  // proportionally (the DCTCP control law).
  if (acked_total_ >= window_end_bytes_ + cwnd_) {
    double frac = acked_total_ > 0
                      ? static_cast<double>(acked_ece_) / static_cast<double>(acked_total_ -
                                                                              window_end_bytes_)
                      : 0.0;
    if (frac > 1.0) frac = 1.0;
    alpha_ = (1.0 - kG) * alpha_ + kG * frac;
    if (frac > 0.0) {
      uint64_t reduced = static_cast<uint64_t>(static_cast<double>(cwnd_) * (1.0 - alpha_ / 2.0));
      cwnd_ = std::max<uint64_t>(reduced, 2 * kMss);
      ssthresh_ = cwnd_;
    }
    window_end_bytes_ = acked_total_;
    acked_ece_ = 0;
  }
}

void DctcpCc::OnLoss() {
  ssthresh_ = std::max<uint64_t>(cwnd_ / 2, 2 * kMss);
  cwnd_ = ssthresh_;
}

void DctcpCc::OnTimeout() {
  ssthresh_ = std::max<uint64_t>(cwnd_ / 2, 2 * kMss);
  cwnd_ = 2 * kMss;
}

}  // namespace netkernel::tcp
