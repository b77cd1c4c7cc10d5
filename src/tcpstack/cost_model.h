// Copyright (c) NetKernel reproduction authors.
// CPU cost profiles for the simulated stacks, in cycles of a 2.3 GHz core
// (the paper testbed's Xeon E5-2698 v3).
//
// One TCP protocol implementation serves both "placements" the paper
// compares; what differs is where the cycles are spent and how much each
// operation costs:
//   * kKernelProfile  — Linux kernel TCP: syscall crossings, softirq RX,
//     shared listener/port-table locks (sublinear multicore scaling).
//   * kMtcpProfile    — mTCP on DPDK: no syscalls, polled RX, per-core
//     listener tables, batched event delivery.
// Constants are calibrated so the Baseline configuration lands in the
// ballpark of the paper's absolute numbers (Figs 13-20).

#ifndef SRC_TCPSTACK_COST_MODEL_H_
#define SRC_TCPSTACK_COST_MODEL_H_

#include "src/common/units.h"

namespace netkernel::tcp {

struct CostProfile {
  // Application/system boundary.
  Cycles syscall = 0;            // one user->kernel->user crossing
  double copy_per_byte = 0.0;    // any bulk memory copy, cycles/byte

  // Transmit path (per TSO chunk handed to the NIC).
  Cycles tx_fixed_per_chunk = 0;  // skb alloc, qdisc, driver doorbell
  Cycles tx_per_seg = 0;          // segmentation/checksum per MSS
  double tx_per_byte = 0.0;

  // Receive path.
  Cycles rx_irq_fixed = 0;   // per interrupt/poll batch (NAPI round)
  Cycles rx_per_seg = 0;     // protocol processing per MSS of data
  double rx_per_byte = 0.0;  // payload touching (checksum, copy to sk buf)
  Cycles rx_per_ack = 0;     // pure-ACK processing on the sender

  // Connection lifecycle.
  Cycles conn_setup = 0;     // SYN/SYN-ACK processing + socket allocation
  Cycles conn_accept = 0;    // accept() dequeue + fd install
  Cycles conn_teardown = 0;  // FIN handling + socket free

  // Shared-table critical sections (listener hash, ephemeral ports). These
  // serialize across all cores of one stack instance and produce the
  // sublinear short-connection scaling of Fig 20 / Table 3.
  Cycles shared_lock_hold = 0;

  // Event notification.
  Cycles epoll_wakeup = 0;  // waking a blocked epoll_wait
  Cycles epoll_fetch = 0;   // per returned event

  // RX interrupt coalescing delay before the stack drains the NIC.
  SimTime rx_coalesce_delay = 0;

  // TX completion signalling: a socket may keep at most tsq_limit bytes in
  // the NIC/qdisc (Linux TCP Small Queues); completions are coalesced and
  // arrive tx_completion_delay after the chunk hits the wire. Together these
  // bound a single stream's pipelining (Fig 13 vs Fig 15).
  uint64_t tsq_limit_bytes = 128 * 1024;
  SimTime tx_completion_delay = 25 * kMicrosecond;
};

// NIC-ring overflow model (TcpStack and UdpStack): an arriving packet is
// dropped when its owning core is backlogged beyond this horizon.
inline constexpr SimTime kRxBacklogCap = 3 * kMillisecond;

// Linux kernel TCP stack (guest kernel in Baseline; kernel-stack NSM in
// NetKernel). Calibration anchors:
//   ~55 Gbps 1-core 8-stream send (Fig 15), ~31 Gbps single stream (Fig 13),
//   ~14 Gbps 1-core receive (Fig 14), ~70 K RPS/core and 5.7x at 8 cores
//   (Fig 17/20), 100 G send with 3 cores (Fig 18).
constexpr CostProfile KernelProfile() {
  CostProfile p;
  p.syscall = 450;
  p.copy_per_byte = 0.05;
  p.tx_fixed_per_chunk = 900;
  p.tx_per_seg = 250;
  p.tx_per_byte = 0.04;
  p.rx_irq_fixed = 2500;
  p.rx_per_seg = 1220;
  p.rx_per_byte = 0.22;
  p.rx_per_ack = 450;
  p.conn_setup = 7400;
  p.conn_accept = 2000;
  p.conn_teardown = 6200;
  p.shared_lock_hold = 900;
  p.epoll_wakeup = 1500;
  p.epoll_fetch = 250;
  p.rx_coalesce_delay = 6 * kMicrosecond;
  return p;
}

// mTCP over DPDK (userspace NSM). Calibration anchors: 190 K RPS at 1 core
// scaling to 1.1 M at 8 (Fig 20), 1.4-1.9x nginx RPS vs kernel (Table 3),
// tight latency distribution (Table 5).
inline CostProfile MtcpProfile() {
  CostProfile p;
  p.syscall = 60;  // library call, no privilege crossing
  p.copy_per_byte = 0.05;
  p.tx_fixed_per_chunk = 420;
  p.tx_per_seg = 160;
  p.tx_per_byte = 0.04;
  p.rx_irq_fixed = 350;  // DPDK poll-mode batch
  p.rx_per_seg = 700;
  p.rx_per_byte = 0.15;
  p.rx_per_ack = 180;
  p.conn_setup = 3700;
  p.conn_accept = 700;
  p.conn_teardown = 3100;
  p.shared_lock_hold = 300;  // per-core tables; tiny residual sharing
  p.epoll_wakeup = 250;      // mtcp_epoll_wait in the same address space
  p.epoll_fetch = 60;
  p.rx_coalesce_delay = 2 * kMicrosecond;
  return p;
}

// Profile for traffic sinks/sources on the *other* testbed machine of a
// send/receive experiment: the paper's peer host has all 16 cores enabled,
// so softirq processing spreads and the peer is never the bottleneck
// (footnote 3 of the paper). RX costs model spread softirqs.
inline CostProfile SinkProfile() {
  CostProfile p = KernelProfile();
  p.rx_irq_fixed = 1500;
  p.rx_per_seg = 150;
  p.rx_per_byte = 0.08;
  p.rx_coalesce_delay = 4 * kMicrosecond;
  // The peer machine drives load from many cores and is never the measured
  // bottleneck; keep its per-connection path light.
  p.conn_setup = 2000;
  p.conn_teardown = 1500;
  p.shared_lock_hold = 120;
  p.epoll_wakeup = 600;
  return p;
}

// NetKernel-plumbing costs (GuestLib / CoreEngine / ServiceLib), independent
// of which stack runs in the NSM. Anchors: Fig 11 (NQE switching rate vs
// batch), Fig 12 (hugepage copy path), Table 6/7 CPU overheads. A host has
// one table, CoreEngineConfig::costs, that all three read.
struct NetkernelCosts {
  // GuestLib: translate one socket call into an NQE and enqueue it.
  Cycles guestlib_translate = 100;
  // GuestLib: parse one inbound (completion or receive) NQE.
  Cycles nqe_parse = 60;
  // ServiceLib: parse one NQE and invoke the stack API.
  Cycles servicelib_translate = 120;
  // Hugepage copy, cycles/byte (userspace <-> hugepage, hugepage <-> stack).
  double hugepage_copy_per_byte = 0.09;
  // CoreEngine: cycles to switch one NQE (two ring copies + table lookup),
  // as a function of the polling batch size (Fig 11 calibration).
  Cycles ce_per_nqe_batch1 = 287;
  Cycles ce_per_nqe_batch4 = 103;
  Cycles ce_per_nqe_batch16 = 35;
  Cycles ce_per_nqe_batch64 = 19;
  // Connection-table operations.
  Cycles ce_table_lookup = 40;
  Cycles ce_table_insert = 120;
  // nkguard admission check per consumed guest NQE: a short chain of
  // always-predicted compares against the ring's op table plus the identity
  // pin; the chunk/replay hash probes only run for pool-backed VMs, whose
  // per-NQE budget is dominated by the copy/translate costs anyway.
  Cycles ce_guard_check = 1;
  // GuestLib NK device interrupt-driven polling (paper §4.6).
  SimTime guest_poll_period = 20 * kMicrosecond;  // poll before sleeping
  // Cost to deliver a wakeup interrupt to a sleeping NK device.
  Cycles device_wakeup = 700;

  Cycles CePerNqe(int batch) const {
    if (batch >= 64) return ce_per_nqe_batch64;
    if (batch >= 16) return ce_per_nqe_batch16;
    if (batch >= 4) return ce_per_nqe_batch4;
    return ce_per_nqe_batch1;
  }
};

}  // namespace netkernel::tcp

#endif  // SRC_TCPSTACK_COST_MODEL_H_
