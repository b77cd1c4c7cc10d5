// Copyright (c) NetKernel reproduction authors.
// Table 6 (§7.8): NetKernel's CPU overhead vs throughput.
//
// At matched offered throughput (paced 8-stream senders, 8 KB messages), we
// compare total cycles burned by the Baseline VM against the NetKernel
// VM + NSM together. Paper anchors: 1.14x at 20G growing to 1.70x at 100G —
// the extra hugepage copy dominates at high rates. The third column runs the
// same workload over the zero-copy loaning datapath (AcquireTxBuf/SendBuf):
// the app fills hugepage chunks in place and the NSM stack transmits from
// them directly, so both copies the paper planned to optimize away (§7.8)
// are actually gone — not ablated via a cost knob. Each mode's achieved
// goodput is printed beside its cycles/byte and written as an ungated
// `achieved_gbps` metric: a mode that falls short of the target is not
// compared at matched throughput.
//
// Exits 1 unless, at every point it runs, the zero-copy path's cycles/byte
// is below 0.9x the copy path's in both directions.
//
// Flags:
//   --json <path>   write machine-readable results
//   --smoke         the 40G point only (CI's zero-copy gate)

#include <string>
#include <utility>

#include "bench/harness.h"

using namespace netkernel;

namespace {

enum class Mode { kBaseline, kNetkernel, kNetkernelZc };

struct Point {
  double cycles_per_byte;  // cycles of the measured side per delivered byte
  double achieved_gbps;    // delivered goodput, which may fall short of target
};

// Measures one mode at one paced target. With `measure_rx` the measured VM is
// the *receiver* (the peer sends paced streams at it); zc mode then drains
// through RecvBuf/ReleaseBuf loans while the NSM ships detached pool chunks
// (the RX zero-copy datapath).
Point MeasureCycles(Mode mode, double target_gbps, bool measure_rx = false) {
  core::Host::Options opts;
  // The RX copy baseline is the pre-zc receive path: inbound bytes stage in
  // the stack's own rcvbuf and ShipRecv pays the rcvbuf->hugepage copy.
  if (measure_rx && mode == Mode::kNetkernel) opts.servicelib.rx_zerocopy = false;
  bench::Testbed tb(opts);
  core::Vm* vm;
  if (mode == Mode::kBaseline) {
    vm = tb.MakeBaselineVm(4);
  } else {
    vm = tb.MakeNkVm(4, 4, core::NsmKind::kKernel);
  }
  core::Vm* peer = tb.MakePeer();
  apps::StreamStats sink, tx;
  core::Vm* sender = measure_rx ? peer : vm;
  core::Vm* receiver = measure_rx ? vm : peer;
  const bool zc = mode == Mode::kNetkernelZc;
  apps::StartStreamSink(receiver, 9000, &sink, 0, 0, measure_rx && zc);
  apps::StreamConfig cfg;
  cfg.dst_ip = receiver->ip();
  cfg.port = 9000;
  cfg.connections = 8;
  cfg.message_size = 8192;
  cfg.paced_gbps = target_gbps;
  cfg.zerocopy = !measure_rx && zc;
  apps::StartStreamSenders(sender, cfg, &tx);

  tb.Run(30 * kMillisecond);
  vm->ResetCycleAccounting();
  if (mode != Mode::kBaseline) tb.nsm()->ResetCycleAccounting();
  uint64_t b0 = sink.bytes_received;
  SimTime t0 = tb.loop().Now();
  tb.Run(60 * kMillisecond);
  SimTime span = tb.loop().Now() - t0;
  uint64_t bytes = sink.bytes_received - b0;
  Cycles total = vm->TotalBusyCycles();
  if (mode != Mode::kBaseline) total += tb.nsm()->TotalBusyCycles();
  return {static_cast<double>(total) / static_cast<double>(bytes), RateOf(bytes, span) / kGbps};
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  // --smoke runs the 40G point of both tables: the rows CI's zero-copy gate
  // reads, value for value the same as the full run's.
  const std::vector<double> targets = bench::HasFlag(argc, argv, "--smoke")
                                          ? std::vector<double>{40.0}
                                          : std::vector<double>{20.0, 40.0, 60.0, 80.0, 94.0};
  // The zero-copy datapath must save >= 10% cycles/byte over the copy path
  // at every point, in both directions (TX buffer loans; RX detached pool
  // chunks). Deterministic DES: cannot flake.
  const double kMaxZcRatio = 0.9;
  int rc = 0;

  bench::PrintHeader("Table 6: normalized CPU usage vs throughput (8KB, 8 streams)",
                     "paper Table 6 (1.14x @20G ... 1.70x @100G); zc = NkBuf loaning path");
  struct Direction {
    bool rx;
    const char* title;
    const char* suffix;  // JSON mode suffix: base_rx, nk_rx, nk_rx_zc
  };
  for (const Direction& d :
       {Direction{false, "TX (measured VM sends)", ""},
        Direction{true,
                  "\nRX (measured VM receives; NK copy = staging rcvbuf ship, zc = detached"
                  " pool chunks + RecvBuf loans)",
                  "_rx"}}) {
    std::printf("%s\n", d.title);
    std::printf("%12s %12s %9s %12s %9s %9s %12s %9s %9s\n", "target Gbps", "Base cyc/B",
                "Base Gbps", "NK cyc/B", "NK Gbps", "NK/Base", "NKzc cyc/B", "NKzc Gbps",
                "NKzc/Base");
    for (double g : targets) {
      const Point base_p = MeasureCycles(Mode::kBaseline, g, d.rx);
      const Point nk_p = MeasureCycles(Mode::kNetkernel, g, d.rx);
      const Point zc_p = MeasureCycles(Mode::kNetkernelZc, g, d.rx);
      const double base = base_p.cycles_per_byte;
      const double nk = nk_p.cycles_per_byte;
      const double zc = zc_p.cycles_per_byte;
      std::printf("%12.0f %12.3f %9.1f %12.3f %9.1f %8.2fx %12.3f %9.1f %8.2fx\n", g, base,
                  base_p.achieved_gbps, nk, nk_p.achieved_gbps, nk / base, zc,
                  zc_p.achieved_gbps, zc / base);
      // Each mode's achieved goodput rides along ungated: where a mode falls
      // short of the target, its cycles/byte is not at matched throughput.
      const std::string cfg = "target=" + std::to_string(static_cast<int>(g)) + "g mode=";
      const std::pair<std::string, Point> rows[] = {{cfg + "base" + d.suffix, base_p},
                                                    {cfg + "nk" + d.suffix, nk_p},
                                                    {cfg + "nk" + d.suffix + "_zc", zc_p}};
      for (const auto& [config, p] : rows) {
        bench::GlobalJson().Add("table6_cpu", config, "cycles_per_byte", p.cycles_per_byte);
        bench::GlobalJson().Add("table6_cpu", config, "achieved_gbps", p.achieved_gbps);
      }
      if (zc >= nk * kMaxZcRatio) {
        std::printf("FAIL: %s zerocopy %.3f cyc/B at %.0fG not < %.2fx of copy path %.3f\n",
                    d.rx ? "RX" : "TX", zc, g, kMaxZcRatio, nk);
        rc = 1;
      }
    }
  }
  std::printf(
      "\nNote: the copy-path overhead is dominated by the hugepage<->stack\n"
      "copy (§7.8); the zc columns show it eliminated in both directions by\n"
      "the NkBuf loaning datapath (TX credits return on ACK via\n"
      "kSendZcComplete; RX segments land in pool chunks ShipRecv detaches).\n");
  if (rc == 0) std::printf("PASS (TX and RX zerocopy < %.2fx of copy path)\n", kMaxZcRatio);
  if (!bench::GlobalJson().Write()) rc = rc == 0 ? 2 : rc;
  return rc;
}
