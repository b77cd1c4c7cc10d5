// Copyright (c) NetKernel reproduction authors.
// Figure 11: CoreEngine NQE switching throughput.
//
// Part A is a *real* microbenchmark (actual CPU): one switch operation is
// what CoreEngine does per NQE — dequeue from the GuestLib-side ring, a
// connection-table lookup, and enqueue into the ServiceLib-side ring (two
// 32-byte copies through lockless SPSC rings, §7.2). The paper reports
// 8.0 M NQEs/s unbatched rising to 198.5 M NQEs/s at batch 256 on a 2.3 GHz
// Xeon; absolute numbers here depend on the machine, the *shape* (large
// monotone gains from batching) is the reproduced result.
//
// Part B is the multi-core extension past Fig 11's single-core wall: the
// sharded CoreEngine (DES, deterministic) switching a saturating datagram
// load at shards = {1, 2, 4}. Aggregate switched NQEs/s must scale
// near-linearly; work stealing covers hash-placement imbalance.
//
// Flags:
//   --json <path>   write machine-readable results
//   --smoke         CI gate: run shards {1,4} only, exit 1 if the 4-shard
//                   aggregate is below 2x the 1-shard run

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "bench/harness.h"
#include "src/shm/nqe.h"
#include "src/shm/spsc_ring.h"

using namespace netkernel;
using bench::CeShardResult;
using bench::GlobalJson;
using bench::PrintHeader;
using bench::RunCeShardExperiment;
using shm::MakeNqe;
using shm::Nqe;
using shm::NqeOp;
using shm::SpscRing;

namespace {

volatile uint64_t g_sink;  // defeats dead-code elimination in Part A

// One timed run of the raw switch loop at a given batch size; returns NQEs/s.
double MeasureRawSwitch(size_t batch) {
  SpscRing<Nqe> vm_ring(4096);
  SpscRing<Nqe> nsm_ring(4096);
  // Minimal connection table, as CoreEngine consults per NQE.
  std::unordered_map<uint64_t, uint64_t> conn_table;
  for (uint64_t i = 0; i < 64; ++i) conn_table[i] = i;

  std::vector<Nqe> buf(batch);
  return bench::MessagesPerSecond([&, sock = uint64_t{0}]() mutable {
    // Producer side: the guest enqueues a batch of send NQEs.
    for (size_t i = 0; i < batch; ++i) {
      buf[i] = MakeNqe(NqeOp::kSend, 1, 0, static_cast<uint32_t>(sock++ % 64), 0, 4096, 64);
    }
    vm_ring.EnqueueBatch(buf.data(), batch);
    // CoreEngine: drain the batch, look each NQE up, forward it.
    size_t n = vm_ring.DequeueBatch(buf.data(), batch);
    for (size_t i = 0; i < n; ++i) {
      g_sink = conn_table.find(buf[i].vm_sock)->second;
    }
    nsm_ring.EnqueueBatch(buf.data(), n);
    // ServiceLib side drains (keeps the ring from filling).
    nsm_ring.DequeueBatch(buf.data(), batch);
    return n;
  });
}

void PrintShardRow(int shards, const CeShardResult& r, double base) {
  std::printf("%6d %14.1f %9.2fx %11llu  ", shards, r.nqes_per_sec / 1e6,
              base > 0 ? r.nqes_per_sec / base : 1.0,
              static_cast<unsigned long long>(r.migrations));
  for (uint64_t s : r.per_shard_switched) {
    std::printf("%7.1fM", static_cast<double>(s) / 1e6);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  const bool smoke = bench::HasFlag(argc, argv, "--smoke");

  int rc = 0;
  if (!smoke) {
    PrintHeader("Fig 11a: raw NQE switch rate vs polling batch (real CPU)",
                "paper Fig 11 (8 M/s unbatched -> ~200 M/s at batch 256)");
    std::printf("%6s %14s\n", "batch", "M NQEs/s");
    for (size_t batch : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
      double rate = MeasureRawSwitch(batch);
      std::printf("%6zu %14.1f\n", batch, rate / 1e6);
      GlobalJson().Add("fig11_raw_switch", "batch=" + std::to_string(batch), "nqes_per_sec",
                       rate);
    }
  }

  PrintHeader("Fig 11b: sharded CoreEngine aggregate switch rate (DES)",
              "ROADMAP: multi-core CE sharding past the one-core wall");
  std::printf("%6s %14s %10s %11s  %s\n", "shards", "M NQEs/s", "speedup", "migrations",
              "per-shard switched");
  const SimTime window = smoke ? 5 * kMillisecond : 10 * kMillisecond;
  double base = 0;
  double at4 = 0;
  double worst_guard_overhead = 0;
  for (int shards : {1, 2, 4}) {
    if (smoke && shards == 2) continue;
    CeShardResult r = RunCeShardExperiment(shards, window);
    if (shards == 1) base = r.nqes_per_sec;
    if (shards == 4) at4 = r.nqes_per_sec;
    PrintShardRow(shards, r, base);
    GlobalJson().Add("fig11_sharded_switch", "shards=" + std::to_string(shards),
                     "nqes_per_sec", r.nqes_per_sec);
    GlobalJson().Add("fig11_sharded_switch", "shards=" + std::to_string(shards), "migrations",
                     static_cast<double>(r.migrations));
    // Guard-on column: the identical workload with nkguard validating every
    // consumed NQE (op/identity checks; this raw-device harness registers no
    // pools, matching the table-lookup-only switch being measured).
    CeShardResult rg = RunCeShardExperiment(shards, window, 8, 2, 4, 8, false, 0,
                                            /*guard=*/true);
    const double overhead =
        r.nqes_per_sec > 0 ? 1.0 - rg.nqes_per_sec / r.nqes_per_sec : 0;
    worst_guard_overhead = std::max(worst_guard_overhead, overhead);
    std::printf("%6s %14.1f   guard-on (%+.2f%% vs guard-off)\n", "",
                rg.nqes_per_sec / 1e6, -overhead * 100);
    GlobalJson().Add("fig11_guard_switch", "shards=" + std::to_string(shards),
                     "nqes_per_sec", rg.nqes_per_sec);
  }
  double speedup = base > 0 ? at4 / base : 0;
  std::printf("\n4-shard speedup over 1 shard: %.2fx\n", speedup);
  std::printf("worst guard-on overhead: %.2f%%\n", worst_guard_overhead * 100);
  if (smoke) {
    const double kMinSpeedup = 2.0;
    if (speedup < kMinSpeedup) {
      std::printf("SMOKE FAIL: %.2fx < %.2fx\n", speedup, kMinSpeedup);
      rc = 1;
    }
    const double kMaxGuardOverhead = 0.03;  // the nkguard acceptance bound
    if (worst_guard_overhead > kMaxGuardOverhead) {
      std::printf("SMOKE FAIL: guard overhead %.2f%% > %.2f%%\n",
                  worst_guard_overhead * 100, kMaxGuardOverhead * 100);
      rc = 1;
    }
    if (rc == 0) {
      std::printf("SMOKE PASS (>= %.2fx speedup, guard overhead <= %.2f%%)\n", kMinSpeedup,
                  kMaxGuardOverhead * 100);
    }
  }

  if (!GlobalJson().Write()) rc = rc == 0 ? 2 : rc;
  return rc;
}
