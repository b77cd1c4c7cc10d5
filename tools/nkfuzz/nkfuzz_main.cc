// Copyright (c) NetKernel reproduction authors.
// Standalone nkfuzz driver: sweeps seeded protocol-fuzz iterations (the
// nkchaos mutation plan against a kernel NSM's VM) and exits non-zero on the
// first seed that breaks an invariant, printing the harness report: the
// broken invariants, the replay line and the datapath flight-recorder tail.
//
// Usage: nkfuzz [--iters N] [--seed S]
//   --iters N   number of seeded iterations (default 200; seeds are
//               kFuzzBaseSeed + i)
//   --seed S    run exactly one iteration with seed S (replay mode)
// NK_FUZZ_ITERS / NK_FUZZ_SEED environment variables are honored when the
// flags are absent, mirroring the gtest harness.
//
// A passing sweep prints its summary on stdout, which is identical from run
// to run, and the simulator's own wall time per seed on stderr.

#include <cstdio>
#include <string>

#include "tools/nkchaos/chaos.h"

int main(int argc, char** argv) {
  netkernel::chaos::Sweep sweep({"nkfuzz", "NK_FUZZ", netkernel::chaos::kFuzzBaseSeed, 200},
                                argc, argv);
  if (sweep.usage_error()) {
    std::fprintf(stderr, "usage: nkfuzz [--iters N] [--seed S]\n");
    return 2;
  }

  const uint64_t failed = sweep.Run(
      [](uint64_t seed) {
        return netkernel::chaos::RunFuzzIteration(seed, netkernel::core::NsmKind::kKernel);
      },
      [](const std::string& report) {
        std::fputs(report.c_str(), stderr);
        return false;  // stop at the first failing seed
      });
  if (failed > 0) return 1;
  const netkernel::chaos::Totals& t = sweep.totals();
  sweep.PrintSummary("nkfuzz: OK — %llu iterations, %llu attacks landed (%llu violations "
                     "rejected, %llu flag scrubs), %llu quarantine trips, %llu ring-chaos runs",
                     sweep.iters(), t.injected, t.injected_invalid, t.injected_scrub,
                     t.quarantine_runs, t.ring_chaos_runs);
  return 0;
}
