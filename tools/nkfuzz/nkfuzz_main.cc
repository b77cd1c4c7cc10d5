// Copyright (c) NetKernel reproduction authors.
// Standalone nkfuzz driver: sweeps seeded protocol-fuzz iterations against
// the nkguard boundary and exits non-zero on the first invariant violation,
// printing the failing seed (replay: nkfuzz --seed <n>) and the datapath
// flight-recorder tail.
//
// Usage: nkfuzz [--iters N] [--seed S]
//   --iters N   number of seeded iterations (default 200; seeds are
//               kBaseSeed + i)
//   --seed S    run exactly one iteration with seed S (replay mode)
// NK_FUZZ_ITERS / NK_FUZZ_SEED environment variables are honored when the
// flags are absent, mirroring the gtest harness.
//
// A passing sweep prints its summary on stdout, which is identical from run
// to run, and the simulator's own wall time per seed on stderr.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tools/nkfuzz/nkfuzz.h"

int main(int argc, char** argv) {
  using netkernel::nkfuzz::CheckInvariants;
  using netkernel::nkfuzz::FuzzResult;
  using netkernel::nkfuzz::kBaseSeed;
  using netkernel::nkfuzz::RunFuzzIteration;

  uint64_t iters = 200;
  uint64_t only_seed = 0;
  bool single = false;
  if (const char* s = std::getenv("NK_FUZZ_ITERS")) iters = std::strtoull(s, nullptr, 0);
  if (const char* s = std::getenv("NK_FUZZ_SEED")) {
    only_seed = std::strtoull(s, nullptr, 0);
    single = true;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      only_seed = std::strtoull(argv[++i], nullptr, 0);
      single = true;
    } else {
      std::fprintf(stderr, "usage: nkfuzz [--iters N] [--seed S]\n");
      return 2;
    }
  }
  if (single) iters = 1;

  uint64_t attacks = 0, violations = 0, scrubs = 0, quarantines = 0, chaos_runs = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = single ? only_seed : kBaseSeed + i;
    FuzzResult r = RunFuzzIteration(seed);
    attacks += r.injected;
    violations += r.injected_invalid;
    scrubs += r.injected_scrub;
    quarantines += r.vm_quarantined ? 1 : 0;
    chaos_runs += r.ring_chaos ? 1 : 0;
    const auto bad = CheckInvariants(r);
    if (!bad.empty()) {
      std::fprintf(stderr, "nkfuzz: seed %llu FAILED (replay: nkfuzz --seed %llu)\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      for (const std::string& msg : bad) std::fprintf(stderr, "  %s\n", msg.c_str());
      std::fprintf(stderr, "datapath flight-recorder tail:\n%s\n", r.flight_tail.c_str());
      return 1;
    }
  }
  std::printf("nkfuzz: OK — %llu iterations, %llu attacks landed (%llu violations "
              "rejected, %llu flag scrubs), %llu quarantine trips, %llu ring-chaos runs\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(attacks),
              static_cast<unsigned long long>(violations),
              static_cast<unsigned long long>(scrubs),
              static_cast<unsigned long long>(quarantines),
              static_cast<unsigned long long>(chaos_runs));
  const std::chrono::duration<double, std::milli> wall = std::chrono::steady_clock::now() - start;
  std::fprintf(stderr, "nkfuzz: %.1f ms/seed wall\n",
               wall.count() / static_cast<double>(std::max<uint64_t>(iters, 1)));
  return 0;
}
