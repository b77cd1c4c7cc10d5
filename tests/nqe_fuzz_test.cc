// Copyright (c) NetKernel reproduction authors.
// Seeded protocol-fuzz suite for the nkguard NQE boundary (tools/nkfuzz).
//
// Each iteration attacks a live two-host topology's guest-writable rings
// mid-workload — wrong-direction ops, non-enumerator bytes, unowned chunk
// offsets, forged identities, credit replays, garbage flag bytes, and
// in-place size corruption of in-flight sends — then asserts the PR-5
// conservation invariants and exact guard accounting per seed (see
// tools/nkfuzz/nkfuzz.h for the full invariant list).
//
// Determinism: pure DES + seeded Rng. A failing seed is printed next to its
// flight-recorder tail; replay with NK_FUZZ_SEED=<n>, widen the sweep with
// NK_FUZZ_ITERS=<n> (CI's slow job runs the 2000-seed sweep; the tier-1
// smoke slice runs 200).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "tools/nkfuzz/nkfuzz.h"

namespace netkernel {
namespace {

using nkfuzz::CheckInvariants;
using nkfuzz::FuzzResult;
using nkfuzz::kBaseSeed;
using nkfuzz::RunFuzzIteration;

TEST(NqeFuzz, GuardHoldsInvariantsAcrossSeededMutations) {
  uint64_t iters = 200;
  uint64_t only_seed = 0;
  bool single = false;
  if (const char* s = std::getenv("NK_FUZZ_ITERS")) iters = std::strtoull(s, nullptr, 0);
  if (const char* s = std::getenv("NK_FUZZ_SEED")) {
    only_seed = std::strtoull(s, nullptr, 0);
    single = true;
    iters = 1;
  }
  uint64_t attacks = 0, violations = 0, scrubs = 0, rejected = 0;
  uint64_t quarantine_trips = 0, chaos_runs = 0, inplace_capable = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = single ? only_seed : kBaseSeed + i;
    SCOPED_TRACE(::testing::Message() << "replay with NK_FUZZ_SEED=" << seed);
    FuzzResult r = RunFuzzIteration(seed);
    attacks += r.injected;
    violations += r.injected_invalid;
    scrubs += r.injected_scrub;
    rejected += r.guard_rejects;
    quarantine_trips += r.vm_quarantined ? 1 : 0;
    chaos_runs += r.ring_chaos ? 1 : 0;
    inplace_capable += r.guard_validated > 0 ? 1 : 0;
    for (const auto& msg : CheckInvariants(r)) {
      ADD_FAILURE() << msg << ", seed " << seed
                    << "; datapath flight-recorder tail:\n" << r.flight_tail;
    }
  }

  // The sweep must actually exercise the machinery it guards: attacks landed
  // and were rejected, legitimate traffic kept validating, quarantines
  // tripped and un-wound, and ring backpressure ran. (Single-seed replays
  // skip the aggregate gates.)
  if (!single && iters >= 50) {
    EXPECT_GT(attacks, 0u);
    EXPECT_GT(violations, 0u);
    EXPECT_GT(scrubs, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(quarantine_trips, 0u) << "no seed tripped a quarantine";
    EXPECT_GT(chaos_runs, 0u);
    EXPECT_EQ(inplace_capable, iters) << "some iteration validated nothing at all";
  }
  const std::chrono::duration<double, std::milli> wall = std::chrono::steady_clock::now() - start;
  std::printf("nqe_fuzz: %llu iterations, %llu attacks (%llu violations, %llu scrubs), "
              "%llu guard rejects, %llu quarantine trips, %llu ring-chaos runs; "
              "%.1f ms/seed wall\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(attacks),
              static_cast<unsigned long long>(violations),
              static_cast<unsigned long long>(scrubs),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(quarantine_trips),
              static_cast<unsigned long long>(chaos_runs),
              wall.count() / static_cast<double>(std::max<uint64_t>(iters, 1)));
}

}  // namespace
}  // namespace netkernel
