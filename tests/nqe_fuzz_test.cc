// Copyright (c) NetKernel reproduction authors.
// Seeded protocol-fuzz sweeps for the nkguard NQE boundary, run through the
// nkchaos harness (tools/nkchaos/chaos.h).
//
// Each iteration attacks the first VM's guest-writable rings mid-workload —
// wrong-direction ops, non-enumerator bytes, unowned chunk offsets, forged
// identities, credit replays, garbage flag bytes, and in-place size
// corruption of in-flight sends — then the harness checker asserts chunk
// conservation, credit pairing and exact guard accounting per seed. One
// sweep attacks a kernel NSM's VM (the nkfuzz iteration); the other attacks
// vmA of the shared-memory topology under its colocated traffic.
//
// Replay a failing seed with NK_FUZZ_SEED=<n>, widen a sweep with
// NK_FUZZ_ITERS=<n> (the slow *_full registrations run 2000 seeds; the
// tier-1 slices run 200).

#include <gtest/gtest.h>

#include "tools/nkchaos/chaos.h"

namespace netkernel {
namespace {

using core::NsmKind;

void SweepMutationPlan(const char* name, NsmKind kind) {
  chaos::Sweep sweep({name, "NK_FUZZ", chaos::kFuzzBaseSeed, 200});
  sweep.Run([kind](uint64_t seed) { return chaos::RunFuzzIteration(seed, kind); },
            [](const std::string& report) {
              ADD_FAILURE() << report;
              return true;  // keep sweeping
            });
  const chaos::Totals& t = sweep.totals();
  // The sweep must actually exercise the machinery it guards: attacks landed
  // and were rejected, legitimate traffic kept validating, quarantines
  // tripped and un-wound, and ring backpressure ran. (Single-seed replays
  // skip the aggregate gates.)
  if (!sweep.single() && sweep.iters() >= 50) {
    EXPECT_GT(t.injected, 0u);
    EXPECT_GT(t.injected_invalid, 0u);
    EXPECT_GT(t.injected_scrub, 0u);
    EXPECT_GT(t.guard_rejects, 0u);
    EXPECT_GT(t.quarantine_runs, 0u) << "no seed tripped a quarantine";
    EXPECT_GT(t.ring_chaos_runs, 0u);
    EXPECT_EQ(t.validating_runs, sweep.iters()) << "some iteration validated nothing at all";
  }
  sweep.PrintSummary("%s: %llu iterations, %llu attacks (%llu violations, %llu scrubs), "
                     "%llu guard rejects, %llu quarantine trips, %llu ring-chaos runs",
                     name, sweep.iters(), t.injected, t.injected_invalid, t.injected_scrub,
                     t.guard_rejects, t.quarantine_runs, t.ring_chaos_runs);
}

TEST(NqeFuzz, GuardHoldsInvariantsAcrossSeededMutations) {
  SweepMutationPlan("nqe_fuzz", NsmKind::kKernel);
}

TEST(NqeFuzz, ShmNsmGuardHoldsInvariantsAcrossSeededMutations) {
  SweepMutationPlan("nqe_fuzz(shm)", NsmKind::kShm);
}

}  // namespace
}  // namespace netkernel
