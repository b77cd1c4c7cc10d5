// Copyright (c) NetKernel reproduction authors.
// nkobs overhead bench: what does lifecycle tracing cost the datapath?
//
// Runs the fig11 sharded switching workload (the most NQE-rate-sensitive
// experiment in the suite) in four configurations:
//
//   baseline      no tracer attached at all
//   attached_off  tracer attached but sample_every = 0 (compiled in, off)
//   sampled_64    1-in-64 NQE lifecycle sampling
//   sampled_1     every NQE traced (reported, not gated: the worst case)
//
// The claims it gates (exit 1 on either violation):
//   1. attached_off == baseline EXACTLY. Disabled tracing is one predictable
//      branch per hook and zero modeled cycles, so in a deterministic DES the
//      switched-NQE rate must be bit-identical, not merely close.
//   2. sampled_64 loses < 5% of baseline switched NQEs/s. Each traced NQE
//      charges Tracer::kStampCycles per stamp into the switch rounds, so
//      this is a real (simulated) perturbation bound, not a tautology.
//
// Flags:
//   --json <path>   write machine-readable results

#include <cstdio>

#include "bench/harness.h"
#include "src/obs/trace.h"

using namespace netkernel;
using bench::CeShardResult;
using bench::GlobalJson;
using bench::PrintHeader;
using bench::RunCeShardExperiment;

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  const SimTime window = 10 * kMillisecond;
  const int shards = 2;

  PrintHeader("nkobs: NQE lifecycle tracing overhead on the fig11 switch workload",
              "nkobs acceptance: disabled tracing is free, 1-in-64 costs < 5%");

  struct Config {
    const char* name;
    bool attach;
    uint32_t sample_every;
    CeShardResult r;
  };
  Config configs[] = {
      {"baseline", false, 0, {}},
      {"attached_off", true, 0, {}},
      {"sampled_64", true, 64, {}},
      {"sampled_1", true, 1, {}},
  };
  for (Config& c : configs) {
    c.r = RunCeShardExperiment(shards, window, 8, 2, 4, 8, c.attach, c.sample_every);
  }
  const CeShardResult& base = configs[0].r;
  const CeShardResult& attached_off = configs[1].r;
  const CeShardResult& s64 = configs[2].r;
  const CeShardResult& s1 = configs[3].r;

  std::printf("%-14s %14s %10s %14s\n", "config", "M NQEs/s", "vs base", "traced NQEs");
  for (const Config& c : configs) {
    double ratio = base.nqes_per_sec > 0 ? c.r.nqes_per_sec / base.nqes_per_sec : 0;
    std::printf("%-14s %14.2f %9.4fx %14llu\n", c.name, c.r.nqes_per_sec / 1e6, ratio,
                static_cast<unsigned long long>(c.r.trace_samples_started));
    GlobalJson().Add("obs_overhead", c.name, "nqes_per_sec", c.r.nqes_per_sec);
  }

  int rc = 0;
  // Gate 1: compiled-in-but-disabled tracing must be exactly free (the DES is
  // deterministic, so any divergence is a real hot-path perturbation).
  if (attached_off.nqes_per_sec != base.nqes_per_sec) {
    std::printf("FAIL: attached-but-disabled tracer perturbed the switch "
                "(%.1f vs %.1f NQEs/s)\n",
                attached_off.nqes_per_sec, base.nqes_per_sec);
    rc = 1;
  }
  // Gate 2: 1-in-64 sampling loses < 5% switched NQEs/s.
  const double kMaxSampledLoss = 0.05;
  double loss = base.nqes_per_sec > 0 ? 1.0 - s64.nqes_per_sec / base.nqes_per_sec : 1.0;
  if (loss >= kMaxSampledLoss) {
    std::printf("FAIL: 1-in-64 sampling lost %.2f%% (>= %.0f%%) of switch rate\n",
                loss * 100, kMaxSampledLoss * 100);
    rc = 1;
  }
  // Sanity: sampling actually sampled (the gates must not pass vacuously).
  if (s64.trace_samples_started == 0 || s1.trace_samples_started == 0) {
    std::printf("FAIL: tracer attached but no samples were taken\n");
    rc = 1;
  }
  if (rc == 0) {
    std::printf("\ndisabled tracing: exactly free; 1-in-64 sampling: %.3f%% loss -- PASS\n",
                loss * 100);
  }

  if (!GlobalJson().Write()) rc = rc == 0 ? 2 : rc;
  return rc;
}
