#!/usr/bin/env python3
"""Diff BENCH_*.json results against a previous run's artifact.

Each BENCH_*.json is a flat array of rows:
    {"bench": ..., "config": ..., "metric": ..., "value": ...}
(see bench/harness.h JsonReporter). This script joins current rows against
the previous run's rows on (bench, config, metric), prints a table of
changes, and exits nonzero when a *gated* metric regresses by more than the
allowed fraction. Higher-is-better vs lower-is-better is per metric name; the
`change` column prints the signed relative change followed by `better` or
`worse`, so a doubled goodput reads `+100.0% better`.

Usage:
    tools/bench_diff.py --prev <dir-with-previous-BENCH_*.json> \
                        --curr <dir-with-current-BENCH_*.json> \
                        [--threshold 0.10]
    tools/bench_diff.py --list-gates [--threshold 0.10]

Missing previous data (first run, new metric) is reported but never fails.

--list-gates prints the gated-metric set, one `bench metric direction
threshold` row per gate, so the set is itself lintable: diff it against the
host metrics artifact (host-metrics.json) or a BENCH_*.json dump to catch a
gate whose metric was renamed out from under it.
"""

import argparse
import glob
import json
import os
import sys

# Metrics where a LOWER value is better; everything else is higher-is-better.
LOWER_IS_BETTER = {
    "cycles_per_byte",
    "cycles_per_req",
    "p99_us",
    "p50_us",
    "latency_us",
    "loss_rate",
    "blackout_p99_us",
    "ns_per_msg",
}

# (bench, metric) -> max allowed relative regression. These gate CI; keep the
# set aligned with the benches' exit gates: these are the claims the repo's
# perf story rests on. A value of None defers to --threshold (the CLI
# default); an explicit number overrides it per metric — the simulation is
# deterministic, so the slack only needs to absorb intentional cost-model
# drift, and the paper-figure goodput gates can be tighter than the generic
# default.
GATED = {
    ("fig11_raw_switch", "nqes_per_sec"): None,
    ("fig11_sharded_switch", "nqes_per_sec"): None,
    # nkguard: switching with validation on must stay within 3% of guard-off.
    # Tighter than the generic default on purpose — this is the subsystem's
    # headline cost claim (see bench_fig11_nqe_switch's exit gate).
    ("fig11_guard_switch", "nqes_per_sec"): 0.03,
    ("table6_cpu", "cycles_per_byte"): None,
    ("ce_shard_scaling", "nqes_per_sec"): None,
    ("fig10_shm", "gbps"): 0.05,
    ("fig17_short_conns", "krps"): 0.05,
    ("table5_latency", "p50_us"): 0.15,
    # Paper figures 13-16: single-/multi-stream send and recv goodput.
    ("fig13_send", "gbps"): 0.05,
    ("fig14_recv", "gbps"): 0.05,
    ("fig15_send", "gbps"): 0.05,
    ("fig16_recv", "gbps"): 0.05,
    # UDP key-value RPS (fig 12 workload shape): rate tight, tail looser.
    ("udp_kv_rps", "achieved_krps"): 0.05,
    ("udp_kv_rps", "p99_us"): 0.15,
    # nkobs: switch rate with the tracer attached must not drift either.
    ("obs_overhead", "nqes_per_sec"): None,
    # NSM failover: datagram survival is the robustness headline (near-1.0,
    # so the tolerance is tight); blackout is a detection-latency tail and
    # absorbs more cost-model drift.
    ("nsm_failover", "survival_rate"): 0.01,
    ("nsm_failover", "blackout_p99_us"): 0.25,
}


def load_rows(directory):
    rows = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"warning: cannot read {path}: {e}", file=sys.stderr)
            continue
        for row in data:
            key = (row.get("bench", ""), row.get("config", ""), row.get("metric", ""))
            rows[key] = float(row.get("value", 0.0))
    return rows


def gate_threshold(bench, metric, default):
    """None if (bench, metric) is ungated, else its allowed regression."""
    if (bench, metric) not in GATED:
        return None
    override = GATED[(bench, metric)]
    return default if override is None else override


def change_label(change, delta):
    """Signed relative change (curr vs prev), then which way that is."""
    verdict = "worse" if delta > 0 else "better" if delta < 0 else "same"
    return f"{change * 100:+.1f}% {verdict}"


def list_gates(default_threshold):
    """Machine-readable dump of the gated set: bench metric direction threshold."""
    print(f"{'bench':<22} {'metric':<18} {'direction':<10} {'threshold':>9}")
    for (bench, metric), override in sorted(GATED.items()):
        direction = "lower" if metric in LOWER_IS_BETTER else "higher"
        thr = default_threshold if override is None else override
        print(f"{bench:<22} {metric:<18} {direction:<10} {thr:>9.2f}")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--prev", help="directory with previous BENCH_*.json")
    ap.add_argument("--curr", help="directory with current BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed relative regression on gated metrics")
    ap.add_argument("--list-gates", action="store_true",
                    help="print the gated-metric set (bench metric direction "
                         "threshold) and exit")
    args = ap.parse_args()

    if args.list_gates:
        return list_gates(args.threshold)
    if args.prev is None or args.curr is None:
        ap.error("--prev and --curr are required unless --list-gates is given")

    prev = load_rows(args.prev)
    curr = load_rows(args.curr)
    if not curr:
        print("no current BENCH_*.json rows found — nothing to diff")
        return 1
    if not prev:
        print("no previous BENCH_*.json artifact — first run, recording baseline only")
        return 0

    regressions = []
    header = (f"{'bench':<22} {'config':<30} {'metric':<18} {'prev':>12} {'curr':>12} "
              f"{'change':>15}")
    print(header)
    print("-" * len(header))
    for key in sorted(curr):
        bench, config, metric = key
        cv = curr[key]
        if key not in prev:
            print(f"{bench:<22} {config:<30} {metric:<18} {'(new)':>12} {cv:>12.4g} {'':>15}")
            continue
        pv = prev[key]
        change = 0.0 if pv == 0 else (cv - pv) / abs(pv)
        delta = change if metric in LOWER_IS_BETTER else -change  # positive = worse
        thr = gate_threshold(bench, metric, args.threshold)
        flag = ""
        if thr is not None and delta > thr:
            flag = " <-- REGRESSION"
            regressions.append((key, pv, cv, change, thr))
        elif thr is None and delta > args.threshold:
            flag = " (ungated)"
        print(f"{bench:<22} {config:<30} {metric:<18} {pv:>12.4g} {cv:>12.4g} "
              f"{change_label(change, delta):>15}{flag}")

    # A gated metric that existed in the previous run but vanished from the
    # current one is itself a gate failure: losing the measurement is how a
    # perf claim silently disappears.
    missing = [k for k in sorted(prev)
               if k not in curr and gate_threshold(k[0], k[2], args.threshold) is not None]
    for bench, config, metric in missing:
        print(f"{bench:<22} {config:<30} {metric:<18} {prev[(bench, config, metric)]:>12.4g} "
              f"{'(gone)':>12} {'':>15} <-- MISSING GATED METRIC")
        regressions.append(((bench, config, metric), prev[(bench, config, metric)],
                            float("nan"), float("inf"), 0.0))

    if regressions:
        print(f"\nFAIL: {len(regressions)} gated metric(s) regressed past their threshold:")
        for (bench, config, metric), pv, cv, change, thr in regressions:
            print(f"  {bench} [{config}] {metric}: {pv:.4g} -> {cv:.4g} "
                  f"({change * 100:+.1f}% worse, allowed {thr * 100:.0f}%)")
        return 1
    print("\nOK: no gated metric regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
