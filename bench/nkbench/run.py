#!/usr/bin/env python3
"""nkbench runner: builds bench/nkbench and measures NetKernel end to end and
per layer. README.md in this directory defines every metric.

Full run (every workload, reps interleaved round-robin, one table):
    python3 bench/nkbench/run.py [--workloads a,b] [--seed 1] [--reps 9]
                                 [--trace] [--json results.json]

One workload for a fixed wall-clock budget, result as one JSON line:
    python3 bench/nkbench/run.py --workload W --seed N --seconds T --trace 0|1

Each rep is a fresh single-threaded nkbench process; one runs at a time.
Modeled metrics (virtual time, charged cycles, per-layer counters) must be
bit-identical across reps of one seed. Per-op wall-clock metrics report the
fastest rep (noise on a shared machine only ever slows a rep), setup_s the
median over reps and peak RSS the maximum. Any failed check, modeled
mismatch or missing metric makes the runner exit nonzero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
BUILD_DIR = os.path.join(ROOT, 'build', 'nkbench')
BINARY = os.path.join(BUILD_DIR, 'nkbench')
TRACE_FILE = os.path.join(BUILD_DIR, 'nkbench-trace.json')

WORKLOADS = ['rpc_shortconn', 'udp_kv_mux', 'stream_bidir', 'shm_colocated']
TRACE_SAMPLING = 64      # one in 64 guest NQEs, as Host::SetTraceSampling(64)
REP_TIMEOUT_S = 150
MIN_REPS = 3
# How each wall-clock metric reduces over a run's reps (others: the minimum).
WALL_REDUCERS = {'setup_s': statistics.median, 'peak_rss_mb': max}


def load_spec():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        spec = json.load(f)
    units = {m['name']: m['unit'] for m in spec['end_to_end'] + spec['per_layer']}
    return spec, units


def build():
    """Configures (once) and builds the Release nkbench binary."""
    if not os.path.exists(os.path.join(BUILD_DIR, 'CMakeCache.txt')):
        subprocess.run(['cmake', '-S', BENCH_DIR, '-B', BUILD_DIR, '-DCMAKE_BUILD_TYPE=Release'],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(['cmake', '--build', BUILD_DIR, '-j', jobs], stdout=sys.stderr, check=True)


def run_rep(workload, seed, trace_sampling):
    """One repetition in a fresh process; returns its JSON object."""
    cmd = [BINARY, '--workload', workload, '--seed', str(seed),
           '--trace-sampling', str(trace_sampling)]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError('%s exited %d: %s' % (' '.join(cmd), out.returncode, out.stderr[-2000:]))
    rep = json.loads(out.stdout.strip().splitlines()[-1])
    rep['started_s'] = start
    return rep


def aggregate(reps, traced, wanted):
    """Reduces one workload's reps to {metric: value} plus failure strings.

    `reps` are untraced reps of one seed; `traced` is the traced rep or None;
    `wanted` are the metric names that must come out.
    """
    failures = []
    for rep in reps + ([traced] if traced else []):
        failures += ['check %s failed: %s' % (c['name'], c['detail'])
                     for c in rep['checks'] if not c['ok']]
    modeled = reps[0]['modeled']
    for i, rep in enumerate(reps[1:], 1):
        differing = sorted(k for k in set(modeled) | set(rep['modeled'])
                           if modeled.get(k) != rep['modeled'].get(k))
        if differing:
            failures.append('modeled metrics differ between rep 0 and rep %d: %s'
                            % (i, ', '.join(differing)))
    values = dict(modeled)
    for name in reps[0]['wall']:
        values[name] = WALL_REDUCERS.get(name, min)([rep['wall'][name] for rep in reps])
    if traced:
        values.update({k: v for k, v in traced['modeled'].items() if k.startswith('trace.')})
        values['trace.overhead_pct'] = 100.0 * (
            traced['modeled']['host_cycles_per_op'] / modeled['host_cycles_per_op'] - 1.0)
    for name in wanted:
        if name not in values:
            failures.append('metric %s missing' % name)
        elif not _finite(values[name]):
            failures.append('metric %s is not a finite number: %r' % (name, values[name]))
    return values, failures


def _finite(v):
    return isinstance(v, (int, float)) and v == v and abs(v) != float('inf')


def write_spans(reps, t0):
    """Chrome trace-event JSON of every rep's wall-clock spans (one pid per rep)."""
    events = []
    for rep_id, rep in enumerate(reps):
        base_us = (rep['started_s'] - t0) * 1e6
        for span in rep['spans']:
            events.append({'name': span['name'], 'ph': 'X', 'pid': rep_id, 'tid': 0,
                           'ts': base_us + span['start_us'],
                           'dur': span['end_us'] - span['start_us'],
                           'args': {'rep': rep_id, 'workload': rep['workload'],
                                    'seed': rep['seed'],
                                    'trace_sampling': rep['trace_sampling']}})
    os.makedirs(os.path.dirname(TRACE_FILE), exist_ok=True)
    with open(TRACE_FILE, 'w') as f:
        json.dump({'traceEvents': events}, f)


def describe(name, values, reps):
    """Sample-count note printed next to a metric."""
    if name in ('p50_us', 'p99_us'):
        return 'n=%d latency samples' % values['latency_samples']
    if name.startswith('trace.') and name.endswith(('_p50_us', '_p99_us')):
        return 'n=%d stage samples' % values[name.rsplit('_', 2)[0] + '_samples']
    if reps and name in reps[0]['wall']:
        samples = [rep['wall'][name] for rep in reps]
        reducer = WALL_REDUCERS.get(name, min).__name__
        if len(samples) < 2:
            return '%s of 1 rep' % reducer
        q = statistics.quantiles(samples, n=4, method='inclusive')
        return '%s of %d reps; min %.4g, q1 %.4g, median %.4g, q3 %.4g, max %.4g' % (
            reducer, len(samples), min(samples), q[0], q[1], q[2], max(samples))
    return ''


def driver_main(args, spec, units, rep_source):
    trace = args.trace
    t0 = time.monotonic()
    traced = rep_source(args.workload, args.seed, TRACE_SAMPLING) if trace else None
    start = time.monotonic()
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
        reps.append(rep_source(args.workload, args.seed, 0))
    wanted = [m['name'] for m in spec['per_layer' if trace else 'end_to_end']]
    values, failures = aggregate(reps, traced, wanted)
    if trace:
        write_spans(([traced] if traced else []) + reps, t0)
    for f in failures:
        print('%s: %s' % (args.workload, f), file=sys.stderr)
    metrics = {name: {'value': values[name] if _finite(values.get(name)) else None,
                      'unit': units[name]} for name in wanted}
    print(json.dumps({'correct': not failures,
                      'attempted': int(reps[0]['modeled'].get('attempted', 0)),
                      'failed': int(reps[0]['modeled'].get('failed', 0)),
                      'metrics': metrics}))
    return 1 if failures else 0


def full_main(args, spec, units, rep_source):
    workloads = args.workloads.split(',')
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print('unknown workload(s): %s' % ', '.join(unknown), file=sys.stderr)
        return 2
    t0 = time.monotonic()
    reps = {w: [] for w in workloads}
    for _ in range(args.reps):  # round-robin, so slow stretches hit every workload
        for w in workloads:
            reps[w].append(rep_source(w, args.seed, 0))
    traced = {w: rep_source(w, args.seed, TRACE_SAMPLING) if args.trace else None
              for w in workloads}
    elapsed = time.monotonic() - t0

    wanted = [m['name'] for m in spec['end_to_end'] + spec['per_layer']
              if args.trace or not m['name'].startswith('trace.')]
    results, failed = {}, False
    for w in workloads:
        values, failures = aggregate(reps[w], traced[w], wanted)
        results[w] = values
        for name in sorted(values):
            unit = units.get(name, '')
            note = describe(name, values, reps[w])
            print('%-14s %-38s %16.6g %-8s %s' % (w, name, values[name], unit, note))
        for f in failures:
            print('%-14s FAIL %s' % (w, f))
        failed = failed or bool(failures)
        print()
    if args.trace:
        write_spans([r for w in workloads for r in reps[w] + [traced[w]]], t0)
        print('spans written to %s' % TRACE_FILE)
    if args.json:
        with open(args.json, 'w') as f:
            json.dump({'seed': args.seed, 'reps': args.reps, 'results': results}, f, indent=1,
                      sort_keys=True)
    print('%s: %d workloads x %d reps%s in %.1f s' % (
        'FAIL' if failed else 'OK', len(workloads), args.reps,
        ' + traced reps' if args.trace else '', elapsed))
    return 1 if failed else 0


def main(argv=None, rep_source=None):
    p = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    p.add_argument('--workload', help='measure one workload for --seconds (JSON result line)')
    p.add_argument('--seconds', type=float, default=20, help='wall budget with --workload')
    p.add_argument('--workloads', default=','.join(WORKLOADS))
    p.add_argument('--seed', type=int, default=1)
    p.add_argument('--reps', type=int, default=9)
    p.add_argument('--trace', nargs='?', const='1', default='0', choices=['0', '1'],
                   help='add a traced rep per workload (per-layer metrics with --workload)')
    p.add_argument('--json', help='write the full run\'s results to this path')
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error('--reps must be at least 1')
    args.trace = args.trace == '1'
    spec, units = load_spec()
    if rep_source is None:
        build()
        rep_source = run_rep
    if args.workload:
        if args.workload not in WORKLOADS:
            print('unknown workload %s' % args.workload, file=sys.stderr)
            return 2
        return driver_main(args, spec, units, rep_source)
    return full_main(args, spec, units, rep_source)


if __name__ == '__main__':
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            OSError) as e:
        print('nkbench: %s' % e, file=sys.stderr)
        sys.exit(2)
