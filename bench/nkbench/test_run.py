#!/usr/bin/env python3
"""Tests for the nkbench runner's gates. Each failure mode must make the runner
exit nonzero; a gate that cannot fail is a bug.

    python3 bench/nkbench/test_run.py

The runner is fed fake reps, so nothing is built or simulated.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WALL = ('sim.wall_us_per_op', 'setup_s', 'peak_rss_mb', 'sim.wall_ns_per_event')
# Filled in by the runner itself, not by nkbench.
DERIVED = ('trace.overhead_pct',)


def good_rep(workload, seed, trace_sampling):
    spec, _ = run.load_spec()
    names = [m['name'] for m in spec['end_to_end'] + spec['per_layer']]
    modeled = {n: 1.5 for n in names if n not in WALL + DERIVED}
    modeled.update({'attempted': 100.0, 'failed': 0.0, 'latency_samples': 100.0})
    for stage in ('ring_queueing', 'switch', 'stack_service', 'completion'):
        modeled['trace.%s_samples' % stage] = 10.0
    if trace_sampling == 0:
        modeled = {k: v for k, v in modeled.items() if not k.startswith('trace.')}
    return {'workload': workload, 'seed': seed, 'trace_sampling': trace_sampling,
            'modeled': modeled, 'wall': {n: 2.5 for n in WALL},
            'checks': [{'name': 'replies_intact', 'ok': True, 'detail': '0 corrupt replies'}],
            'spans': [], 'started_s': 0.0}


class FakeBench:
    """Rep source whose nth call can be broken by `mutate(rep, n)`."""

    def __init__(self, mutate=None):
        self.calls = 0
        self.mutate = mutate

    def __call__(self, workload, seed, trace_sampling):
        rep = good_rep(workload, seed, trace_sampling)
        if self.mutate:
            self.mutate(rep, self.calls)
        self.calls += 1
        return rep


def run_full(bench):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run.main(['--workloads', 'rpc_shortconn,udp_kv_mux', '--reps', '3'], rep_source=bench)
    return code, out.getvalue()


def run_driver(bench, trace='0'):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(['--workload', 'rpc_shortconn', '--seed', '7', '--seconds', '0',
                         '--trace', trace], rep_source=bench)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def differing_modeled(rep, n):
    if n == 1:
        rep['modeled']['kops_per_s'] += 1e-9


def failing_check(rep, n):
    if n == 2:
        rep['checks'].append({'name': 'no_failed_ops', 'ok': False, 'detail': '3 of 100 failed'})


def missing_metric(rep, n):
    rep['modeled'].pop('p99_us')


def non_finite_metric(rep, n):
    rep['modeled']['p99_us'] = float('inf')


class RunnerGates(unittest.TestCase):
    def test_clean_reps_pass(self):
        self.assertEqual(run_full(FakeBench())[0], 0)
        code, result = run_driver(FakeBench())
        self.assertEqual(code, 0)
        self.assertTrue(result['correct'])
        self.assertEqual(result['attempted'], 100)
        spec, _ = run.load_spec()
        self.assertEqual(set(result['metrics']), {m['name'] for m in spec['end_to_end']})

    def test_traced_run_reports_every_per_layer_metric(self):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(run, 'TRACE_FILE', os.path.join(tmp, 'trace.json')):
            code, result = run_driver(FakeBench(), trace='1')
            with open(run.TRACE_FILE) as f:
                self.assertIn('traceEvents', json.load(f))
        self.assertEqual(code, 0)
        spec, _ = run.load_spec()
        self.assertEqual(set(result['metrics']), {m['name'] for m in spec['per_layer']})

    def test_modeled_mismatch_across_reps_fails(self):
        code, out = run_full(FakeBench(differing_modeled))
        self.assertNotEqual(code, 0)
        self.assertIn('modeled metrics differ', out)
        code, result = run_driver(FakeBench(differing_modeled))
        self.assertNotEqual(code, 0)
        self.assertFalse(result['correct'])

    def test_failing_correctness_check_fails(self):
        code, out = run_full(FakeBench(failing_check))
        self.assertNotEqual(code, 0)
        self.assertIn('no_failed_ops', out)
        code, result = run_driver(FakeBench(failing_check))
        self.assertNotEqual(code, 0)
        self.assertFalse(result['correct'])

    def test_missing_metric_fails(self):
        code, out = run_full(FakeBench(missing_metric))
        self.assertNotEqual(code, 0)
        self.assertIn('metric p99_us missing', out)
        code, result = run_driver(FakeBench(missing_metric))
        self.assertNotEqual(code, 0)
        self.assertFalse(result['correct'])

    def test_non_finite_metric_fails(self):
        code, result = run_driver(FakeBench(non_finite_metric))
        self.assertNotEqual(code, 0)
        self.assertIsNone(result['metrics']['p99_us']['value'])

    def test_wall_metrics_reduce_to_min_median_and_max(self):
        def spread(rep, n):
            rep['wall']['sim.wall_us_per_op'] = [30.0, 10.0, 40.0, 20.0][n]
            rep['wall']['setup_s'] = [0.4, 0.1, 0.3, 0.2][n]
            rep['wall']['peak_rss_mb'] = 100.0 + n

        bench = FakeBench(spread)
        reps = [bench('rpc_shortconn', 1, 0) for _ in range(4)]
        values, failures = run.aggregate(reps, None,
                                         ['sim.wall_us_per_op', 'setup_s', 'peak_rss_mb'])
        self.assertEqual(failures, [])
        self.assertEqual(values['sim.wall_us_per_op'], 10.0)
        self.assertAlmostEqual(values['setup_s'], 0.25)
        self.assertEqual(values['peak_rss_mb'], 103.0)


if __name__ == '__main__':
    unittest.main()
