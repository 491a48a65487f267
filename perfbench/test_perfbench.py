#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the source tree:

    python3 perfbench/test_perfbench.py

They build the driver like run.py does and use the tiny --small
inputs, except for one full-size traced Barnes grid; the whole file
takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

# Largest share of the traced Engine::run that the layer split may
# leave unattributed on a full-size input (tiny inputs are dominated
# by timer jitter, so only a full-size one can hold the split to it).
REMAINDER = 0.05
# The layers whose times must lie within the traced Engine::run.
LAYER_TIMES = ("exec.self_s", "core.machine_s", "mem.scc_s",
               "net.transaction_s", "net.snoop_s")


def driver(binary, *args):
    out = subprocess.run([binary] + list(args), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return [json.loads(line) for line in out.splitlines()
            if line.startswith("{")]


def run_py(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(ROOT)
        cls.scratch = os.path.join(os.path.dirname(cls.binary), "tests")
        shutil.rmtree(cls.scratch, ignore_errors=True)
        os.makedirs(cls.scratch)
        cls.layers = {}
        for workload in run.WORKLOADS:
            lines = driver(cls.binary, "--mode=trace", "--small",
                           "--workload=" + workload, "--seed=3",
                           "--out=" + cls.scratch)
            cls.layers[workload] = [l for l in lines
                                    if l["kind"] == "layers"][0]

    def test_replay_reproduces_every_returned_cycle(self):
        for workload, layers in self.layers.items():
            with self.subTest(workload=workload):
                m = layers["metrics"]
                self.assertGreater(m["exec.refs"], 0)
                self.assertGreaterEqual(layers["replayed_calls"],
                                        m["exec.refs"])
                self.assertEqual(m["core.replay_mismatches"], 0)

    def test_layer_times_lie_within_traced_engine_run(self):
        for workload, layers in self.layers.items():
            with self.subTest(workload=workload):
                m = layers["metrics"]
                traced = layers["traced_run_s"]
                for name in LAYER_TIMES:
                    self.assertGreater(m[name], 0, name)
                    self.assertLess(m[name], traced, name)
                self.assertLess(m["mem.scc_s"], m["core.machine_s"])
                self.assertGreater(m["trace.timer_ns"], 0)
                if workload != "mp3d-weak-split":  # no fences under SC
                    self.assertLess(abs(m["mem.fence_s"]), 0.02 * traced)

    def test_layer_split_leaves_little_unattributed(self):
        lines = driver(self.binary, "--mode=trace", "--seed=3",
                       "--workload=barnes-grid", "--out=" + self.scratch)
        layers = [l for l in lines if l["kind"] == "layers"][0]
        m = layers["metrics"]
        self.assertEqual(m["core.replay_mismatches"], 0)
        self.assertLessEqual(abs(m["trace.unattributed_share"]), REMAINDER)

    def test_corrupted_reference_fails_points(self):
        lines = driver(self.binary, "--mode=run", "--small", "--repeats=2",
                       "--workload=barnes-grid", "--seed=3",
                       "--out=" + self.scratch)
        sweeps = [l["points"] for l in lines if l["kind"] == "repeat"]
        reference = [list(run.point_tuple(p)) for p in sweeps[0]]

        def gate(ref_points):
            return run.check_points(sweeps, [tuple(p) for p in ref_points])

        self.assertEqual(gate(reference), (2 * len(reference), 0))
        reference[0][2] += 1  # one more simulated cycle at one point
        self.assertEqual(gate(reference), (2 * len(reference), 2))
        # No reference at all fails every point.
        self.assertEqual(run.check_points(sweeps, None),
                         (2 * len(reference), 2 * len(reference)))

    def test_every_seed_runs_a_recorded_input(self):
        for seed in (1, 19, 20, 21, 40, 41, 1000):
            self.assertIn(run.input_seed(seed), range(1, 21))
        self.assertEqual(run.input_seed(21), 1)
        for workload in ("barnes-grid", "mp3d-weak-split"):
            for seed in range(1, 41):
                self.assertIsNotNone(
                    run.load_reference(workload, run.input_seed(seed)),
                    (workload, seed))

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(self.scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_py("--workload", "barnes-grid", "--seed", "1",
                      cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
