#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py        # about five minutes

They check that the result line carries exactly the metrics BENCHMARK.json
declares, that the output checks pass on a second seed, that virtual-time
metrics and exact counts repeat across runs (and between the traced and
the untraced run, which the benchmark itself checks, and between runs of
different length, which take different numbers of calibration rounds),
and that the command fails without a result line outside a full checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

# Per-layer metrics that are wall-clock or depend on the heap state an
# earlier repetition left behind; every other per-layer metric is exact.
NOT_EXACT = {"sim.wall_us_per_op", "sim.major_collections", "core.trace_overhead"}
# Workloads whose tput_ops_s counts virtual time, so it repeats exactly.
VIRTUAL_TPUT = {"saturated_5n_slowdisk", "light_3n_netslow"}


def run(workload, seed=7, seconds=1, trace=0, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return p


def result(workload, **kw):
    p = run(workload, **kw)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def section(lines, title):
    """The `name value unit` lines printed under a section title."""
    out, inside = {}, False
    for line in lines:
        if not line.startswith("  "):
            inside = line == title
        elif inside:
            name, value, _unit = line.split()
            out[name] = float(value)
    return out


class MetricNames(unittest.TestCase):
    def test_result_lines_match_declared_metrics(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r, _ = result("light_3n_netslow", trace=trace)
            got = [(n, m["unit"]) for n, m in r["metrics"].items()]
            want = [(m["name"], m["unit"]) for m in BENCH[key]]
            self.assertEqual(got, want)
            self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})

    def test_end_to_end_metrics_are_never_zero(self):
        for w in BENCH["workloads"]:
            r, _ = result(w["name"], seed=3)
            for name, m in r["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w['name']} {name}")


    def test_predictions_name_declared_metrics(self):
        with open(os.path.join(HERE, "predictions.json")) as f:
            preds = json.load(f)["predictions"]
        layer = {m["name"] for m in BENCH["per_layer"]}
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        workloads = {w["name"] for w in BENCH["workloads"]}
        for p in preds:
            self.assertIn(p["layer_metric"], layer, p["id"])
            self.assertIn(p["end_to_end_metric"], e2e | layer, p["id"])
            self.assertIn(p["workload"], workloads, p["id"])


class SecondSeed(unittest.TestCase):
    def test_output_checks_pass_on_another_seed(self):
        for w in BENCH["workloads"]:
            r, lines = result(w["name"], seed=11)
            self.assertTrue(r["correct"], "\n".join(lines))
            self.assertEqual(r["failed"], 0)
            self.assertIn("output checks: all passed", lines)


class Determinism(unittest.TestCase):
    def test_virtual_metrics_repeat(self):
        for w in BENCH["workloads"]:
            (ra, la), (rb, lb) = result(w["name"], seed=5), result(w["name"], seed=5)
            a, b = section(la, "workload outputs"), section(lb, "workload outputs")
            self.assertEqual(a, b, w["name"])
            exact = ["peak_heap_mb"] + (["tput_ops_s"] if w["name"] in VIRTUAL_TPUT else [])
            for name in exact:
                self.assertEqual(ra["metrics"][name], rb["metrics"][name], f"{w['name']} {name}")

    def test_traced_run_repeats_exactly(self):
        for w in ("light_3n_netslow", "lint_tree", "check_gating"):
            ra, la = result(w, trace=1)
            rb, _ = result(w, trace=1)
            # the benchmark fails its checks when the traced run's
            # virtual metrics differ from the untraced run's
            self.assertTrue(ra["correct"] and rb["correct"], "\n".join(la))
            for name in ra["metrics"]:
                if name in NOT_EXACT or name.endswith("_s"):
                    continue
                self.assertEqual(ra["metrics"][name], rb["metrics"][name], f"{w} {name}")

    def test_run_length_changes_no_count(self):
        # a longer run makes more repetitions and more calibration rounds;
        # neither may move the peak heap or the virtual-time results
        (ra, la), (rb, lb) = (result("light_3n_netslow", seed=2, seconds=s) for s in (1, 8))
        self.assertGreater(section(lb, "wall-clock times as measured")["repetitions"], 1)
        self.assertEqual(section(la, "workload outputs"), section(lb, "workload outputs"))
        for name in ("peak_heap_mb", "tput_ops_s"):
            self.assertEqual(ra["metrics"][name], rb["metrics"][name], name)

    def test_seed_changes_virtual_inputs(self):
        a = section(result("light_3n_netslow", seed=1)[1], "workload outputs")
        b = section(result("light_3n_netslow", seed=2)[1], "workload outputs")
        self.assertNotEqual(a["latency_samples"], b["latency_samples"])


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lint_tree", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
