#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--engine-seed N]

Builds perfbench/perfbench.exe with dune, runs it, and passes its output
through: every metric by name with its unit, the output checks, and as the
last line one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). A traced run writes its spans to perfbench/out/. Exits non-zero
without a result line when the sources or the build are missing.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
# The benchmark must end within 180 s, build included once it is cached.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7, help="workload seed: makes the inputs")
    p.add_argument("--engine-seed", type=int, default=7, help="simulation engine seed")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.workload not in workload_names():
        fail(f"unknown workload {a.workload!r}")
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}: run from a full checkout")
    try:
        build = subprocess.run(
            # no shared dune cache: the benchmark writes only inside the checkout
            ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0 or not os.path.exists(EXE):
        fail(f"build failed with code {build.returncode}")
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--engine-seed", str(a.engine_seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--spans", os.path.join(out, f"spans-{a.workload}-{a.seed}.jsonl")]
    sys.stdout.flush()
    # its own process group: the benchmark and its calibration child end
    # together if it has to be stopped
    run = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = run.wait(timeout=RUN_TIMEOUT_S)
    except BaseException as e:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            fail(f"no result within {RUN_TIMEOUT_S} s")
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
