#!/usr/bin/env python3
"""End-to-end benchmark of the `flockc mine --mode plan` pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload market-mine --seed 1 --seconds 10 --trace 0

It builds perfbench/qfbench.exe with dune, writes the workload's CSV files
from the seed, computes the expected answers, runs the timed closed loop
(which also samples the set-up in fresh child processes), and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).  It exits with qfbench's code
when a step fails: 2 for a failed query, 3 for an invalid run.  Every file
it writes stays inside the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "qfbench.exe")
WORKLOADS = ["market-mine", "medical-mine", "market-session", "market-spill"]
# The three market-* workloads share one data set.
DATA_OF = {"market-mine": "market-mine", "market-session": "market-mine",
           "market-spill": "market-mine", "medical-mine": "medical-mine"}
BUILD_TIMEOUT_S = 850
STEP_TIMEOUT_S = 150


# One domain for every workload.  With two, the second domain competes
# with other tenants for the second core, and a fan-out waits for its
# slowest chunk: over ten seeds, market-mine's 90th percentile spread by
# 0.25 of its median, and market-spill's median moved by 0.25 between two
# sets of runs while the one-domain workloads moved by at most 0.06.
DOMAINS = "1"


# Engine knobs that would change what is measured if inherited.
CLEARED_ENV = ["QF_PROFILE", "QF_MEM_BUDGET", "QF_TIMEOUT", "QF_MEMO_BUDGET",
               "QF_INDEX_BUDGET", "QF_LAYOUT", "QF_DOMAINS", "QF_PAR_THRESHOLD"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, env, timeout, capture=True):
    """Run cmd to completion (killing it on timeout); return its stdout.
    A failing command ends this program with the command's exit code."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        if capture and proc.stdout:
            sys.stderr.write(proc.stdout)
        print("perfbench: exit code %d: %s" % (proc.returncode, " ".join(cmd)),
              file=sys.stderr)
        sys.exit(proc.returncode if proc.returncode > 0 else 1)
    return proc.stdout


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from the root of a source checkout" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    run([dune, "build", "--root", ROOT, "./perfbench/qfbench.exe"], env,
        BUILD_TIMEOUT_S, capture=False)


def measure(workload, seed, seconds, trace, domains=DOMAINS):
    """Make the data and oracles and run the timed loop; return the loop's
    output lines.  Needs a built qfbench.exe."""
    work = os.path.join(ROOT, ".perfbench_work", "%s-%d-%d" % (
        workload, seed, os.getpid()))
    tmp = os.path.join(work, "tmp")
    data = os.path.join(work, "data")
    os.makedirs(tmp)
    os.makedirs(data)
    try:
        env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        env.update(TMPDIR=tmp, QF_DOMAINS=domains)
        run([EXE, "gen", DATA_OF[workload], str(seed), data], env, STEP_TIMEOUT_S)
        run([EXE, "oracle", workload, data], env, STEP_TIMEOUT_S)
        out = run([EXE, "run", workload, data, repr(seconds), str(trace)], env,
                  STEP_TIMEOUT_S).splitlines()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    out = measure(args.workload, args.seed, args.seconds, args.trace)
    json.loads(out[-1])  # the result object, or a traceback and exit 1
    for line in out:
        print(line)


if __name__ == "__main__":
    main()
