#!/usr/bin/env python3
"""Determinism self-test of the benchmark's per-layer counts.

Run from the root of a source checkout:

    python3 perfbench/selftest.py [--seed 7] [--workloads market-mine,...]

For each workload it makes three traced runs on the same seed: two with a
domain pool of size 2 and one with a pool of size 1.  The counts listed in
DETERMINISTIC must be identical across all three (they are taken over the
first full pass of the workload's query list, so they do not depend on how
many queries fit in the timed loop).  Metrics under "pool." are exempt: they
describe the pool itself.  Exits 1 on any difference.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

DETERMINISTIC = [
    "csv.rows", "dict.size", "views.rows", "eval.negated_subgoals",
    "optimizer.plans_costed", "apriori.candidate_subqueries",
    "plan_exec.steps", "filter.tabulated_rows", "filter.groups",
    "filter.survivors", "filter.reused_steps", "sip.rows_pruned",
    "sip.reducer_built", "aggregate.candidates", "aggregate.survivors",
    "memo.hits", "memo.misses", "spill.partitions", "spill.rows",
]


def traced_counts(workload, seed, pool_size):
    out = bench.measure(workload, seed, 0.5, 1, domains=str(pool_size))
    metrics = json.loads(out[-1])["metrics"]
    return {k: metrics[k]["value"] for k in DETERMINISTIC}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    args = ap.parse_args()
    bench.build()
    ok = True
    for w in args.workloads.split(","):
        runs = [("pool 2, run 1", traced_counts(w, args.seed, 2)),
                ("pool 2, run 2", traced_counts(w, args.seed, 2)),
                ("pool 1", traced_counts(w, args.seed, 1))]
        base_name, base = runs[0]
        same = True
        for name, counts in runs[1:]:
            for k in DETERMINISTIC:
                if counts[k] != base[k]:
                    same = False
                    print("%s: %s differs: %s %g, %s %g" % (
                        w, k, base_name, base[k], name, counts[k]))
        print("%s: %s" % (w, "deterministic" if same else "DIFFERS"))
        ok = ok and same
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
