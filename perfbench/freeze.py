"""Freeze the reference output of every pool op of every workload.

Run from the root of a checkout, at the commit whose outputs become the
reference:

    python3 perfbench/freeze.py [workload ...]

Writes perfbench/reference/<workload>.json. An op that fails here is
reported and gets no reference; the run then checks it by invariants only.
"""

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

os.environ["FABCR_BACKEND"] = "python"
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads as W  # noqa: E402


def freeze(workload):
    ops = W.pool(workload)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    paths = W.prepare(ops, out_dir)
    refs = {}
    t0 = perf_counter()
    for op_id in sorted(ops):
        op = ops[op_id]
        if op["cat"] == W.PROBE:
            continue
        try:
            s = check.summarize(op, W.execute(op, paths))
        except Exception as exc:  # reported, and left without a reference
            print("FAILED %s: %r" % (op_id, exc), flush=True)
            continue
        bad = check.invariants(op, s)
        if bad:
            print("INVARIANT %s: %s" % (op_id, "; ".join(bad)), flush=True)
        refs[op_id] = s
    path = os.path.join(HERE, "reference", workload + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print("%s: %d references in %.1f s" % (workload, len(refs),
                                           perf_counter() - t0), flush=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or W.WORKLOADS:
        freeze(name)
