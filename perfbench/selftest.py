"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs one block of each workload of BENCHMARK.json (`--seconds 0`), untraced
and traced (one block per phase), and asserts that every named metric is
emitted with its unit and that the run's outputs passed the check. Also
asserts that the op list is identical for the same seed and differs for
another seed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (" ".join(cmd),
                                                   proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for wl in bench["workloads"]:
        name = wl["name"]
        _, _, h1 = W.op_list(name, 1)
        assert W.op_list(name, 1)[2] == h1, "%s: op list not reproducible" % name
        assert W.op_list(name, 2)[2] != h1, "%s: seed does not change ops" % name
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run(name, trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] and out["failed"] == 0, (name, trace, out)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == want, (name, trace, set(want) ^ set(got))
            assert all(isinstance(v["value"], (int, float))
                       for v in out["metrics"].values())
            print("ok  %-18s trace=%d  %d metrics, %d ops"
                  % (name, trace, len(got), out["attempted"]), flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
