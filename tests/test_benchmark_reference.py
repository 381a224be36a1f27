"""Every region_mix pool op of the benchmark matches its frozen reference.

The benchmark (`perfbench/`) fails a run whose outputs leave the tolerances
of `perfbench/check.py` around `perfbench/reference/region_mix.json`. This
test runs the same check on the whole region_mix pool (832 ops: regions
over every prior kind, band and alpha, p-value curves and limit intervals),
so a change that moves a Gaussian output that far fails here first.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402
import workloads as W  # noqa: E402


def test_region_mix_pool_matches_references():
    with open(os.path.join(ROOT, "perfbench", "reference",
                           "region_mix.json")) as fh:
        refs = json.load(fh)
    ops = [op for op in W.pool("region_mix").values() if op["cat"] != W.PROBE]
    assert len(ops) == len(refs) == 832
    bad = {}
    for op in ops:
        assert op["id"] in refs, op["id"]
        problems = check.check(op, W.execute(op, {}), refs)
        if problems:
            bad[op["id"]] = problems
    assert not bad, bad
