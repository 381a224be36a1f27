"""The regression_batch benchmark pool matches its frozen references.

As `tests/test_benchmark_reference.py` does for region_mix and nef_mix, this
runs the whole regression_batch pool (24 criterion-8 `simulate`
replications and 3 CLI-`regress`-sized datasets read back from CSV) through
`perfbench/check.py` against `perfbench/reference/regression_batch.json`.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402
import workloads as W  # noqa: E402


def test_regression_batch_pool_matches_references(tmp_path):
    with open(os.path.join(ROOT, "perfbench", "reference",
                           "regression_batch.json")) as fh:
        refs = json.load(fh)
    ops = W.pool("regression_batch")
    paths = W.prepare(ops, str(tmp_path))
    bad = {}
    for op in ops.values():
        assert op["id"] in refs, op["id"]
        problems = check.check(op, W.execute(op, paths), refs)
        if problems:
            bad[op["id"]] = problems
    assert not bad, bad
    cats = [op["cat"] for op in ops.values()]
    assert (cats.count(W.SIM), cats.count(W.REGRESS)) == (24, 3)
    assert len(ops) == len(refs)
