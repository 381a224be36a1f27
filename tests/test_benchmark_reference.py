"""Benchmark pool ops match their frozen references.

The benchmark (`perfbench/`) fails a run whose outputs leave the tolerances
of `perfbench/check.py` around `perfbench/reference/<workload>.json`. These
tests run the same check on the whole region_mix pool (832 ops: regions
over every prior kind, band and alpha, p-value curves and limit intervals)
and on the whole nef_mix pool (69 ops: binomials at n = 8, 30 and 100,
Poisson counts and multinomials), so a change that moves such an output
fails here first.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402
import workloads as W  # noqa: E402


def _check_pool(workload, keep):
    """Run the pool ops of `workload` that `keep` selects through the
    benchmark's check; returns (ops run, reference count)."""
    with open(os.path.join(ROOT, "perfbench", "reference",
                           workload + ".json")) as fh:
        refs = json.load(fh)
    ops = [op for op in W.pool(workload).values() if keep(op)]
    bad = {}
    for op in ops:
        assert op["id"] in refs, op["id"]
        problems = check.check(op, W.execute(op, {}), refs)
        if problems:
            bad[op["id"]] = problems
    assert not bad, bad
    return len(ops), len(refs)


def test_region_mix_pool_matches_references():
    ran, nrefs = _check_pool("region_mix", lambda op: op["cat"] != W.PROBE)
    assert ran == nrefs == 832


_EXACT = ("binom8_sterne", "multinom3_n3", "multinom4_n1")


def test_nef_mix_exact_groups_match_references():
    # multinomial cell masses are grid rationals, so the cumulative mass can
    # land exactly on 1 - alpha: an ULP-level change in the log-pmf
    # arithmetic flips cell membership, and only this exact check sees it
    ran, _ = _check_pool("nef_mix", lambda op: op.get("group") in _EXACT)
    assert ran == 17


def test_nef_mix_other_groups_match_references():
    # the rest of the pool: binomials at n = 8, 30 and 100 and Poisson
    # counts, whose interval ends are checked to a grid step, and the n = 10
    # multinomials, whose cell sets are checked exactly
    ran, nrefs = _check_pool("nef_mix", lambda op: op["cat"] != W.PROBE
                             and op.get("group") not in _EXACT)
    assert ran + 17 == nrefs == 69
