"""Output check: compare each op's output with its frozen reference.

Tolerances follow the package's contracts:

* Gaussian region endpoints are bisected to 1e-8, so a result and its
  reference may each be 1e-8 from the true endpoint: 2e-8 in all.
* p-values are bisected in alpha to 1e-6: 2e-6 in all.
* NEF interval endpoints may move by one grid step; multinomial cell sets
  must match exactly.
* Simulation widths follow the endpoint contract; coverage counts match
  exactly.

Every op is also checked for invariants that need no reference: the focal
point or estimator lies in a non-empty region, and a Poisson y = 0 region
starts at 0.
"""

import hashlib
import math

import workloads as W

ENDPOINT_TOL = 2e-8
PVALUE_TOL = 2e-6
REL_TOL = 1e-9


def summarize(op, result):
    """JSON-able summary of an op's output: what the references store."""
    cat = op["cat"]
    if cat == W.REGION:
        return {"intervals": [list(iv) for iv in result.intervals],
                "focal": result.focal}
    if cat == W.PVALUE:
        return {"pvals": list(result.pvals)}
    if cat == W.LIMITS:
        li, drift = result
        return {"lo": li.lo_offset, "hi": li.hi_offset, "c": li.c_alpha,
                "drift": drift}
    if cat == W.SIM:
        return {"cells": [[c.prior, c.mean_width, c.coverage]
                          for c in result.cells]}
    if cat == W.REGRESS:
        return {"lo": [r.lo for _, r, _, _ in result],
                "hi": [r.hi for _, r, _, _ in result],
                "focal": [f for _, _, f, _ in result]}
    if cat == W.NEF:
        out = {"estimator": result.estimator, "member": result.estimator_member,
               "grid": result.grid}
        if result.intervals is not None:
            out["intervals"] = [list(iv) for iv in result.intervals]
        else:
            denom = int(round(1.0 / result.grid))
            cells = sorted(tuple(int(round(v * denom)) for v in c)
                           for c in result.cells)
            out["ncells"] = len(cells)
            out["cells_sha256"] = hashlib.sha256(repr(cells).encode()).hexdigest()
        return out
    raise ValueError("no summary for op category %r" % (cat,))


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def invariants(op, s):
    """Reference-free checks; returns a list of problems."""
    cat = op["cat"]
    bad = []
    if cat == W.REGION:
        ivs = s["intervals"]
        if not ivs or any(not (lo <= hi) for lo, hi in ivs):
            bad.append("empty or inverted region")
        elif not any(lo - ENDPOINT_TOL <= s["focal"] <= hi + ENDPOINT_TOL
                     for lo, hi in ivs):
            bad.append("focal point outside its region")
    elif cat == W.REGRESS:
        if not (len(s["lo"]) == len(s["hi"]) == len(s["focal"]) > 0):
            bad.append("coefficient lists empty or of unequal length")
        for lo, hi, f in zip(s["lo"], s["hi"], s["focal"]):
            if not (lo - ENDPOINT_TOL <= f <= hi + ENDPOINT_TOL):
                bad.append("coefficient focal point outside its region")
                break
    elif cat == W.PVALUE:
        if not s["pvals"] or any(not (0.0 <= p <= 1.0) for p in s["pvals"]):
            bad.append("no p-values, or one outside [0, 1]")
    elif cat == W.SIM:
        if not s["cells"] or any(not (w > 0.0 and 0.0 <= cov <= 1.0)
                                 for _, w, cov in s["cells"]):
            bad.append("bad simulation cell")
    elif cat == W.NEF:
        if not s["member"]:
            bad.append("estimator outside its region")
        if "intervals" in s:
            if not s["intervals"]:
                bad.append("empty region")
            elif op["family"].startswith("poisson") and op["y"] == 0 \
                    and s["intervals"][0][0] > 0.0:
                bad.append("poisson y=0 region does not start at 0")
        elif s["ncells"] == 0:
            bad.append("empty region")
    return bad


def _nef_step_tol(op, s, value):
    if op["family"].startswith("poisson"):
        return abs(value) * math.expm1(s["grid"]) * (1.0 + 1e-9)
    return s["grid"] * (1.0 + 1e-9)


def _lengths_differ(s, ref, keys):
    """Problems for the listed result fields whose length differs from the
    reference: a result that drops entries must not pass."""
    return ["%s: %d entries != %d" % (key, len(s[key]), len(ref[key]))
            for key in keys if len(s[key]) != len(ref[key])]


def against_reference(op, s, ref):
    """Compare a summary with the frozen one; returns a list of problems."""
    cat = op["cat"]
    bad = _lengths_differ(s, ref, {W.REGION: ("intervals",),
                                   W.PVALUE: ("pvals",), W.SIM: ("cells",),
                                   W.REGRESS: ("lo", "hi", "focal")}
                          .get(cat, ()))
    if bad:
        return bad
    if cat == W.REGION:
        for (lo, hi), (rlo, rhi) in zip(s["intervals"], ref["intervals"]):
            if abs(lo - rlo) > ENDPOINT_TOL or abs(hi - rhi) > ENDPOINT_TOL:
                bad.append("endpoints [%r, %r] != [%r, %r]" % (lo, hi, rlo, rhi))
        if not _close(s["focal"], ref["focal"]):
            bad.append("focal %r != %r" % (s["focal"], ref["focal"]))
    elif cat == W.PVALUE:
        for p, rp in zip(s["pvals"], ref["pvals"]):
            if abs(p - rp) > PVALUE_TOL:
                bad.append("p-value %r != %r" % (p, rp))
                break
    elif cat == W.LIMITS:
        for key in ("lo", "hi", "c", "drift"):
            if not _close(s[key], ref[key]):
                bad.append("%s %r != %r" % (key, s[key], ref[key]))
    elif cat == W.SIM:
        for (prior, w, cov), (rprior, rw, rcov) in zip(s["cells"], ref["cells"]):
            # coverage is a mean over the 10 coefficients: compare counts
            if prior != rprior or abs(w - rw) > ENDPOINT_TOL \
                    or round(cov * 10) != round(rcov * 10):
                bad.append("cell %s: (%r, %r) != (%r, %r)"
                           % (prior, w, cov, rw, rcov))
    elif cat == W.REGRESS:
        for key in ("lo", "hi"):
            worst = max(abs(a - b) for a, b in zip(s[key], ref[key]))
            if worst > ENDPOINT_TOL:
                bad.append("%s endpoints off by %r" % (key, worst))
        if not all(_close(a, b) for a, b in zip(s["focal"], ref["focal"])):
            bad.append("focal points differ")
    elif cat == W.NEF:
        if s["member"] != ref["member"]:
            bad.append("estimator membership differs")
        est, rest = s["estimator"], ref["estimator"]
        if isinstance(est, (list, tuple)):
            if len(est) != len(rest) or not all(_close(a, b) for a, b in zip(est, rest)):
                bad.append("estimator differs")
        elif not _close(est, rest):
            bad.append("estimator %r != %r" % (est, rest))
        if "intervals" in ref:
            if len(s["intervals"]) != len(ref["intervals"]):
                return bad + ["component count differs"]
            for (lo, hi), (rlo, rhi) in zip(s["intervals"], ref["intervals"]):
                if abs(lo - rlo) > _nef_step_tol(op, s, rlo) \
                        or abs(hi - rhi) > _nef_step_tol(op, s, rhi):
                    bad.append("interval [%r, %r] != [%r, %r]"
                               % (lo, hi, rlo, rhi))
        elif (s["ncells"], s["cells_sha256"]) != (ref["ncells"],
                                                  ref["cells_sha256"]):
            bad.append("multinomial cell set differs")
    return bad


def check(op, result, references):
    """Problems with an op's output; an empty list means it passed."""
    s = summarize(op, result)
    bad = invariants(op, s)
    ref = references.get(op["id"])
    if ref is not None:
        bad += against_reference(op, s, ref)
    return bad
