"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live). Tolerances here are contractual; do not loosen them.
"""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import CATALOG_SPECS, BP_SPECIAL, quad_log_marginal
from fabcr import _core
from fabcr._core._kernels_py import bessel_i0e, bessel_i1e, dawson
from fabcr.asymptotics import c_alpha, focal_drift, limit_interval
from fabcr.gaussian import (acceptance_interval, confidence_region,
                            weight, z_interval)
from fabcr.nef import acceptance_set, confidence_region_nef, parse_family
from fabcr.priors import parse_prior

Z90 = 1.6448536269514722


def _report(num, name, ok, detail=""):
    print("criterion %d (%s): %s%s"
          % (num, name, "PASS" if ok else "FAIL",
             (" -- " + detail) if detail else ""))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


# -- 1. exact coverage by Monte Carlo ---------------------------------------


def test_criterion_1_exact_coverage():
    N = 200_000
    rng = np.random.default_rng(20240901)
    z = rng.standard_normal(N)
    worst = ("", 0.0)
    for spec in CATALOG_SPECS:
        m = parse_prior(spec)
        for theta0 in (0.0, 1.0, 5.0, 25.0):
            y = theta0 + z
            for alpha in (0.05, 0.1):
                ai = acceptance_interval(m, theta0, alpha)
                cov = float(np.mean((y >= ai.lo) & (y <= ai.hi)))
                err = abs(cov - (1.0 - alpha))
                tol = 3.0 * math.sqrt(alpha * (1.0 - alpha) / N)
                if err / tol > worst[1] / 1.0:
                    worst = ("%s t0=%g a=%g err=%.2e tol=%.2e"
                             % (spec, theta0, alpha, err, tol), err / tol)
                if err > tol:
                    _report(1, "exact coverage", False, worst[0])
    _report(1, "exact coverage", True, "worst " + worst[0])


# -- 2. focal-point containment ---------------------------------------------


def test_criterion_2_focal_containment():
    alphas = [i / 100.0 for i in range(1, 100)]
    violations = 0
    checked = 0
    for spec in CATALOG_SPECS:
        m = parse_prior(spec)
        for y in (-10.0, -1.0, 0.0, 0.3, 1.0, 10.0, 100.0):
            focal = m.posterior_mean(y)
            for alpha in alphas:
                ai = acceptance_interval(m, focal, alpha)
                checked += 1
                if not (ai.lo <= y <= ai.hi):
                    violations += 1
    # discrete cases: the estimator is in the region iff y is accepted at
    # its own natural-parameter estimate
    discrete = [(parse_family("binom:n=8,a=1,b=1"), list(range(9))),
                (parse_family("binom:n=12,a=1.5,b=2"), [0, 5, 12]),
                (parse_family("poisson:a=1,p=0.5"), [0, 3, 10])]
    for model, ys in discrete:
        for y in ys:
            eta_hat, _ = model.fab_estimator(y)
            for alpha in alphas:
                checked += 1
                if y not in acceptance_set(model, eta_hat, alpha).members:
                    violations += 1
    _report(2, "focal containment", violations == 0,
            "%d checks, %d violations" % (checked, violations))


# -- 3. robust reversion to the z-interval ----------------------------------


def test_criterion_3_robust_reversion():
    worst = 0.0
    ok = True
    for spec in ("horseshoe", "gpd", "bessel", "flat+atom:gamma=0.5"):
        m = parse_prior(spec)
        for y, tol in ((100.0, 0.05), (1e4, 0.005)):
            reg = confidence_region(m, y, 0.1)
            haus = max(abs((reg.lo - y) + Z90), abs((reg.hi - y) - Z90))
            worst = max(worst, haus / tol)
            if haus > tol:
                ok = False
    _report(3, "robust reversion", ok, "worst Hausdorff/tol = %.3f" % worst)


# -- 4. bounded-influence limits (Laplace) ----------------------------------


def test_criterion_4_laplace_limits():
    ok = True
    details = []
    for kappa in (0.5, 1.0, 2.0):
        m = parse_prior("laplace:kappa=%g" % kappa)
        li = limit_interval(m, 0.1)
        reg = confidence_region(m, 1e4, 0.1)
        d_lo = abs((reg.lo - 1e4) - li.lo_offset)
        d_hi = abs((reg.hi - 1e4) - li.hi_offset)
        drift = 1e4 - m.posterior_mean(1e4)
        d_drift = abs(drift - kappa)
        details.append("k=%g off=(%.1e,%.1e) drift=%.1e"
                       % (kappa, d_lo, d_hi, d_drift))
        if d_lo > 1e-2 or d_hi > 1e-2 or d_drift > 1e-3:
            ok = False
        if abs(focal_drift(m) - kappa) > 1e-12:
            ok = False
    _report(4, "bounded-influence limits", ok, "; ".join(details))


# -- 5. closed forms vs general 1F1 and quadrature --------------------------


def test_criterion_5_marginal_cross_validation():
    ok = True
    worst_special = 0.0
    for name, a, b in BP_SPECIAL:
        special = parse_prior(name)
        general = parse_prior("bp:a=%g,b=%g" % (a, b))
        for y in (0.1, -0.1, 1.0, -1.0, 5.0, -5.0, 20.0, -20.0):
            fs = math.exp(special.log_marginal(y))
            fg = math.exp(general.log_marginal(y))
            rel = abs(fs - fg) / fg
            worst_special = max(worst_special, rel)
            if rel > 1e-10:
                ok = False
    worst_quad = 0.0
    for spec in CATALOG_SPECS:
        m = parse_prior(spec)
        for y in (0.0, 0.5, -0.5, 1.0, -2.0, 5.0, -5.0, 10.0, -10.0):
            want = math.exp(quad_log_marginal(spec, y))
            got = math.exp(m.log_marginal(y))
            rel = abs(got - want) / want
            worst_quad = max(worst_quad, rel)
            if rel > 1e-8:
                ok = False
    _report(5, "marginal cross-validation", ok,
            "special rel %.1e, quadrature rel %.1e" % (worst_special, worst_quad))


# -- 6. spending-weight scale, symmetry and limits --------------------------


def test_criterion_6_weight_properties():
    ok = True
    worst_sym = 0.0
    for spec in ("horseshoe", "gpd", "bessel", "bp:a=1.5,b=2",
                 "laplace:kappa=1", "gaussian"):
        m1 = parse_prior(spec, sigma=1.0)
        for sigma in (0.5, 2.0):
            ms = parse_prior(spec, sigma=sigma)
            for theta0 in (0.4, 1.3, 4.0, 8.0):
                d = abs(weight(ms, theta0, 0.1) - weight(m1, theta0 / sigma, 0.1))
                worst_sym = max(worst_sym, d)
                if d > 1e-8:
                    ok = False
        for theta0 in (0.5, 2.2, 7.0):
            d = abs(weight(m1, -theta0, 0.05) + weight(m1, theta0, 0.05) - 1.0)
            worst_sym = max(worst_sym, d)
            if d > 1e-8:
                ok = False
    worst_lim = 0.0
    for spec in ("flat", "flat+atom:gamma=0.5", "horseshoe", "gpd", "bessel",
                 "bp:a=1.5,b=2", "laplace:kappa=1"):
        m = parse_prior(spec)
        kappa = m.tail_profile().kappa
        for alpha in (0.05, 0.1):
            c = c_alpha(alpha, kappa)
            d_minus = abs(weight(m, -1e3, alpha) - c)
            d_plus = abs(weight(m, 1e3, alpha) - (1.0 - c))
            worst_lim = max(worst_lim, d_minus, d_plus)
            if d_minus > 0.01 or d_plus > 0.01:
                ok = False
    _report(6, "spending-weight properties", ok,
            "scale/symmetry %.1e, limit gap %.1e" % (worst_sym, worst_lim))


# -- 7. Sterne recovery for the uniform-prior binomial ----------------------


def _sterne_region_flags(n, y, alpha, thetas):
    """Membership of each theta via the classical Sterne construction, built
    directly on scipy binomial pmfs."""
    ks = np.arange(n + 1)
    flags = np.empty(len(thetas), dtype=bool)
    for i, t in enumerate(thetas):
        pmf = stats.binom.pmf(ks, n, t)
        order = np.argsort(-pmf, kind="stable")
        acc = 0.0
        cutoff = None
        kept = set()
        for k in order:
            if cutoff is not None and pmf[k] < cutoff * (1.0 - 1e-9):
                break
            kept.add(int(k))
            acc += pmf[k]
            if cutoff is None and acc >= 1.0 - alpha:
                cutoff = pmf[k]
        flags[i] = y in kept
    return flags


def test_criterion_7_sterne_recovery():
    m = parse_family("binom:n=8,a=1,b=1")
    step = 1e-4
    thetas = np.arange(1, int(round(1.0 / step))) * step
    ok = True
    worst = 0.0
    for alpha in (0.05, 0.1):
        for y in range(9):
            reg = confidence_region_nef(m, y, alpha, grid=step)
            flags = _sterne_region_flags(8, y, alpha, thetas)
            mine = np.array([reg.contains(t) for t in thetas])
            if np.any(mine != flags):
                # disagreement only tolerable within one grid step of a
                # Sterne boundary
                bad = np.nonzero(mine != flags)[0]
                edges = np.nonzero(np.diff(flags.astype(int)))[0]
                for i in bad:
                    dist = np.min(np.abs(edges - i)) if len(edges) else np.inf
                    worst = max(worst, float(dist) * step)
                    if dist > 1:
                        ok = False
    # discrete coverage lower bound on a 999-point grid
    cov_ok = True
    for t in np.arange(1, 1000) / 1000.0:
        aset = acceptance_set(m, m.eta_of_theta(t), 0.1)
        cov = float(sum(stats.binom.pmf(yy, 8, t) for yy in aset.members))
        if cov < 0.9 - 1e-12:
            cov_ok = False
    ok = ok and cov_ok
    _report(7, "Sterne recovery", ok,
            "max boundary gap %.1e, coverage floor %s" % (worst, cov_ok))


# -- 8. desk-scale simulation and sparse substitute -------------------------


def test_criterion_8_simulation_study():
    from fabcr.simulate import ExperimentConfig, run_experiment
    cfg = ExperimentConfig(
        n=50, p=10, sigma_y2=1.0, log_sigma_beta_grid=(-1.0, 1.0, 3.0),
        priors=("flat", "gaussian:tau=1", "horseshoe", "laplace:kappa=1"),
        alpha=0.1, reps=100, seed=20240902)
    res = run_experiment(cfg)
    ok = True
    details = []
    for c in res.cells:
        se = max(c.se_coverage, 1e-3)
        if abs(c.coverage - 0.9) > 3.0 * se:
            ok = False
            details.append("coverage %s@%g = %.3f (se %.3f)"
                           % (c.prior, c.log_sigma_beta, c.coverage, se))
    hs = res.cell("horseshoe", 3.0)
    lap = res.cell("laplace:kappa=1", 3.0)
    gau = res.cell("gaussian:tau=1", 3.0)
    flat = res.cell("flat", 3.0)

    def below(a, b):
        return a.mean_width <= b.mean_width - 2.0 * math.hypot(a.se_width,
                                                               b.se_width)

    if not below(hs, lap) or not below(lap, gau):
        ok = False
        details.append("ordering hs=%.3f lap=%.3f gau=%.3f"
                       % (hs.mean_width, lap.mean_width, gau.mean_width))
    if hs.mean_width > 1.05 * flat.mean_width:
        ok = False
        details.append("hs %.3f vs 1.05*z %.3f"
                       % (hs.mean_width, 1.05 * flat.mean_width))
    _report(8, "simulation study", ok,
            "; ".join(details) if details else
            "widths@3: hs=%.3f lap=%.3f gau=%.3f z=%.3f"
            % (hs.mean_width, lap.mean_width, gau.mean_width, flat.mean_width))


def test_criterion_8_sparse_substitute(tmp_path):
    # stand-in for the large real-data run: p = 200 with 10 strong signals;
    # shrinkage should beat the z-interval for >= 85% of coefficients
    from click.testing import CliRunner
    from fabcr.cli import main as cli_main
    rng = np.random.default_rng(77)
    n, p = 400, 200
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:10] = 5.0
    Y = X @ beta + rng.standard_normal(n)
    header = ",".join(["y"] + ["x%d" % j for j in range(p)])
    rows = [",".join("%.17g" % v for v in [Y[i]] + list(X[i]))
            for i in range(n)]
    path = tmp_path / "sparse.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    res = CliRunner().invoke(cli_main, [
        "regress", "--data", str(path), "--response", "y",
        "--prior", "horseshoe", "--alpha", "0.1", "--sigma2", "1"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    ratios = [float(l.split(",")[-1]) for l in lines[1:] if l.count(",") == 7]
    frac = sum(1.0 for r in ratios if r < 1.0) / len(ratios)
    _report(8, "sparse-regression substitute", frac >= 0.85,
            "FAB narrower than z for %.1f%% of %d coefficients"
            % (100 * frac, len(ratios)))


# -- 9. derivative residuals ------------------------------------------------


def test_criterion_9_derivative_suite():
    ok = True
    worst_dlog = 0.0
    for spec in CATALOG_SPECS:
        m = parse_prior(spec)
        for y in (0.0, 0.5, -0.5, 1.0, -2.0, 5.0, -5.0, 10.0, -10.0):
            h = 6e-6 * max(1.0, abs(y))
            num = (m.log_marginal(y + h) - m.log_marginal(y - h)) / (2 * h)
            d = abs(m.dlog_marginal(y) - num)
            worst_dlog = max(worst_dlog, d)
            if d > 1e-6:
                ok = False
    worst_grad = 0.0
    for spec, ys in (("binom:n=8,a=1.5,b=2", [0, 2, 5, 8]),
                     ("poisson:a=1.2,p=0.3", [0, 1, 4, 11])):
        model = parse_family(spec)
        for y in ys:
            num = (model.lam(y + 1e-5) - model.lam(y - 1e-5)) / 2e-5
            d = abs(model.grad_lam(y) - num)
            worst_grad = max(worst_grad, d)
            if d > 1e-6:
                ok = False
    worst_ode = 0.0
    h = 1e-5
    for i in range(50):
        z = -6.0 + 12.0 * i / 49.0
        deriv = (dawson(z + h) - dawson(z - h)) / (2 * h)
        r = abs(deriv - (1.0 - 2.0 * z * dawson(z)))
        worst_ode = max(worst_ode, r)
        if r > 1e-9:
            ok = False
    for i in range(40):
        z = 0.5 + 4.5 * i / 39.0
        # I0' = I1, through the scaled pair: d/dz i0e = i1e - i0e
        deriv = (bessel_i0e(z + h) - bessel_i0e(z - h)) / (2 * h)
        r = abs(deriv - (bessel_i1e(z) - bessel_i0e(z)))
        worst_ode = max(worst_ode, r)
        if r > 1e-9:
            ok = False
    _report(9, "derivative suite", ok,
            "dlog %.1e, grad-lambda %.1e, ODE/Bessel %.1e"
            % (worst_dlog, worst_grad, worst_ode))
