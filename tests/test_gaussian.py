"""Acceptance intervals and confidence regions for the normal mean."""

import dataclasses
import json
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG_SPECS
from fabcr import _core
from fabcr._core import _kernels_py
from fabcr.errors import DomainError, NumericalError
from fabcr.gaussian import (_ENDPOINT_TOL, AcceptanceInterval,
                            ConfidenceRegion, _bisect, _march, _p_value,
                            _runs, _np_interval, _solve, acceptance_interval,
                            confidence_region, focal_point, p_value_curve,
                            weight, z_interval)
from fabcr.priors import PriorModel, parse_prior

Z90 = 1.6448536269514722   # Phi^-1(0.95)
Z95 = 1.959963984540054    # Phi^-1(0.975)


def _lam(model, theta0, y):
    return model.log_marginal(y) + (y - theta0) ** 2 / (2 * model.sigma ** 2)


# -- acceptance intervals ---------------------------------------------------


def test_flat_acceptance_is_symmetric():
    m = parse_prior("flat")
    ai = acceptance_interval(m, 0.0, 0.1)
    assert abs(ai.w - 0.5) < 1e-12
    assert abs(ai.lo + Z90) < 1e-9 and abs(ai.hi - Z90) < 1e-9
    ai2 = acceptance_interval(m, 3.0, 0.05)
    assert abs(ai2.lo - (3.0 - Z95)) < 1e-9
    assert abs(ai2.hi - (3.0 + Z95)) < 1e-9


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_level_and_equal_ordinate_identities(spec):
    # Phi((hi-t0)/s) - Phi((lo-t0)/s) = 1 - alpha and lam(lo) = lam(hi)
    m = parse_prior(spec)
    rng = random.Random(20240815)
    for _ in range(200):
        theta0 = rng.uniform(-12.0, 12.0)
        alpha = rng.uniform(0.01, 0.99)
        ai = acceptance_interval(m, theta0, alpha)
        mass = (_core.norm_cdf(ai.hi - theta0) - _core.norm_cdf(ai.lo - theta0))
        assert abs(mass - (1.0 - alpha)) <= 1e-9, (spec, theta0, alpha)
        assert abs(_lam(m, theta0, ai.lo) - _lam(m, theta0, ai.hi)) <= 1e-7, \
            (spec, theta0, alpha)
        assert ai.lo < ai.hi


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_acceptance_nested_in_alpha(spec):
    m = parse_prior(spec)
    for theta0 in (-4.0, 0.0, 2.5):
        prev = None
        for alpha in (0.01, 0.05, 0.1, 0.3, 0.6, 0.9):
            ai = acceptance_interval(m, theta0, alpha)
            if prev is not None:
                assert ai.lo >= prev.lo - 1e-7
                assert ai.hi <= prev.hi + 1e-7
            prev = ai


def test_weight_degenerate_regime_gaussian_prior():
    # far from the prior location the solved weight underflows and the
    # cutoff formulation takes over; the level identity must still hold
    m = parse_prior("gaussian:tau=1")
    for theta0 in (12.5, 50.0, -80.0):
        ai = acceptance_interval(m, theta0, 0.1)
        mass = _core.norm_cdf(ai.hi - theta0) - _core.norm_cdf(ai.lo - theta0)
        assert abs(mass - 0.9) < 1e-8
        assert ai.lo < theta0 < ai.hi
        assert abs(_lam(m, theta0, ai.lo) - _lam(m, theta0, ai.hi)) < 1e-6


@pytest.mark.parametrize("kappa", [3, 4])
def test_weight_degenerate_regime_generic_prior(kappa):
    # far out the Laplace weight tends to c_alpha < 1e-8, so the interval
    # comes from the cutoff path of a prior other than the Gaussian
    m = parse_prior("laplace:kappa=%d" % kappa, sigma=0.7)
    for theta0 in (-30.0, 12.0, 500.0):
        for alpha in (0.01, 0.1):
            assert _solve(m, theta0, alpha) is None
            ai = acceptance_interval(m, theta0, alpha)
            outside = (_core.norm_cdf((ai.lo - theta0) / m.sigma)
                       + _core.norm_cdf((theta0 - ai.hi) / m.sigma))
            assert abs(outside - alpha) <= 1e-12, (theta0, alpha, outside)
            lam_lo, lam_hi = _lam(m, theta0, ai.lo), _lam(m, theta0, ai.hi)
            assert abs(lam_lo - lam_hi) <= 1e-14 * max(1.0, abs(lam_lo)), \
                (theta0, alpha, lam_lo, lam_hi)


@pytest.mark.parametrize("spec, sigma, alphas", [
    ("laplace:kappa=3", 0.7, (0.01, 0.1)),
    ("laplace:kappa=4", 0.7, (0.01, 0.1)),
    ("gaussian:tau=1", 1.0, (0.1,)),
])
def test_weight_solve_returns_none_exactly_at_a_degenerate_weight(
        spec, sigma, alphas):
    # the kernel itself leaves a weight within W_CUTOFF of 0 or 1 to the
    # cutoff formulation, whose weight Phi(lo) / alpha tells which side of
    # the cutoff the true one lies on
    cutoff = _kernels_py.W_CUTOFF
    m = parse_prior(spec, sigma=sigma)
    seen = set()
    for theta0 in (-80.0, -30.0, -2.0, 0.0, 1.0, 3.0, 12.0, 12.5, 50.0,
                   500.0):
        for alpha in alphas:
            w_cut = _np_interval(m, theta0, alpha)[0]
            edge = min(w_cut, 1.0 - w_cut)
            if cutoff / 2.0 <= edge <= 2.0 * cutoff:
                continue
            args = m._kernel_args + (theta0 - m.loc, alpha)
            solved = _core.weight_solve(*args)
            seen.add(solved is None)
            if edge < cutoff:
                assert solved is None, (theta0, alpha, solved)
            else:
                w = solved[0]
                assert cutoff < w < 1.0 - cutoff and abs(w - w_cut) < 1e-9, \
                    (theta0, alpha, w, w_cut)
            # the early exit never hands over a degenerate weight
            assert (_core.weight_solve(*args, theta0, 0.0) is None) \
                == (solved is None), (theta0, alpha)
            assert (_solve(m, theta0, alpha) is None) == (solved is None)
    assert seen == {True, False}


@pytest.mark.parametrize("spec", ["horseshoe", "laplace:kappa=1",
                                  "bp:a=1,b=0.5", "flat+atom:gamma=0.1"])
def test_cutoff_formulation_matches_weight_solve(spec):
    # where w is well inside (0,1) both formulations give the same interval;
    # for these priors the cutoff path runs its own minimiser and root search
    m = parse_prior(spec, sigma=1.3)
    for theta0 in (-7.0, 0.0, 0.3, 6.0):
        for alpha in (0.01, 0.1):
            w, lo, hi = _solve(m, theta0, alpha)
            w2, lo2, hi2 = _np_interval(m, theta0, alpha)
            assert abs(w2 - w) < 1e-8 and abs(lo2 - lo) < 1e-8 \
                and abs(hi2 - hi) < 1e-8, (theta0, alpha)


def test_weight_bounds_for_tail_compliant_priors():
    # priors with polynomial-exponential marginal tails keep w away from 0/1
    for spec in ("flat", "flat+atom:gamma=0.5", "horseshoe", "gpd", "bessel",
                 "bp:a=1.5,b=2", "laplace:kappa=1"):
        m = parse_prior(spec)
        for theta0 in (-1e4, -100.0, -1.0, 0.0, 2.0, 300.0, 1e4):
            w = weight(m, theta0, 0.1)
            assert 1e-6 < w < 1.0 - 1e-6, (spec, theta0, w)


def test_weight_scale_and_symmetry():
    for spec in ("horseshoe", "gpd", "bessel", "laplace:kappa=1", "gaussian"):
        m1 = parse_prior(spec, sigma=1.0)
        for sigma in (0.5, 2.0):
            ms = parse_prior(spec, sigma=sigma)
            for theta0 in (0.3, 1.7, 6.0):
                assert abs(weight(ms, theta0, 0.1)
                           - weight(m1, theta0 / sigma, 0.1)) <= 1e-8
        for theta0 in (0.5, 2.0, 9.0):
            assert abs(weight(m1, -theta0, 0.05)
                       + weight(m1, theta0, 0.05) - 1.0) <= 1e-8


def test_alpha_domain():
    m = parse_prior("flat")
    for alpha in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(DomainError):
            acceptance_interval(m, 0.0, alpha)
    with pytest.raises(DomainError):
        confidence_region(m, float("inf"), 0.1)


@pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
def test_acceptance_interval_rejects_non_finite_theta0(theta0):
    with pytest.raises(DomainError, match="theta0"):
        acceptance_interval(parse_prior("horseshoe"), theta0, 0.1)


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
def test_scan_step_must_be_finite_and_positive(step):
    with pytest.raises(DomainError, match="scan_step"):
        confidence_region(parse_prior("horseshoe"), 1.0, 0.1, scan_step=step)


# -- confidence regions -----------------------------------------------------


def test_flat_region_is_z_interval():
    m = parse_prior("flat")
    reg = confidence_region(m, 3.0, 0.1)
    assert abs(reg.lo - (3.0 - Z90)) < 1e-6
    assert abs(reg.hi - (3.0 + Z90)) < 1e-6
    assert reg.focal == 3.0
    assert not reg.multiple_components


@pytest.mark.parametrize("spec", CATALOG_SPECS)
@pytest.mark.parametrize("y", [-6.0, -1.0, 0.0, 0.4, 2.0, 10.0])
def test_region_contains_focal_and_matches_membership(spec, y):
    m = parse_prior(spec)
    reg = confidence_region(m, y, 0.1)
    assert reg.contains(reg.focal)
    # endpoints sit on the membership boundary: just inside is a member
    for edge, inward in ((reg.lo, 1.0), (reg.hi, -1.0)):
        ai = acceptance_interval(m, edge + inward * 1e-4, 0.1)
        assert ai.lo <= y <= ai.hi, (spec, y, edge)
        ai = acceptance_interval(m, edge - inward * 1e-4, 0.1)
        assert not (ai.lo <= y <= ai.hi), (spec, y, edge)


def test_region_nested_in_alpha():
    m = parse_prior("horseshoe")
    prev = None
    for alpha in (0.01, 0.05, 0.2, 0.5):
        reg = confidence_region(m, 2.5, alpha)
        if prev is not None:
            assert reg.lo >= prev.lo - 1e-6 and reg.hi <= prev.hi + 1e-6
        prev = reg


def test_gaussian_prior_region_far_from_location():
    # spends through the cutoff formulation; region must cover the focal
    m = parse_prior("gaussian:tau=1")
    reg = confidence_region(m, 100.0, 0.2)
    assert reg.contains(50.0)  # the focal point (shrunk halfway)
    assert abs(reg.focal - 50.0) < 1e-9
    assert reg.lo < 50.0 < reg.hi
    assert reg.hi > 100.0  # must reach past y itself


def test_robust_region_reverts_far_out():
    for spec in ("horseshoe", "flat+atom:gamma=0.5"):
        m = parse_prior(spec)
        reg = confidence_region(m, 100.0, 0.1)
        assert abs((reg.lo - 100.0) + Z90) < 0.05
        assert abs((reg.hi - 100.0) - Z90) < 0.05


def test_region_where_floats_are_coarser_than_the_tolerance():
    # at y = 1e9 floats are 1.2e-7 apart, wider than the 1e-8 endpoint
    # tolerance: the bisection stops at adjacent floats
    for spec in ("horseshoe", "bessel"):
        reg = confidence_region(parse_prior(spec), 1e9, 0.1)
        assert abs((reg.lo - 1e9) + Z90) < 1e-6, spec
        assert abs((reg.hi - 1e9) - Z90) < 1e-6, spec


@pytest.mark.parametrize("sigma", [1e-75, 1.0, 1e75])
@pytest.mark.parametrize("spec", CATALOG_SPECS + ("gaussian",))
def test_region_far_out_up_to_the_supported_range(spec, sigma):
    # |y - loc| runs up to 1e75 sigma (1e15 sigma for the Gaussian prior with
    # a free tau, here tau = sigma). Past |y| / sigma ~ 4.5e15 floats near y
    # lie further apart than sigma and the region spans the few floats around
    # y; endpoints hold to 1e-8 or to that spacing, whichever is wider.
    m = parse_prior(spec, sigma=sigma)
    if m.tau is not None:
        m = PriorModel("gaussian", sigma=sigma, tau=sigma)
    top = 15 if m.tau is not None else 75
    for k in list(range(0, top, 3)) + [top]:
        for sign in (1.0, -1.0):
            y = sign * 10.0 ** k * sigma
            reg = confidence_region(m, y, 0.1)
            tol = max(_ENDPOINT_TOL, 2.0 * math.ulp(y))
            assert reg.contains(reg.focal), (k, sign)
            assert reg.lo - tol <= y <= reg.hi + tol, (k, sign)
            if m.tail_profile() is not None:
                assert reg.width <= 10.0 * sigma + 2.0 * tol, (k, sign)
    with pytest.raises(DomainError, match="1e75 sigma"):
        confidence_region(m, 1.01 * 10.0 ** top * sigma, 0.1)


@pytest.mark.parametrize("sigma", [1e-76, 1e-170, 1e76])
def test_sigma_outside_the_supported_range_is_refused(sigma):
    m = parse_prior("horseshoe", sigma=sigma)
    with pytest.raises(DomainError, match="sigma in"):
        confidence_region(m, 0.0, 0.1)
    with pytest.raises(DomainError, match="sigma in"):
        acceptance_interval(m, 0.0, 0.1)
    with pytest.raises(DomainError, match="sigma in"):
        p_value_curve(m, 0.0, [0.0])


@pytest.mark.parametrize("tau", [2e-5, 1.01e75])
def test_gaussian_prior_tau_outside_the_supported_range(tau):
    m = PriorModel("gaussian", sigma=2.0, tau=tau)
    with pytest.raises(DomainError, match="tau in"):
        confidence_region(m, 1.0, 0.1)


def _mirror_p_value(theta0, y, sigma, tau, loc):
    """The Gaussian prior's p-value in 60-digit arithmetic: lam is a parabola
    with vertex y* = loc + (theta0 - loc) (sigma^2 + tau^2) / tau^2, and the
    sublevel set through y runs from y to its mirror image 2 y* - y."""
    with mp.workdps(60):
        theta0, y, sigma, tau, loc = map(mp.mpf, (theta0, y, sigma, tau, loc))
        ystar = loc + (theta0 - loc) * (sigma ** 2 + tau ** 2) / tau ** 2
        a, b = sorted((y, 2 * ystar - y))
        return mp.ncdf((a - theta0) / sigma) + mp.ncdf((theta0 - b) / sigma)


@pytest.mark.parametrize("tau_ratio", [1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8])
def test_gaussian_prior_region_far_out_with_a_free_tau(tau_ratio):
    # Far from loc the region comes from the cutoff formulation, whose
    # endpoints must bracket alpha in the exact p-value to 1e-6 sigma (or a
    # few floats) out to the 1e15 sigma reach; cancellation in lam levels of
    # size (y / sigma)^2 shows first at k = 8.5 to 12.
    sigma, loc = 1e-6, 2.5e-6
    m = PriorModel("gaussian", sigma=sigma, tau=tau_ratio * sigma, loc=loc)
    for k in (0, 1, 3, 6, 8.5, 9, 10.5, 12, 15):
        for sign, alpha in ((1.0, 0.1), (-1.0, 0.01)):
            y = loc + sign * 10.0 ** k * sigma
            reg = confidence_region(m, y, alpha)
            d = max(1e-6 * sigma, 8.0 * math.ulp(y), 2.0 * _ENDPOINT_TOL)
            for end, out in ((reg.lo, -1.0), (reg.hi, 1.0)):
                inner = _mirror_p_value(end - out * d, y, sigma, m.tau, loc)
                outer = _mirror_p_value(end + out * d, y, sigma, m.tau, loc)
                assert inner >= alpha >= outer, (k, sign, end)
    with pytest.raises(DomainError, match="1e15 sigma"):
        confidence_region(m, loc + 1.01e15 * sigma, 0.1)


@pytest.mark.parametrize("tau, loc, alpha", [
    (1e-4, 1e9, 0.1), (1e-3, 1e12, 0.1), (1e-3, 1e11, 0.9)])
def test_gaussian_prior_refuses_a_region_finer_than_floats_at_loc(
        tau, loc, alpha):
    # the region near loc is about (1 - alpha) tau^2 / sigma wide; where
    # floats at loc are coarser, the focal point fell outside its region
    # ("focal point not in its own region")
    m = PriorModel("gaussian", sigma=1.0, tau=tau, loc=loc)
    assert math.ulp(loc) > (1.0 - alpha) * tau ** 2
    with pytest.raises(DomainError, match="float spacing at loc"):
        confidence_region(m, loc + 3.0, alpha)


@pytest.mark.parametrize("tau, loc", [(1e-3, 1e9), (1e-4, 1e6)])
def test_gaussian_prior_answers_where_floats_resolve_the_region(tau, loc):
    m = PriorModel("gaussian", sigma=1.0, tau=tau, loc=loc)
    reg = confidence_region(m, loc + 3.0, 0.1)
    assert loc <= reg.lo <= reg.focal <= reg.hi < loc + 5.0


def test_gaussian_prior_tau_far_above_sigma():
    # tau / sigma = 1e6: a regression coefficient with standard error 1e-6
    # under gaussian:tau=1 gives nearly the z-interval
    reg = confidence_region(PriorModel("gaussian", sigma=1e-6, tau=1.0),
                            1e-6, 0.1)
    assert abs(reg.lo - (1e-6 - Z90 * 1e-6)) <= 2.0 * _ENDPOINT_TOL
    assert abs(reg.hi - (1e-6 + Z90 * 1e-6)) <= 2.0 * _ENDPOINT_TOL


@pytest.mark.parametrize("tau, sigma, y", [
    (0.005, 0.5, 2.8117066259517456), (0.05, 0.5, 15811.388300841896),
    (3e-7, 1e-6, 3.162277660168379e-06), (3e-6, 1e-6, 10 ** 6.75 * 1e-6)])
def test_gaussian_prior_level_at_its_minimum(tau, sigma, y):
    # the cutoff formulation asks for the sublevel set through the vertex of
    # lam itself; when that set was found by solving lam's quadratic at a
    # level, rounding put the level below the minimum and the region raised
    # "lam level below its minimum"
    m = PriorModel("gaussian", sigma=sigma, tau=tau)
    reg = confidence_region(m, y, 0.1)
    assert reg.contains(reg.focal)
    assert p_value_curve(m, y, [reg.focal]).pvals[0] >= 0.1


def test_scan_refuses_more_than_a_million_points():
    # the scan covers the search range of about 2 (|y - loc| + 50 sigma)
    with pytest.raises(DomainError, match="scan points"):
        confidence_region(parse_prior("flat"), 1.0, 0.1, scan_step=1e-6)


def test_bounded_width_for_robust_priors():
    for spec in ("horseshoe", "laplace:kappa=1"):
        m = parse_prior(spec)
        widths = [confidence_region(m, y, 0.1).width for y in (1e2, 1e3, 1e4)]
        assert max(widths) <= widths[0] + 0.1, (spec, widths)
        # far out the width settles at its limiting value
        assert max(widths) - min(widths) < 0.1, (spec, widths)


def test_scan_mode_agrees_with_bracketing():
    for spec in ("horseshoe", "laplace:kappa=1", "gaussian:tau=1"):
        m = parse_prior(spec)
        reg = confidence_region(m, 4.0, 0.1)
        scan = confidence_region(m, 4.0, 0.1, scan_step=0.02)
        assert abs(scan.lo - reg.lo) < 0.05
        assert abs(scan.hi - reg.hi) < 0.05


def _assert_certified(m, y, alpha, lo, hi):
    """Each end e of [lo, hi] is where p crosses alpha: p(e - d) < alpha <=
    p(e + d) at the left end and the mirror image at the right, with d the
    endpoint tolerance."""
    d = _ENDPOINT_TOL
    assert _p_value(m, lo - d, y) < alpha <= _p_value(m, lo + d, y), (lo, y)
    assert _p_value(m, hi + d, y) < alpha <= _p_value(m, hi - d, y), (hi, y)


def test_small_alpha_regions_end_where_p_crosses_alpha():
    # the cutoff fallback decides membership by p >= alpha itself: an
    # absolute slack of 1e-12 made every theta0 a member at alpha = 1e-12
    # and moved the ends outward from alpha of about 1e-6 down
    for spec in ("gaussian", "laplace:kappa=1", "laplace:kappa=4",
                 "horseshoe", "flat+atom:gamma=1"):
        m = parse_prior(spec)
        for alpha in (1e-12, 1e-15, 1e-20, 1e-50, 1e-100):
            reg = confidence_region(m, 2.0, alpha)
            _assert_certified(m, 2.0, alpha, reg.lo, reg.hi)


def test_small_alpha_region_of_a_free_tau_ends_where_p_crosses_alpha():
    m = parse_prior("gaussian:tau=0.3,loc=50")
    reg = confidence_region(m, 60.0, 1e-7)
    _assert_certified(m, 60.0, 1e-7, reg.lo, reg.hi)


def test_scan_mode_finds_both_components_of_a_two_piece_region():
    # a counterexample to "Gaussian regions are intervals": with a tiny
    # atom the upper acceptance bound falls as theta0 rises near 5.46, so
    # p >= alpha on two runs of theta0; the default mode returns the one
    # that holds the focal point and scan mode returns both
    m = parse_prior("flat+atom:gamma=1e-8")
    y, alpha, step = 8.167965163297522, 0.5, 1e-3
    assert acceptance_interval(m, 5.47, alpha).hi \
        < acceptance_interval(m, 5.45, alpha).hi - 0.01
    grid = [3.0 + step * i for i in range(6001)]
    runs = _runs([p >= alpha for p in p_value_curve(m, y, grid).pvals])
    assert len(runs) == 2
    scan = confidence_region(m, y, alpha, scan_step=step)
    assert scan.multiple_components and len(scan.intervals) == 2
    for (i, j), (lo, hi) in zip(runs, scan.intervals):
        assert grid[i - 1] < lo <= grid[i] + _ENDPOINT_TOL, (lo, grid[i])
        assert grid[j] - _ENDPOINT_TOL <= hi < grid[j + 1], (hi, grid[j])
    reg = confidence_region(m, y, alpha)
    assert reg.intervals == ((reg.lo, reg.hi),)
    assert abs(reg.lo - scan.intervals[1][0]) < 1e-7
    assert abs(reg.hi - scan.intervals[1][1]) < 1e-7
    assert scan.intervals[1][0] <= reg.focal <= scan.intervals[1][1]


def _runs_by_loop(flags):
    """The runs of `_runs`, found by walking every flag."""
    runs, start = [], None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(flags) - 1))
    return runs


def test_runs_are_the_loop_runs():
    rnd = random.Random(20261020)
    cases = [[], [False], [True], [False] * 7, [True] * 7]
    for _ in range(400):
        n = rnd.choice((1, 2, 3, 10, 100, 1000))
        share = rnd.random()
        cases.append([rnd.random() < share for _ in range(n)])
    for flags in cases:
        want = _runs_by_loop(flags)
        for given_as in (flags, np.array(flags, dtype=bool)):
            got = _runs(given_as)
            assert got == want
            assert all(type(i) is int for run in got for i in run)


def test_region_json_roundtrip():
    m = parse_prior("bessel")
    reg = confidence_region(m, 1.7, 0.05)
    again = ConfidenceRegion.from_json(reg.to_json())
    assert again == reg
    payload = json.loads(reg.to_json())
    assert payload["prior"] == "bessel"


def test_location_equivariance():
    base = confidence_region(parse_prior("horseshoe"), 2.0, 0.1)
    shifted = confidence_region(parse_prior("horseshoe:loc=5"), 7.0, 0.1)
    assert abs(shifted.lo - (base.lo + 5.0)) < 1e-6
    assert abs(shifted.hi - (base.hi + 5.0)) < 1e-6


@pytest.mark.parametrize("spec", ["horseshoe", "laplace:kappa=1"])
def test_region_far_below_prior_location(spec):
    # y far on the near-zero side of a distant location: the endpoint search
    # range is measured from the location, so it still holds the region
    base = confidence_region(parse_prior(spec), -1000.0, 0.1)
    loc = ("," if ":" in spec else ":") + "loc=1000"
    shifted = confidence_region(parse_prior(spec + loc), 0.0, 0.1)
    assert shifted.lo < shifted.focal < shifted.hi
    assert abs(shifted.lo - (base.lo + 1000.0)) < 1e-6
    assert abs(shifted.hi - (base.hi + 1000.0)) < 1e-6


# -- early exit of the weight solve -----------------------------------------


def _decision(model, theta0, alpha, y, settle):
    """What `_solve` decides about y at theta0: None where it hands over to
    the cutoff formulation, else whether its bounds hold y. With `settle`
    the solve may stop as soon as its bracket settles that."""
    solved = _solve(model, theta0, alpha, y if settle else None)
    return None if solved is None else solved[1] <= y <= solved[2]


def _assert_early_exit_decides_as_the_full_solve(model, alpha, y, thetas):
    for theta0 in thetas:
        assert _decision(model, theta0, alpha, y, True) \
            == _decision(model, theta0, alpha, y, False), (theta0, y, alpha)


def _assert_decisions_near_the_region(model, y, alpha):
    """theta0 at 1e-12 to 1e-6 sigma on both sides of each region endpoint
    and far away, and y on (and one float off) the solved bounds."""
    s = model.sigma
    reg = confidence_region(model, y, alpha)
    thetas = [reg.focal, reg.lo - 30.0 * s, reg.hi + 30.0 * s]
    for end in (reg.lo, reg.hi):
        thetas += [end + sign * 10.0 ** k * s
                   for k in range(-12, -5) for sign in (1.0, -1.0)]
    _assert_early_exit_decides_as_the_full_solve(model, alpha, y, thetas)
    for theta0 in (reg.focal, reg.lo, reg.hi, 0.5 * (reg.lo + y)):
        solved = _solve(model, theta0, alpha)
        if solved is None:
            continue
        for edge in solved[1:]:
            for on in (edge, math.nextafter(edge, -math.inf),
                       math.nextafter(edge, math.inf)):
                _assert_early_exit_decides_as_the_full_solve(
                    model, alpha, on, [theta0])


def _located(spec, sigma, loc):
    m = parse_prior(spec, sigma=sigma)
    if m.kind == "gaussian":
        # tau tied to sigma: a free tau = 1 is refused at most of these
        # sigma and loc (see `_in_range`)
        return PriorModel("gaussian", sigma=sigma, loc=loc)
    return dataclasses.replace(m, loc=loc)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.sampled_from(CATALOG_SPECS), st.floats(-6.0, 6.0),
       st.sampled_from((0.0, 1.0, -1.0)), st.floats(0.0, 12.0),
       st.floats(0.01, 0.5), st.floats(-8.0, 8.0))
def test_early_exit_decides_as_the_full_solve(spec, log_sigma, loc_sign,
                                              log_loc, alpha, offset):
    sigma, loc = 10.0 ** log_sigma, loc_sign * 10.0 ** log_loc
    _assert_decisions_near_the_region(_located(spec, sigma, loc),
                                      loc + offset * sigma, alpha)


@pytest.mark.parametrize("spec, sigma, loc, offset, alpha", [
    ("horseshoe", 1.0, 0.0, 3.0, 0.1),
    ("laplace:kappa=2", 0.5, 0.0, 5.643155, 0.01),  # w near 1 - 1e-8
    ("horseshoe", 1e-6, 1e12, 2.0, 0.1),    # floats at loc 1.2e-4 apart
    ("bp:a=1.5,b=2", 1.0, -1e12, -4.0, 0.5),
    ("gpd", 1e6, 3e6, 0.3, 0.01),
    ("bessel", 1e-3, 7e5, 40.0, 0.2),
    ("flat+atom:gamma=0.5", 2.0, 1e9, 1.5, 0.05),
    ("gaussian", 1.0, 1e3, 9.0, 0.1),     # degenerate weight far from loc
])
def test_early_exit_decides_as_the_full_solve_at_fixed_inputs(
        spec, sigma, loc, offset, alpha):
    _assert_decisions_near_the_region(_located(spec, sigma, loc),
                                      loc + offset * sigma, alpha)


def test_free_tau_gaussian_membership_with_the_early_exit():
    # near loc the weight is solved, far from it the cutoff path decides
    m = PriorModel("gaussian", sigma=1.0, tau=0.3, loc=50.0)
    for y in (50.0, 51.5, 60.0):
        _assert_decisions_near_the_region(m, y, 0.1)


def test_region_work_with_the_early_exit(monkeypatch):
    # horseshoe, sigma = 1, y = 3, alpha = 0.1 takes 61 weight solves; solved
    # to 1e-13 each, with the four quantiles at the bracket's initial ends
    # on every solve, they took 1,756 kernel log-marginals and 1,858 normal
    # quantiles
    calls = {"log_marginal": 0, "norm_quantile": 0, "weight_solve": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(_kernels_py, name))
        monkeypatch.setattr(_kernels_py, name, wrapper)
        monkeypatch.setattr(_core, name, wrapper)
    _kernels_py._end_quantiles.cache_clear()
    confidence_region(parse_prior("horseshoe"), 3.0, 0.1)
    assert calls["weight_solve"] == 61
    assert calls["log_marginal"] <= 1164
    assert calls["norm_quantile"] <= 926


def test_focal_check_reads_the_fully_solved_bounds(monkeypatch):
    # the focal check allows 1e-7 sigma of slack around the solved bounds;
    # bounds at a bracket end of an early exit would loosen it, so its
    # solve runs in full (the six-argument call) and every later one may
    # stop early
    m = parse_prior("horseshoe")
    reg = confidence_region(m, 3.0, 0.1)
    solve = _core.weight_solve
    nargs = []

    def spy(*args):
        nargs.append(len(args))
        return solve(*args)

    monkeypatch.setattr(_core, "weight_solve", spy)
    for focal, member in ((reg.hi - 1e-4, True), (reg.hi + 1e-4, False),
                          (reg.lo - 1e-4, False)):
        monkeypatch.setattr(PriorModel, "posterior_mean",
                            lambda self, y, focal=focal: focal)
        nargs.clear()
        if member:
            assert confidence_region(m, 3.0, 0.1).focal == focal
            assert nargs[0] == 6 and set(nargs[1:]) == {8}
        else:
            with pytest.raises(NumericalError, match="focal point"):
                confidence_region(m, 3.0, 0.1)
            assert nargs == [6]


# -- p-value curves ---------------------------------------------------------


def test_p_value_curve_flat_matches_two_sided_z():
    m = parse_prior("flat")
    curve = p_value_curve(m, 1.2, [0.0, 0.7, 1.2, 2.5])
    for t, p in zip(curve.grid, curve.pvals):
        want = 2.0 * (1.0 - _core.norm_cdf(abs(1.2 - t)))
        assert abs(p - want) <= 2e-5, (t, p, want)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
def test_p_value_flat_closed_form(sigma):
    # p = 2 Phi(-|y - theta0| / sigma), exactly rather than to a tolerance
    y = 1.2
    grid = [y + sigma * d
            for d in (-7.5, -3.0, -1.0, -0.3, 0.0, 0.5, 2.0, 6.0)]
    curve = p_value_curve(parse_prior("flat", sigma=sigma), y, grid)
    for t, p in zip(curve.grid, curve.pvals):
        want = 2.0 * _core.norm_cdf(-abs(y - t) / sigma)
        assert abs(p - want) <= 1e-12, (t, p, want)


def test_p_value_peaks_at_focal():
    m = parse_prior("gaussian:tau=1")
    focal = focal_point(m, 1.0)
    curve = p_value_curve(m, 1.0, [focal - 0.4, focal, focal + 0.4])
    assert curve.pvals[1] >= 1.0 - 1e-4
    assert curve.pvals[1] >= max(curve.pvals[0], curve.pvals[2])


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_p_value_curve_rejects_non_finite_y(y):
    # the membership tests compare against y and would report all zeros
    with pytest.raises(DomainError):
        p_value_curve(parse_prior("horseshoe"), y, [0.0, 1.0])


@pytest.mark.parametrize("theta0", [math.nan, math.inf])
def test_p_value_curve_rejects_non_finite_grid(theta0):
    with pytest.raises(DomainError, match="theta0"):
        p_value_curve(parse_prior("horseshoe"), 0.0, [0.0, theta0])


def test_p_value_far_null_is_zero():
    m = parse_prior("flat")
    curve = p_value_curve(m, 0.0, [40.0])
    assert curve.pvals[0] == 0.0


# -- z interval -------------------------------------------------------------


def test_z_interval():
    lo, hi = z_interval(2.0, 1.0, 0.05)
    assert abs(lo - (2.0 - Z95)) < 1e-12
    assert abs(hi - (2.0 + Z95)) < 1e-12
    lo, hi = z_interval(0.0, 3.0, 0.1)
    assert abs(hi - 3.0 * Z90) < 1e-12


# -Phi^-1(alpha / 2), from erfc(z / sqrt(2)) = alpha in 40-digit mpmath
_Z_HALF = {0.1: 1.644853626951472688, 1e-6: 4.8916384756985903951,
           1e-10: 6.4669510872405161663, 1e-14: 7.7392563195043732576,
           1e-20: 9.3360448492340600412, 1e-300: 37.065787880772130393}


def test_z_interval_through_the_lower_tail():
    # Phi^-1(1 - alpha / 2) lost digits as 1 - alpha / 2 neared 1 (1.3e-5
    # relative at alpha = 1e-14) and raised once it rounded to 1
    for alpha, z in _Z_HALF.items():
        lo, hi = z_interval(0.0, 1.0, alpha)
        assert lo == -hi and abs(hi - z) <= 2.5e-16 * z, (alpha, hi, z)


# -- bracket search ---------------------------------------------------------


def test_march_returns_last_step_bracket():
    probes = []

    def below_ten(t):
        probes.append(t)
        return t < 10.0

    # probes at start + 1, 3, 7, 15: the last inside/outside pair is returned
    assert _march(below_ten, 0.0, 1.0, 1.0) == (7.0, 15.0)
    assert probes == [1.0, 3.0, 7.0, 15.0]
    assert _march(lambda t: t > -10.0, 0.0, -1.0, 1.0) == (-7.0, -15.0)


def test_march_clips_at_limit():
    # the probe past the limit is moved onto it; inside there means None
    assert _march(lambda t: t < 10.0, 0.0, 1.0, 1.0, limit=12.0) == (7.0, 12.0)
    assert _march(lambda t: t < 10.0, 0.0, 1.0, 1.0, limit=9.0) is None
    assert _march(lambda t: t > -10.0, 0.0, -1.0, 1.0, limit=-9.0) is None


def test_march_step_budget_raises():
    with pytest.raises(NumericalError) as info:
        _march(lambda t: True, 0.0, 1.0, 1.0, prior="test")
    assert info.value.diagnostics["prior"] == "test"
    assert info.value.diagnostics["direction"] == 1.0


def test_march_first_step_is_at_least_the_float_spacing():
    # floats near 1e20 are 16384 apart: a first step of 1 would not move
    probes = []

    def below(t):
        probes.append(t)
        return t < 1e20 + 1e5

    assert _march(below, 1e20, 1.0, 1.0) == (1e20 + 49152.0, 1e20 + 114688.0)
    assert probes == [1e20 + 16384.0, 1e20 + 49152.0, 1e20 + 114688.0]


def test_bisect_reaches_tolerance():
    root = math.sqrt(2.0)
    got = _bisect(lambda t: t * t < 2.0, 1.0, 2.0, 1e-10)
    assert abs(got - root) <= 1e-10
    # either end may be the inside one
    got = _bisect(lambda t: t * t > 2.0, 2.0, 1.0, 1e-10)
    assert abs(got - root) <= 1e-10


def test_bisect_stops_below_float_spacing():
    # a tolerance below the spacing of floats near the root cannot be met;
    # the search ends once no float lies between the bracket ends
    calls = []

    def inside_at(t):
        calls.append(t)
        return t < 0.75

    got = _bisect(inside_at, 0.5, 1.0, 1e-300)
    assert abs(got - 0.75) <= 2.0 ** -52
    assert len(calls) <= 60
