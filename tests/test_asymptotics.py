"""Limiting behaviour far from the prior location.

The frozen c_alpha table was computed by 40-digit bisection in mpmath.
"""

import pytest

from fabcr import _core
from fabcr.errors import DomainError, NumericalError, UnsupportedModelError
from fabcr.asymptotics import (c_alpha, focal_drift, g_alpha, g_alpha_inv,
                               limit_interval)
from fabcr.gaussian import confidence_region
from fabcr.priors import parse_prior

Z90 = 1.6448536269514722

# (alpha, kappa) -> c_alpha, frozen oracle values
C_ALPHA_TABLE = {
    (0.05, 0.5): 0.0732978559807906215,
    (0.05, 1.0): 0.0026620323567218854,
    (0.05, 2.0): 1.65321764057094605e-7,
    (0.10, 0.5): 0.09674157110956312,
    (0.10, 1.0): 0.00510875479919934755,
    (0.10, 2.0): 6.40470814312532116e-7,
}


# -- spending-difference function g and its inverse -------------------------


def test_g_alpha_basics():
    assert abs(g_alpha(0.1, 0.5)) < 1e-14
    # at alpha = 1 the two quantiles merge: g_1(w) = 2 Phi^-1(w)
    assert abs(g_alpha(1.0, 0.8) - 2.0 * _core.norm_quantile(0.8)) < 1e-12
    want = _core.norm_quantile(0.025) - _core.norm_quantile(0.075)
    assert abs(g_alpha(0.1, 0.25) - want) < 1e-13


def test_g_alpha_strictly_increasing():
    for alpha in (0.05, 0.3, 0.9):
        prev = None
        for i in range(1, 1000):
            v = g_alpha(alpha, i / 1000.0)
            if prev is not None:
                assert v > prev
            prev = v


def test_g_alpha_inv_roundtrip():
    for alpha in (0.05, 0.1, 0.5):
        assert abs(g_alpha_inv(alpha, 0.0) - 0.5) < 1e-13
        for w in (0.01, 0.2, 0.5, 0.77, 0.999, 0.999999):
            t = g_alpha(alpha, w)
            assert abs(g_alpha_inv(alpha, t) - w) < 1e-12
        # t > 0: the root is above 1/2, where floats are 1.1e-16 apart, wider
        # than the bisection tolerance
        for t in (0.5, 3.0):
            w = g_alpha_inv(alpha, t)
            assert 0.5 < w < 1.0
            assert abs(g_alpha(alpha, w) - t) < 1e-9
    # alpha = 1 closed form: g_1^-1(t) = Phi(t/2)
    for t in (-3.0, -0.4, 1.1):
        assert abs(g_alpha_inv(1.0, t) - _core.norm_cdf(t / 2.0)) < 1e-12


def test_g_domain():
    with pytest.raises(DomainError):
        g_alpha(0.0, 0.5)
    with pytest.raises(DomainError):
        g_alpha(0.1, 0.0)
    with pytest.raises(DomainError):
        g_alpha_inv(0.1, float("inf"))


# -- limiting weight c_alpha ------------------------------------------------


def test_c_alpha_frozen_table():
    for (alpha, kappa), want in C_ALPHA_TABLE.items():
        got = c_alpha(alpha, kappa)
        assert abs(got - want) <= 1e-9 * want, (alpha, kappa, got, want)


def test_c_alpha_kappa_zero_is_half():
    for alpha in (0.01, 0.1, 0.6):
        assert abs(c_alpha(alpha, 0.0) - 0.5) < 1e-12


def test_c_alpha_below_gaussian_tail_bound():
    # 0 < c_alpha <= Phi(-kappa) for every level
    for alpha in (0.01, 0.1, 0.3):
        for kappa in (0.25, 0.5, 1.0, 2.0, 4.0):
            c = c_alpha(alpha, kappa)
            assert 0.0 < c <= _core.norm_cdf(-kappa) + 1e-12, (alpha, kappa)


# -- limiting intervals -----------------------------------------------------


def test_limit_interval_power_tails_give_z():
    for spec in ("flat", "horseshoe", "gpd", "bessel", "flat+atom:gamma=0.5"):
        li = limit_interval(parse_prior(spec), 0.1)
        assert abs(li.lo_offset + Z90) < 1e-10, spec
        assert abs(li.hi_offset - Z90) < 1e-10, spec
        assert abs(li.c_alpha - 0.5) < 1e-10


def test_limit_interval_laplace_shifted_toward_origin():
    # with an exponential prior tail the limit interval leans back toward
    # the prior location: longer on the lower side as y -> +inf
    li = limit_interval(parse_prior("laplace:kappa=1"), 0.1)
    c = C_ALPHA_TABLE[(0.10, 1.0)]
    assert abs(li.lo_offset + _core.norm_quantile(1.0 - 0.1 * c)) < 1e-9
    assert abs(li.hi_offset - _core.norm_quantile(1.0 - 0.1 * (1.0 - c))) < 1e-9
    assert -li.lo_offset > li.hi_offset


def test_limit_interval_mirrored_directions():
    m = parse_prior("laplace:kappa=2")
    plus = limit_interval(m, 0.05, direction="+inf")
    minus = limit_interval(m, 0.05, direction="-inf")
    assert abs(plus.lo_offset + minus.hi_offset) < 1e-12
    assert abs(plus.hi_offset + minus.lo_offset) < 1e-12


def test_limit_interval_scale():
    m = parse_prior("laplace:kappa=1", sigma=3.0)
    li1 = limit_interval(parse_prior("laplace:kappa=1"), 0.1)
    li3 = limit_interval(m, 0.1)
    assert abs(li3.lo_offset - 3.0 * li1.lo_offset) < 1e-9
    assert abs(li3.hi_offset - 3.0 * li1.hi_offset) < 1e-9


def test_limit_interval_rejects_gaussian_prior():
    with pytest.raises(UnsupportedModelError):
        limit_interval(parse_prior("gaussian:tau=1"), 0.1)
    with pytest.raises(UnsupportedModelError):
        focal_drift(parse_prior("gaussian:tau=1"))


def test_limit_interval_bad_args():
    m = parse_prior("horseshoe")
    with pytest.raises(DomainError):
        limit_interval(m, 0.0)
    with pytest.raises(DomainError):
        limit_interval(m, 0.1, direction="up")


@pytest.mark.parametrize("kappa,alpha", [(3.0, 0.01), (4.0, 0.1),
                                         (4.0, 0.01)])
def test_limit_interval_refuses_unresolved_weight(kappa, alpha):
    # alpha * c_alpha is below half an ulp of 1, so 1 - alpha c rounds to 1
    # and the quantile of the lower offset is undefined
    with pytest.raises(NumericalError, match="too small to resolve") as exc:
        limit_interval(parse_prior("laplace:kappa=%g" % kappa), alpha)
    assert exc.value.diagnostics["kappa"] == kappa
    assert exc.value.diagnostics["alpha"] == alpha


# -- agreement with directly computed regions -------------------------------


@pytest.mark.parametrize("spec", ["horseshoe", "laplace:kappa=1"])
def test_limits_match_far_regions(spec):
    m = parse_prior(spec)
    li = limit_interval(m, 0.1)
    reg = confidence_region(m, 1e4, 0.1)
    assert abs((reg.lo - 1e4) - li.lo_offset) < 1e-2
    assert abs((reg.hi - 1e4) - li.hi_offset) < 1e-2
    rev = confidence_region(m, -1e4, 0.1)
    lim = limit_interval(m, 0.1, direction="-inf")
    assert abs((rev.lo + 1e4) - lim.lo_offset) < 1e-2
    assert abs((rev.hi + 1e4) - lim.hi_offset) < 1e-2


def test_focal_drift():
    assert focal_drift(parse_prior("horseshoe")) == 0.0
    assert focal_drift(parse_prior("laplace:kappa=2")) == 2.0
    assert focal_drift(parse_prior("laplace:kappa=2"), direction="-inf") == -2.0
    assert focal_drift(parse_prior("laplace:kappa=1", sigma=3.0)) == 3.0
    m = parse_prior("laplace:kappa=1")
    assert abs((1e4 - m.posterior_mean(1e4)) - focal_drift(m)) < 1e-9
