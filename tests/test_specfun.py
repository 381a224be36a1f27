"""Special-function kernels of ``fabcr._core``: frozen reference values
and identities.

Reference constants were computed with mpmath at 40 decimal digits and
frozen here. Only the large-b Kummer check calls mpmath at run time, over a
grid too wide to freeze. The kernels assume arguments inside their domains;
the public entry points validate input.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabcr import _core
from fabcr._core._kernels_py import (bessel_i0e, bessel_i1e, dawson,
                                     log_kummer_1f1_neg, norm_log_cdf,
                                     norm_pdf)

# -- normal CDF / quantile --------------------------------------------------


def test_cdf_basic_values():
    assert _core.norm_cdf(0.0) == 0.5
    assert abs(_core.norm_cdf(1.959963984540054) - 0.975) < 1e-15
    tail = _core.norm_cdf(-8.0)
    assert abs(tail - 6.220960574271784124e-16) <= 1e-13 * tail


@given(st.floats(min_value=-37.0, max_value=37.0))
def test_cdf_symmetry(z):
    assert abs(_core.norm_cdf(z) + _core.norm_cdf(-z) - 1.0) < 1e-15


def test_pdf_values():
    assert abs(norm_pdf(0.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-16
    assert abs(norm_pdf(2.0)
               - math.exp(-2.0) / math.sqrt(2 * math.pi)) < 1e-16


def test_log_cdf_deep_tail():
    # log Phi(-40) = -804.608442013754417 (Mills-series regime)
    assert abs(norm_log_cdf(-40.0) + 804.60844201375441696) < 1e-10
    assert abs(norm_log_cdf(1.3)
               - math.log(_core.norm_cdf(1.3))) < 1e-14


def test_quantile_values():
    assert _core.norm_quantile(0.5) == 0.0
    assert abs(_core.norm_quantile(0.95) - 1.6448536269514722) < 1e-12
    assert abs(_core.norm_quantile(0.975) - 1.959963984540054) < 1e-12


@pytest.mark.parametrize("p", [1e-300, 1e-100, 1e-16, 1e-8, 0.3, 0.5, 0.77,
                               1 - 1e-8, 1 - 1e-12, 1 - 1e-16])
def test_quantile_cdf_roundtrip(p):
    z = _core.norm_quantile(p)
    assert abs(_core.norm_cdf(z) - p) <= 1e-14 * max(1.0, abs(p))


@given(st.floats(min_value=-8.0, max_value=5.0))
@settings(max_examples=200)
def test_cdf_quantile_roundtrip(z):
    # above z ~ 5 the representation gap of p near 1 dominates the roundtrip
    assert abs(_core.norm_quantile(_core.norm_cdf(z)) - z) < 1e-9


# -- log Kummer 1F1 at negative argument ----------------------------------

# log 1F1(a, a + b_extra, -x) on the Kummer-transformation grid, which
# crosses the 45 cutoff between the transformed series and the asymptotic
# expansion
_LOG_KUMMER_NEG = {
    (0.5, 0.5, 1.0): -0.43845028081451869606,
    (0.5, 0.5, 10.0): -1.6953182241774665662,
    (0.5, 0.5, 100.0): -2.8724244981281954158,
    (0.5, 0.5, 700.0): -3.8475474558599051959,
    (0.5, 1.0, 1.0): -0.291925552876286179,
    (0.5, 1.0, 10.0): -1.2720825283786857073,
    (0.5, 1.0, 100.0): -2.4233673306292909064,
    (0.5, 1.0, 700.0): -3.3963224051569475589,
    (0.5, 1.5, 1.0): -0.22132511363211618548,
    (0.5, 1.5, 10.0): -1.0569529756816752756,
    (0.5, 1.5, 100.0): -2.1843155042540392721,
    (0.5, 1.5, 700.0): -3.1551153282720526681,
    (1.0, 0.5, 1.0): -0.61974894737335017429,
    (1.0, 0.5, 10.0): -2.9367545413673906605,
    (1.0, 0.5, 100.0): -5.2932532670204029551,
    (1.0, 0.5, 700.0): -7.2435119498610799893,
    (1.0, 1.0, 1.0): -0.45867514538708189102,
    (1.0, 1.0, 10.0): -2.3026304939544161732,
    (1.0, 1.0, 100.0): -4.605170185988091368,
    (1.0, 1.0, 700.0): -6.5510803350434046731,
    (1.0, 1.5, 1.0): -0.3668973874866935621,
    (1.0, 1.5, 10.0): -1.951615855727988995,
    (1.0, 1.5, 100.0): -4.2047431323090756789,
    (1.0, 1.5, 700.0): -6.1463302795400166348,
    (1.5, 0.5, 1.0): -0.71618151096877644761,
    (1.5, 0.5, 10.0): -3.9338318148585566388,
    (1.5, 0.5, 100.0): -7.4725043994753200289,
    (1.5, 0.5, 700.0): -10.397911711653318149,
    (1.5, 1.0, 1.0): -0.56489990878639392905,
    (1.5, 1.0, 10.0): -3.1693645258615798484,
    (1.5, 1.0, 100.0): -6.6230724085092178924,
    (1.5, 1.0, 700.0): -9.5419376320921878501,
    (1.5, 1.5, 1.0): -0.46891108590544384565,
    (1.5, 1.5, 10.0): -2.7243487013284796017,
    (1.5, 1.5, 100.0): -6.1014022082810742257,
    (1.5, 1.5, 700.0): -9.0137640473942482833,
}


def test_kummer_trivia():
    assert log_kummer_1f1_neg(0.7, 1.3, 0.0) == 0.0
    # 1F1(1, 2, -x) = (1 - e^{-x}) / x
    assert abs(log_kummer_1f1_neg(1.0, 2.0, -1.0)
               - math.log(-math.expm1(-1.0))) < 1e-14


def test_kummer_frozen_value():
    # 1F1(1/2, 3/2, -1) = sqrt(pi)/2 * erf(1)
    assert abs(math.exp(log_kummer_1f1_neg(0.5, 1.5, -1.0))
               - 0.74682413281242702540) < 1e-14


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("b_extra", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("x", [1.0, 10.0, 100.0, 700.0])
def test_kummer_transformation(a, b_extra, x):
    got = log_kummer_1f1_neg(a, a + b_extra, -x)
    want = _LOG_KUMMER_NEG[a, b_extra, x]
    assert abs(math.exp(got - want) - 1.0) <= 1e-10


# (a, b) pairs past the large-x series: b - a up to 400, integral b - a with
# a large a (the series terminates but drops a part that is not small), and
# the beta-prime arguments (a + 1/2, a + b + 1/2) and (a + 3/2, a + b + 3/2)
# of bp:a=0.1,b=59 and bp:a=0.1,b=100
_LARGE_B_PAIRS = tuple((f * b, b) for b in (2.0, 15.0, 45.0, 100.6, 400.0)
                       for f in (0.01, 0.5, 0.99)) + (
    (14.0, 15.0), (198.0, 200.0), (399.0, 400.0),
    (0.6, 59.6), (1.6, 60.6), (0.6, 100.6), (1.6, 101.6))


@pytest.mark.parametrize("a, b", _LARGE_B_PAIRS)
def test_kummer_large_b_matches_mpmath(a, b):
    for x in (45.0 + 1e-9, 45.5, 60.0, 165.0, 700.0, 2000.0):
        got = log_kummer_1f1_neg(a, b, -x)
        with mp.workdps(30):
            want = mp.log(mp.hyp1f1(a, b, -x))
            err = abs(float(mp.expm1(got - want)))
        assert err <= 1e-10, (a, b, x, got, float(want))


# -- Dawson integral --------------------------------------------------------


def test_dawson_values():
    assert dawson(0.0) == 0.0
    assert abs(dawson(1.0) - 0.53807950691276841914) < 1e-14
    # asymptotic regime: D(z) ~ 1/(2z) + 1/(4z^3)
    assert abs(dawson(50.0) - 0.010002001201201683031) < 1e-14


@given(st.floats(min_value=-20.0, max_value=20.0))
def test_dawson_odd(z):
    assert dawson(-z) == -dawson(z)


def test_dawson_ode_residual():
    # D'(z) = 1 - 2 z D(z); check with central differences
    h = 1e-5
    for i in range(50):
        z = -6.0 + 12.0 * i / 49.0
        deriv = (dawson(z + h) - dawson(z - h)) / (2 * h)
        resid = deriv - (1.0 - 2.0 * z * dawson(z))
        assert abs(resid) <= 1e-9, (z, resid)


# -- scaled modified Bessel I0, I1 ----------------------------------------


def test_bessel_values():
    assert bessel_i0e(0.0) == 1.0
    assert bessel_i1e(0.0) == 0.0
    assert abs(math.e * bessel_i0e(1.0) - 1.26606587775200833560) < 1e-13
    assert abs(math.e * bessel_i1e(1.0) - 0.56515910399248502721) < 1e-13
    # scaled difference that drives the bessel-kind marginal
    got = bessel_i0e(5.0) - bessel_i1e(5.0)
    assert abs(got - 0.019568545664785996148) <= 1e-10 * abs(got)


# e^{-z} I0(z) inside the series range z <= 18, the only one the bessel
# marginal evaluates (it takes the general beta-prime form beyond)
_I0E = {0.1: 0.907100925782301091652, 1.0: 0.465759607593640436502,
        8.0: 0.143431781856850310711}


def test_bessel_scaled_consistency():
    for z, want in _I0E.items():
        assert abs(bessel_i0e(z) - want) < 1e-14
        assert 0.0 < bessel_i0e(z) <= 1.0
        assert 0.0 <= bessel_i1e(z) < bessel_i0e(z) or z == 0.0


def test_bessel_derivative_residual():
    # I0' = I1, so d/dz [e^{-z} I0(z)] = i1e(z) - i0e(z)
    h = 1e-5
    for i in range(40):
        z = 0.5 + 4.5 * i / 39.0
        deriv = (bessel_i0e(z + h) - bessel_i0e(z - h)) / (2 * h)
        resid = deriv - (bessel_i1e(z) - bessel_i0e(z))
        assert abs(resid) <= 1e-9, (z, resid)


# -- digamma / log-gamma / log-beta -----------------------------------------


def test_digamma_values():
    assert abs(_core.digamma(1.0) + 0.57721566490153286061) < 1e-14
    assert abs(_core.digamma(0.5) + 1.96351002602142347944) < 1e-13


@given(st.floats(min_value=1e-3, max_value=50.0))
@settings(max_examples=200)
def test_digamma_recurrence(x):
    lhs = _core.digamma(x + 1.0) - _core.digamma(x)
    assert abs(lhs - 1.0 / x) <= 1e-12 * max(1.0, 1.0 / x)


def test_log_gamma_values():
    assert _core.log_gamma(1.0) == 0.0
    assert _core.log_gamma(2.0) == 0.0
    assert abs(_core.log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
    assert abs(_core.log_gamma(10.0) - math.log(362880.0)) < 1e-12


def test_log_beta_identity():
    for a, b in ((0.5, 0.5), (1.0, 3.0), (2.5, 7.0)):
        want = (_core.log_gamma(a) + _core.log_gamma(b)
                - _core.log_gamma(a + b))
        assert abs(_core.log_beta(a, b) - want) < 1e-12

