"""Discrete exponential-family regions (binomial, Poisson, multinomial).

Independent oracles use scipy.stats pmfs: the acceptance set must equal the
set kept when outcomes are ranked by the marginal-to-null likelihood ratio.
The batched grid pass is compared, bit for bit, with the scalar loop that
builds one acceptance set at a time.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fabcr.errors import DomainError, NumericalError, SpecParseError
from fabcr.nef import (NefModel, _grid_flags, acceptance_set,
                       confidence_region_nef, parse_family, theta_grid)
from fabcr import _core, nef

EULER = 0.57721566490153286061


# -- parsing and validation -------------------------------------------------


def test_parse_family():
    m = parse_family("binom:n=8,a=1,b=1")
    assert m.family == "binom" and m.n == 8 and m.a == (1.0,) and m.b == 1.0
    m = parse_family("poisson:a=2,p=0.5")
    assert m.family == "poisson" and m.a == (2.0,) and m.p == 0.5
    m = parse_family("multinom:n=15,a1=1,a2=1,a3=1")
    assert m.family == "multinom" and m.k == 3 and m.n == 15


@pytest.mark.parametrize("bad", [
    "", "gamma:n=1", "binom:n=8,a=1", "binom:n=8,a=1,b=1,c=2",
    "poisson:a=1,p=2", "poisson:a=1,p=0.5,n=3", "multinom:n=15,a1=1",
    "binom:n=8,a=x,b=1",
])
def test_parse_family_rejects(bad):
    with pytest.raises((SpecParseError, DomainError)):
        parse_family(bad)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_TRIALS = st.integers(min_value=1, max_value=10 ** 9)


@given(st.one_of(
    st.builds(lambda n, a, b: NefModel(family="binom", n=n, a=(a,), b=b),
              _TRIALS, _POSITIVE, _POSITIVE),
    st.builds(lambda a, p: NefModel(family="poisson", a=(a,), p=p),
              _POSITIVE, st.floats(min_value=0.0, max_value=1.0,
                                   exclude_min=True, exclude_max=True)),
    st.builds(lambda n, a: NefModel(family="multinom", n=n, a=tuple(a)),
              _TRIALS, st.lists(_POSITIVE, min_size=2, max_size=4))))
def test_parse_family_spec_string_roundtrip(m):
    assert parse_family(m.spec_string()) == m


@pytest.mark.parametrize("spec", [
    "binom:n=nan,a=1,b=1", "binom:n=inf,a=1,b=1", "binom:n=2.5,a=1,b=1",
    "multinom:n=2.5,a1=1,a2=1,a3=1",
])
def test_parse_family_rejects_non_integral_n(spec):
    with pytest.raises(SpecParseError, match="whole number"):
        parse_family(spec)


@pytest.mark.parametrize("spec", [
    "poisson:a=inf,p=0.5", "binom:n=8,a=inf,b=1", "binom:n=8,a=1,b=nan",
])
def test_parse_family_rejects_non_finite_shapes(spec):
    with pytest.raises(DomainError, match="finite"):
        parse_family(spec)


@pytest.mark.parametrize("family, params", [
    ("binom", {"n": 8, "a": (1.0,), "b": 1.0, "p": 0.3}),
    ("poisson", {"n": 3, "a": (1.0,), "p": 0.5}),
    ("poisson", {"a": (1.0,), "b": 1.0, "p": 0.5}),
    ("multinom", {"n": 3, "a": (1.0, 1.0), "b": 1.0})])
def test_model_refuses_parameters_the_family_does_not_take(family, params):
    with pytest.raises(SpecParseError, match="family takes"):
        NefModel(family=family, **params)


def test_model_validation():
    with pytest.raises(DomainError):
        NefModel(family="binom", n=0, a=(1.0,), b=1.0)
    with pytest.raises(DomainError):
        NefModel(family="multinom", n=5, a=(1.0,) * 5)  # k > 4
    with pytest.raises(DomainError):
        NefModel(family="poisson", a=(1.0,), p=1.5)


# -- lambda and its gradient ------------------------------------------------


def test_binom_lambda_values():
    m = parse_family("binom:n=8,a=1,b=1")
    # B(1+y, 1+8-y)/B(1,1) = y!(8-y)!/9!
    assert abs(m.lam(4) - math.log(24.0 * 24.0 / 362880.0)) < 1e-12
    assert abs(m.lam(0) - math.log(math.factorial(8) / 362880.0)) < 1e-12
    with pytest.raises(DomainError):
        m.lam(-1.5)
    with pytest.raises(DomainError):
        m.lam(9.0)


def test_poisson_lambda_values():
    m = parse_family("poisson:a=1,p=0.5")
    # lam(0) = a log p = -log 2
    assert abs(m.lam(0) + math.log(2.0)) < 1e-14
    assert abs(m.lam(2) - (math.log(2.0) + 2 * math.log(0.5)
                           + math.log(0.5))) < 1e-12
    with pytest.raises(DomainError):
        m.lam(-1.0)


def test_multinom_lambda_values():
    m = parse_family("multinom:n=15,a1=1,a2=1,a3=1")
    want = (_core.log_gamma(3.0) - _core.log_gamma(18.0)
            + sum(_core.log_gamma(1.0 + v) for v in (5, 5, 5)))
    assert abs(m.lam((5, 5, 5)) - want) < 1e-12


@pytest.mark.parametrize("spec,ys", [
    ("binom:n=8,a=1.5,b=2", [0, 2, 5, 8]),
    ("poisson:a=1.2,p=0.3", [0, 1, 4, 11]),
])
def test_grad_lambda_central_differences(spec, ys):
    m = parse_family(spec)
    h = 1e-5
    for y in ys:
        num = (m.lam(y + h) - m.lam(y - h)) / (2 * h)
        assert abs(m.grad_lam(y) - num) <= 1e-6, (spec, y)


def test_grad_lambda_multinom_central_differences():
    m = parse_family("multinom:n=15,a1=1,a2=2,a3=0.5")
    y = (5.0, 7.0, 3.0)
    g = m.grad_lam(y)
    h = 1e-5
    for i in range(2):
        # natural coordinates perturb y_i against the last category
        up = list(y); up[i] += h; up[-1] -= h
        dn = list(y); dn[i] -= h; dn[-1] += h
        num = (m.lam(up) - m.lam(dn)) / (2 * h)
        assert abs(g[i] - num) <= 1e-6, i


# -- estimator --------------------------------------------------------------


def test_fab_estimator_binom_symmetric():
    m = parse_family("binom:n=8,a=1,b=1")
    eta, theta = m.fab_estimator(4)
    assert abs(eta) < 1e-14 and abs(theta - 0.5) < 1e-14
    _, t0 = m.fab_estimator(0)
    _, t8 = m.fab_estimator(8)
    assert abs(t0 + t8 - 1.0) < 1e-12
    assert 0.0 < t0 < 0.2


def test_fab_estimator_poisson():
    m = parse_family("poisson:a=1,p=0.5")
    eta, theta = m.fab_estimator(0)
    assert abs(eta - (-EULER + math.log(0.5))) < 1e-12
    assert abs(theta - math.exp(eta)) < 1e-15


def test_fab_estimator_multinom_uniform():
    m = parse_family("multinom:n=15,a1=1,a2=1,a3=1")
    _, theta = m.fab_estimator((5, 5, 5))
    for t in theta:
        assert abs(t - 1.0 / 3.0) < 1e-12


@pytest.mark.parametrize("spec,y", [
    ("binom:n=8,a=1,b=1", -1), ("binom:n=8,a=1,b=1", 9),
    ("binom:n=8,a=1,b=1", 10),
    ("poisson:a=1,p=0.5", -2), ("poisson:a=1,p=0.5", -1),
    ("poisson:a=1,p=0.5", -1.5),
    ("multinom:n=15,a1=1,a2=1,a3=1", (-1, 8, 8)),
    ("multinom:n=15,a1=1,a2=1,a3=1", (5, 10)),
    ("binom:n=8,a=1,b=1", math.nan), ("poisson:a=1,p=0.5", math.nan),
    ("multinom:n=15,a1=1,a2=1,a3=1", (math.nan, 8, 7)),
])
def test_grad_lambda_outside_domain(spec, y):
    # the same open domain as lam: digamma is never reached at x <= 0
    m = parse_family(spec)
    with pytest.raises(DomainError):
        m.grad_lam(y)
    with pytest.raises(DomainError):
        m.fab_estimator(y)


@pytest.mark.parametrize("spec,y", [
    ("binom:n=8,a=1,b=1", 8.5), ("binom:n=8,a=1,b=1", -0.5),
    ("poisson:a=1,p=0.5", -0.5),
    ("multinom:n=15,a1=1,a2=1,a3=1", (-0.5, 8.5, 7)),
])
def test_grad_lambda_finite_inside_extended_domain(spec, y):
    m = parse_family(spec)
    g = m.grad_lam(y)
    for v in (g if isinstance(g, tuple) else (g,)):
        assert math.isfinite(v)
    eta, theta = m.fab_estimator(y)
    assert eta == g
    for v in (theta if isinstance(theta, tuple) else (theta,)):
        assert math.isfinite(v) and v > 0.0


# -- acceptance sets vs independent likelihood-ratio oracle -----------------


def _oracle_members(null_logpmf, marginal_logpmf, support, alpha):
    """Keep the support points with the smallest marginal/null ratio until
    the null mass reaches 1 - alpha; include ties. The ratio is ranked by
    its log, which stays finite where the null pmf underflows."""
    scored = sorted(((marginal_logpmf(y) - null_logpmf(y), y)
                     for y in support))
    acc, lcut, members = 0.0, None, []
    for lr, y in scored:
        if lcut is not None and lr > lcut + math.log1p(1e-9):
            break
        members.append(y)
        acc += math.exp(null_logpmf(y))
        if lcut is None and acc >= 1.0 - alpha:
            lcut = lr
    return sorted(members)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.4])
@pytest.mark.parametrize("theta", [0.12, 0.5, 0.83])
def test_binom_acceptance_matches_oracle(alpha, theta):
    m = parse_family("binom:n=12,a=1.5,b=2")
    eta = m.eta_of_theta(theta)
    got = acceptance_set(m, eta, alpha)
    null = stats.binom(12, theta)
    marg = stats.betabinom(12, 1.5, 2.0)
    want = _oracle_members(null.logpmf, marg.logpmf, range(13), alpha)
    assert list(got.members) == want, (alpha, theta)
    assert got.attained_coverage >= 1.0 - alpha - 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.1])
@pytest.mark.parametrize("theta", [0.4, 1.0, 6.0])
def test_poisson_acceptance_matches_oracle(alpha, theta):
    a, p = 1.3, 0.45
    m = parse_family("poisson:a=%g,p=%g" % (a, p))
    eta = math.log(theta)
    got = acceptance_set(m, eta, alpha)
    null = stats.poisson(theta)
    marg = stats.nbinom(a, p)  # gamma-mixed poisson marginal
    support = range(int(theta + 12 * math.sqrt(theta + 1) + 30))
    want = _oracle_members(null.logpmf, marg.logpmf, support, alpha)
    assert list(got.members) == want, (alpha, theta)
    assert got.attained_coverage >= 1.0 - alpha - 1e-12


def test_multinom_acceptance_matches_oracle():
    m = parse_family("multinom:n=10,a1=1,a2=1,a3=2")
    theta = (0.3, 0.3, 0.4)
    eta = m.eta_of_theta(theta)
    got = acceptance_set(m, eta, 0.1)

    def null_logpmf(y):
        return stats.multinomial(10, theta).logpmf(y)

    def marg_logpmf(y):
        # dirichlet-multinomial via log-gamma, written out independently
        from scipy.special import gammaln
        a = (1.0, 1.0, 2.0)
        return (gammaln(11.0) - sum(gammaln(v + 1.0) for v in y)
                + gammaln(sum(a)) - gammaln(sum(a) + 10.0)
                + sum(gammaln(ai + v) - gammaln(ai) for ai, v in zip(a, y)))

    support = m.support()
    want = _oracle_members(null_logpmf, marg_logpmf, support, 0.1)
    assert sorted(got.members) == want


def test_acceptance_alpha_extremes():
    m = parse_family("binom:n=8,a=1,b=1")
    tiny = acceptance_set(m, 0.0, 1e-9)
    assert list(tiny.members) == list(range(9))
    loose = acceptance_set(m, 0.0, 0.999)
    assert len(loose.members) <= 2 and 4 in loose.members


def test_poisson_truncation_invariance():
    class WideSupport(NefModel):
        def support(self, eta=None):
            return list(range(2 * len(NefModel.support(self, eta=eta))))

    # at theta = 230 the members run from 211 past the support's top 442
    # to 462: the top is doubled while it is a member
    for spec, theta in [("poisson:a=1,p=0.5", 0.5), ("poisson:a=1,p=0.5", 3.0),
                        ("poisson:a=1,p=0.5", 9.0),
                        ("poisson:a=0.5,p=0.3", 230.0)]:
        base = parse_family(spec)
        wide = WideSupport(family="poisson", a=base.a, p=base.p)
        eta = math.log(theta)
        a1 = acceptance_set(base, eta, 0.1)
        a2 = acceptance_set(wide, eta, 0.1)
        assert a1.members == a2.members, theta
        assert a1.attained_coverage == a2.attained_coverage, theta
    assert a1.members == tuple(range(211, 463))
    # the region's check at eta-hat and the public set agree on y = 100,
    # past the top m = 79 at eta-hat
    m = parse_family("poisson:a=0.5,p=0.9")
    eta_hat, _ = m.fab_estimator(100)
    assert m.support(eta=eta_hat)[-1] == 79
    assert confidence_region_nef(m, 100, 0.1).estimator_member
    assert 100 in acceptance_set(m, eta_hat, 0.1).members


def test_poisson_support_at_large_theta():
    # the one support, m = theta + 12 sqrt(theta + 1) + 30:
    # Bernstein's inequality bounds P(Y > m) by exp(-60) at every theta
    m = parse_family("poisson:a=1,p=0.5")
    for i in range(-32, 25):
        theta = 10.0 ** (i / 4.0)
        support = m.support(eta=math.log(theta))
        assert support == list(range(len(support)))
        assert stats.poisson(theta).sf(support[-1]) < 1e-12, theta


def test_poisson_support_cap(monkeypatch):
    # a count above about 1.66e5 asks for theta up to 60 (y + 1); a support
    # past 1e7 points (about 100 bytes each) is refused before it is built
    m = parse_family("poisson:a=1,p=0.5")
    with pytest.raises(NumericalError) as info:
        m._poisson_top(math.log(60.0 * (2e5 + 1)))
    assert 10 ** 7 < info.value.diagnostics["support_max"] < 10 ** 8
    # and so is a top doubled past it: at theta = 50 the members of this
    # prior run from 41 to 1206, and the cap is lowered to 1000
    monkeypatch.setattr(nef, "_SUPPORT_MAX", 1000)
    with pytest.raises(NumericalError, match="runaway") as info:
        acceptance_set(parse_family("poisson:a=0.5,p=0.9"), math.log(50.0),
                       0.1)
    assert info.value.diagnostics["support_max"] > 1000


def test_poisson_count_past_the_cap_is_refused_before_any_term(monkeypatch):
    # y = 10^6 asks for theta up to 6e7: a 6e7-point support, which would
    # take gigabytes, is refused before lambda(y) is computed for any point
    def tripwire(*args):
        raise AssertionError("support terms computed")

    monkeypatch.setattr(nef, "_terms", tripwire)
    with pytest.raises(NumericalError, match="runaway"):
        confidence_region_nef(parse_family("poisson:a=1,p=0.5"), 10 ** 6,
                              0.1)


# -- regions ----------------------------------------------------------------


def test_binom_region_basic():
    m = parse_family("binom:n=8,a=1,b=1")
    reg = confidence_region_nef(m, 4, 0.1, grid=1e-3)
    assert reg.estimator_member
    assert len(reg.intervals) >= 1
    # symmetric data, symmetric prior: region symmetric about 1/2
    assert abs((1.0 - reg.intervals[-1][1]) - reg.intervals[0][0]) <= 2e-3
    assert reg.contains(0.5)
    assert not reg.contains(0.05) and not reg.contains(0.95)


def test_binom_region_edge_counts():
    m = parse_family("binom:n=8,a=1,b=1")
    reg = confidence_region_nef(m, 0, 0.1, grid=1e-3)
    assert reg.contains(0.01)
    assert not reg.contains(0.9)
    assert reg.estimator_member


def test_poisson_region_basic():
    m = parse_family("poisson:a=1,p=0.5")
    reg = confidence_region_nef(m, 3, 0.1, grid=1e-2)
    assert reg.estimator_member
    assert reg.contains(3.0)
    assert not reg.contains(30.0)
    assert not reg.contains(0.05)


@pytest.mark.parametrize("spec,alpha", [
    ("poisson:a=1,p=0.5", 0.1),    # y > 0 hold less than 1 - alpha there
    ("poisson:a=0.01,p=0.5", 0.1),
    ("poisson:a=1,p=0.5", 0.99),   # 0 sorts first at the first grid theta
])
def test_poisson_region_at_zero(spec, alpha):
    m = parse_family(spec)
    reg = confidence_region_nef(m, 0, alpha, grid=1e-2)
    assert reg.intervals[0][0] == 0.0
    a, p = m.a[0], m.p
    first = theta_grid(m, 0, alpha, 1e-2)[1][0]
    for theta in (first * 0.9, first / 2, first / 10, 1e-6):
        want = _oracle_members(stats.poisson(theta).logpmf,
                               stats.nbinom(a, p).logpmf, range(40), alpha)
        assert 0 in want and reg.contains(theta), theta


@pytest.mark.parametrize("alpha", [0.98, 0.99, 0.995])
def test_poisson_region_at_zero_below_the_default_window(alpha):
    # 1 sorts before 0 at theta = 1/60 and the estimator is ~1e-44: the
    # whole region lies below (y + 1)/60, so the window must start lower
    m = parse_family("poisson:a=0.01,p=0.5")
    reg = confidence_region_nef(m, 0, alpha, grid=1e-2)
    assert reg.intervals[0][0] == 0.0 and reg.estimator_member
    hi = reg.intervals[-1][1]
    for theta in (1e-9, 1e-6, hi / 2, 0.95 * hi, 1.05 * hi, 2 * hi, 1.0):
        want = _oracle_members(stats.poisson(theta).logpmf,
                               stats.nbinom(0.01, 0.5).logpmf, range(25),
                               alpha)
        assert reg.contains(theta) == (0 in want), theta


def test_poisson_region_large_count():
    m = parse_family("poisson:a=1,p=0.5")
    reg = confidence_region_nef(m, 30, 0.1, grid=1e-2)
    assert reg.estimator_member
    assert reg.contains(30.0) and not reg.contains(1.0)


def _poisson_oracle_accepts(m, y, theta, alpha):
    """Whether the scipy likelihood-ratio oracle accepts y at theta, over a
    support reaching far past both y and theta."""
    ys = range(y + int(theta + 20.0 * math.sqrt(theta + 1.0)) + 60)
    null = stats.poisson.logpmf(ys, theta)
    marginal = stats.nbinom.logpmf(ys, m.a[0], m.p)
    return y in _oracle_members(lambda v: null[v], lambda v: marginal[v],
                                ys, alpha)


def _assert_poisson_ends_match_oracle(m, y, alpha, reg):
    """The oracle accepts y at each end's grid point and rejects it at the
    grid point just outside; a region from 0 is y = 0's and holds theta
    below the window's first point."""
    thetas = theta_grid(m, y, alpha, reg.grid)[1].tolist()
    for lo, hi in reg.intervals:
        if lo == 0.0:
            assert y == 0
            inside = [thetas[0], thetas[0] / 10.0]
            outside = []
        else:
            i = thetas.index(lo)
            inside, outside = [lo], [thetas[i - 1]]
        j = thetas.index(hi)
        inside.append(hi)
        outside.append(thetas[j + 1])
        for theta in inside:
            assert _poisson_oracle_accepts(m, y, theta, alpha), theta
        for theta in outside:
            assert not _poisson_oracle_accepts(m, y, theta, alpha), theta


@pytest.mark.parametrize("spec,y,alpha", [
    ("poisson:a=1,p=0.5", 1, 0.01),
    ("poisson:a=1,p=0.99", 5, 0.1),     # the estimator lies below (y+1)/60
    ("poisson:a=0.5,p=0.999", 2, 0.1),
])
def test_poisson_region_inside_the_window(spec, y, alpha):
    # y >= 1 is rejected at and below the window's first theta, so the
    # region ends inside the grid and holds the estimator
    m = parse_family(spec)
    reg = confidence_region_nef(m, y, alpha)
    assert reg.estimator_member and reg.contains(reg.estimator)
    assert reg.intervals[0][0] > 0.0
    _assert_poisson_ends_match_oracle(m, y, alpha, reg)


def test_poisson_count_past_the_support_of_small_theta():
    # the support {0..m(theta)} stops below 120 for theta under about 26.8;
    # every row's support holds y, so the region reaches down to ~4.73 and
    # holds the estimator 12.0
    m = parse_family("poisson:a=0.5,p=0.9")
    reg = confidence_region_nef(m, 120, 0.1)
    assert reg.estimator_member
    (lo, hi), = reg.intervals
    assert abs(lo - 4.74) < 0.01 and lo <= reg.estimator <= hi
    _assert_poisson_ends_match_oracle(m, 120, 0.1, reg)


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 0.9])
def test_poisson_region_past_the_default_top(alpha):
    # prior mean 450: y = 0 is still accepted at 60 (y + 1) = 60, so the
    # grid's top is doubled until it is rejected there
    m = parse_family("poisson:a=50,p=0.1")
    reg = confidence_region_nef(m, 0, alpha, grid=1e-2)
    assert reg.estimator_member and reg.contains(reg.estimator)
    assert reg.intervals[-1][1] > 60.0
    assert theta_grid(m, 0, alpha, 1e-2)[1][-1] > reg.intervals[-1][1]
    _assert_poisson_ends_match_oracle(m, 0, alpha, reg)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from((0.01, 0.5, 1.0, 5.0)),
       st.sampled_from((0.1, 0.5, 0.9, 0.99, 0.999)), st.integers(0, 60),
       st.sampled_from((0.01, 0.1, 0.5, 0.9)))
def test_poisson_region_ends_match_the_oracle(a, p, y, alpha):
    m = NefModel("poisson", a=(a,), p=p)
    reg = confidence_region_nef(m, y, alpha, grid=1e-2)
    assert reg.estimator_member
    _assert_poisson_ends_match_oracle(m, y, alpha, reg)


def test_multinom_region_symmetry():
    m = parse_family("multinom:n=15,a1=1,a2=1,a3=1")
    reg = confidence_region_nef(m, (5, 5, 5), 0.1, grid=30)
    assert reg.estimator_member
    assert reg.contains((10.0 / 30, 10.0 / 30, 10.0 / 30))
    cells = set(reg.cells)
    for c in cells:  # permutation symmetry of uniform prior + balanced data
        assert (c[1], c[0], c[2]) in cells and (c[2], c[1], c[0]) in cells


def test_region_json():
    m = parse_family("binom:n=8,a=1,b=1")
    reg = confidence_region_nef(m, 2, 0.1, grid=1e-3)
    import json
    d = json.loads(reg.to_json())
    assert d["y"] == 2 and d["alpha"] == 0.1 and "intervals" in d


def test_region_bad_y():
    m = parse_family("binom:n=8,a=1,b=1")
    with pytest.raises(DomainError):
        confidence_region_nef(m, 9, 0.1)
    p = parse_family("poisson:a=1,p=0.5")
    with pytest.raises(DomainError):
        confidence_region_nef(p, -1, 0.1)
    mm = parse_family("multinom:n=15,a1=1,a2=1,a3=1")
    with pytest.raises(DomainError):
        confidence_region_nef(mm, (5, 5, 4), 0.1)


@pytest.mark.parametrize("spec,y", [
    ("binom:n=8,a=1,b=1", -1), ("binom:n=8,a=1,b=1", 3.5),
    ("binom:n=8,a=1,b=1", 9), ("binom:n=8,a=1,b=1", 10),
    ("poisson:a=1,p=0.5", -2), ("poisson:a=1,p=0.5", -1),
    ("poisson:a=1,p=0.5", -1.5), ("poisson:a=1,p=0.5", 2.5),
    ("multinom:n=15,a1=1,a2=1,a3=1", (-1, 8, 8)),
    ("multinom:n=3,a1=1,a2=1,a3=1", (1.5, 1.5, 1)),
    ("multinom:n=3,a1=1,a2=1,a3=1", (1.5, 0.5, 1)),
    ("multinom:n=3,a1=1,a2=1,a3=1", (2, 1)),
])
def test_region_rejects_invalid_y(spec, y):
    # y is checked before the estimator, so the error is the same
    # DomainError on every kernel backend; non-integer counts are refused
    # rather than truncated or answered with an empty region
    with pytest.raises(DomainError):
        confidence_region_nef(parse_family(spec), y, 0.1)


@pytest.mark.parametrize("spec,y,grid", [
    ("binom:n=8,a=1,b=1", 4, 0.0), ("binom:n=8,a=1,b=1", 4, -0.01),
    ("binom:n=8,a=1,b=1", 4, math.nan), ("binom:n=8,a=1,b=1", 4, math.inf),
    ("binom:n=8,a=1,b=1", 4, 0.9),
    ("poisson:a=1,p=0.5", 3, 0.0), ("poisson:a=1,p=0.5", 3, -1e-3),
    ("poisson:a=1,p=0.5", 3, math.nan), ("poisson:a=1,p=0.5", 3, 10.0),
    ("multinom:n=3,a1=1,a2=1,a3=1", (1, 1, 1), 0),
    ("multinom:n=3,a1=1,a2=1,a3=1", (1, 1, 1), 2),
    ("multinom:n=3,a1=1,a2=1,a3=1", (1, 1, 1), 2.5),
    ("multinom:n=3,a1=1,a2=1,a3=1", (1, 1, 1), math.nan),
])
def test_region_rejects_invalid_grid(spec, y, grid):
    # a grid that is not finite and positive, or that leaves no interior
    # theta, raises DomainError instead of an arithmetic error or an empty
    # region
    with pytest.raises(DomainError):
        confidence_region_nef(parse_family(spec), y, 0.1, grid=grid)


def test_theta_grid_holds_at_most_a_million_points():
    # the count is checked before any list is built: binomial grid=1e-9
    # would be a 10^9-element list, multinomial grid=1000 at k=4 C(999, 3)
    # cells
    binom = parse_family("binom:n=8,a=1,b=1")
    step, thetas = theta_grid(binom, 4, 0.1, 1.0 / (10 ** 6 + 1))
    assert len(thetas) == 10 ** 6
    del thetas
    for spec, y, grid in [("binom:n=8,a=1,b=1", 4, 1.0 / (10 ** 6 + 2)),
                          ("binom:n=8,a=1,b=1", 4, 1e-9),
                          ("binom:n=8,a=1,b=1", 4, 5e-324),
                          ("poisson:a=1,p=0.5", 3, 1e-9),
                          ("multinom:n=4,a1=1,a2=1,a3=1,a4=1", (1, 1, 1, 1),
                           1000),
                          ("multinom:n=4,a1=1,a2=1,a3=1,a4=1", (1, 1, 1, 1),
                           1e300)]:
        with pytest.raises(DomainError, match="more than 1000000"):
            theta_grid(parse_family(spec), y, 0.1, grid)


def test_theta_grid_is_the_region_grid():
    m = parse_family("binom:n=8,a=1,b=1")
    step, thetas = theta_grid(m, 4, 0.1, 0.01)
    assert step == 0.01 and thetas.shape == (99,) and thetas.dtype == float
    assert thetas[0] == 0.01 and thetas[-1] == 99 * 0.01
    assert theta_grid(m, 4, 0.1)[0] == 1e-4
    reg = confidence_region_nef(m, 4, 0.1, grid=0.01)
    assert reg.grid == step
    assert {t for t in thetas if reg.contains(t)} \
        == {t for lo, hi in reg.intervals for t in thetas if lo <= t <= hi}
    assert reg.intervals[0][0] in thetas and reg.intervals[-1][1] in thetas
    p = parse_family("poisson:a=1,p=0.5")
    # the window starts at min(a (1 - p), -log(1 - alpha)) / 2
    step, thetas = theta_grid(p, 3, 0.1, 1e-2)
    assert abs(thetas[0] + math.log(0.9) / 2.0) < 1e-15
    assert thetas[-1] >= 240.0
    assert abs(theta_grid(p, 3, 0.5, 1e-2)[1][0] - 0.25) < 1e-15
    assert abs(theta_grid(parse_family("poisson:a=0.5,p=0.9"), 3, 0.5)[1][0]
               - 0.025) < 1e-15
    mm = parse_family("multinom:n=3,a1=1,a2=1,a3=1")
    step, cells = theta_grid(mm, (1, 1, 1), 0.1, 4)
    assert step == 0.25
    # one float array for every family, the simplex in lexicographic order
    assert cells.dtype == thetas.dtype == float
    assert cells.tolist() == [[0.25, 0.25, 0.5], [0.25, 0.5, 0.25],
                              [0.5, 0.25, 0.25]]
    assert set(confidence_region_nef(mm, (1, 1, 1), 0.1, grid=4).cells) \
        <= set(map(tuple, cells.tolist()))


def test_observation_canonical_form():
    y = parse_family("binom:n=8,a=1,b=1").observation(4.0)
    assert y == 4 and type(y) is int
    y = parse_family("poisson:a=1,p=0.5").observation(7.0)
    assert y == 7 and type(y) is int
    m = parse_family("multinom:n=3,a1=1,a2=1,a3=1")
    y = m.observation([1.0, 2.0, 0.0])
    assert y == (1, 2, 0) and all(type(v) is int for v in y)


# -- Sterne construction (uniform-prior binomial) ---------------------------


def _sterne_accepts(n, theta, alpha, y):
    """Independent Sterne acceptance: rank outcomes by null pmf descending."""
    pmf = [stats.binom.pmf(k, n, theta) for k in range(n + 1)]
    order = sorted(range(n + 1), key=lambda k: -pmf[k])
    acc, cutoff, kept = 0.0, None, set()
    for k in order:
        if cutoff is not None and pmf[k] < cutoff * (1.0 - 1e-9):
            break
        kept.add(k)
        acc += pmf[k]
        if cutoff is None and acc >= 1.0 - alpha:
            cutoff = pmf[k]
    return y in kept


def test_sterne_recovery_small_grid():
    m = parse_family("binom:n=8,a=1,b=1")
    step = 1e-3
    for y in (0, 3, 7):
        reg = confidence_region_nef(m, y, 0.1, grid=step)
        for t in [0.05 * i for i in range(1, 20)]:
            assert reg.contains(t) == _sterne_accepts(8, t, 0.1, y) or \
                min(abs(t - e) for iv in reg.intervals for e in iv) <= step, \
                (y, t)


def test_discrete_coverage_lower_bound():
    m = parse_family("binom:n=8,a=1,b=1")
    for theta in (0.07, 0.33, 0.5, 0.91):
        aset = acceptance_set(m, m.eta_of_theta(theta), 0.1)
        cov = sum(stats.binom.pmf(y, 8, theta) for y in aset.members)
        assert cov >= 0.9 - 1e-12, (theta, cov)


# -- the batched grid pass against the scalar loop ---------------------------


def _scalar_eta(m, theta):
    """The natural parameter of theta, one point at a time."""
    if m.family == "binom":
        return math.log(theta / (1.0 - theta))
    if m.family == "poisson":
        return math.log(theta)
    return tuple(math.log(t / theta[-1]) for t in theta[:-1])


def _scalar_softmax(eta):
    """(top, w, z) of the multinomial eta extended by 0: the largest entry,
    e^(eta_j - top) and their sum, left to right."""
    es = tuple(eta) + (0.0,)
    top = max(es)
    ws = [math.exp(e - top) for e in es]
    z = 0.0
    for w in ws:
        z += w
    return top, ws, z


def _scalar_psi(m, eta):
    """The log-partition function psi(eta)."""
    if m.family == "binom":
        return m.n * math.log1p(math.exp(eta)) if eta < 500 else m.n * eta
    if m.family == "poisson":
        return math.exp(eta)
    top, _, z = _scalar_softmax(eta)
    return m.n * (top + math.log(z))


def _scalar_mean(m, eta):
    """F(eta), the multinomial cell probabilities."""
    _, ws, z = _scalar_softmax(eta)
    return tuple(w / z for w in ws)


def _scalar_top(eta):
    """The last Poisson support point at theta = e^eta."""
    theta = math.exp(eta)
    return int(theta + 12.0 * math.sqrt(theta + 1.0) + 30.0)


def _scalar_lam_eta(m, eta, y):
    """lambda(y) - eta . y + psi(eta), one point at a time."""
    psi = _scalar_psi(m, eta)
    if m.family != "multinom":
        return m.lam(y) - eta * y + psi
    dot = 0.0
    for e, v in zip(eta, y[:-1]):
        dot += e * v
    return m.lam(y) - dot + psi


def _scalar_log_pmf(m, eta, y):
    lg = _core.log_gamma
    if m.family == "binom":
        lbin = lg(m.n + 1.0) - lg(y + 1.0) - lg(m.n - y + 1.0)
        return lbin + y * eta - m.n * math.log1p(math.exp(eta)) \
            if eta < 500 else lbin + (y - m.n) * eta
    if m.family == "poisson":
        return y * eta - math.exp(eta) - lg(y + 1.0)
    out = lg(m.n + 1.0)
    for v, t in zip(y, _scalar_mean(m, eta)):
        out += v * math.log(t) - lg(v + 1.0)
    return out


def _scalar_acceptance(m, eta, alpha, support=None):
    """(members, summed mass): the support (the model's when None) sorted by
    (lambda_eta, y), taken until the mass reaches 1 - alpha, with the points
    tied to the cutoff."""
    if support is None:
        support = m.support(eta=eta if m.family == "poisson" else None)
    acc, cutoff, members = 0.0, None, []
    for lv, y in sorted((_scalar_lam_eta(m, eta, y), y) for y in support):
        if cutoff is not None and lv > cutoff:
            break
        members.append(y)
        acc += math.exp(_scalar_log_pmf(m, eta, y))
        if cutoff is None and acc >= 1.0 - alpha:
            cutoff = lv + 1e-12 * max(1.0, abs(lv))
    return sorted(members), acc


def _scalar_set(m, eta, alpha):
    """`_scalar_acceptance` as `acceptance_set` answers it: a Poisson
    support's top is doubled while it is a member."""
    support = m.support(eta=eta if m.family == "poisson" else None)
    members, acc = _scalar_acceptance(m, eta, alpha, support)
    while m.family == "poisson" and members[-1] == support[-1]:
        support = range(2 * support[-1] + 1)
        members, acc = _scalar_acceptance(m, eta, alpha, support)
    return members, acc


_ORACLE_SHAPE = st.sampled_from((0.3, 0.5, 1.0, 2.0, 3.5))


@st.composite
def _observed_families(draw):
    family = draw(st.sampled_from(("binom", "poisson", "multinom")))
    if family == "binom":
        m = NefModel("binom", n=draw(st.integers(1, 40)),
                     a=(draw(_ORACLE_SHAPE),), b=draw(_ORACLE_SHAPE))
        return m, draw(st.integers(0, m.n)), 0.02
    if family == "poisson":
        m = NefModel("poisson", a=(draw(_ORACLE_SHAPE),),
                     p=draw(st.sampled_from((0.1, 0.3, 0.5, 0.9))))
        return m, draw(st.integers(0, 20)), 0.1
    k, n = draw(st.integers(2, 4)), draw(st.integers(1, 10))
    m = NefModel("multinom", n=n, a=tuple(draw(_ORACLE_SHAPE) for _ in range(k)))
    return m, draw(st.sampled_from(m.support())), 10


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_observed_families(), st.sampled_from((0.05, 0.1, 0.2)))
def test_batched_grid_flags_equal_the_scalar_loop(observed, alpha):
    # exact equality: the batched pass does the same float operations
    m, y, grid = observed
    _, thetas = theta_grid(m, y, alpha, grid)
    etas = [m.eta_of_theta(t) for t in thetas]
    scalar = [_scalar_acceptance(m, eta, alpha) for eta in etas]
    assert _grid_flags(m, y, etas, alpha).tolist() \
        == [y in s[0] for s in scalar]
    for theta in thetas[::7]:
        eta = m.eta_of_theta(theta)
        got = acceptance_set(m, eta, alpha)
        assert (list(got.members), got.attained_coverage) \
            == _scalar_set(m, eta, alpha)
        support = m.support(eta=eta)
        lv, lp = nef._rows(m, nef._terms(m, support), [eta])
        assert lv[0].tolist() == [_scalar_lam_eta(m, eta, v) for v in support]
        assert lp[0].tolist() == [_scalar_log_pmf(m, eta, v) for v in support]


def test_region_work_is_per_support_point(monkeypatch):
    # lambda(y) and the log binomial coefficients are computed once per
    # support, for the grid and for the check at eta-hat, and acceptance_set
    # never runs: the grid does not rebuild an acceptance set per theta, and
    # the check at eta-hat goes through the grid's rows
    calls = {"log_gamma": 0, "acceptance_set": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_core, "log_gamma", counted("log_gamma", _core.log_gamma))
    monkeypatch.setattr(nef, "acceptance_set",
                        counted("acceptance_set", nef.acceptance_set))
    n = 30
    confidence_region_nef(parse_family("binom:n=%d,a=0.5,b=2" % n), 11, 0.1)
    assert calls["acceptance_set"] == 0
    assert calls["log_gamma"] <= 10 * (n + 1) + 10


# -- the batched rows against the scalar formulas ----------------------------


@pytest.mark.parametrize("spec, theta", [
    ("binom:n=8,a=1,b=1", t) for t in (0.0, 1.0, 1.5, -0.1, math.nan,
                                       10 ** 400, (0.5, 2.0))] + [
    ("poisson:a=1,p=0.5", t) for t in (0.0, -1.0, math.inf, math.nan,
                                       10 ** 400)] + [
    ("multinom:n=3,a1=1,a2=1,a3=1", t) for t in (
        (0.5, 0.5, 0.0), (0.2, 0.2, 0.2), (0.5, 0.5), 0.5,
        (10 ** 400, 0.5, 0.5))],
    ids=lambda v: repr(v).replace(repr(10 ** 400), "10**400")[:40])
def test_eta_of_theta_refuses_points_outside_the_mean_space(spec, theta):
    m = parse_family(spec)
    with pytest.raises(DomainError):
        m.eta_of_theta(theta)
    # a grid with one such point is refused as a whole
    good = 0.5 if m.family != "multinom" else (0.25, 0.25, 0.5)
    with pytest.raises(DomainError):
        m._etas([good, theta, good])


def _grid_cases():
    """(model, thetas, etas): the default grid of a binomial, a Poisson and
    multinomials with k = 2, 3 and 4, with the binomial's etas reaching past
    500, where psi takes the n eta form."""
    m = parse_family("binom:n=30,a=0.5,b=2")
    thetas = theta_grid(m, 11, 0.1)[1]
    yield m, thetas, [_scalar_eta(m, t) for t in thetas] + [
        499.5, 500.0, 500.5, 709.0, 1e4, -1e4]
    for spec, y in (("poisson:a=1,p=0.5", 20),
                    ("multinom:n=5,a1=0.5,a2=2", (2, 3)),
                    ("multinom:n=4,a1=1,a2=0.5,a3=2", (1, 1, 2)),
                    ("multinom:n=1,a1=1,a2=0.5,a3=1,a4=2", (0, 0, 1, 0))):
        m = parse_family(spec)
        thetas = theta_grid(m, y, 0.1)[1]
        yield m, thetas, [_scalar_eta(m, t) for t in thetas]


@pytest.mark.parametrize("m, thetas, etas", list(_grid_cases()),
                         ids=lambda v: v.spec_string()
                         if isinstance(v, NefModel) else "")
def test_batched_eta_psi_log_theta_and_tops_equal_the_scalar_forms(
        m, thetas, etas):
    # exact equality: the arrays are built from the same float operations
    assert m._etas(thetas).tolist() == [
        list(e) if m.k else e for e in etas[:len(thetas)]]
    assert [m.eta_of_theta(t) for t in thetas[::97]] == etas[:len(thetas):97]
    psi, logt = nef._log_partition(m, np.array(etas))
    assert psi.tolist() == [_scalar_psi(m, e) for e in etas]
    if m.family == "multinom":
        assert logt.tolist() == [[math.log(t) for t in _scalar_mean(m, e)]
                                 for e in etas]
        assert [m.mean_map(e) for e in etas[::97]] == [
            _scalar_mean(m, e) for e in etas[::97]]
    if m.family == "poisson":
        tops = nef._poisson_tops(nef._map(math.exp, np.array(etas)))
        assert tops.tolist() == [_scalar_top(e) for e in etas]
        assert [m._poisson_top(e) for e in etas[::97]] == [
            _scalar_top(e) for e in etas[::97]]


def _assert_any_prefix_accepts_as_the_scalar_loop(m, etas, alpha):
    """The batched acceptance sets at `etas` and their summed masses are the
    scalar loop's, and so are `acceptance_set`'s."""
    support = sorted({y for eta in etas for y in m.support(eta=eta)})
    sizes = [len(m.support(eta=eta)) for eta in etas] \
        if m.family == "poisson" else None
    terms = nef._terms(m, support)
    scalar = [_scalar_acceptance(m, eta, alpha) for eta in etas]
    members, ranked = nef._accepted(m, terms, etas, alpha, sizes)
    assert [[y for y, keep in zip(support, row) if keep]
            for row in members.tolist()] == [s[0] for s in scalar]
    assert [nef._coverage(r, count) for r, count in
            zip(ranked, members.sum(axis=1))] == [s[1] for s in scalar]
    for eta in etas:
        got = acceptance_set(m, eta, alpha)
        assert (list(got.members), got.attained_coverage) \
            == _scalar_set(m, eta, alpha)


@pytest.mark.parametrize("alpha", (0.01, 0.1, 0.5))
def test_prefix_grows_to_the_top_of_the_poisson_grid(alpha):
    # at the grid's top (theta near 1260) the support holds about 1,700
    # points and the acceptance set about 500 of them
    m = parse_family("poisson:a=1,p=0.5")
    etas = [m.eta_of_theta(t) for t in theta_grid(m, 20, alpha)[1][-3:]]
    _assert_any_prefix_accepts_as_the_scalar_loop(m, etas, alpha)
    assert _grid_flags(m, 20, etas, alpha).tolist() == [
        20 in _scalar_acceptance(m, eta, alpha)[0] for eta in etas]


@pytest.mark.parametrize("alpha", (0.01, 0.05, 0.1, 0.2, 0.5))
def test_prefix_takes_the_sterne_ties(alpha):
    # the uniform-prior binomial at theta = 0.5 ranks y and n - y equal
    m = parse_family("binom:n=30,a=1,b=1")
    _assert_any_prefix_accepts_as_the_scalar_loop(m, [0.0, 1e-3, -0.25],
                                                  alpha)
    members = acceptance_set(m, 0.0, alpha).members
    assert members == tuple(range(30 - members[-1], members[-1] + 1))


def test_multinomial_mass_tie_keeps_its_float_decision():
    # in exact rationals the prefix by lambda_eta reaches 9/10 at rank 19
    # and y is rank 20, so y would be rejected; the float sums keep it.
    # Pinned as computed today: an exact decision at such ties would move
    # this flag and the frozen nef_mix references together
    m = parse_family("multinom:n=4,a1=1,a2=0.5,a3=1,a4=0.5")
    y, cell = (0, 1, 2, 1), (18, 12, 6, 24)
    eta = m.eta_of_theta(tuple(c / 60 for c in cell))
    _assert_any_prefix_accepts_as_the_scalar_loop(m, [eta], 0.1)
    aset = acceptance_set(m, eta, 0.1)
    assert y in aset.members
    assert aset.attained_coverage == 0.9239999999999995
    assert _grid_flags(m, y, [eta], 0.1) == [True]
    assert tuple(c / 60 for c in cell) in confidence_region_nef(
        m, y, 0.1).cells


def test_np_exp_is_within_the_checked_ulps_of_math_exp():
    # `_accepted` sums np.exp masses and gives math.exp's decisions only
    # if the two differ by at most _EXP_ULPS; on a CPU whose numpy breaks
    # that, this fails instead of the flags going wrong
    rng = np.random.default_rng(20261020)
    x = np.concatenate([rng.uniform(-745.0, 0.0, 10 ** 6),
                        rng.uniform(-40.0, 0.0, 10 ** 6),
                        rng.uniform(-760.0, -700.0, 10 ** 5)])
    # the masses are nonnegative, so their bit patterns count ulps
    ulps = np.abs(np.exp(x).view(np.int64)
                  - nef._map(math.exp, x).view(np.int64))
    assert ulps.max() <= nef._EXP_ULPS


def test_poisson_sum_short_of_the_target_reports_its_math_exp_mass():
    # at alpha = 1e-20 the target 1 - alpha rounds to 1.0, which the mass
    # of {0..m} at theta = 1 falls one ulp short of
    m = parse_family("poisson:a=1,p=0.5")
    with pytest.raises(NumericalError, match="truncation insufficient") as exc:
        acceptance_set(m, 0.0, 1e-20)
    _, acc = _scalar_acceptance(m, 0.0, 1e-20)
    assert exc.value.diagnostics == {"eta": 0.0, "mass": acc}
    assert acc == 0.9999999999999999


def _perturbed_exp_cases():
    """(name, call) pairs whose outputs the check in `_accepted` keeps:
    the multinomial mass tie, the Sterne ties, the top rows of the Poisson
    y = 20 grid and a binomial n = 100 grid, as grid flags and regions."""
    tie = parse_family("multinom:n=4,a1=1,a2=0.5,a3=1,a4=0.5")
    tie_y = (0, 1, 2, 1)
    sterne = parse_family("binom:n=30,a=1,b=1")
    poisson = parse_family("poisson:a=1,p=0.5")
    binom = parse_family("binom:n=100,a=2,b=0.5")
    yield "tie grid", lambda: _grid_flags(
        tie, tie_y, tie._etas(theta_grid(tie, tie_y, 0.1)[1]), 0.1).tolist()
    yield "tie region", lambda: confidence_region_nef(tie, tie_y, 0.1)
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
        yield "sterne %g" % alpha, lambda a=alpha: (
            _grid_flags(sterne, 17, [0.0, 1e-3, -0.25], a).tolist(),
            confidence_region_nef(sterne, 17, a))
        yield "poisson top %g" % alpha, lambda a=alpha: _grid_flags(
            poisson, 20, poisson._etas(theta_grid(poisson, 20, a)[1][-3:]),
            a).tolist()
    yield "poisson region", lambda: confidence_region_nef(poisson, 20, 0.1)
    yield "binom n=100", lambda: (
        _grid_flags(binom, 61, binom._etas(theta_grid(binom, 61, 0.05)[1]),
                    0.05).tolist(),
        confidence_region_nef(binom, 61, 0.05))


def test_masses_off_by_the_checked_ulps_keep_every_decision(monkeypatch):
    # np.exp replaced by math.exp moved _EXP_ULPS ulps up on every other
    # row and down on the rest, each row taking both signs over the two
    # phases: the rows the check recomputes with math.exp give back every
    # flag and region, the multinomial tie row among them (its math.exp
    # sum at rank 19 is 5 ulps below 9/10, and the upward move crosses it)
    cases = list(_perturbed_exp_cases())
    expected = [call() for _, call in cases]
    exact_map = nef._map
    tie = parse_family("multinom:n=4,a1=1,a2=0.5,a3=1,a4=0.5")
    eta = tie.eta_of_theta((18 / 60, 12 / 60, 6 / 60, 24 / 60))
    lv, lp = nef._rows(tie, nef._terms(tie, tie.support()), [eta])
    tie_ranked = lp[0, np.argsort(lv[0], kind="stable")]
    for phase in (0, 1):
        recomputed = []

        def spy_map(fn, x):
            if fn is math.exp and x.ndim == 2:
                recomputed.extend(x.tolist())
            return exact_map(fn, x)

        def perturbed_exp(x):
            bits = exact_map(math.exp, x).view(np.int64)
            up = np.arange(len(x)) % 2 == phase
            step = np.where(up, nef._EXP_ULPS, -nef._EXP_ULPS)[:, None]
            return np.maximum(bits + step, 0).view(np.float64)

        monkeypatch.setattr(nef, "_map", spy_map)
        monkeypatch.setattr(np, "exp", perturbed_exp)
        got = [call() for _, call in cases]
        monkeypatch.undo()
        for (name, _), want, have in zip(cases, expected, got):
            assert have == want, (name, phase)
        assert tie_ranked.tolist() in recomputed


def _blocks_row_by_row(sizes):
    """The runs of `nef._blocks`, found by walking every row."""
    start = width = 0
    for r, size in enumerate(sizes):
        width = max(width, size)
        if r > start and (r - start + 1) * width > nef._BLOCK:
            yield start, r
            start, width = r, size
    yield start, len(sizes)


def test_blocks_by_bisection_are_the_row_by_row_runs():
    rnd = random.Random(20241020)
    for _ in range(400):
        n = rnd.choice((0, 1, 2, 5, 50, 500, 5000))
        most = rnd.choice((1, 4, 40, 1500, 5000))
        sizes = sorted(rnd.randint(1, most) for _ in range(n))
        assert list(nef._blocks(sizes)) == list(_blocks_row_by_row(sizes))
        assert list(nef._blocks(np.array(sizes, dtype=int))) == list(
            _blocks_row_by_row(sizes))


def test_extreme_eta_answers_without_warnings():
    # eta times n (or the largest Poisson support point) is still a float
    binom = parse_family("binom:n=8,a=1,b=1")
    assert acceptance_set(binom, 1e307, 0.1).members == (8,)
    assert acceptance_set(binom, -1e307, 0.1).members == (0,)
    poisson = parse_family("poisson:a=1,p=0.5")
    assert acceptance_set(poisson, -1e306, 0.1).members == (0,)


def test_contains_is_exact_only_on_the_grid():
    # interval ends are grid points: the float 0.417 lies one float below
    # the reported end, outside, although its acceptance set holds y
    m = parse_family("binom:n=30,a=1,b=1")
    reg = confidence_region_nef(m, 17, 0.1)
    assert reg.intervals == ((0.41700000000000004, 0.7173),)
    assert 17 in acceptance_set(m, m.eta_of_theta(0.417), 0.1).members
    assert not reg.contains(0.417)
    assert reg.contains(0.41700000000000004)
