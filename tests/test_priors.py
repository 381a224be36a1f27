"""Prior catalog: parsing, marginals vs quadrature, Tweedie identity, tails.

Frozen reference values were computed with mpmath at 30+ digits.
"""

import math
import re
from dataclasses import replace

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BP_SPECIAL, CATALOG_SPECS, quad_log_marginal
from fabcr.asymptotics import limit_interval
from fabcr.errors import (DomainError, SpecParseError,
                          UnsupportedModelError)
from fabcr.gaussian import confidence_region
from fabcr.priors import PriorModel, parse_prior

Z90 = 1.6448536269514722
Y_GRID = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 10.0, -10.0)


# -- parsing ----------------------------------------------------------------


def test_parse_basic():
    m = parse_prior("bp:a=1,b=0.5", sigma=2.0)
    assert m.kind == "bp" and m.a == 1.0 and m.b == 0.5 and m.sigma == 2.0
    assert parse_prior("gaussian").tau is None
    assert parse_prior("gaussian:tau=3").tau == 3.0
    assert parse_prior("laplace:kappa=2").kappa == 2.0
    assert parse_prior("flat+atom:gamma=0.1").gamma == 0.1
    assert parse_prior("horseshoe:loc=4").loc == 4.0


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_spec_string_roundtrip(spec):
    m = parse_prior(spec, sigma=1.3)
    again = parse_prior(m.spec_string(), sigma=1.3)
    assert again == m


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(st.one_of(
    st.builds(PriorModel, kind=st.sampled_from(
        ("flat", "gaussian", "horseshoe", "gpd", "bessel"))),
    st.builds(PriorModel, kind=st.just("gaussian"), tau=_POSITIVE),
    st.builds(PriorModel, kind=st.just("bp"), a=_POSITIVE, b=_POSITIVE),
    st.builds(PriorModel, kind=st.just("laplace"), kappa=_POSITIVE),
    st.builds(PriorModel, kind=st.just("flat+atom"), gamma=_POSITIVE)),
    _POSITIVE, st.floats(allow_nan=False, allow_infinity=False))
def test_spec_string_roundtrip_random_parameters(m, sigma, loc):
    m = replace(m, sigma=sigma, loc=loc)
    assert parse_prior(m.spec_string(), sigma) == m


@pytest.mark.parametrize("bad", [
    "", "unknown", "bp", "bp:a=1", "bp:a=1,b=x", "laplace", "horseshoe:a=1",
    "flat:tau=1", "gaussian:sigma=1", "laplace:kappa=1,extra=2", "bp:=1",
])
def test_parse_rejects(bad):
    # a missing required parameter surfaces as DomainError from the model
    with pytest.raises((SpecParseError, DomainError)):
        parse_prior(bad)


def test_constructor_domain_checks():
    with pytest.raises(DomainError):
        PriorModel(kind="laplace", kappa=-1.0)
    with pytest.raises(DomainError):
        PriorModel(kind="bp", a=0.0, b=1.0)
    with pytest.raises(DomainError):
        PriorModel(kind="flat", sigma=0.0)
    with pytest.raises(DomainError):
        PriorModel(kind="gaussian", tau=-2.0)
    with pytest.raises(DomainError):
        PriorModel(kind="flat+atom")


@pytest.mark.parametrize("kind, params", [
    ("horseshoe", {"kappa": 2.0, "a": 3.0}), ("flat", {"tau": 1.0}),
    ("gaussian", {"a": 1.0}), ("bp", {"a": 1.0, "b": 1.0, "gamma": 0.5}),
    ("laplace", {"kappa": 1.0, "tau": 1.0}),
    ("flat+atom", {"gamma": 0.5, "b": 1.0})])
def test_constructor_refuses_parameters_the_kind_does_not_take(kind, params):
    # the parser refuses them too, so every model round-trips its spec
    with pytest.raises(SpecParseError, match="unexpected parameter"):
        PriorModel(kind=kind, **params)
    spec = "%s:%s" % (kind, ",".join("%s=%g" % kv for kv in params.items()))
    with pytest.raises(SpecParseError, match="unexpected parameter"):
        parse_prior(spec)


@pytest.mark.parametrize("spec", ["bp:a=inf,b=1", "bp:a=1,b=inf"])
def test_bp_shapes_must_be_finite(spec):
    with pytest.raises(DomainError, match="finite"):
        parse_prior(spec)


def test_bp_shapes_double_precision_cannot_resolve():
    # b = 1 is below the spacing of doubles near a = 1e16
    m = parse_prior("bp:a=1e16,b=1")
    with pytest.raises(DomainError, match="resolution"):
        confidence_region(m, 1.0, 0.1)
    with pytest.raises(DomainError, match="resolution"):
        m.posterior_mean(1.0)
    # the refusal is not cached: a second kernel use refuses too
    with pytest.raises(DomainError, match="resolution"):
        m.log_marginal(1.0)


def test_kernel_args_from_the_kind_table():
    # (kind, p1, p2, sigma) as the kernels take them, at sigma = 2
    want = {
        "flat": ("flat", 0.0, 0.0, 2.0),
        "flat+atom:gamma=0.5,loc=4": ("flat+atom", 0.5, 0.0, 2.0),
        "gaussian": ("gaussian", 2.0, 0.0, 2.0),
        "gaussian:tau=3": ("gaussian", 3.0, 0.0, 2.0),
        "bp:a=1.5,b=2": ("bp", 1.5, 2.0, 2.0),
        "horseshoe": ("horseshoe", 0.0, 0.0, 2.0),
        "gpd": ("gpd", 0.0, 0.0, 2.0),
        "bessel": ("bessel", 0.0, 0.0, 2.0),
        "laplace:kappa=1": ("laplace", 1.0, 0.0, 2.0),
    }
    for spec, args in want.items():
        assert parse_prior(spec, sigma=2.0)._kernel_args == args, spec
    # the named beta-prime cases take their tails from their shapes
    for name, a, b in BP_SPECIAL:
        assert parse_prior(name, sigma=2.0).tail_profile() == parse_prior(
            "bp:a=%r,b=%r" % (a, b), sigma=2.0).tail_profile(), name


@pytest.mark.parametrize("spec", ["bp:a=200,b=1", "bp:a=1e4,b=1"])
def test_bp_large_a(spec):
    # Gamma(a + 1/2) overflows a double; kappa = 0 is all the search and
    # the limits need
    m = parse_prior(spec)
    prof = m.tail_profile()
    assert prof.kappa == 0.0 and prof.gamma == math.inf
    region = confidence_region(m, 1.0, 0.1)
    assert region.contains(region.focal)
    li = limit_interval(m, 0.1)
    assert abs((li.hi_offset - li.lo_offset) - 2 * Z90) < 1e-12


@pytest.mark.parametrize("a, b", [(0.1, 100.0), (0.5, 60.0), (1.0, 45.0),
                                  (3.0, 25.0), (10.0, 15.0)])
def test_bp_large_b(a, b):
    # the first failing b at each a when the large-x series of log 1F1 was
    # summed whatever the size of b - a
    region = confidence_region(parse_prior("bp:a=%g,b=%g" % (a, b)), 1.0, 0.1)
    assert region.contains(region.focal)


# -- marginals --------------------------------------------------------------


def test_flat_marginal_trivial():
    m = parse_prior("flat")
    assert m.log_marginal(3.7) == 0.0
    assert m.dlog_marginal(-2.0) == 0.0
    assert m.posterior_mean(1.5) == 1.5


def test_gpd_marginal_at_zero():
    # the gpd-kind marginal at the origin equals 1 / (2 sigma sqrt(2 pi))
    m = parse_prior("gpd")
    assert abs(m.log_marginal(0.0)
               + 1.61208571376461805) < 1e-12


def test_horseshoe_marginal_frozen():
    m = parse_prior("horseshoe")
    assert abs(m.log_marginal(2.0) + 2.50997415534764664) < 1e-12


@pytest.mark.parametrize("name,a,b", BP_SPECIAL)
def test_special_forms_match_general(name, a, b):
    special = parse_prior(name)
    general = parse_prior("bp:a=%g,b=%g" % (a, b))
    for y in (0.1, -0.1, 1.0, -1.0, 5.0, -5.0, 20.0, -20.0, 1e3, -1e3, 1e4,
              -1e4, 1e6, -1e6):
        ls, lg = special.log_marginal(y), general.log_marginal(y)
        assert abs(ls - lg) <= 1e-10 * max(1.0, abs(lg)), (name, y)
        ds, dg = special.dlog_marginal(y), general.dlog_marginal(y)
        assert abs(ds - dg) <= 1e-9 * max(1.0, abs(dg)), (name, y)
        ps, pg = special.posterior_mean(y), general.posterior_mean(y)
        assert abs(ps - pg) <= 1e-12 * max(1.0, abs(pg)), (name, y)


def test_horseshoe_score_matches_mpmath():
    # l'(y) = -(y / sigma^2) (2/3) 1F1(2, 5/2, z) / 1F1(1, 3/2, z) with
    # z = -y^2 / (2 sigma^2), at 50 digits; the Dawson form of the score
    # was off by 2.2e-13 at y = 100 and 4.4e-5 at 1e6
    m = parse_prior("horseshoe")
    with mp.workdps(50):
        for k in range(57):
            for y in (10.0 ** (k / 8.0 - 1.0), -10.0 ** (k / 8.0 - 1.0)):
                z = -mp.mpf(y) ** 2 / 2
                want = float(-mp.mpf(y) * 2 / 3 * mp.hyp1f1(2, 2.5, z)
                             / mp.hyp1f1(1, 1.5, z))
                got = m.dlog_marginal(y)
                assert abs(got - want) <= 1e-13 * abs(want), (y, got, want)


def test_bessel_shrinkage_far_out():
    # the bessel prior's marginal tail is |y|^-3, so y - theta_hat ~ 3 sigma^2 / y
    for sigma in (1.0, 2.0):
        m = parse_prior("bessel", sigma=sigma)
        for y in (1e3, -1e3, 1e4, 1e5):
            shrink = y - m.posterior_mean(y)
            assert abs(shrink * y / (3.0 * sigma ** 2) - 1.0) < 1e-4, (sigma, y)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_marginal_vs_quadrature(spec):
    m = parse_prior(spec)
    for y in Y_GRID:
        want = quad_log_marginal(spec, y)
        got = m.log_marginal(y)
        assert abs(math.exp(got) - math.exp(want)) <= 1e-8 * math.exp(want), \
            (spec, y)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_marginal_symmetry(spec):
    m = parse_prior(spec)
    for y in (0.3, 1.0, 4.2, 17.0):
        assert abs(m.log_marginal(y) - m.log_marginal(-y)) < 1e-12
        assert abs(m.dlog_marginal(y) + m.dlog_marginal(-y)) < 1e-10


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_dlog_marginal_central_differences(spec):
    m = parse_prior(spec)
    for y in Y_GRID:
        h = 6e-6 * max(1.0, abs(y))
        num = (m.log_marginal(y + h) - m.log_marginal(y - h)) / (2 * h)
        assert abs(m.dlog_marginal(y) - num) <= 1e-6, (spec, y)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_tweedie_identity(spec):
    # posterior mean = y + sigma^2 * dlog_marginal(y)
    for sigma in (1.0, 2.5):
        m = parse_prior(spec, sigma=sigma)
        for y in (0.0, 0.7, -3.0, 12.0):
            want = y + sigma * sigma * m.dlog_marginal(y)
            assert abs(m.posterior_mean(y) - want) <= 1e-10 * max(1.0, abs(want))


def test_gaussian_posterior_mean_closed_form():
    m = parse_prior("gaussian:tau=1")
    assert abs(m.posterior_mean(2.0) - 1.0) < 1e-14
    m2 = parse_prior("gaussian:tau=2", sigma=1.0)
    assert abs(m2.posterior_mean(5.0) - 4.0) < 1e-13


def test_laplace_posterior_mean_shrinks_by_kappa():
    m = parse_prior("laplace:kappa=1")
    assert abs(m.posterior_mean(100.0) - 99.0) < 1e-6
    assert abs(m.posterior_mean(-100.0) + 99.0) < 1e-6
    # no overflow very far out
    assert abs(m.posterior_mean(1e6) - (1e6 - 1.0)) < 1e-3


def _laplace_posterior_mean(kappa, y):
    """60-digit posterior mean under a Laplace prior at sigma = 1:
    y + kappa (B - A) / (A + B), A = e^(-kappa y) Phi(y - kappa) and
    B = e^(kappa y) Phi(-y - kappa)."""
    with mp.workdps(60):
        k, t = mp.mpf(kappa), mp.mpf(y)
        a = mp.exp(-k * t) * mp.ncdf(t - k)
        b = mp.exp(k * t) * mp.ncdf(-t - k)
        return float(t + k * (b - a) / (a + b))


def test_laplace_kappa_bound():
    # up to kappa = 30 the posterior mean holds to 1e-9 relative; past it
    # every kernel use is refused
    for kappa in (10.0, 30.0):
        m = parse_prior("laplace:kappa=%r" % kappa)
        for y in (0.25, 0.5, 1.0, 2.25, 5.0, 10.0, kappa, 2.0 * kappa, -3.0):
            want = _laplace_posterior_mean(kappa, y)
            assert abs(m.posterior_mean(y) - want) <= 1e-9 * abs(want), \
                (kappa, y, want)
        reg = confidence_region(m, 1.0, 0.1)
        assert reg.lo < reg.focal < reg.hi
    for kappa in (30.000000000000004, 37.8, 40.0, 1e155):
        m = parse_prior("laplace:kappa=%r" % kappa)
        for use in (m.log_marginal, m.dlog_marginal, m.posterior_mean):
            with pytest.raises(DomainError, match=re.escape(
                    "kappa=%r is above 30.0" % kappa)):
                use(1.0)
        with pytest.raises(DomainError, match="above 30"):
            confidence_region(m, 1.0, 0.1)
        # the tail constant kappa / (2 sigma) e^(kappa^2 / 2) is formed in
        # logs, infinite past the float range, and the limits need only
        # kappa
        gamma = m.tail_profile().gamma
        if kappa > 37.7:
            assert gamma == math.inf
        else:
            want = kappa / 2.0 * math.exp(kappa ** 2 / 2.0)
            assert abs(gamma - want) <= 1e-12 * want
        with pytest.raises(UnsupportedModelError):
            limit_interval(m, 0.1)


def test_location_shift():
    base = parse_prior("horseshoe")
    shifted = parse_prior("horseshoe:loc=4")
    for y in (-1.0, 3.0, 10.0):
        assert abs(shifted.log_marginal(y) - base.log_marginal(y - 4.0)) < 1e-14
        assert abs(shifted.posterior_mean(y)
                   - (4.0 + base.posterior_mean(y - 4.0))) < 1e-12


# -- scale family -----------------------------------------------------------


@pytest.mark.parametrize("spec", ["flat", "horseshoe", "gpd", "bessel",
                                  "bp:a=1.5,b=2", "laplace:kappa=1",
                                  "gaussian"])
def test_scale_family(spec):
    # for sigma-tied kinds: f_sigma(y) = f_1(y / sigma) / sigma
    m1 = parse_prior(spec, sigma=1.0)
    assert m1.scale_tied
    for sigma in (0.5, 3.0):
        ms = parse_prior(spec, sigma=sigma)
        for y in (0.3, 2.0, -7.0):
            want = m1.log_marginal(y / sigma) - math.log(sigma)
            if spec == "flat":
                want = 0.0  # improper flat marginal is scale free
            assert abs(ms.log_marginal(y) - want) < 1e-11, (spec, sigma, y)


def test_scale_untied_kinds():
    assert not parse_prior("gaussian:tau=1").scale_tied
    assert not parse_prior("flat+atom:gamma=0.5").scale_tied


# -- tail profiles ----------------------------------------------------------


def test_tail_profiles():
    assert parse_prior("gaussian:tau=1").tail_profile() is None
    flat = parse_prior("flat").tail_profile()
    assert (flat.kappa, flat.delta, flat.gamma) == (0.0, 0.0, 1.0)
    atom = parse_prior("flat+atom:gamma=0.25").tail_profile()
    assert (atom.kappa, atom.delta, atom.gamma) == (0.0, 0.0, 0.25)
    hs = parse_prior("horseshoe").tail_profile()
    assert hs.kappa == 0.0 and hs.delta == 2.0
    assert parse_prior("gpd").tail_profile().delta == 2.0
    assert parse_prior("bessel").tail_profile().delta == 3.0
    lap = parse_prior("laplace:kappa=2").tail_profile()
    assert lap.kappa == 2.0 and lap.delta == 0.0
    assert abs(lap.gamma - math.exp(2.0)) < 1e-12


@pytest.mark.parametrize("spec", ["horseshoe", "gpd", "bessel", "bp:a=1.5,b=2"])
def test_power_tail_law(spec):
    # log f(y) + delta log|y| - log gamma -> 0 along the tail
    m = parse_prior(spec)
    prof = m.tail_profile()
    for y in (1e3, 1e4):
        resid = (m.log_marginal(y) + prof.delta * math.log(y)
                 - math.log(prof.gamma))
        assert abs(resid) < 0.02, (spec, y, resid)


def test_laplace_exponential_tail_law():
    m = parse_prior("laplace:kappa=1")
    prof = m.tail_profile()
    for y in (50.0, 200.0):
        resid = m.log_marginal(y) + prof.kappa * y - math.log(prof.gamma)
        assert abs(resid) < 1e-6, (y, resid)


def test_non_finite_y_rejected():
    m = parse_prior("horseshoe")
    with pytest.raises(DomainError):
        m.log_marginal(float("nan"))
    with pytest.raises(DomainError):
        m.posterior_mean(float("inf"))
