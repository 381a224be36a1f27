"""The paper's invariants as properties: the Gaussian-mean regions over
the prior catalog, and the acceptance sets of the discrete families.

Observations stay within 6 sigma of the prior location, short of where a
nearly degenerate spending weight makes the Gaussian and Laplace endpoints
noisy at the 1e-6 level (see the README). Runs are derandomized and small:
every example costs a few region solves or acceptance sets.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import CATALOG_SPECS
from fabcr.asymptotics import limit_interval
from fabcr.gaussian import confidence_region, p_value_curve
from fabcr.nef import NefModel, acceptance_set
from fabcr.priors import parse_prior

TOL = 1e-6

_PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)

_SIGMA = st.sampled_from((0.5, 1.0, 2.0))
_ALPHA = st.floats(min_value=0.01, max_value=0.5)
_OFFSET = st.floats(min_value=-6.0, max_value=6.0)  # (y - loc) / sigma
_LOC = st.floats(min_value=-100.0, max_value=100.0)


@st.composite
def _models(draw, specs=CATALOG_SPECS, located=True):
    m = parse_prior(draw(st.sampled_from(specs)), sigma=draw(_SIGMA))
    return replace(m, loc=draw(_LOC)) if located else m


def _close(a, b):
    return abs(a - b) <= TOL


@_PROPERTY
@given(_models(located=False), _LOC, _OFFSET, _ALPHA)
def test_location_equivariance(m, loc, offset, alpha):
    d = offset * m.sigma
    base = confidence_region(m, d, alpha)
    shifted = confidence_region(replace(m, loc=loc), loc + d, alpha)
    assert len(shifted.intervals) == len(base.intervals)
    for (lo, hi), (slo, shi) in zip(base.intervals, shifted.intervals):
        assert _close(slo, lo + loc) and _close(shi, hi + loc)


@_PROPERTY
@given(_models(), _OFFSET, _ALPHA)
def test_mirror_symmetry(m, offset, alpha):
    # every catalog prior is symmetric about its location
    d = offset * m.sigma
    right = confidence_region(m, m.loc + d, alpha)
    left = confidence_region(m, m.loc - d, alpha)
    mirrored = [(2 * m.loc - hi, 2 * m.loc - lo) for lo, hi in right.intervals]
    assert len(left.intervals) == len(mirrored)
    for (lo, hi), (mlo, mhi) in zip(left.intervals, reversed(mirrored)):
        assert _close(lo, mlo) and _close(hi, mhi)


@_PROPERTY
@given(_models(), _OFFSET, _ALPHA, _ALPHA)
def test_nested_in_alpha(m, offset, alpha1, alpha2):
    y = m.loc + offset * m.sigma
    small = confidence_region(m, y, max(alpha1, alpha2))
    large = confidence_region(m, y, min(alpha1, alpha2))
    for lo, hi in small.intervals:
        assert large.lo <= lo + TOL and hi <= large.hi + TOL


@_PROPERTY
@given(_models(), _OFFSET, _ALPHA)
def test_focal_containment(m, offset, alpha):
    region = confidence_region(m, m.loc + offset * m.sigma, alpha)
    assert region.contains(region.focal)


@_PROPERTY
@given(_models(), _OFFSET, _ALPHA)
def test_p_value_region_duality(m, offset, alpha):
    # the region is {theta0 : p(theta0) >= alpha}
    y = m.loc + offset * m.sigma
    region = confidence_region(m, y, alpha)
    width = region.hi - region.lo
    inside = [region.lo + f * width for f in (0.25, 0.5, 0.75)]
    grid = [region.focal, region.lo, region.hi] + inside
    p = p_value_curve(m, y, grid).pvals
    assert p[0] >= alpha
    assert abs(p[1] - alpha) <= TOL and abs(p[2] - alpha) <= TOL
    assert all(v >= alpha for v in p[3:])


_TIED_SPECS = tuple(s for s in CATALOG_SPECS + ("gaussian",)
                    if parse_prior(s).scale_tied)


@_PROPERTY
@given(st.sampled_from(_TIED_SPECS), st.floats(min_value=0.2, max_value=5.0),
       _OFFSET, _ALPHA)
def test_sigma_scaling(spec, sigma, offset, alpha):
    # C(sigma, y) = sigma C(1, y / sigma) when the prior scale is tied to sigma
    scaled = confidence_region(parse_prior(spec, sigma=sigma), offset * sigma,
                               alpha)
    base = confidence_region(parse_prior(spec), offset, alpha)
    assert _close(scaled.lo, sigma * base.lo)
    assert _close(scaled.hi, sigma * base.hi)


_POWER_TAIL_SPECS = ("horseshoe", "gpd", "bessel", "bp:a=1.5,b=2")


@_PROPERTY
@given(_models(_POWER_TAIL_SPECS),
       st.floats(min_value=1e3, max_value=1e5), st.booleans(), _ALPHA)
def test_power_tail_width_settles_to_limit(m, distance, below, alpha):
    # bounded influence: far from the location the region is the limit
    # interval around y, however far y is
    y = m.loc + (-distance if below else distance) * m.sigma
    li = limit_interval(m, alpha, direction="-inf" if below else "+inf")
    region = confidence_region(m, y, alpha)
    assert abs((region.lo - y) - li.lo_offset) < 0.05 * m.sigma
    assert abs((region.hi - y) - li.hi_offset) < 0.05 * m.sigma


# -- discrete families ------------------------------------------------------

_SHAPE = st.floats(min_value=0.1, max_value=10.0)


@st.composite
def _families(draw):
    family = draw(st.sampled_from(("binom", "poisson", "multinom")))
    if family == "binom":
        return NefModel("binom", n=draw(st.integers(1, 30)), a=(draw(_SHAPE),),
                        b=draw(_SHAPE))
    if family == "poisson":
        return NefModel("poisson", a=(draw(_SHAPE),),
                        p=draw(st.floats(min_value=0.05, max_value=0.95)))
    k = draw(st.integers(2, 4))
    return NefModel("multinom", n=draw(st.integers(1, 8)),
                    a=tuple(draw(_SHAPE) for _ in range(k)))


@st.composite
def _observed(draw):
    m = draw(_families())
    if m.family == "poisson":
        return m, draw(st.integers(0, 40))
    return m, draw(st.sampled_from(m.support()))


@st.composite
def _null(draw):
    m = draw(_families())
    eta = st.floats(min_value=-5.0, max_value=5.0)
    if m.family == "multinom":
        return m, tuple(draw(eta) for _ in range(m.k - 1))
    return m, draw(eta)


@_PROPERTY
@given(_observed(), _ALPHA)
def test_nef_focal_point_accepts_y(observed, alpha):
    # lambda is convex and grad lambda(y) = eta_hat, so y minimises
    # lambda_eta_hat and sorts first in the acceptance set at eta_hat
    m, y = observed
    eta_hat = m.fab_estimator(y)[0]
    assert y in acceptance_set(m, eta_hat, alpha).members


def _null_pmf(m, theta, y):
    if m.family == "binom":
        return stats.binom(m.n, theta).pmf(y)
    if m.family == "poisson":
        return stats.poisson(theta).pmf(y)
    return stats.multinomial(m.n, theta).pmf(y)


@_PROPERTY
@given(_null(), _ALPHA)
def test_nef_coverage_floor(null, alpha):
    m, eta = null
    accepted = acceptance_set(m, eta, alpha)
    assert accepted.attained_coverage >= 1.0 - alpha
    theta = m.mean_map(eta)
    mass = sum(_null_pmf(m, theta, y) for y in accepted.members)
    assert mass >= 1.0 - alpha - 1e-9
